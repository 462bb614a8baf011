"""Byte-identity gate: `compute` output on every shipped config is frozen.

The hashes are sha256 digests of the canonical JSON (sorted keys, indent 2,
final newline) that `qlefschetz compute` writes for each file in configs/.
An algorithmic change to the engine must leave every byte of them alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qlefschetz.cli import load_config, main, run_compute

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EXPECTED_SHA256 = {
    "bicubic_p5.json": "6f36e8e665d4cdf33ab94d4a78034fe6cb746bcc6769de0c0c22aaaf56741fb8",
    "cubic_surfaces_p4.json": "432d4556c2954ff1ce1eb5a3cb1b4593c8b67a3df9a681f482d2d75ae7ee0f85",
    "quintic.json": "d3b3d1bb976b5a80faf6793e9452d66c4a48736ec8930339176061a39e7a4a06",
    # Calabi-Yau complete intersections whose instanton counts (through D = 3)
    # match Libgober-Teitelbaum; recorded when the read-off left the quintic.
    "bicubic_p5_instantons.json": "ea4e4d750050b527ddebebd8eed88b43b34896049aebc03071712202fe09e782",
    "four_quadrics_p7.json": "106a3ac5ee620edbb777f9e969fb73c93b6569abd46bd4d7998336dd780eb122",
    "quadric_quartic_p5.json": "6eb9d3f0a7a2be83a09c3880fd762f1845b73189dd13988974b2c7fac9f18c1e",
    "two_quadrics_cubic_p6.json": "6b51577cc78f7db364bf39ff41a3f1e2979f484999b3af8e58b6a3cc8bea9575",
}


def test_every_config_has_a_recorded_hash():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(EXPECTED_SHA256)


@pytest.mark.parametrize("name", sorted(EXPECTED_SHA256))
def test_compute_output_is_byte_identical(name):
    config = load_config(json.loads((CONFIGS / name).read_text(encoding="utf-8")))
    text = json.dumps(run_compute(config), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXPECTED_SHA256[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_SHA256))
def test_compute_writes_the_pinned_bytes(name, tmp_path):
    out = tmp_path / "out.json"
    assert main(["compute", "--config", str(CONFIGS / name), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256[name]
