import hashlib
import json

import pytest

from qlefschetz.cli import main, run_verify
from qlefschetz.verify import SUITES

# sha256 of each suite's canonical report (json.dumps(sort_keys=True, indent=2)
# plus a newline): a renamed, reordered, added or dropped check changes it.
REPORT_SHA256 = {
    "fock": "30053115bcf582c325baa74c6828678da07305f6ca0adabb588ebf303e653881",
    "gw": "ff6b2a5493d9f3a57ba35b2ffa12cc0d0e1d9a520bb8d091f49ebefe5e8b2531",
    "mirror": "12d6adf4e9cee11bfb7baa1b898106c84c5f336895ce1e78703d4ffdea31ac8d",
    "ring": "3ccea94f3d5f7e4d0b3863338a688e97acf6c26187a5fbfb1857b5f64079886c",
    "series": "2f7921ec273022d49ff4dec91d4149d7e65db0edd4bdfb4d91ea2f8cb9b67b85",
    "twist": "f6cc4e2a958c8199e6bbde446c78fc197084170ec4ed9a7fcea5b0f47bc6a3cf",
}


def test_every_suite_has_a_pinned_report():
    assert sorted(REPORT_SHA256) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_is_green(suite):
    report = run_verify(suite)
    assert report["passed"], report["first_failure"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_writes_the_pinned_bytes(suite, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[suite]
