import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qlefschetz import cli
from qlefschetz.cli import (
    MAX_AMBIENT_DIM,
    MAX_DEGREE,
    MAX_DEGREE_SUM,
    MAX_EQUIVARIANT_FACTORS,
    ConfigError,
    load_config,
    main,
)
from qlefschetz.series import ZSeries


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


QUINTIC_CONFIG = {
    "ambient_dim": 5,
    "degrees": [5],
    "max_degree": 3,
    "lambda_floor": 2,
    "mode": "nonequivariant",
    "tasks": ["mirror", "instantons"],
}


def test_quintic_compute(tmp_path):
    cfg = write_config(tmp_path, QUINTIC_CONFIG)
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"]["instantons"]["counts"][0] == "2875"
    assert data["results"]["mirror"]["nonequivariant"]["F"]["1"] == {"0": "120"}
    assert data["results"]["mirror"]["nonequivariant"]["small_projection"] is True


def test_cubic_c_coefficients_vanish(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "ambient_dim": 5,
            "degrees": [3],
            "max_degree": 4,
            "mode": "nonequivariant",
            "tasks": ["mirror"],
        },
    )
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    block = data["results"]["mirror"]["nonequivariant"]
    assert all(cell == {} for cell in block["c_coeffs"])
    assert block["tau_of_q"] == {}


def test_invalid_instanton_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ambient_dim": 4, "degrees": [5], "max_degree": 2, "tasks": ["instantons"]},
    )
    assert main(["compute", "--config", cfg, "--output", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "degrees,mode",
    [
        ([6], "nonequivariant"),
        ([3], "nonequivariant"),
        ([2, 3], "nonequivariant"),  # sum l_i = n, but a surface
        ([5], "equivariant"),
    ],
)
def test_instantons_refuse_non_calabi_yau_configs(tmp_path, degrees, mode):
    cfg = write_config(
        tmp_path, dict(QUINTIC_CONFIG, degrees=degrees, mode=mode, max_degree=2)
    )
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert "instantons" in error["message"]


def test_instantons_refuse_max_degree_zero(tmp_path):
    out = tmp_path / "out.json"
    zero = write_config(tmp_path, dict(QUINTIC_CONFIG, max_degree=0))
    via_flag = write_config(tmp_path, QUINTIC_CONFIG, name="flag.json")
    for argv in (["--config", zero], ["--config", via_flag, "--degree", "0"]):
        assert main(["compute", *argv, "--output", str(out)]) == 2
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "ConfigError"
        assert "max_degree >= 1" in error["message"]


def test_mirror_and_instantons_factor_once(tmp_path, monkeypatch):
    original, calls = cli.small_mirror, []

    def counting_small_mirror(I, bundle=None):
        calls.append(bundle)
        return original(I, bundle=bundle)

    monkeypatch.setattr(cli, "small_mirror", counting_small_mirror)
    cfg = write_config(tmp_path, QUINTIC_CONFIG)
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["instantons"]["counts"][0] == "2875"
    assert len(calls) == 1


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        load_config({"ambient_dim": 1, "degrees": [], "max_degree": 0, "tasks": ["mirror"]})
    with pytest.raises(ConfigError):
        load_config(
            {"ambient_dim": 3, "degrees": [2], "max_degree": 1, "tasks": ["bogus"]}
        )
    with pytest.raises(ConfigError):
        load_config(
            {"ambient_dim": 3, "degrees": [2], "max_degree": 1, "tasks": ["mirror"],
             "extra": 1}
        )


def test_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, QUINTIC_CONFIG)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compute", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["compute", "--config", cfg, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_overrides(tmp_path):
    cfg = write_config(tmp_path, QUINTIC_CONFIG)
    out = tmp_path / "out.json"
    assert (
        main(["compute", "--config", cfg, "--output", str(out), "--degree", "1"]) == 0
    )
    data = json.loads(out.read_text())
    assert data["config"]["max_degree"] == 1
    assert data["results"]["instantons"]["counts"] == ["2875"]


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert cli._parser() is cli._parser()
    cfg = write_config(tmp_path, dict(QUINTIC_CONFIG, max_degree=2))
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out), "--degree", "3"]) == 0
    assert json.loads(out.read_text())["config"]["max_degree"] == 3
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["max_degree"] == 2
    assert main(["verify", "--suite", "gw", "--output", str(out)]) == 0
    assert main(["verify", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["suites"] == sorted(cli.SUITES)


def test_the_parser_is_not_built_at_import():
    code = "import qlefschetz.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout.strip() == "0", proc.stderr


def test_equivariant_modes_and_series_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "ambient_dim": 4,
            "degrees": [2],
            "max_degree": 2,
            "lambda_floor": 2,
            "mode": "both",
            "tasks": ["i_function", "serre_check", "qde_check", "s_matrix"],
        },
    )
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"]["qde_check"]["holds"] is True
    assert data["results"]["s_matrix"]["unitary"] is True
    for mode in ("equivariant", "nonequivariant"):
        assert data["results"]["serre_check"][mode]["identity_holds"] is True
        series = ZSeries.from_json_dict(data["results"]["i_function"][mode])
        assert series.to_json_dict() == data["results"]["i_function"][mode]


def test_math_error_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "ambient_dim": 5,
            "degrees": [6],
            "max_degree": 2,
            "mode": "nonequivariant",
            "tasks": ["mirror"],
        },
    )
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 3
    data = json.loads(out.read_text())
    assert data["error"]["type"] == "UnitError"
    assert "positive z-powers" in data["error"]["message"]


def test_verify_suite_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "fock", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["first_failure"] is None
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("flag", ["--degree", "--lambda-floor"])
@pytest.mark.parametrize("payload", [[], 3, "quintic", None])
def test_override_on_non_object_config_is_a_config_error(tmp_path, flag, payload):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out), flag, "3"]) == 2
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "ConfigError", "message": "config must be a JSON object"}


def test_max_degree_bound():
    base = dict(QUINTIC_CONFIG)
    base["max_degree"] = MAX_DEGREE
    assert load_config(base)["max_degree"] == MAX_DEGREE
    base["max_degree"] = MAX_DEGREE + 1
    with pytest.raises(ConfigError, match="max_degree"):
        load_config(base)


def test_degree_override_goes_through_the_bound(tmp_path):
    cfg = write_config(tmp_path, QUINTIC_CONFIG)
    out = tmp_path / "out.json"
    argv = ["compute", "--config", cfg, "--output", str(out), "--degree"]
    assert main(argv + [str(MAX_DEGREE + 1)]) == 2
    assert json.loads(out.read_text())["error"]["type"] == "ConfigError"
    assert main(argv + ["-1"]) == 2


@pytest.mark.parametrize("key", ["max_degree", "lambda_floor", "ambient_dim"])
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_an_integer(key, value):
    config = dict(QUINTIC_CONFIG, **{key: value})
    with pytest.raises(ConfigError, match=key):
        load_config(config)


def test_bool_bundle_degree_rejected():
    with pytest.raises(ConfigError, match="degrees"):
        load_config(dict(QUINTIC_CONFIG, degrees=[True], tasks=["mirror"]))


@pytest.mark.parametrize(
    "config,key",
    [
        # ran unbounded before ambient_dim was capped
        ({"ambient_dim": 400, "degrees": [1], "max_degree": 2, "tasks": ["qde_check"]},
         "ambient_dim"),
        # died converting a coefficient of more than 4300 digits to a string
        ({"ambient_dim": 5, "degrees": [3000], "max_degree": 2, "tasks": ["i_function"]},
         "degrees"),
        # inside every size cap, but ran 157 s
        ({"ambient_dim": 10, "degrees": [24], "max_degree": 30, "mode": "equivariant",
          "tasks": ["i_function"]},
         "equivariant"),
    ],
)
def test_oversized_config_is_a_config_error(tmp_path, config, key):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out.json"
    assert main(["compute", "--config", cfg, "--output", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert key in error["message"]


def test_size_caps_are_inclusive():
    at_caps = dict(
        QUINTIC_CONFIG,
        ambient_dim=MAX_AMBIENT_DIM,
        degrees=[MAX_DEGREE_SUM - 1, 1],
        tasks=["i_function"],
    )
    assert load_config(at_caps)["ambient_dim"] == MAX_AMBIENT_DIM
    with pytest.raises(ConfigError, match="ambient_dim"):
        load_config(dict(at_caps, ambient_dim=MAX_AMBIENT_DIM + 1))
    with pytest.raises(ConfigError, match="degrees"):
        load_config(dict(at_caps, degrees=[MAX_DEGREE_SUM, 1]))


def test_equivariant_cost_bound_is_inclusive():
    at_bound = dict(
        QUINTIC_CONFIG,
        degrees=[16],
        max_degree=MAX_EQUIVARIANT_FACTORS // 16,
        mode="equivariant",
        tasks=["i_function"],
    )
    assert load_config(at_bound)["max_degree"] * 16 == MAX_EQUIVARIANT_FACTORS
    over = dict(at_bound, degrees=[13], max_degree=5)
    assert 13 * 5 == MAX_EQUIVARIANT_FACTORS + 1
    for mode in ("equivariant", "both"):
        with pytest.raises(ConfigError, match="equivariant"):
            load_config(dict(over, mode=mode))
    # the bound is on equivariant bundle work only
    assert load_config(dict(over, mode="nonequivariant"))["max_degree"] == 5
    assert load_config(dict(over, tasks=["qde_check"]))["max_degree"] == 5


@pytest.mark.parametrize(
    "text,message",
    [
        (b"\xff\xfe{}", "utf-8"),
        (b"[" * 200_000 + b"]" * 200_000, "recursion"),
        (b'{"ambient_dim": ' + b"1" * 5000 + b"}", "digits"),
    ],
    ids=["not-utf8", "nested-200000-deep", "5000-digit-integer"],
)
def test_an_unreadable_config_is_a_config_error(tmp_path, capsys, text, message):
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_bytes(text)
    assert main(["compute", "--config", str(cfg), "--output", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert message in error["message"].lower()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_an_output_in_a_missing_directory_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, command
):
    # The directory is checked before the job: neither job may run.
    def ran(*args):
        raise AssertionError("the job ran before the output was checked")

    monkeypatch.setattr(cli, "run_compute", ran)
    monkeypatch.setattr(cli, "run_suites", ran)
    out = tmp_path / "missing" / "out.json"
    if command == "compute":
        argv = ["compute", "--config", write_config(tmp_path, QUINTIC_CONFIG), "--degree", "1"]
    else:
        argv = ["verify", "--suite", "ring"]
    assert main(argv + ["--output", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("qlefschetz: cannot write the output: ")
    assert stderr.count("\n") == 1 and str(out) in stderr
    assert not out.parent.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300)
@given(
    key=st.sampled_from(
        ["ambient_dim", "degrees", "max_degree", "lambda_floor", "mode", "tasks", "unknown"]
    ),
    value=JSON_VALUES,
)
def test_any_json_value_of_a_config_key_loads_or_is_a_config_error(key, value):
    try:
        load_config(dict(QUINTIC_CONFIG, **{key: value}))
    except ConfigError:
        pass


@settings(max_examples=200)
@given(text=st.binary(max_size=64))
def test_any_bytes_as_a_config_exit_2_with_an_error_payload(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("bytes")
    cfg, out = tmp / "config.json", tmp / "out.json"
    cfg.write_bytes(text)
    assert main(["compute", "--config", str(cfg), "--output", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["type"] == "ConfigError"


def verdicts(value):
    """Every holds, unitary and identity_holds flag in a compute result."""
    if isinstance(value, dict):
        own = [v for k, v in value.items() if k in ("holds", "unitary", "identity_holds")]
        return own + [flag for v in value.values() for flag in verdicts(v)]
    return []


def small_configs(n, degrees, D, modes, tasks):
    return st.fixed_dictionaries({
        "ambient_dim": n,
        "degrees": degrees,
        "max_degree": D,
        "lambda_floor": st.integers(0, 4),
        "mode": st.sampled_from(modes),
        "tasks": st.lists(st.sampled_from(tasks), min_size=1, max_size=3, unique=True),
    })


# instantons is admitted for the non-equivariant quintic from max_degree 1 on
SMALL_CONFIGS = small_configs(
    st.integers(2, 5),
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.integers(0, 3),
    cli.MODES,
    [t for t in cli.TASKS if t != "instantons"],
) | small_configs(
    st.just(5), st.just([5]), st.integers(1, 3), ["nonequivariant"], cli.TASKS
).map(lambda c: dict(c, tasks=sorted({"instantons", *c["tasks"]})))


@settings(max_examples=300)
@given(config=SMALL_CONFIGS)
def test_a_small_admitted_config_computes_or_exits_2_or_3(tmp_path_factory, config):
    load_config(config)
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "out.json"
    code = main(["compute", "--config", write_config(tmp, config), "--output", str(out)])
    assert code in (0, 2, 3)
    payload = json.loads(out.read_text())
    if code:
        assert set(payload) == {"error"}
    else:
        assert all(flag is True for flag in verdicts(payload["results"]))
