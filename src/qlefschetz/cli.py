"""Batch front end: deterministic JSON in, deterministic JSON out.

Two subcommands:

    compute --config cfg.json [--output out.json] [--degree D] [--lambda-floor L]
    verify  [--suite NAME] [--output out.json]

Exit codes: 0 success; 1 failing verification check; 2 invalid configuration,
or an output that cannot be written; 3 mathematical error raised by an engine
module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .errors import EngineError
from .gw import _guarded_frame, _s_matrix, j_reduced
from .mirror import birkhoff, calabi_yau_degree, extract_instantons, small_mirror
from .ring import BundleSpec, RingDescriptor
from .twist import i_function, serre_dual_i
from .verify import SUITES, run_suites

TASKS = ("i_function", "mirror", "instantons", "serre_check", "qde_check", "s_matrix")
MODES = ("equivariant", "nonequivariant", "both")
# Largest max_degree a config (or --degree) may request.  Cost grows steeply
# with the degree; the non-equivariant quintic at D=30 is the largest run the
# benchmark makes, and a larger request is refused instead of run unbounded.
MAX_DEGREE = 30
# Largest ambient_dim and largest sum of the bundle degrees l_i a config may
# request (configs and the benchmark use at most 8 and 10).  Rationals are
# written as decimal strings, and Python refuses to convert an integer of more
# than 4300 digits.  The largest integers come from the hypergeometric product
# over sum(l_i) * D <= 720 linear factors, not from n: at the caps with
# degrees [24] and D = 30, the i_function and serre_check outputs have at most
# 1686 digits for n = 2 and 1574 for n = 10.
MAX_AMBIENT_DIM = 10
MAX_DEGREE_SUM = 24
# Largest sum(l_i) * max_degree (the linear factors in the top hypergeometric
# product) an equivariant bundle task may request.  Its lam-Laurent cost grows
# much faster than this count: (n, degrees, D) = (10, [24], 30) took 157 s on a
# 2-vCPU x86 VM.  The equivariant quintic at D = 9 has 45 factors.
MAX_EQUIVARIANT_FACTORS = 64


class ConfigError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """True for JSON integers; bool is a subclass of int but not one of them."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(data: dict) -> dict:
    _require(isinstance(data, dict), "config must be a JSON object")
    known = {"ambient_dim", "degrees", "max_degree", "lambda_floor", "mode", "tasks"}
    unknown = set(data) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    n = data.get("ambient_dim")
    _require(
        _is_int(n) and 2 <= n <= MAX_AMBIENT_DIM,
        f"ambient_dim must be an integer from 2 to {MAX_AMBIENT_DIM}",
    )
    degrees = data.get("degrees", [])
    _require(
        isinstance(degrees, list) and all(_is_int(l) and l >= 1 for l in degrees),
        "degrees must be a list of integers >= 1",
    )
    _require(
        sum(degrees) <= MAX_DEGREE_SUM,
        f"degrees must sum to at most {MAX_DEGREE_SUM}",
    )
    D = data.get("max_degree")
    _require(
        _is_int(D) and 0 <= D <= MAX_DEGREE,
        f"max_degree must be an integer from 0 to {MAX_DEGREE}",
    )
    floor = data.get("lambda_floor", 2)
    _require(_is_int(floor) and floor >= 0, "lambda_floor must be an integer >= 0")
    mode = data.get("mode", "nonequivariant")
    _require(mode in MODES, f"mode must be one of {MODES}")
    tasks = data.get("tasks", [])
    _require(
        isinstance(tasks, list) and tasks and all(t in TASKS for t in tasks),
        f"tasks must be a non-empty subset of {TASKS}",
    )
    bundle_tasks = {"i_function", "mirror", "instantons", "serre_check"}
    if bundle_tasks & set(tasks):
        _require(degrees, "bundle degrees required for the requested tasks")
        _require(
            mode == "nonequivariant" or sum(degrees) * D <= MAX_EQUIVARIANT_FACTORS,
            "equivariant bundle tasks need sum(degrees) * max_degree at most "
            f"{MAX_EQUIVARIANT_FACTORS}",
        )
    if "instantons" in tasks:
        bundle = BundleSpec(tuple(degrees), equivariant=(mode == "equivariant"))
        _require(
            calabi_yau_degree(n, bundle) is not None,
            "the instantons task needs a non-equivariant Calabi-Yau threefold "
            "bundle: ambient_dim - 4 degrees summing to ambient_dim",
        )
        _require(D >= 1, "the instantons task needs max_degree >= 1")
    return {
        "ambient_dim": n,
        "degrees": degrees,
        "max_degree": D,
        "lambda_floor": floor,
        "mode": mode,
        "tasks": sorted(tasks),
    }


def run_compute(config: dict) -> dict:
    """Execute the configured tasks; output is a pure function of the config.

    Each (mode, bundle) is twisted and factored at most once per call, and
    the frame of J and its QDE guard once, for ``qde_check`` and ``s_matrix``.
    """
    n = config["ambient_dim"]
    D = config["max_degree"]
    desc = RingDescriptor(n=n, lambda_floor=config["lambda_floor"])
    J = j_reduced(n, D, desc=desc)
    modes = MODES[:2] if config["mode"] == "both" else (config["mode"],)
    bundles = {
        mode: BundleSpec(tuple(config["degrees"]), equivariant=(mode == "equivariant"))
        for mode in modes
    }

    @cache
    def base(equivariant: bool):
        return J if equivariant else J.lambda_zero_part()

    guarded = cache(lambda: _guarded_frame(J, n))

    @cache
    def twisted(bundle: BundleSpec):
        return i_function(base(bundle.equivariant), bundle)

    @cache
    def factored(bundle: BundleSpec):
        route = birkhoff if bundle.equivariant else small_mirror
        return route(twisted(bundle), bundle=bundle)

    def as_block(result):
        data = result.to_json_dict()
        return data, data["truncated"]

    def serre_check(bundle):
        Istar, ok, failure = serre_dual_i(base(bundle.equivariant), bundle)
        return {
            "series": Istar.to_json_dict(),
            "identity_holds": ok,
            "first_failure": None if failure is None else list(failure),
        }, Istar.truncated

    per_mode = {
        "i_function": lambda bundle: as_block(twisted(bundle)),
        "mirror": lambda bundle: as_block(factored(bundle)),
        "serre_check": serre_check,
    }
    results: dict = {}
    flags: dict = {}
    for task in config["tasks"]:
        if task in per_mode:
            results[task], flags[task] = {}, False
            for mode, bundle in bundles.items():
                results[task][mode], truncated = per_mode[task](bundle)
                flags[task] |= truncated
        elif task == "qde_check":
            slot = guarded()[1]
            results[task] = {
                "holds": slot is None,
                "first_failure": None if slot is None else list(slot),
            }
            flags[task] = J.truncated
        elif task == "s_matrix":
            S, ok, failure = _s_matrix(*guarded(), D)
            results[task] = {
                "unitary": ok,
                "first_failure": None if failure is None else list(failure),
                "matrix": S.to_json_dict(),
            }
            flags[task] = S.truncated
        elif task == "instantons":
            counts = extract_instantons(factored(bundles["nonequivariant"]), D)
            results[task] = {
                "counts": [str(c) for c in counts],
                "d_max": D,
                "p3_consistency_residual": "0",
            }
            flags[task] = False
    return {"config": config, "results": results, "truncation_flags": flags}


def run_verify(suite: str) -> dict:
    """Run the named identity suite ('all' or a module name); report per check."""
    names = sorted(SUITES) if suite == "all" else [suite]
    checks = run_suites(names)
    return {
        "suites": names,
        "checks": [c.to_json_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "first_failure": next(
            (c.to_json_dict() for c in checks if not c.passed), None
        ),
    }


def _canonical(value, indent: str, out: list) -> None:
    """Append the chunks of json.dumps(value, sort_keys=True, indent=2), nested at indent.

    json's encoder is pure Python whenever indent is set.  This one writes the
    same bytes for the values the engine emits and raises TypeError on others.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif not value and isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a string")
            out.append(sep + _quote(key) + ": ")
            _canonical(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _canonical(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None or isinstance(value, int):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"{type(value).__name__} is not written by the canonical writer")


def _emit(payload: dict, output: str | None, code: int) -> int:
    """Write the payload and return code; if it cannot be written, one line on stderr and 2."""
    out: list = []
    _canonical(payload, "", out)
    text = "".join(out) + "\n"
    try:
        if output is None or output == "-":
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"qlefschetz: cannot write the output: {exc}\n")
        return 2
    return code


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="qlefschetz",
        description="Exact mirror-symmetry computations for projective hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run the configured pipeline")
    p_compute.add_argument("--config", required=True, help="path to a JSON config")
    p_compute.add_argument("--output", default=None, help="output path (default stdout)")
    p_compute.add_argument("--degree", type=int, default=None, help="override max_degree")
    p_compute.add_argument(
        "--lambda-floor", type=int, default=None, help="override lambda_floor"
    )

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=("all",) + tuple(sorted(SUITES)),
        help="which suite to run",
    )
    p_verify.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


def _error(kind: str, exc: Exception) -> dict:
    return {"error": {"type": kind, "message": str(exc)}}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A missing output directory fails before the job.  The file is not opened
    # (--config may name it); _emit reports any later write error.
    folder = os.path.dirname(args.output or "") or "."
    if args.output != "-" and not os.path.isdir(folder):
        sys.stderr.write(f"qlefschetz: cannot write the output: {args.output}: no such directory\n")
        return 2

    if args.command == "verify":
        report = run_verify(args.suite)
        return _emit(report, args.output, 0 if report["passed"] else 1)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        _require(isinstance(raw, dict), "config must be a JSON object")
        if args.degree is not None:
            raw["max_degree"] = args.degree
        if args.lambda_floor is not None:
            raw["lambda_floor"] = args.lambda_floor
        config = load_config(raw)
    except (OSError, ValueError, RecursionError, ConfigError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and integers
        # too long to convert; RecursionError covers too deep a nesting.
        return _emit(_error("ConfigError", exc), args.output, 2)
    try:
        bundle = run_compute(config)
    except EngineError as exc:
        return _emit(_error(type(exc).__name__, exc), args.output, 3)
    return _emit(bundle, args.output, 0)


if __name__ == "__main__":
    sys.exit(main())
