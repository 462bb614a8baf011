"""The four benchmark workloads: inputs, one timed pass, correctness checks.

A workload's ``setup`` builds its inputs from the seed, ``run_pass`` does one
pass, timing each of its jobs through the clock it is given, and returns the
outputs, and ``check`` inspects those outputs after the jobs have been timed.
The engine is reached only through the public names of its modules, looked
up at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_sha256.json")

QUINTIC_COUNTS = [2875, 609250, 317206375, 242467530000, 229305888887625]
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def canonical(payload) -> str:
    """The canonical JSON text that ``qlefschetz compute`` writes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    """The stored output hashes; none (so every hash check fails) if the file is absent."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def size_counts(doc) -> tuple[int, int]:
    """(number of exact rational values, largest numerator/denominator bits) in a JSON document."""
    terms = bits = 0
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str) and _RATIONAL.fullmatch(node):
            value = Fraction(node)
            terms += 1
            bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    return terms, bits


class Workload:
    name = ""

    def __init__(self, size: str = "full") -> None:
        self.size = size
        self.expected = load_expected()

    def setup(self, q, seed: int, workdir: str):
        raise NotImplementedError

    def run_pass(self, q, inputs, clock):
        """One pass, each job timed by ``clock.time``; returns the outputs."""
        raise NotImplementedError

    def check(self, q, inputs, outputs) -> dict[str, str]:
        """Failed checks after a pass, as {job key: reason}; empty when all hold."""
        raise NotImplementedError

    def documents(self, inputs, outputs) -> list:
        """The pass's outputs as JSON documents, for the size counts."""
        raise NotImplementedError

    def output_hashes(self, inputs, outputs) -> dict[str, str]:
        """{key: sha256} of the pass's canonical outputs, as stored in expected_sha256.json."""
        return {}

    def _hashes_match(self, inputs, outputs) -> bool:
        stored = self.expected.get(self.name, {})
        return all(stored.get(k) == v for k, v in self.output_hashes(inputs, outputs).items())


class QuinticSmallMirror(Workload):
    """Non-equivariant quintic at D=30: j_reduced -> i_function -> small_mirror -> extract_instantons.

    This is the paper's headline result.  About 70% of the time goes to
    QSeries exp, compose and mul inside the inverse Novikov map, on rational
    scalars of about 300 bits.  The frame elimination is never run, so this
    workload tests series-algorithm gains and bypasses chart-extraction gains.
    """

    name = "quintic_small_mirror"

    def setup(self, q, seed, workdir):
        degree = {"full": 30, "smoke": 6}[self.size]
        return {"n": 5, "D": degree, "bundle": q.ring.BundleSpec((5,), equivariant=False)}

    def run_pass(self, q, inputs, clock):
        return clock.time(self.name, self._chain, q, inputs)

    def _chain(self, q, inputs):
        bundle = inputs["bundle"]
        J = q.gw.j_reduced(inputs["n"], inputs["D"])
        I = q.twist.i_function(J, bundle)
        M = q.mirror.small_mirror(I, bundle=bundle)
        counts = q.mirror.extract_instantons(M, len(QUINTIC_COUNTS))
        return canonical({"instantons": [str(c) for c in counts], "mirror": M.to_json_dict()})

    def check(self, q, inputs, text):
        doc = json.loads(text)
        problems = []
        if doc["instantons"] != [str(c) for c in QUINTIC_COUNTS]:
            problems.append(f"instanton numbers {doc['instantons']} differ from the literature")
        if doc["mirror"]["truncated"]:
            problems.append("result is marked truncated")
        if not self._hashes_match(inputs, text):
            problems.append("canonical output sha256 differs from the stored one")
        return {self.name: "; ".join(problems)} if problems else {}

    def documents(self, inputs, text):
        return [json.loads(text)]

    def output_hashes(self, inputs, text):
        return {f"D={inputs['D']}": sha256(text)}


class EquivariantBirkhoff(Workload):
    """Equivariant quintic at D=9, lambda_floor 2: j_reduced -> i_function -> birkhoff.

    About 80% of the time goes to ZSeries mul and exp with multi-term
    lambda-Laurent scalars, through chart extraction (103 ZSeries.mul calls
    per factorization).  The inverse map costs about 1%.  This workload tests
    chart-extraction and scalar-representation gains and bypasses QSeries
    algorithm gains.
    """

    name = "equivariant_birkhoff"
    _reference = None

    def setup(self, q, seed, workdir):
        degree = {"full": 9, "smoke": 3}[self.size]
        desc = q.ring.RingDescriptor(n=5, lambda_floor=2)
        return {"n": 5, "D": degree, "desc": desc, "bundle": q.ring.BundleSpec((5,), equivariant=True)}

    def run_pass(self, q, inputs, clock):
        return clock.time(self.name, self._chain, q, inputs)

    def _chain(self, q, inputs):
        bundle = inputs["bundle"]
        J = q.gw.j_reduced(inputs["n"], inputs["D"], desc=inputs["desc"])
        I = q.twist.i_function(J, bundle)
        M = q.mirror.birkhoff(I, bundle=bundle)
        return M, canonical(M.to_json_dict())

    def reference(self, q, inputs) -> dict:
        """J_out of the independent small_mirror route, as JSON; computed once, never timed."""
        if self._reference is None:
            plain = q.ring.BundleSpec((5,), equivariant=False)
            J = q.gw.j_reduced(inputs["n"], inputs["D"], desc=inputs["desc"])
            I = q.twist.i_function(J.lambda_zero_part(), plain)
            self._reference = q.mirror.small_mirror(I, bundle=plain).J_out.to_json_dict()
        return self._reference

    def check(self, q, inputs, outputs):
        M, text = outputs
        problems = []
        if M.J_out.lambda_zero_part().to_json_dict() != self.reference(q, inputs):
            problems.append("lambda -> 0 limit of J_out differs from the small_mirror route")
        if json.loads(text)["truncated"]:
            problems.append("result is marked truncated")
        if not self._hashes_match(inputs, outputs):
            problems.append("canonical output sha256 differs from the stored one")
        return {self.name: "; ".join(problems)} if problems else {}

    def documents(self, inputs, outputs):
        return [json.loads(outputs[1])]

    def output_hashes(self, inputs, outputs):
        return {f"D={inputs['D']}": sha256(outputs[1])}


# -- config_mix ----------------------------------------------------------------------

MIX_TASKS = ("i_function", "mirror", "serre_check", "qde_check", "s_matrix")
MIX_MODES = ("nonequivariant", "equivariant", "both")
CATALOG_SIZE = 72
# Equivariant jobs cost grows steeply with ambient_dim * max_degree; these caps
# keep every equivariant job below ~0.6 s on a 2-core x86 host.
EQUIVARIANT_MAX_DEGREE = {3: 5, 4: 4, 5: 3, 6: 3, 7: 2, 8: 2}
IDENTITY_FLAGS = ("holds", "unitary", "identity_holds")


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return sorted((b - a for a, b in zip([0] + cuts, cuts + [total])), reverse=True)


def config_catalog() -> list[dict]:
    """The fixed set of config_mix job shapes.

    ambient_dim runs over 3..8, max_degree over 2..6, all three modes and every
    task but ``instantons`` appear, and half of the equivariant-mode shapes
    have sum(l_i) > ambient_dim with the mirror task, which forces genuine
    frame corrections.  Non-equivariant mirror jobs keep sum(l_i) <= ambient_dim,
    where small_mirror applies.
    """
    rng = random.Random(20011)
    shapes = []
    for i in range(CATALOG_SIZE):
        n = 3 + i % 6
        mode = MIX_MODES[(i // 6) % 3]
        equivariant = mode != "nonequivariant"
        top = EQUIVARIANT_MAX_DEGREE[n] if equivariant else 6
        degree = 2 + (i // 18 + i) % (top - 1)
        tasks = set(rng.sample(MIX_TASKS, rng.randint(1, 3)))
        parts = rng.randint(1, 3)
        if mode == "equivariant" and i % 2:
            tasks.add("mirror")
            total = rng.randint(max(n + 1, parts), n + 2)
        else:
            total = rng.randint(max(2, parts), n)
        shapes.append({
            "ambient_dim": n,
            "degrees": _split(rng, total, parts),
            "max_degree": degree,
            "lambda_floor": 2,
            "mode": mode,
            "tasks": sorted(tasks),
        })
    return shapes


def shape_key(shape: dict) -> str:
    return json.dumps(shape, sort_keys=True, separators=(",", ":"))


def config_stream(seed: int, shapes: list[dict]) -> list[tuple[str, str]]:
    """The config_mix job stream for a seed, as [(shape key, config file text)].

    A pure function of the seed.  The seed fixes the order of the jobs and the
    text of each config file (key order, task order, indentation); every seed
    runs each shape once per pass, so every seed does the same work and each
    job's output can be checked against the sha256 stored for its shape.
    """
    rng = random.Random(seed)
    order = list(range(len(shapes)))
    rng.shuffle(order)
    stream = []
    for index in order:
        shape = dict(shapes[index])
        shape["tasks"] = rng.sample(shape["tasks"], len(shape["tasks"]))
        keys = rng.sample(sorted(shape), len(shape))
        text = json.dumps({k: shape[k] for k in keys}, indent=rng.choice([None, 1, 2, 4]))
        stream.append((shape_key(shapes[index]), text + "\n"))
    return stream


class ConfigMix(Workload):
    """A seeded stream of small ``compute --config`` jobs, run one after another.

    The jobs vary ambient_dim from 3 to 8, use split bundles (including
    sum(l_i) > n in equivariant mode, which forces real frame corrections), D
    from 2 to 6, all three modes and every task except instantons.  Most of
    the time goes to config parsing, gw, twist (serre_dual_i, s_matrix,
    qde_verify), JSON output and fixed per-call overhead.  A representation
    that wins at large D but loses on small series shows here as a worse
    job_p50_ms.  This is the only workload whose inputs depend on the seed.
    """

    name = "config_mix"

    def shapes(self) -> list[dict]:
        shapes = config_catalog()
        if self.size == "smoke":
            shapes = [s for s in shapes if s["ambient_dim"] * s["max_degree"] <= 10][:6]
        return shapes

    def setup(self, q, seed, workdir):
        os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        jobs = []
        for i, (key, text) in enumerate(config_stream(seed, self.shapes())):
            config = os.path.join(workdir, "configs", f"job_{i:03d}.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            jobs.append((key, config, os.path.join(workdir, "out", f"job_{i:03d}.json")))
        return jobs

    def run_pass(self, q, jobs, clock):
        return [clock.time(key, _compute, q, config, output) for key, config, output in jobs]

    def check(self, q, jobs, codes):
        stored = self.expected.get(self.name, {})
        problems = {}
        for (key, _config, output), code in zip(jobs, codes):
            if code != 0:
                problems[key] = f"exit {code}"
                continue
            with open(output, "rb") as fh:
                data = fh.read()
            reasons = []
            if sha256(data) != stored.get(key):
                reasons.append("output sha256 differs from the stored one")
            false_flags = sorted(_false_flags(json.loads(data)))
            if false_flags:
                reasons.append(f"identity flags false: {false_flags}")
            if reasons:
                problems[key] = "; ".join(reasons)
        return problems

    def documents(self, jobs, codes):
        docs = []
        for _key, _config, output in jobs:
            with open(output, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return docs

    def output_hashes(self, jobs, codes):
        hashes = {}
        for (key, _config, output), code in zip(jobs, codes):
            if code == 0:
                with open(output, "rb") as fh:
                    hashes[key] = sha256(fh.read())
        return hashes


def _compute(q, config: str, output: str):
    """Exit code of one compute job, or the exception it raised as text."""
    try:
        return q.cli.main(["compute", "--config", config, "--output", output])
    except Exception as exc:  # a traceback is a failed job, not a dead benchmark
        return f"{type(exc).__name__}: {exc}"


def _false_flags(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in IDENTITY_FLAGS and value is not True:
                yield f"{path}/{key}"
            yield from _false_flags(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _false_flags(value, f"{path}/{i}")


class VerifyAll(Workload):
    """``cli.run_verify("all")``, the path CI takes.

    It is the only workload that exercises fock, twist.stirling_check,
    cone_transform and the ring Euler-expansion grid.  Without it those
    layers go unmeasured.
    """

    name = "verify_all"

    def setup(self, q, seed, workdir):
        return {"full": "all", "smoke": "gw"}[self.size]

    def run_pass(self, q, suite, clock):
        return clock.time(self.name, lambda: canonical(q.cli.run_verify(suite)))

    def check(self, q, suite, text):
        report = json.loads(text)
        if report["passed"] is not True:
            return {self.name: f"verify failed: {report['first_failure']}"}
        return {}

    def documents(self, inputs, text):
        return [json.loads(text)]


WORKLOADS = {w.name: w for w in (QuinticSmallMirror, EquivariantBirkhoff, ConfigMix, VerifyAll)}
