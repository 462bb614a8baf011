"""Span recorder that times calls into the qlefschetz package from outside.

The tracer never edits the engine's source.  It replaces the public
functions and methods named in ``TRACE_POINTS`` with thin wrappers, in
every place the running process can reach them: the defining class or
module, every ``from .x import f`` binding in another qlefschetz module,
and module-level registries such as ``verify.SUITES``.  ``restore()`` puts
the originals back.

Each traced call becomes one span ``(name, start_ns, end_ns, parent)``.
Spans are kept in one flat ``array('q')`` while the pass runs and written
out by ``write()`` when the benchmark ends.  Self time is a span's duration
minus the time its direct child spans cover; it is accumulated per name as
the spans close, so the per-layer table needs no second pass over the spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

PACKAGE = "qlefschetz"

# (module, attribute path) pairs; the span name is "<module>.<public name>",
# with operator methods named after the operator (``__mul__`` -> ``mul``).
TRACE_POINTS = (
    ("ring", "LambdaScalar.__mul__"),
    ("ring", "LambdaScalar.__add__"),
    ("ring", "CohElement.__mul__"),
    ("ring", "euler_expansion_check"),
    ("series", "QSeries.__mul__"),
    ("series", "QSeries.exp"),
    ("series", "QSeries.compose"),
    ("series", "QSeries.invert"),
    ("series", "ZSeries.__mul__"),
    ("series", "ZSeries.exp"),
    ("series", "ZSeries.compose_novikov"),
    ("series", "ZSeries.to_json_dict"),
    ("series", "directional_derivative"),
    ("gw", "j_reduced"),
    ("gw", "frame_series"),
    ("gw", "qde_verify"),
    ("gw", "s_matrix"),
    ("twist", "i_function"),
    ("twist", "serre_dual_i"),
    ("twist", "cone_transform"),
    ("twist", "stirling_check"),
    ("mirror", "small_mirror"),
    ("mirror", "birkhoff"),
    ("mirror", "tangency_solve"),
    ("mirror", "extract_instantons"),
    ("fock", "poisson_bracket"),
    ("fock", "quantize"),
    ("fock", "projective_identity_check"),
    ("cli", "load_config"),
    ("cli", "run_compute"),
    ("cli", "run_verify"),
    ("cli", "main"),
    ("verify", "ring_suite"),
    ("verify", "series_suite"),
    ("verify", "gw_suite"),
    ("verify", "twist_suite"),
    ("verify", "mirror_suite"),
    ("verify", "fock_suite"),
)

# The entry points that each perform one factorization.
FACTORIZATIONS = ("mirror.small_mirror", "mirror.birkhoff", "mirror.tangency_solve")


def span_name(module: str, path: str) -> str:
    *owner, attr = path.split(".")
    return ".".join([module, *owner, attr.strip("_")])


SPAN_NAMES = tuple(span_name(m, p) for m, p in TRACE_POINTS)


class Tracer:
    """Records spans for the calls listed in TRACE_POINTS while ``active``."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.active = False
        self.rows = array("q")  # name id, start ns, end ns, parent row (-1 at top)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self._stack: list[list[int]] = []  # [row, ns covered by children]
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for nid, (module, path) in enumerate(TRACE_POINTS):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(nid, original)
            if cls_path:
                # Aliases such as ``__rmul__ = __mul__`` share the function object.
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._replace(owner, key, wrapper)
                continue
            # A function is rebound in every module that imported it by name,
            # and in module-level registries such as ``verify.SUITES``.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(vars(mod), key, wrapper)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, wrapper)

    def _replace(self, target, key: str, wrapper) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = wrapper
        else:
            self._undo.append((target, key, target.__dict__[key]))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, nid: int, fn):
        tracer = self
        rows = self.rows
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            row = len(rows) >> 2
            rows.extend((nid, 0, 0, stack[-1][0] if stack else -1))
            frame = [row, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rows[4 * row + 1] = start
                rows[4 * row + 2] = end
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    @property
    def span_count(self) -> int:
        return len(self.rows) >> 2

    def calls_under(self, callee: str, ancestors: tuple[str, ...]) -> int:
        """Count spans named ``callee`` that have an ancestor span in ``ancestors``."""
        rows = self.rows
        want = self.names.index(callee)
        anc = {self.names.index(a) for a in ancestors}
        inside: list[bool] = []  # per row: the row or one of its ancestors is in anc
        count = 0
        for row in range(self.span_count):
            nid, parent = rows[4 * row], rows[4 * row + 3]
            under = parent >= 0 and inside[parent]
            inside.append(under or nid in anc)
            if under and nid == want:
                count += 1
        return count

    def write(self, stem: str) -> None:
        """Write ``<stem>.json`` (name table and row layout) and ``<stem>.spans``."""
        with open(stem + ".spans", "wb") as fh:
            self.rows.tofile(fh)
        meta = {
            "names": self.names,
            "spans": self.span_count,
            "layout": f"int64 rows in {sys.byteorder}-endian order: "
                      "name index, start ns, end ns, parent row (-1 for none)",
            "clock": "time.perf_counter_ns",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")
