"""The S-matrix stored z-power by z-power, as an independent oracle.

Each cell is a map z_exp -> QSeries, built from the z-view ``slice(d)`` of
every frame element, and the unitarity residual T^t(-z) g T(z) - g is summed
one product of two z-power pieces at a time.  ``tests/test_s_matrix_cells.py``
compares ``gw.SMatrix``, which keeps one q-series per weight offset, with it.

``full_unitarity`` is the residual of ``gw._unitarity`` built on all n x n
entries, where ``gw`` builds only the entries a <= b, with the q-series' own
``*`` and ``+`` in place of the engine's queued sums of products.  ``entry_to_json_dict``
is ``SMatrix.to_json_dict`` as it was before it rendered each term from the
cells' numerators: it builds one q-series per z-exponent with ``entry(b, a)``
and renders each.  ``cells_by_components`` is ``gw._matrix_from_frame`` as
it was before it read the frame through one transposition (now
``ring._transposed``): it splits every class into its components and stacks
each cell's scalars into q-series.
"""

from __future__ import annotations

from fractions import Fraction

from qlefschetz import QSeries, ZSeries


def zkeyed_matrix_from_frame(frame: list[ZSeries]) -> list[list[dict[int, QSeries]]]:
    """entries[b][a]: the P^b coefficient of frame element a, as z_exp -> QSeries."""
    desc = frame[0].desc
    n = desc.n
    D = frame[0].max_degree
    cells: list[list[dict[int, dict]]] = [[{} for _ in range(n)] for _ in range(n)]
    for a, T in enumerate(frame):
        for d in T.slices:
            for ze, el in T.slice(d).items():
                for b, c in enumerate(el.components):
                    if not c.is_zero():
                        cells[b][a].setdefault(ze, {})[d] = c
    return [
        [{ze: QSeries(desc, D, coeffs) for ze, coeffs in cell.items()} for cell in row]
        for row in cells
    ]


def cells_by_components(frame: list[ZSeries]) -> list[list[dict[int, QSeries]]]:
    """cells[b][a]: the P^b components of frame element a by weight offset, as q-series."""
    desc, D = frame[0].desc, frame[0].max_degree
    n = desc.n
    # coefficients per cell and weight offset, {d: c}, before any series is built
    coeffs: list[list[dict[int, dict]]] = [[{} for _ in range(n)] for _ in range(n)]
    for a, T in enumerate(frame):
        for d, row in T.slices.items():
            for w, el in row.items():
                for b, c in enumerate(el.components):
                    if not c.is_zero() or c.truncated:
                        coeffs[b][a].setdefault(w - a + n * d, {})[d] = c
    return [[{k: QSeries(desc, D, c) for k, c in cell.items()} for cell in row] for row in coeffs]


def zkeyed_add_cell_product(acc: dict[int, QSeries], x: dict[int, QSeries], y: dict[int, QSeries]):
    """Add x(-z) * y(z) into acc, z-power by z-power."""
    for z1, q1 in x.items():
        factor = -q1 if z1 % 2 else q1
        for z2, q2 in y.items():
            prod = factor * q2
            if prod.is_zero():
                continue
            old = acc.get(z1 + z2)
            acc[z1 + z2] = prod if old is None else old + prod


def zkeyed_unitarity(entries, desc, D):
    """(ok, first_failure) of T^t(-z) g T(z) - g, g the anti-diagonal Gram matrix."""
    n = len(entries)
    first_failure = None
    ok = True
    for a in range(n):
        for b in range(n):
            acc: dict[int, QSeries] = {}
            for i in range(n):
                zkeyed_add_cell_product(acc, entries[i][a], entries[n - 1 - i][b])
            if a + b == n - 1:
                old, one = acc.get(0), QSeries.one(desc, D)
                acc[0] = -one if old is None else old - one
            for ze in sorted(acc):
                if not acc[ze].is_zero():
                    ok = False
                    if first_failure is None:
                        first_failure = (a, b, ze, min(acc[ze].coeffs))
    return ok, first_failure


def zkeyed_q_zero_z_zero(entries) -> list[list[Fraction]]:
    out = []
    for row in entries:
        out.append([])
        for cell in row:
            q0 = cell.get(0)
            out[-1].append(q0.coefficient(0).as_rational() if q0 else Fraction(0))
    return out


def zkeyed_to_json_dict(entries, D) -> dict:
    data = [
        [{str(ze): cell[ze].to_json_dict() for ze in sorted(cell)} for cell in row]
        for row in entries
    ]
    return {"size": len(entries), "max_degree": D, "entries": data}


def entry_to_json_dict(S) -> dict:
    """The JSON of ``gw.SMatrix`` S, one q-series per entry and z-exponent, each rendered."""
    span = range(S.size)
    views = [[S.entry(b, a).items() for a in span] for b in span]
    data = [[{str(ze): s.to_json_dict() for ze, s in view} for view in row] for row in views]
    return {"size": S.size, "max_degree": S.max_degree, "entries": data}


def at_minus_z(s: QSeries, shift: int) -> QSeries:
    """A cell's series at offset k read at -z (shift = a - b + k): odd z-exponents flip sign."""
    n = s.desc.n
    nums = {key: -c if (shift - n * key[0] - key[1]) % 2 else c for key, c in s._nums.items()}
    return s._like(nums, s._den, s._trunc)


def full_unitarity(S):
    """(ok, first_failure, truncated) of the residual of ``gw.SMatrix`` S, every entry built.

    Entry (a, b) is sum_i T_{i,a}(-z) T_{n-1-i,b}(z) - delta_{a+b,n-1}, one
    q-series per pair of weight offsets, in the loop order a, then b.
    """
    n, one, first_failure = S.size, QSeries.one(S.desc, S.max_degree), None
    truncated = any(s.truncated for row in S.cells for cell in row for s in cell.values())
    for a in range(n):
        minus = [{k: at_minus_z(s, a - i + k) for k, s in S.cells[i][a].items()} for i in range(n)]
        for b in range(n):
            res = {0: -one} if a + b == n - 1 else {}
            for i in range(n):
                for k1, x in minus[i].items():
                    for k2, y in S.cells[n - 1 - i][b].items():
                        res[k1 + k2] = res[k1 + k2] + x * y if k1 + k2 in res else x * y
            truncated |= any(s.truncated for s in res.values())
            view = S._z_view(res, a + b - n + 1)
            if view and first_failure is None:
                ze = min(view)
                first_failure = (a, b, ze, min(view[ze].coeffs))
    return first_failure is None, first_failure, truncated
