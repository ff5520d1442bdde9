"""Independent exact checks of csdepth CLI reports.

Nothing here imports csdepth.  Coordinates are parsed with
`fractions.Fraction`; reported coefficients are re-checked in exact rational
arithmetic, and every containment question is answered by solving one small
square system by fraction-free Gauss-Jordan elimination: a different method
from the package's Cramer minors and its simplex LP.  A failed check raises
`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

Point = tuple[Fraction, ...]


class CheckFailed(Exception):
    """A report disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def integer_vector(point: Sequence[Fraction]) -> tuple[int, ...]:
    """A positive multiple of the point with integer entries."""
    m = 1
    for c in point:
        m = m * c.denominator // gcd(m, c.denominator)
    return tuple(int(c * m) for c in point)


def solution_signs(columns: Sequence[Sequence[int]],
                   rhs: Sequence[int]) -> Optional[list[int]]:
    """Signs of the x with sum_j x[j] * columns[j] == rhs, or None if the
    columns are linearly dependent.

    Fraction-free Gauss-Jordan elimination: every entry stays an integer
    (each division by the previous pivot is exact) and the final diagonal
    is the determinant up to sign, so x[i] = m[i][n] / m[i][i].
    """
    n = len(columns)
    m = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return None
            m[k], m[r] = m[r], m[k]
        prow = m[k]
        p = prow[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = p
    return [_sign(m[i][n]) * _sign(m[i][i]) for i in range(n)]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def simplex_signs(vertices: Sequence[Point]) -> list[int]:
    """Signs of the origin's affine coordinates in the simplex, up to a
    positive factor per vertex.

    With the first d vertices linearly independent, the affine dependencies
    of the d+1 vertices are spanned by (y, 1) with sum_i y[i] v[i] = -v[d];
    the origin lies in the closed simplex iff y >= 0.  Signs do not change
    when a vertex is scaled by a positive factor, so integer multiples do.
    """
    return _kernel_signs([integer_vector(v) for v in vertices])


def _kernel_signs(ints: Sequence[Sequence[int]]) -> list[int]:
    y = solution_signs(ints[:-1], tuple(-e for e in ints[-1]))
    require(y is not None, "d vertices are linearly dependent: input not in general position")
    return y + [1]


def in_cone(generators: Sequence[Point], x: Point) -> bool:
    signs = solution_signs([integer_vector(g) for g in generators], integer_vector(x))
    require(signs is not None, "cone generators are linearly dependent")
    return all(s >= 0 for s in signs)


# -- documents ---------------------------------------------------------------

def unwrap(doc: dict) -> dict:
    """The result of a CLI report envelope, or the document itself."""
    require(isinstance(doc, dict), "report is not a JSON object")
    if "result" in doc and "manifest" in doc:
        doc = doc["result"]
    require(isinstance(doc, dict), "result is not a JSON object")
    return doc


def parse_classes(doc: dict, classes: int, size: int) -> list[list[Point]]:
    d = doc.get("d")
    raw = doc.get("colours")
    require(isinstance(raw, list) and len(raw) == classes,
            f"expected {classes} colour classes")
    out = []
    for cls in raw:
        require(isinstance(cls, list) and len(cls) == size,
                f"expected {size} points per colour")
        pts = []
        for coords in cls:
            require(isinstance(coords, list) and len(coords) == d,
                    f"expected {d} coordinates per point")
            pts.append(tuple(Fraction(c) for c in coords))
        out.append(pts)
    return out


def parse_configuration(doc: dict, d: int) -> list[list[Point]]:
    doc = unwrap(doc)
    require(doc.get("d") == d, f"expected a configuration of dimension {d}")
    return parse_classes(doc, d + 1, d + 1)


# -- configurations ----------------------------------------------------------

def check_configuration(colours: list[list[Point]]) -> None:
    """The origin lies strictly inside every colour class's simplex."""
    for c, cls in enumerate(colours):
        require(all(s > 0 for s in simplex_signs(cls)),
                f"origin not strictly inside colour {c}")


def depth_set(colours: list[list[Point]]) -> set[tuple[int, ...]]:
    """Transversals whose closed simplex contains the origin."""
    n = len(colours)
    ints = [[integer_vector(p) for p in cls] for cls in colours]
    hits = set()
    for choice in itertools.product(range(n), repeat=n):
        if min(_kernel_signs([ints[c][j] for c, j in enumerate(choice)])) >= 0:
            hits.add(choice)
    return hits


def theorem_bound(d: int) -> int:
    return (d + 2) ** 2 // 4


# -- per-command checks ------------------------------------------------------

def check_depth(colours: list[list[Point]], doc: dict,
                expected: set[tuple[int, ...]]) -> None:
    """Depth equals the oracle's count, and every witness is exact."""
    res = unwrap(doc)
    d = len(colours) - 1
    witnesses = res.get("witnesses")
    require(isinstance(witnesses, list), "depth report has no witness list")
    require(res.get("depth") == len(expected),
            f"depth {res.get('depth')} != oracle depth {len(expected)}")
    require(len(witnesses) == len(expected), "witness count differs from depth")
    seen = set()
    for w in witnesses:
        choice = tuple(w["choice"])
        lam = [Fraction(c) for c in w["coeffs"]]
        require(len(choice) == d + 1 and len(lam) == d + 1, "witness has wrong length")
        require(all(v >= 0 for v in lam), f"witness {choice}: negative coefficient")
        require(sum(lam) == 1, f"witness {choice}: coefficients do not sum to 1")
        verts = [colours[c][j] for c, j in enumerate(choice)]
        for k in range(d):
            require(sum(l * v[k] for l, v in zip(lam, verts)) == 0,
                    f"witness {choice}: combination misses the origin")
        seen.add(choice)
    require(seen == expected, "witness choices differ from the oracle's simplices")


def check_witness(colours: list[list[Point]], doc: dict,
                  expected: set[tuple[int, ...]]) -> bool:
    """Distinct origin-containing simplices, at least the theorem's bound.
    Returns whether the construction fell back to full enumeration."""
    res = unwrap(doc)
    d = len(colours) - 1
    bound = theorem_bound(d)
    simplices = [tuple(s) for s in res.get("simplices", [])]
    require(res.get("bound") == bound, f"bound {res.get('bound')} != {bound}")
    require(res.get("count") == len(simplices), "count differs from simplex list")
    require(len(set(simplices)) == len(simplices), "duplicate simplices")
    require(set(simplices) <= expected, "a simplex does not contain the origin")
    require(len(simplices) >= bound, f"{len(simplices)} simplices, bound {bound}")
    return any(stage.get("fallback") for stage in res.get("stage_log", []))


def pair_cones(pairs: list[list[Point]]) -> list[list[Point]]:
    d = len(pairs)
    return [[pairs[i][bits[i]] for i in range(d)]
            for bits in itertools.product((0, 1), repeat=d)]


def check_cross_check(pairs: list[list[Point]], doc: dict, covered: bool) -> None:
    """The verdict matches the family's construction; an uncovered direction
    lies in no cone."""
    res = unwrap(doc)
    require(res.get("covered") is covered,
            f"verdict covered={res.get('covered')}, construction says {covered}")
    cells = res.get("cells_checked")
    require(isinstance(cells, int), "cells_checked missing")
    if covered:
        mapping = res.get("per_cell_cone", {})
        require(len(mapping) == cells, "per_cell_cone does not cover every cell")
        return
    x = tuple(Fraction(c) for c in res.get("uncovered_direction", []))
    require(len(x) == len(pairs) and any(x), "uncovered direction missing or zero")
    for gens in pair_cones(pairs):
        require(not in_cone(gens, x), "uncovered direction lies in a cone")


def cone_count(colours: list[list[Point]], subset: Sequence[int], x: Point) -> int:
    """Cones over one point from each colour of the subset that contain x."""
    count = 0
    for choice in itertools.product(range(len(colours)), repeat=len(subset)):
        gens = [colours[c][j] for c, j in zip(subset, choice)]
        if in_cone(gens, x):
            count += 1
    return count


def check_cross(colours: list[list[Point]], subset: Sequence[int], doc: dict) -> None:
    """A found position is certified and its direction lies in 1..d-1 cones.
    An exhaustive failure claims at least d cones everywhere, and reports no
    more than the oracle's count at the first candidate, the antipode of
    colour 0's first point."""
    res = unwrap(doc)
    d = len(subset)
    if res.get("found"):
        require(res.get("certificate", {}).get("covered") is True,
                "found cross position without a covering certificate")
        x = tuple(Fraction(c) for c in res["direction"])
        require(1 <= cone_count(colours, subset, x) <= d - 1,
                "cross direction is not in 1..d-1 cones")
        return
    low = res.get("min_d_depth")
    require(isinstance(low, int) and low >= d,
            f"exhaustive search failed but reports min cone count {low} < {d}")
    antipode = tuple(-c for c in colours[0][0])
    require(low <= cone_count(colours, subset, antipode),
            "min cone count exceeds the count at the first candidate")
    require(isinstance(res.get("candidates_tried"), int) and res["candidates_tried"] >= 1,
            "no candidates tried")


def check_search(doc: dict, d: int) -> int:
    """The best depth meets mu(d) = d^2+1 (Sarrabezolles 2015) and equals the
    oracle's depth of the reported configuration.  Returns the best depth."""
    res = unwrap(doc)
    best = res.get("best_depth")
    require(isinstance(best, int) and best >= d * d + 1,
            f"best depth {best} below mu({d}) = {d * d + 1}")
    colours = parse_configuration(res.get("best_config"), d)
    require(len(depth_set(colours)) == best,
            "best depth differs from the oracle's depth of best_config")
    return best
