"""Exact coverage of space by simplicial cones, via central arrangements.

Each cone is an intersection of halfspaces bounded by the hyperplanes
spanned by its facets, so membership is constant on the open cells of the
central arrangement of all facet hyperplanes.  Coverage of every
full-dimensional cell therefore implies coverage of all of space (the cones
are closed and the open cells are dense), which turns the continuous
covering question into a finite, exactly decidable one.

A cell is an int bit mask, bit k set on the positive side of hyperplane k,
everywhere in the package; only what `enumerate_cells` yields and the keys
of `per_cell_cone` are sign vectors.  Cells are enumerated breadth-first
over wall-crossing adjacency.  Flipping bit j of a cell gives a cell exactly
when the other bits are those of a wall on hyperplane j, i.e. of a cell of
the arrangement restricted to H_j.  In the plane those walls are the two
rays of the line, read off in closed form; above it they are enumerated by
the same procedure one dimension lower, in integer coordinates of H_j, and
kept as mask keys alone; a flip is then a table lookup.  The loop yields
each cell's mask and the hyperplane crossed to reach it, and an exact
integer witness is built only for a cell that is output: the wall table of
that one hyperplane is rebuilt with points, and the wall point is pushed
off H_j by an exact integer step.  No LP, floating point, perturbation or
symbolic infinitesimals are involved, and every witness that leaves this
module is re-checked strictly.  The hyperplanes must be distinct: a
repeated one leaves no wall point off both copies.

The cones are read through one table, `depth._ConeFamily`, whose shared
normals are the facet hyperplanes.  `covers_space` hands it each cell's
mask: a cone with independent generators is the side of each of its d
facet hyperplanes that it lies on, so a cell lies in it iff their bits
agree on those d hyperplanes.  An uncovered family's witness is an exact
integer point of its first uncovered cell, found without an LP: the cell's
own witness, or, when that lies in a degenerate cone, a seeded point of the
cell off every degenerate span.

Exact coverage runs up to the coverage limit (dimension 4) by default; the
cell count grows like 2 * sum_k C(m-1, k) for m hyperplanes (about 10^4
cells from 16 generic cones at d = 4), and beyond it `covers_space` needs
`allow_high_dimension` (80 hyperplanes, millions of cells at d = 5: hours).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

from .depth import ConeSpec, _ConeFamily, cone_contains
from .errors import InputError, check_dimension
from .exactgeom import (
    IntVec,
    Point,
    kernel_vector,
    primitive_normal,
    scale_to_integers,
    vec_dot,
)

SignVector = tuple[int, ...]  # a cell as it leaves the package
_GENERIC_SEED = 0x1D8A  # fixed: cell enumeration is a deterministic function of its input
# per dimension: the seeded generator and the (bound, offset) draws made so far
_GENERIC_DRAWS: dict[int, tuple[random.Random, list[tuple[int, IntVec]]]] = {}


@dataclass(frozen=True)
class CentralHyperplane:
    """Hyperplane through the origin, given by any nonzero rational normal and
    held as the canonical integer one: primitive, first nonzero entry positive."""

    normal: IntVec

    def __post_init__(self):
        ints, _ = scale_to_integers(self.normal)
        if all(e == 0 for e in ints):
            raise InputError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", primitive_normal(ints))


@dataclass(frozen=True)
class CoverageCertificate:
    covered: bool
    cells_checked: int
    hyperplanes: tuple[CentralHyperplane, ...]
    uncovered_direction: Optional[Point] = None
    per_cell_cone: Optional[dict[SignVector, int]] = None

    def to_json_dict(self) -> dict:
        out = {
            "covered": self.covered,
            "cells_checked": self.cells_checked,
            "hyperplanes": [[str(e) for e in h.normal] for h in self.hyperplanes],
        }
        if self.covered:
            out["per_cell_cone"] = {
                "".join("+" if s > 0 else "-" for s in sigma): idx
                for sigma, idx in sorted(self.per_cell_cone.items())
            }
        else:
            out["uncovered_direction"] = [str(c) for c in self.uncovered_direction]
        return out


def _check_cones(cones: Sequence[ConeSpec]) -> int:
    if not cones:
        raise InputError("need at least one cone")
    d = cones[0].dimension
    for cone in cones:
        if cone.dimension != d:
            raise InputError("all cones must share one dimension")
    return d


def facet_hyperplanes(cones: Sequence[ConeSpec]) -> tuple[CentralHyperplane, ...]:
    """Deduplicated hyperplanes spanned by the (d-1)-subsets of each cone's
    generators, in canonical sorted order: an independent cone's facet rows,
    a dependent cone's normals of those subsets that span a (d-1)-space."""
    _check_cones(cones)
    return tuple(CentralHyperplane(n) for n in _ConeFamily.of_cones(cones).normals)


def _generic_direction(normals: Sequence[IntVec], d: int, w: Optional[IntVec] = None,
                       reach: int = 0) -> tuple[IntVec, int]:
    """A seeded integer point off every hyperplane in `normals`, and its mask.

    Offsets v with coordinates in [-bound, bound] are drawn, bound doubling
    per try.  Given an integer point w, x = m*w + v with m = 1 + bound*reach:
    when reach >= ||n||_1 for every hyperplane n of w's cell, then
    |n.v| < m <= |m n.w|, so x stays in that open cell.  The offsets of each
    dimension are one seeded sequence, drawn once and replayed.
    """
    if d not in _GENERIC_DRAWS:
        _GENERIC_DRAWS[d] = random.Random(_GENERIC_SEED), []
    rng, draws = _GENERIC_DRAWS[d]
    k = 0
    while True:
        if k == len(draws):
            bound = 64 << k
            draws.append((bound, tuple(rng.randint(-bound, bound) for _ in range(d))))
        bound, x = draws[k]
        if w is not None:
            x = tuple((1 + bound * reach) * a + b for a, b in zip(w, x))
        dots = [vec_dot(n, x) for n in normals]
        if all(dots):
            return x, sum(1 << i for i, t in enumerate(dots) if t > 0)
        k += 1


# The first nonzero generic draw of dimension 1: the start of every
# one-dimensional restriction, so it scales one ray of each planar wall table.
_RAY_SCALE = _generic_direction([(1,)], 1)[0][0]


def _signs(mask: int, m: int) -> SignVector:
    """The sign vector of the cell of `mask` among m hyperplanes."""
    return tuple([1 if mask >> k & 1 else -1 for k in range(m)])


def _walls(normals: Sequence[IntVec], j: int,
           pointed: bool) -> dict[int, Optional[IntVec]]:
    """Every wall on hyperplane j, keyed by the signs of the other
    hyperplanes there as a bit mask (bit j clear), with one point of it when
    `pointed` (else None).  The normals must be distinct.

    The walls are the cells of the arrangement restricted to H_j.  With p a
    nonzero coordinate of h = normals[j], the integer vectors
    b_i = h_p e_i - h_i e_p (i != p) span H_j, and hyperplane k restricts to
    the normal (n_k . b_i)_i.

    In the plane H_j is the line of b, and its walls are the rays b and -b,
    keyed by one dot product per other line.  Their points are those of the
    one-dimensional restriction: c b on the ray of sign c and -sign(c) b on
    the other, c = `_RAY_SCALE` (b alone for a single line).

    In other dimensions the restricted arrangement is enumerated one
    dimension lower.  Restricted normals that coincide up to sign are merged;
    each merged slot keeps the bits of the hyperplanes on its positive and
    on its negative side, and a wall's key is read off per slot from the
    restricted cell's mask.
    """
    h = normals[j]
    d = len(h)
    p = next(i for i, e in enumerate(h) if e)
    free = [i for i in range(d) if i != p]
    if d == 2:
        b = [0, 0]
        b[free[0]], b[p] = h[p], -h[free[0]]
        above = 0
        for k, n in enumerate(normals):
            if n[0] * b[0] + n[1] * b[1] > 0:
                above |= 1 << k
        below = ((1 << len(normals)) - 1) ^ (1 << j) ^ above
        if not pointed:
            return {above: None, below: None}
        if len(normals) == 1:
            return {0: tuple(b)}
        c = _RAY_SCALE
        s = 1 if c > 0 else -1
        near, far = (above, below) if s > 0 else (below, above)
        return {near: (c * b[0], c * b[1]), far: (-s * b[0], -s * b[1])}
    merged: dict[IntVec, int] = {}
    sides: list[list[int]] = []  # per slot: bits on its positive, negative side
    for k, n in enumerate(normals):
        if k == j:
            continue
        r = tuple([h[p] * n[i] - h[i] * n[p] for i in free])
        slot = merged.setdefault(primitive_normal(r), len(merged))
        if slot == len(sides):
            sides.append([0, 0])
        sides[slot][next(e for e in r if e) < 0] |= 1 << k
    restricted = _Arrangement(list(merged), d - 1, pointed)
    table = {}
    for tau, k in restricted.masks():
        key = 0
        t = tau
        for pos, neg in sides:
            key |= pos if t & 1 else neg
            t >>= 1
        wall = None
        if pointed:
            y = restricted.point(tau, k)
            wall = [0] * d
            for i, e in zip(free, y):
                wall[i] = h[p] * e
                wall[p] -= h[i] * e
            wall = tuple(wall)
        table[key] = wall
    return table


def _step_off(normals: Sequence[IntVec], tilt: Sequence[int], cand: int,
              j: int, wall: IntVec) -> IntVec:
    """Push a wall point of hyperplane j into the cell of mask `cand` on its
    far side: wall + t * s_j * h, s_j the sign that bit j of `cand` gives,
    with t half the smallest distance at which another hyperplane would be
    reached (t = 1 if none is), scaled to a primitive integer vector.
    tilt[k] is n_k . h."""
    h = normals[j]
    flipped = 1 if cand >> j & 1 else -1
    value = drift = None
    for k, (n, nh) in enumerate(zip(normals, tilt)):
        s = 1 if cand >> k & 1 else -1
        dr = -flipped * s * nh  # rate of approach to hyperplane k; < 0 at k = j
        if dr > 0:
            v = s * vec_dot(n, wall)
            if value is None or v * drift < value * dr:
                value, drift = v, dr
    if value is None:
        x = [w + flipped * e for w, e in zip(wall, h)]
    else:
        x = [2 * drift * w + flipped * value * e for w, e in zip(wall, h)]
    g = gcd(*x)
    return tuple(e // g for e in x)


class _Arrangement:
    """The full-dimensional cells of the central arrangement of distinct
    primitive integer normals in dimension d: bit masks first (bit k set on
    the positive side of normals[k]), exact points on demand.

    `masks` crosses walls breadth-first: bit j of a cell flips to a cell
    exactly when the mask with bit j cleared is the key of a wall on
    hyperplane j.  The walls of each hyperplane are found on its first flip
    (`_walls`: in closed form in the plane, else by the same procedure one
    dimension lower), and kept for this arrangement only; unless `pointed`
    is set they are keys alone, all the way down.  `point` gives the integer
    point of one cell from the hyperplane j crossed to reach it: it rebuilds
    the wall table of that j with points (once) and pushes the wall point
    off H_j (`_step_off`).  The point does not depend on whether the table
    was pointed from the start, so `pointed` is only for callers that want
    the point of every cell.
    """

    def __init__(self, normals: Sequence[IntVec], d: int, pointed: bool = False):
        self.normals = normals
        self.dimension = d
        self.pointed = pointed
        self._walls: dict[int, dict[int, Optional[IntVec]]] = {}
        self._tilts: dict[int, list[int]] = {}
        self._start: Optional[IntVec] = None

    def masks(self) -> Iterator[tuple[int, Optional[int]]]:
        """Each cell's mask once, with the hyperplane crossed to reach it
        (None for the first cell), breadth-first from a seeded generic
        cell."""
        normals = self.normals
        if not normals:
            yield 0, None
            return
        self._start, start = _generic_direction(normals, self.dimension)
        yield start, None
        queue = deque([start])
        seen = {start}
        walls = self._walls
        bits = [1 << j for j in range(len(normals))]
        while queue:
            sigma = queue.popleft()
            for j, bit in enumerate(bits):
                table = walls.get(j)
                if table is None:
                    table = walls[j] = _walls(normals, j, self.pointed)
                if (sigma & ~bit) not in table:
                    continue
                cand = sigma ^ bit
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
                    yield cand, j

    def point(self, sigma: int, j: Optional[int]) -> IntVec:
        """The integer point of the cell of mask `sigma` that `masks`
        reached across hyperplane j."""
        if j is None:
            if not self.normals:
                return tuple(1 if i == 0 else 0 for i in range(self.dimension))
            return self._start
        key = sigma & ~(1 << j)
        wall = self._walls[j][key]
        if wall is None:
            self._walls[j] = _walls(self.normals, j, True)
            wall = self._walls[j][key]
        tilt = self._tilts.get(j)
        if tilt is None:
            h = self.normals[j]
            tilt = self._tilts[j] = [vec_dot(n, h) for n in self.normals]
        return _step_off(self.normals, tilt, sigma, j, wall)

    def witness(self, sigma: int, j: Optional[int]) -> IntVec:
        """The `point` of the cell of mask `sigma`, re-checked strictly
        against every hyperplane."""
        x = self.point(sigma, j)
        for k, n in enumerate(self.normals):
            s = 1 if sigma >> k & 1 else -1
            if s * vec_dot(n, x) <= 0:
                raise AssertionError("wall crossing produced a bad witness")
        return x


def enumerate_cells(hyperplanes: Sequence[CentralHyperplane]
                    ) -> Iterator[tuple[SignVector, Point]]:
    """Every realizable full-dimensional sign vector exactly once, each with an
    exact interior witness, in breadth-first wall-crossing order from an
    initial generic cell.  Mixed dimensions and repeated hyperplanes are refused."""
    if not hyperplanes:
        raise InputError("need at least one hyperplane")
    normals = [h.normal for h in hyperplanes]
    d = len(normals[0])
    first: dict[IntVec, int] = {}
    for k, n in enumerate(normals):
        if len(n) != d:
            raise InputError(f"hyperplane {k} has {len(n)} coordinates, "
                             f"hyperplane 0 has {d}")
        i = first.setdefault(n, k)
        if i != k:
            raise InputError(f"hyperplane {k} repeats hyperplane {i} "
                             f"(normal ({', '.join(str(e) for e in n)}))")
    arrangement = _Arrangement(normals, d, pointed=True)
    for sigma, j in arrangement.masks():
        yield (_signs(sigma, len(normals)),
               tuple(Fraction(e) for e in arrangement.witness(sigma, j)))


def _verified_uncovered(direction: Point, cones: Sequence[ConeSpec]) -> bool:
    return not any(cone_contains(cone, direction) for cone in cones)


def _uncovered_direction(cones: Sequence[ConeSpec], w: Optional[IntVec] = None,
                         hyperplanes: Sequence[CentralHyperplane] = ()) -> Point:
    """A direction in no cone, given that no full-dimensional cone contains
    the open cell of `hyperplanes` holding the integer point w (all of space
    when w is None): only the dependent cones' spans can meet that cell, so
    a point of it off one kernel normal per dependent cone will do."""
    d = cones[0].dimension
    spans = [kernel_vector(c.int_generators, d) for c in cones if c.facet_rows is None]
    reach = max((sum(abs(e) for e in h.normal) for h in hyperplanes), default=0)
    direction = tuple(Fraction(e) for e in _generic_direction(spans, d, w, reach)[0])
    if not _verified_uncovered(direction, cones):
        raise AssertionError("a direction off every degenerate span lies in a cone")
    return direction


def covers_space(cones: Sequence[ConeSpec], *,
                 allow_high_dimension: bool = False) -> CoverageCertificate:
    """Decide whether the union of the closed cones is all of space.

    Covered means every full-dimensional cell of the facet arrangement lies
    inside at least one cone with independent generators (degenerate cones
    never earn coverage credit, though their facets contribute hyperplanes).
    Each cell's cone is read from its mask, and no cell has a witness
    built but the one reported: on failure the uncovered direction is an
    exact integer point of the first uncovered cell, verified to lie in no
    cone: the cell's own witness, or, when that lies in a degenerate cone, a
    point of the same cell found by a seeded integer search
    (`_uncovered_direction`).
    """
    d = _check_cones(cones)
    check_dimension("exact coverage", d, allow_high_dimension)
    family = _ConeFamily.of_cones(cones)
    hyperplanes = tuple(CentralHyperplane(n) for n in family.normals)
    if all(cone.facet_rows is None for cone in cones):
        return CoverageCertificate(False, 0, hyperplanes,
                                   uncovered_direction=_uncovered_direction(cones))
    mapping: dict[SignVector, int] = {}
    checked = 0
    arrangement = _Arrangement(family.normals, d)
    for sigma, j in arrangement.masks():
        checked += 1
        hit = family.first_independent(sigma)
        if hit is None:
            x = arrangement.witness(sigma, j)
            witness = tuple(Fraction(e) for e in x)
            if not _verified_uncovered(witness, cones):
                witness = _uncovered_direction(cones, x, hyperplanes)
            return CoverageCertificate(False, checked, hyperplanes,
                                       uncovered_direction=witness)
        mapping[_signs(sigma, len(hyperplanes))] = hit
    return CoverageCertificate(True, checked, hyperplanes, per_cell_cone=mapping)


def monte_carlo_refuter(cones: Sequence[ConeSpec], samples: int,
                        seed: int) -> Optional[Point]:
    """Sample seeded integer directions and return the first lying in no cone,
    exactly re-verified, or None.  Never claims coverage."""
    d = _check_cones(cones)
    if samples < 1:
        raise InputError("need at least one sample")
    fast = [cone.facet_rows for cone in cones if cone.facet_rows is not None]
    slow = [cone for cone in cones if cone.facet_rows is None]
    rng = random.Random(seed)
    span = 1 << 21
    for _ in range(samples):
        x = tuple(rng.getrandbits(22) - span for _ in range(d))
        while all(e == 0 for e in x):
            x = tuple(rng.getrandbits(22) - span for _ in range(d))
        hit = False
        for rows in fast:
            for r in rows:
                if vec_dot(r, x) < 0:
                    break
            else:
                hit = True
                break
        if hit:
            continue
        direction = tuple(Fraction(e) for e in x)
        if any(cone_contains(cone, direction) for cone in slow):
            continue
        if not _verified_uncovered(direction, cones):
            raise AssertionError("fast membership disagreed with exact membership")
        return direction
    return None
