"""Simplex containment, cone membership, colourful depth, and subset depth.

Containment is decided with closed semantics throughout: the origin on the
boundary of a simplex or cone counts as contained, and degenerate vertex or
generator tuples are decided on the (lower-dimensional) closed hull by exact
feasibility rather than rejected.  Nondegenerate instances are decided by
signs of integer cofactors (simplex weights, cone facet rows), degenerate
ones by one exact LP; both paths are exact.

Points may be scaled to integer vectors freely: multiplying any single
vertex or generator by a positive rational never changes a containment
verdict, only the convex/conic coefficients, which are unscaled afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .configuration import (
    Configuration,
    Transversal,
    enumerate_transversals,
    transversal_points,
)
from .errors import InputError
from .exactgeom import (
    IntVec,
    Point,
    Relation,
    cone_facet_rows,
    int_det,
    is_zero_vec,
    max_slack_point,
    normal_to_span,
    scale_to_integers,
    vec_dot,
    vec_neg,
)


@dataclass(frozen=True)
class ConeSpec:
    """Simplicial cone pointed at the origin: nonnegative span of d generators.

    On construction it stores its integer form as plain attributes, outside
    equality, hashing and repr: `int_generators` (each generator scaled by
    `scale_to_integers`) and their `cone_facet_rows` as `facet_rows` (None
    when the generators are dependent)."""

    generators: tuple[Point, ...]

    def __post_init__(self):
        d = len(self.generators)
        if d < 1:
            raise InputError("a cone needs at least one generator")
        for g in self.generators:
            if len(g) != d:
                raise InputError(f"expected {d} coordinates per generator, got {len(g)}")
            if is_zero_vec(g):
                raise InputError("cone generators must be nonzero")
        ints = tuple(scale_to_integers(g)[0] for g in self.generators)
        object.__setattr__(self, "int_generators", ints)
        object.__setattr__(self, "facet_rows", cone_facet_rows(ints))

    @property
    def dimension(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class DepthReport:
    """Exact depth count with one re-verifiable witness per containing simplex."""

    depth: int
    witnesses: tuple[tuple[Transversal, tuple[Fraction, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "witnesses": [
                {"choice": list(choice), "coeffs": [str(c) for c in coeffs]}
                for choice, coeffs in self.witnesses
            ],
        }


def _origin_weights(ints: Sequence[IntVec], strict: IntVec) -> Optional[Point]:
    """Exact weights w >= 0 with sum w_i v_i = 0 and strict . w > 0, or None."""
    n = len(ints)
    rows = [(tuple(1 if k == i else 0 for k in range(n)), Relation.GE) for i in range(n)]
    rows += [(tuple(v[k] for v in ints), Relation.EQ) for k in range(len(ints[0]))]
    rows.append((strict, Relation.GT))
    return max_slack_point(rows, n)


def _contains_origin_scaled(scaled: Sequence[tuple[IntVec, int]], cs: Sequence[int]
                            ) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Closed containment of the origin in the hull of d+1 pre-scaled vertices,
    given their weights `cs`: the cofactors of det[v_i, 1] along its column
    of ones, up to one common sign, so that sum_i cs_i v_i = 0.

    Cofactor signs decide when the vertices are affinely independent, exact
    feasibility otherwise.  Returned coefficients are barycentric for the
    original (unscaled) vertices.
    """
    n = len(scaled)
    if sum(cs) != 0:
        if not (all(c >= 0 for c in cs) or all(c <= 0 for c in cs)):
            return False, None
        weights = [cs[i] * scaled[i][1] for i in range(n)]
        s = sum(weights)
        return True, tuple(Fraction(w, s) for w in weights)
    # degenerate tuple: decide on the closed lower-dimensional hull
    sol = _origin_weights([v for v, _ in scaled], (1,) * n)
    if sol is None:
        return False, None
    weights = [sol[i] * scaled[i][1] for i in range(n)]
    s = sum(weights)
    return True, tuple(w / s for w in weights)


def simplex_contains_origin(vertices: Sequence[Point]
                            ) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Does the closed hull of d+1 points in dimension d contain the origin?

    Returns (verdict, coefficients); the coefficients are the unique
    barycentric coordinates when the vertices are affinely independent, and
    some exact convex combination hitting the origin otherwise.
    """
    vertices = tuple(vertices)
    if not vertices:
        raise InputError("need vertices")
    d = len(vertices) - 1
    if d < 1:
        raise InputError("need at least two vertices")
    for v in vertices:
        if len(v) != d:
            raise InputError(f"expected {d} coordinates per vertex, got {len(v)}")
    scaled = [scale_to_integers(v) for v in vertices]
    columns = [tuple(v[k] for v, _ in scaled) for k in range(d)]
    return _contains_origin_scaled(scaled, normal_to_span(columns, d + 1) or (0,) * (d + 1))


def origin_in_convex_hull(points: Sequence[Point]) -> bool:
    """Closed containment of the origin in the hull of any number of points."""
    points = tuple(points)
    if not points:
        raise InputError("need at least one point")
    scaled = [scale_to_integers(p)[0] for p in points]
    return _origin_weights(scaled, (1,) * len(points)) is not None


def _cone_contains_ints(gens: Sequence[IntVec], rows: Optional[tuple[IntVec, ...]],
                        x: IntVec) -> bool:
    """x in the cone of integer generators whose `cone_facet_rows` are `rows`."""
    if rows is not None:
        for r in rows:
            if vec_dot(r, x) < 0:
                return False
        return True
    # dependent generators: x in cone iff some lam >= 0, t > 0 solve G.lam = t.x
    d = len(gens)
    return _origin_weights([*gens, vec_neg(x)], (0,) * d + (1,)) is not None


def cone_contains(cone: ConeSpec, x: Point) -> bool:
    """Is x a nonnegative combination of the cone's generators?"""
    d = cone.dimension
    if len(x) != d:
        raise InputError(f"expected {d} coordinates, got {len(x)}")
    return _cone_contains_ints(cone.int_generators, cone.facet_rows,
                               scale_to_integers(x)[0])


def colourful_depth(config: Configuration) -> DepthReport:
    """Count, over all transversals, the closed colourful simplices containing
    the origin, with barycentric witnesses in lexicographic order.

    The points are tested as given.  A transversal's signed minor for colour
    i depends only on its points of the other colours, so each colourful
    d×d minor is computed once per call and serves the d+1 transversals
    that differ in colour i alone.
    """
    d = config.dimension
    n = d + 1
    scaled = [[scale_to_integers(p) for p in cls] for cls in config.colours]
    # minors[i] lists the signed minors for colour i with the other colours'
    # points chosen in lexicographic order
    minors = []
    for i in range(n):
        others = [scaled[c] for c in range(n) if c != i]
        sign = 1 if (n + i) % 2 == 0 else -1
        minors.append([sign * int_det([others[a][j][0] for a, j in enumerate(rest)])
                       for rest in itertools.product(range(n), repeat=d)])
    # Transversal t (in lexicographic order) has the base-n digits `choice`;
    # deleting digit i gives the position of its minor in minors[i].
    high = [n ** (n - i) for i in range(n)]
    low = [n ** (d - i) for i in range(n)]
    witnesses = []
    for t, choice in enumerate(enumerate_transversals(config)):
        verts = [scaled[c][j] for c, j in enumerate(choice)]
        cs = [minors[i][t // high[i] * low[i] + t % low[i]] for i in range(n)]
        ok, coeffs = _contains_origin_scaled(verts, cs)
        if ok:
            witnesses.append((choice, coeffs))
    return DepthReport(depth=len(witnesses), witnesses=tuple(witnesses))


def _check_colour_subset(config: Configuration, colours: Sequence[int]) -> tuple[int, ...]:
    d = config.dimension
    subset = tuple(colours)
    if len(subset) != d or len(set(subset)) != d:
        raise InputError(f"need {d} distinct colours, got {subset}")
    for c in subset:
        if not 0 <= c <= d:
            raise InputError(f"colour {c} out of range 0..{d}")
    return subset


class _ConeFamily:
    """All one-point-per-colour cones over given colour classes, with
    precomputed integer facet rows for fast repeated membership tests."""

    def __init__(self, classes: Sequence[Sequence[Point]]):
        self.dimension = len(classes)
        self.class_ints = [[scale_to_integers(p)[0] for p in cls] for cls in classes]
        self.choices = list(itertools.product(*[range(len(cls)) for cls in classes]))
        self._rows = []
        for choice in self.choices:
            gens = [self.class_ints[i][j] for i, j in enumerate(choice)]
            self._rows.append((cone_facet_rows(gens), gens))

    def containing(self, x: IntVec) -> list[tuple[int, ...]]:
        """Choices whose cones contain x, in lexicographic order."""
        return [choice for choice, (rows, gens) in zip(self.choices, self._rows)
                if _cone_contains_ints(gens, rows, x)]

    def count_containing(self, x: IntVec) -> int:
        return len(self.containing(x))


def d_depth(config: Configuration, colours: Sequence[int], x: Point) -> int:
    """Number of cones, one generator per colour in the given d-subset,
    containing the direction x.  The origin is rejected: every cone contains
    it and the quantity is directional."""
    subset = _check_colour_subset(config, colours)
    if len(x) != config.dimension:
        raise InputError(f"expected {config.dimension} coordinates, got {len(x)}")
    if is_zero_vec(x):
        raise InputError("the subset depth of the origin is undefined")
    family = _ConeFamily([config.colours[c] for c in subset])
    return family.count_containing(scale_to_integers(x)[0])


def antipodal_check(config: Configuration, choice: Transversal, colour: int) -> bool:
    """Does the antipode of the transversal's colour-`colour` point lie in the
    cone of its other d points?  Agrees with `simplex_contains_origin` on the
    full vertex set whenever the configuration is in general position."""
    d = config.dimension
    if not 0 <= colour <= d:
        raise InputError(f"colour {colour} out of range 0..{d}")
    points = transversal_points(config, choice)
    gens = points[:colour] + points[colour + 1:]
    apex = vec_neg(points[colour])
    return cone_contains(ConeSpec(gens), apex)
