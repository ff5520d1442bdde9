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

A family of cones (`_ConeFamily`) is one table read by bit masks over its
facet normals: a point's `sides`, or an arrangement cell's own mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .configuration import (
    Configuration,
    Transversal,
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
    primitive_normal,
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


def _cofactor_verdict(cs: Sequence[int]) -> Optional[bool]:
    """Closed containment of the origin in the hull of d+1 vertices whose
    weights `cs` (see `_contains_origin_scaled`) do not sum to 0: the origin
    is inside iff the weights share one sign.  None when they sum to 0, where
    the vertices may be affinely dependent and the signs decide nothing."""
    if sum(cs) == 0:
        return None
    return min(cs) >= 0 or max(cs) <= 0


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
    verdict = _cofactor_verdict(cs)
    if verdict is False:
        return False, None
    if verdict:
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
    """Closed containment of the origin in the hull of any number of points.

    d+1 points in dimension d are decided by the signs of the cofactors of
    their coordinate columns (`_cofactor_verdict`), and d linearly
    independent points never contain it; every other case, and cofactors
    summing to 0, by exact feasibility."""
    points = tuple(points)
    if not points:
        raise InputError("need at least one point")
    scaled = [scale_to_integers(p)[0] for p in points]
    d = len(scaled[0])
    if len(scaled) == d + 1:
        columns = [tuple(v[k] for v in scaled) for k in range(d)]
        verdict = _cofactor_verdict(normal_to_span(columns, d + 1) or (0,) * (d + 1))
        if verdict is not None:
            return verdict
    elif len(scaled) == d and int_det(scaled) != 0:
        return False
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


class _MinorTable:
    """Every colourful d×d minor of a configuration's points as given, and
    the verdict each transversal reads from them.

    `scaled[c][j]` is point (c, j) as `scale_to_integers` returns it.
    `minors[i]` lists the signed minors for colour i, the points of the other
    colours chosen in lexicographic order; each is computed once and serves
    the d+1 transversals that differ in colour i alone.  Transversal t (in
    lexicographic order) has the base-(d+1) digits `choice`; deleting digit i
    gives the position of its minor in minors[i] (`weights` reads them).
    `verdicts[t]` says whether its closed simplex contains the origin, and
    `depth` counts the transversals that do.

    `propose` gives the exact depth after replacing one colour's points and
    `commit` adopts that change.  A move of colour c changes a set S of its
    points; only the minors with a point of S as their colour-c row change,
    and only the transversals through S are decided again.  For i != c
    such a minor is dot(p, N), p the new point and N the signed
    `normal_to_span` of its other d-1 rows.  These normals are cached per
    (i, c), and a commit drops only the ones reading the changed colour.
    """

    def __init__(self, colours: Sequence[Sequence[Point]]):
        d = len(colours) - 1
        n = d + 1
        self.dimension = d
        self.scaled = [[scale_to_integers(p) for p in cls] for cls in colours]
        self.minors = []
        for i in range(n):
            others = [self.scaled[c] for c in range(n) if c != i]
            sign = 1 if (n + i) % 2 == 0 else -1
            self.minors.append([sign * int_det([others[a][j][0] for a, j in enumerate(rest)])
                                for rest in itertools.product(range(n), repeat=d)])
        self._high = [n ** (n - i) for i in range(n)]
        self._low = [n ** (d - i) for i in range(n)]
        self.verdicts = self.decide(range(n ** n), self.scaled, self.minors)
        self.depth = sum(self.verdicts)
        self._normals: dict[tuple[int, int], tuple[list[IntVec], list[int], int]] = {}
        self._pending = None

    def choice(self, t: int) -> Transversal:
        """The base-(d+1) digits of transversal t: its point of each colour."""
        return tuple(t // lo % len(self._low) for lo in self._low)

    def weights(self, ts: Sequence[int], minors: Sequence[Sequence[int]]
                ) -> Iterator[tuple[int, ...]]:
        """The cofactor weights of each transversal in ts, read from `minors`."""
        return zip(*[[m[t // h * lo + t % lo] for t in ts]
                     for m, h, lo in zip(minors, self._high, self._low)])

    def decide(self, ts: Sequence[int], scaled, minors) -> list[bool]:
        """Verdicts of the transversals ts over the given points and minors
        (this table's, or a proposed change of them): cofactor signs, or
        exact feasibility when the weights sum to 0."""
        out = []
        for t, cs in zip(ts, self.weights(ts, minors)):
            verdict = _cofactor_verdict(cs)
            if verdict is None:
                verts = [scaled[c][j][0] for c, j in enumerate(self.choice(t))]
                verdict = _origin_weights(verts, (1,) * len(verts)) is not None
            out.append(verdict)
        return out

    def _normal_table(self, i: int, c: int) -> tuple[list[IntVec], list[int], int]:
        """For the minors of colour i whose colour-c point varies: one signed
        normal per choice of the other d-1 colours' points, in lexicographic
        order, the position in minors[i] of each one's minor with colour-c
        point 0, and the stride that colour-c point j adds j times."""
        cached = self._normals.get((i, c))
        if cached is not None:
            return cached
        d = self.dimension
        n = d + 1
        pos = c if c < i else c - 1  # row of colour c among the colours != i
        # dot(x, normal_to_span(rows)) = (-1)^(d-1) det(rows + [x]), and
        # moving x from the last row to row pos takes d-1-pos swaps
        sign = (1 if (n + i) % 2 == 0 else -1) * (-1) ** pos
        others = [self.scaled[o] for o in range(n) if o not in (i, c)]
        stride = n ** (d - 1 - pos)
        normals = []
        starts = []
        for k, rest in enumerate(itertools.product(range(n), repeat=d - 1)):
            normal = normal_to_span([others[a][j][0] for a, j in enumerate(rest)], d)
            normals.append((0,) * d if normal is None else tuple(sign * e for e in normal))
            starts.append(k // stride * stride * n + k % stride)
        self._normals[(i, c)] = normals, starts, stride
        return normals, starts, stride

    def propose(self, colour: int, points: Sequence[Point]) -> int:
        """The exact depth with colour `colour`'s points replaced by `points`;
        the change is held for `commit` until the next proposal."""
        d = self.dimension
        n = d + 1
        new = [scale_to_integers(p) for p in points]
        moved = [j for j in range(n) if new[j] != self.scaled[colour][j]]
        scaled = list(self.scaled)
        scaled[colour] = new
        minors = list(self.minors)
        for i in range(n):
            if i == colour:
                continue
            normals, starts, stride = self._normal_table(i, colour)
            row = minors[i] = list(minors[i])
            for j in moved:
                p = new[j][0]
                for normal, start in zip(normals, starts):
                    row[start + j * stride] = vec_dot(p, normal)
        weight = n ** (d - colour)
        through = [rest // weight * weight * n + j * weight + rest % weight
                   for j in moved for rest in range(n ** d)]
        changed = [t for t, verdict in zip(through, self.decide(through, scaled, minors))
                   if verdict != self.verdicts[t]]
        depth = self.depth + sum(-1 if self.verdicts[t] else 1 for t in changed)
        self._pending = (colour, scaled, minors, changed, depth)
        return depth

    def commit(self) -> None:
        """Adopt the last proposal."""
        colour, self.scaled, self.minors, changed, self.depth = self._pending
        for t in changed:
            self.verdicts[t] = not self.verdicts[t]
        self._normals = {key: v for key, v in self._normals.items() if colour in key}
        self._pending = None


def colourful_depth(config: Configuration) -> DepthReport:
    """Count, over all transversals, the closed colourful simplices containing
    the origin, with barycentric witnesses in lexicographic order.

    The points are tested as given, through one `_MinorTable`."""
    table = _MinorTable(config.colours)
    contained = [t for t, verdict in enumerate(table.verdicts) if verdict]
    witnesses = []
    for t, cs in zip(contained, table.weights(contained, table.minors)):
        choice = table.choice(t)
        verts = [table.scaled[c][j] for c, j in enumerate(choice)]
        witnesses.append((choice, _contains_origin_scaled(verts, cs)[1]))
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
    """Cones of d generators each, as one table read by bit masks.

    `normals` holds the distinct primitive normals, sorted, to the spans of
    d-1 generators of each cone: the family's facet arrangement, as
    `arrangement.facet_hyperplanes` gives it.  An independent cone is the
    side of each of its d hyperplanes that it lies on, kept as bit masks
    (pos, neg) over `normals`: a point whose `sides` are (above, below)
    lies in it iff neither pos & below nor neg & above.  An open cell's
    mask is its above, and its complement ~mask its below.  A dependent cone
    keeps only its `generators` and is tested on a point.

    `_ConeFamily(classes)` holds the one-point-per-colour cones over colour
    classes, in the lexicographic order of their `choices`.  The facet
    opposite a cone's colour-i point is spanned by its points of the other
    colours, so cones share normals, one per choice of those points.
    `_ConeFamily.of_cones` holds given `ConeSpec`s, choices their positions.
    """

    def __init__(self, classes: Sequence[Sequence[Point]]):
        d = len(classes)
        ints = [[scale_to_integers(p)[0] for p in cls] for cls in classes]
        shared = []  # shared[i][rest]: primitive normal to points `rest` of the colours != i
        for i in range(d):
            others = ints[:i] + ints[i + 1:]
            table = {}
            for rest in itertools.product(*[range(len(c)) for c in others]):
                n = normal_to_span([others[a][j] for a, j in enumerate(rest)], d)
                table[rest] = None if n is None else primitive_normal(n)
            shared.append(table)
        choices = list(itertools.product(*[range(len(cls)) for cls in classes]))
        self._tabulate(choices, [([ints[i][j] for i, j in enumerate(choice)],
                                  [shared[i][choice[:i] + choice[i + 1:]] for i in range(d)])
                                 for choice in choices])

    @classmethod
    def of_cones(cls, cones: Sequence[ConeSpec]) -> "_ConeFamily":
        """The family of cones of one dimension d: the hyperplanes of a cone
        are its facet rows, or the spans of d-1 of its generators if none."""
        d = cones[0].dimension
        tabled = []
        for cone in cones:
            gens = cone.int_generators
            spans = cone.facet_rows or [normal_to_span([*gens[:i], *gens[i + 1:]], d)
                                        for i in range(d)]
            tabled.append((gens, [None if n is None else primitive_normal(n) for n in spans]))
        family = cls.__new__(cls)
        family._tabulate(range(len(cones)), tabled)
        return family

    def _tabulate(self, choices: Sequence,
                  cones: Sequence[tuple[Sequence[IntVec], Sequence[Optional[IntVec]]]]):
        """Fill the table from each choice's cone: its integer generators and,
        per generator, the primitive normal to the others (None if no span)."""
        self.choices = list(choices)
        self.generators = [gens for gens, _ in cones]
        self.normals = sorted({n for _, prims in cones for n in prims if n is not None})
        index = {n: k for k, n in enumerate(self.normals)}
        self._masks = []
        for gens, prims in cones:
            pos = neg = 0
            for g, n in zip(gens, prims):
                side = 0 if n is None else vec_dot(n, g)
                if side == 0:
                    pos = None
                    break
                if side > 0:
                    pos |= 1 << index[n]
                else:
                    neg |= 1 << index[n]
            self._masks.append(None if pos is None else (pos, neg))
        self.dependent = None in self._masks

    def sides(self, x: IntVec) -> tuple[int, int]:
        """Bit masks of the `normals` with x on their positive and on their
        negative side; a normal through x is in neither."""
        above = below = 0
        for k, n in enumerate(self.normals):
            t = vec_dot(n, x)
            if t > 0:
                above |= 1 << k
            elif t < 0:
                below |= 1 << k
        return above, below

    def containing(self, x: Optional[IntVec], cell: Optional[int] = None) -> list:
        """Choices whose closed cones contain the point x, in order.  The
        mask of an open cell holding x, if given, stands in for x's `sides`;
        x itself is read only by dependent cones, and may be None if none."""
        above, below = self.sides(x) if cell is None else (cell, ~cell)
        out = []
        for choice, masks, gens in zip(self.choices, self._masks, self.generators):
            if masks is None:
                if _cone_contains_ints(gens, None, x):
                    out.append(choice)
            elif not (masks[0] & below or masks[1] & above):
                out.append(choice)
        return out

    def count_containing(self, x: IntVec) -> int:
        return len(self.containing(x))

    def first_independent(self, cell: int):
        """The first choice whose cone has independent generators and
        contains the open cell of the given mask, or None.  Dependent cones
        are skipped, so no point is needed."""
        for choice, masks in zip(self.choices, self._masks):
            if masks is not None and not (masks[0] & ~cell or masks[1] & cell):
                return choice
        return None


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
