"""Simplex containment, cone membership, colourful depth, and subset depth.

Containment is decided with closed semantics throughout: the origin on the
boundary of a simplex or cone counts as contained, and degenerate vertex or
generator tuples are decided on the (lower-dimensional) closed hull by exact
feasibility rather than rejected.  Instances are decided by signs of
integer cofactors (simplex weights, cone facet rows) unless those all
vanish (simplex vertices spanning less than d dimensions, dependent cone
generators), which take one exact LP; both paths are exact.

Points may be scaled to integer vectors freely: multiplying any single
vertex or generator by a positive rational never changes a containment
verdict, only the convex/conic coefficients, which are unscaled afterwards.

A family of cones (`_ConeFamily`) is one table read by bit masks over its
facet normals: a point's `sides`, or an arrangement cell's own mask.  The
colourful simplices of a configuration (`_MinorTable`) are read by bit
masks over its transversals.  Both take their normals from `_span_normals`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .configuration import (
    Configuration,
    Transversal,
    transversal_points,
)
from .errors import InputError, check_dimension
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


def _cofactors(points: Sequence[IntVec]) -> tuple[int, ...]:
    """The cofactors of d+1 integer points in dimension d: the
    `normal_to_span` of their coordinate columns, so that sum_i cs_i v_i = 0,
    or all 0 when the columns span less than d dimensions."""
    return normal_to_span(list(zip(*points)), len(points)) or (0,) * len(points)


def _cofactor_verdict(cs: Sequence[int]) -> Optional[bool]:
    """Closed containment of the origin in the hull of d+1 vertices with
    weights `cs` (see `_contains_origin_scaled`): the origin is inside iff
    the weights share one sign.  None when every weight is 0, where the
    vertices span less than d dimensions and the signs decide nothing.

    Weights that are not all 0 mean rank d, so they span the only linear
    dependence of the vertices; if they sum to 0, no multiple of them sums
    to 1, so the origin is outside, and indeed their signs are mixed."""
    if not any(cs):
        return None
    return min(cs) >= 0 or max(cs) <= 0


def _contains_origin_scaled(scaled: Sequence[tuple[IntVec, int]], cs: Sequence[int]
                            ) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Closed containment of the origin in the hull of d+1 pre-scaled vertices,
    given their weights `cs`: the cofactors of det[v_i, 1] along its column
    of ones, up to one common sign, so that sum_i cs_i v_i = 0.

    Cofactor signs decide unless every weight is 0, exact feasibility then.
    Returned coefficients are barycentric for the original (unscaled)
    vertices.
    """
    n = len(scaled)
    verdict = _cofactor_verdict(cs)
    if verdict is False:
        return False, None
    if verdict:
        weights = [cs[i] * scaled[i][1] for i in range(n)]
        s = sum(weights)
        return True, tuple(Fraction(w, s) for w in weights)
    # rank below d: decide on the closed lower-dimensional hull
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
    return _contains_origin_scaled(scaled, _cofactors([v for v, _ in scaled]))


def origin_in_convex_hull(points: Sequence[Point]) -> bool:
    """Closed containment of the origin in the hull of any number of points.

    d+1 points in dimension d are decided by the signs of the cofactors of
    their coordinate columns (`_cofactor_verdict`), and d linearly
    independent points never contain it; every other case, and cofactors
    that are all 0, by exact feasibility."""
    points = tuple(points)
    if not points:
        raise InputError("need at least one point")
    scaled = [scale_to_integers(p)[0] for p in points]
    d = len(scaled[0])
    if len(scaled) == d + 1:
        verdict = _cofactor_verdict(_cofactors(scaled))
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


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending (one pass over its
    binary digits, so linear in its length)."""
    digits = format(mask, "b")[::-1]
    out = []
    t = digits.find("1")
    while t >= 0:
        out.append(t)
        t = digits.find("1", t + 1)
    return out


def _mask(bits: Iterable[int], size: int) -> int:
    """The int below 2^size with the given bits set (one buffer, so linear
    in size, where or-ing in 1 << b would copy the mask once per bit)."""
    buf = bytearray((size + 7) // 8)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


# Times an int whose set bits are all at 8k + 7, this puts bit 8(8g + r) + 7
# at bit 64g + 56 + r, so byte 8g + 7 of the product holds bits 8g .. 8g + 7
# of the compact mask.  No two of its bits land on one place, so nothing carries.
_GATHER = sum(1 << 7 * s for s in range(8))


@functools.cache
def _spread_table(offsets: tuple[int, ...]) -> tuple[int, ...]:
    """For each byte b below 2^len(offsets), the mask with bit offsets[r]
    set for each set bit r of b."""
    table = [0]
    for offset in offsets:
        bit = 1 << offset
        table += [mask | bit for mask in table]
    return tuple(table)


def _span_normals(classes: Sequence[Sequence[IntVec]], d: int) -> list[IntVec]:
    """`normal_to_span` of one point of each of d-1 classes, for every choice
    of points in lexicographic order; the zero vector where they span less."""
    return [normal_to_span(rows, d) or (0,) * d for rows in itertools.product(*classes)]


@functools.cache
def _layout(n: int, i: int, c: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """How the minors of colour i of n colours read the pair {i, c}'s
    normals: the sign that makes normal k dotted with a colour-c point
    their minor; the position of that minor with colour-c point 0 and its
    transversal with colour-i point 0; and the stride colour-c point j adds
    j times."""
    pos = c if c < i else c - 1  # row of colour c among the colours != i
    stride = n ** (n - 2 - pos)
    starts = tuple(k // stride * stride * n + k % stride for k in range(n ** (n - 2)))
    lo = n ** (n - 1 - i)
    # dot(x, normal_to_span(rows)) = (-1)^(d-1) det(rows + [x]), and
    # moving x from the last row to row pos takes d-1-pos swaps
    return ((-1) ** (n + i + pos), starts,
            tuple(s // lo * lo * n + s % lo for s in starts), stride)


@functools.cache
def _chunks(n: int, i: int, c: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per byte of the pair {i, c}'s normals, the transversal of its first
    (as in `_layout`) and the `_spread_table` of the transversals of all
    eight relative to that one."""
    bases = _layout(n, i, c)[2]
    return tuple((bases[g], _spread_table(tuple(b - bases[g] for b in bases[g:g + 8])))
                 for g in range(0, len(bases), 8))


@functools.cache
def _colour_chunks(n: int, c: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per byte of colour c's packing (`_MinorTable._colour_packing`), the
    colour i whose minors it holds and the pair {i, c}'s `_chunks` entry."""
    return tuple((i, first, table) for i in range(n) if i != c for first, table in _chunks(n, i, c))


class _MinorTable:
    """Every colourful d×d minor of integer points, and the transversals
    whose closed simplices contain the origin, as bit masks.  Once built, a
    table never changes its minors or masks.

    `points[c][j]` is point (c, j).  `minors[i]` lists the signed minors for
    colour i, the points of the other colours chosen in lexicographic
    order; each serves the d+1 transversals that differ in colour i alone.
    Transversal t (in lexicographic order) has the base-(d+1) digits
    `choice`; deleting digit i gives the position of its minor in minors[i],
    its weight i (`weights` reads them).

    Bit t of an int mask stands for transversal t.  A minor's d+1
    transversals are one fixed comb of bits, spaced by the stride of digit
    i, shifted left to the one with colour-i point 0, so the weights are
    kept as two masks per colour: `positive[i]` (weight i > 0) and
    `negative[i]` (weight i < 0).  By `_cofactor_verdict` a transversal
    contains the origin iff exactly one of the unions of those masks holds
    it; only transversals with every weight 0 are decided by exact
    feasibility, and `lp` holds those that contain it.  `inside` is the
    mask of the containing transversals and `depth` its popcount.

    Minors are dot products: for colours i != c, a minor of colour i is
    dot(p, N), p its colour-c point and N the `normal_to_span` of its other
    d-1 rows, up to a sign of (i, c).  The normals are one list per colour
    pair, read by (i, c) and (c, i) and built by `_span_normals`, the same
    routine `_ConeFamily` uses.  Colour i reads the first pair {i, c} whose
    list the table was given, or else {i, i^1} ({0, d} for i = d even), so
    a table of its own builds ceil((d+1)/2) lists.

    `propose` gives the exact depth after replacing one colour's points.  A
    move of colour c changes a set S of its points; only the minors with a
    point of S as their colour-c row change, so only the bits of the
    transversals through S are rewritten.  `propose` reads the signs of
    those minors without writing them down.  A pair's packing holds each
    coordinate column of its normals in one int, a slot of W bits per
    normal (Kronecker substitution, `_pair_packing`).  Colour c's packing
    (`_colour_packing`) is the shifted sum of the packings of its d pairs,
    each negated by its `_layout` sign and padded with zero normals to
    whole bytes, so sum_a p_a * column_a holds in its slots every minor
    through p of every colour i != c: d multiply-adds per moved point.
    2^(W-1) bounds every |minor|, so adding 2^(W-1) to each slot, or
    2^(W-1) - 1, carries across no slot, and the top bit of a slot is then
    minor >= 0, or minor >= 1: two reads give the exact signs of all d
    colours, the positive minors, the zero ones, and the rest negative.
    Per-byte tables (`_spread_table`) move those bits to the transversals.
    Containment reads only the unions of the masks, so a proposal forms
    them from the table's own (`_union`): outside the transversals through
    S they stay, and through S colour c's own masks stay and the other
    colours' are new.

    `successor` is the table of the last proposal's points, built by dot
    products: it is the tripwire, and raises AssertionError unless its
    masks are the per-colour masks the proposal kept.  It holds every list
    this table held.  It takes the lists of the pairs with the moved colour
    c as they are, with their packings, since the normals of a pair {c, b}
    span points of the other colours.  Every other list is a new one
    (`_moved_normals`) that copies the normals whose colour-c point stayed
    and builds only the (d+1)^(d-2) through each moved point; it is packed
    on first use, and so is every colour's packing.  A colour of the
    successor may read such a list, so the tripwire checks those normals
    too.  No list or packing is written after it is built.
    """

    def __init__(self, points: Sequence[Sequence[IntVec]],
                 normals: Optional[dict[tuple[int, int], list[IntVec]]] = None,
                 packings: Optional[dict[tuple[int, int], tuple]] = None):
        d = len(points) - 1
        n = d + 1
        self.dimension = d
        self.points = [list(cls) for cls in points]
        self._high = [n ** (n - i) for i in range(n)]
        self._low = [n ** (d - i) for i in range(n)]
        self._combs = [sum(1 << j * lo for j in range(n)) for lo in self._low]
        self._size = n ** n  # transversals, so bits per mask
        full = (1 << self._size) - 1
        # full is the disjoint union of the shifts of the transversals with
        # colour-c point 0 by the comb of colour c
        self._point_zero = [full // comb for comb in self._combs]
        self._slots = n ** (n - 2)  # normals per pair
        self._normals = dict(normals or {})  # by colour pair
        self._packings = dict(packings or {})  # by colour pair
        self._colour_packings = {}  # by colour
        self._coordinate_bits = max(abs(x) for cls in self.points
                                    for p in cls for x in p).bit_length()
        self.minors, self.positive, self.negative = [], [], []
        for i in range(n):
            # any colour c != i gives the minors of colour i as dot products:
            # the first pair {i, c} held, else {i, i^1}, or {0, d} for i = d
            c = next((c for c in range(n) if c != i and (min(i, c), max(i, c)) in self._normals),
                     i ^ 1 if i ^ 1 < n else 0)
            row, pos, neg = self._rewrite(i, c)
            self.minors.append(row)
            self.positive.append(pos)
            self.negative.append(neg)
        union_pos = union_neg = 0
        for pos, neg in zip(self.positive, self.negative):
            union_pos |= pos
            union_neg |= neg
        self._union = union_pos, union_neg
        self.lp, self.inside = self._decide(union_pos, union_neg, self.points, full, 0)
        self.depth = self.inside.bit_count()
        self._pending = None

    def choice(self, t: int) -> Transversal:
        """The base-(d+1) digits of transversal t: its point of each colour."""
        return tuple(t // lo % len(self._low) for lo in self._low)

    def weights(self, ts: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """The cofactor weights of each transversal in ts."""
        return zip(*[[m[t // h * lo + t % lo] for t in ts]
                     for m, h, lo in zip(self.minors, self._high, self._low)])

    def _pair_normals(self, a: int, b: int) -> list[IntVec]:
        """The `_span_normals` of the colours other than a and b: one list
        per colour pair, built on first use."""
        pair = (min(a, b), max(a, b))
        if pair not in self._normals:
            self._normals[pair] = _span_normals(
                [cls for o, cls in enumerate(self.points) if o not in pair], self.dimension)
        return self._normals[pair]

    def _pair_packing(self, pair: tuple[int, int], w: int) -> list[int]:
        """The pair's normals packed column by column, one slot of 8w bits
        per normal: column a is the sum of normal k's entry a times
        2^(8wk).  Packed on first use, and again for another w."""
        packed = self._packings.get(pair)
        if packed is None or packed[0] != w:
            # each slot offset by 2^(8w-1) to be nonnegative, then the
            # offsets taken off again
            offset = 1 << 8 * w - 1
            offsets = int.from_bytes((bytes(w - 1) + b"\x80") * self._slots, "little")
            columns = [int.from_bytes(b"".join([(x + offset).to_bytes(w, "little")
                                                for x in column]), "little") - offsets
                       for column in zip(*self._pair_normals(*pair))]
            packed = self._packings[pair] = (w, columns)
        return packed[1]

    def _colour_packing(self, c: int, bits: int) -> tuple[int, int, list[int], int, int, int]:
        """The d pair packings of colour c at one slot width, each times its
        `_layout` sign (i, c) and padded with zero normals to whole bytes,
        as one shifted sum per coordinate column: (the most bits of a
        coordinate whose minors its slots hold, w, the d columns, the
        biases 2^(8w-1) and 2^(8w-1) - 1 in every slot, and bit 8k + 7 of
        every slot k but the padding).  Slot k of pair {i, c}, the colours i != c ascending,
        is minor k of colour i as `_chunks` reads it.  Packed on first use,
        and again when a point has more bits than the slots hold."""
        packed = self._colour_packings.get(c)
        if packed is None or packed[0] < bits:
            d = self.dimension
            n = d + 1
            others = [i for i in range(n) if i != c]
            pairs = [(min(i, c), max(i, c)) for i in others]
            bits = max(bits, self._coordinate_bits)
            # |normal entry| <= (d-1)! 2^(bits(d-1)), so |minor| <= d! 2^(bits d) < 2^(8w-1);
            # no narrower than a pair packing held, which would then be packed again
            spare = math.factorial(d).bit_length() + 1
            w = max([(bits * d + spare + 7) // 8] +
                    [self._packings[pair][0] for pair in pairs if pair in self._packings])
            padded = -(-self._slots // 8) * 8
            columns = [0] * d
            for k, (i, pair) in enumerate(zip(others, pairs)):
                sign = _layout(n, i, c)[0]
                shift = 8 * w * padded * k
                for a, column in enumerate(self._pair_packing(pair, w)):
                    columns[a] += sign * column << shift
            ones = int.from_bytes((b"\x01" + bytes(w - 1)) * padded * d, "little")
            half = ones << 8 * w - 1
            high = int.from_bytes((b"\x80" * self._slots + bytes(padded - self._slots)) * d,
                                  "little")
            packed = (8 * w - spare) // d, w, columns, half, half - ones, high
            self._colour_packings[c] = packed
        return packed

    def _rewrite(self, i: int, c: int) -> tuple[list[int], int, int]:
        """The minors of colour i, as dot products of the colour-c points
        with the pair {i, c}'s normals, and the masks of their transversals
        with weight i > 0 and < 0."""
        n = self.dimension + 1
        sign, starts, bases, stride = _layout(n, i, c)
        normals = self._pair_normals(i, c)
        step = self._low[c]
        row = [0] * n ** self.dimension
        pos, neg = [], []
        for j, p in enumerate(self.points[c]):
            for normal, start, base in zip(normals, starts, bases):
                m = sign * vec_dot(p, normal)
                row[start + j * stride] = m
                if m > 0:
                    pos.append(base + j * step)
                elif m < 0:
                    neg.append(base + j * step)
        # the bits hold colour-i point 0; the comb adds each other point
        comb = self._combs[i]
        return row, _mask(pos, self._size) * comb, _mask(neg, self._size) * comb

    def _decide(self, pos: int, neg: int, classes, through: int, lp: int) -> tuple[int, int]:
        """(lp, inside) once the transversals in the mask `through` have the
        unions of the weight masks given: cofactor signs, and exact
        feasibility for those in `through` whose weights are all 0."""
        lp &= ~through
        for t in _bits(through & ~(pos | neg)):
            verts = [classes[c][j] for c, j in enumerate(self.choice(t))]
            if _origin_weights(verts, (1,) * len(verts)) is not None:
                lp |= 1 << t
        return lp, pos ^ neg | lp

    def propose(self, colour: int, points: Sequence[IntVec]) -> int:
        """The exact depth with colour `colour`'s points replaced by `points`;
        the proposal is held for `successor` until the next one."""
        n = self.dimension + 1
        own = self.points[colour]
        moved = [j for j in range(n) if points[j] != own[j]]
        classes = list(self.points)
        classes[colour] = list(points)
        through = 0
        step = self._low[colour]
        for j in moved:
            through |= self._point_zero[colour] << j * step
        # the masks through the moved points: colour `colour`'s stay, and
        # the others are read from its packing
        positive, negative = [0] * n, [0] * n
        positive[colour] = self.positive[colour] & through
        negative[colour] = self.negative[colour] & through
        if moved:
            bits = max([abs(x) for j in moved for x in points[j]]).bit_length()
            _, w, columns, ge_bias, gt_bias, high = self._colour_packing(colour, bits)
            chunks = _colour_chunks(n, colour)
            slots = 8 * len(chunks)
            zero = [0] * n
            for j in moved:
                total = 0
                for x, column in zip(points[j], columns):
                    total += x * column
                # bit 8k + 7 is set where minor k is >= 1, and >= 0
                gt = int.from_bytes((total + gt_bias).to_bytes(w * slots, "little")[w - 1::w],
                                    "little") & high
                ge = int.from_bytes((total + ge_bias).to_bytes(w * slots, "little")[w - 1::w],
                                    "little") & high
                shift = j * step
                for masks, top in (positive, gt), (zero, ge ^ gt):
                    if top:
                        # byte g: minors 8g .. 8g + 7
                        compact = (top * _GATHER).to_bytes(slots + 7, "little")[7::8]
                        for (i, first, table), byte in zip(chunks, compact):
                            if byte:
                                masks[i] |= table[byte] << first + shift
            # each transversal through a moved point has one minor of each
            # colour i: positive, zero, or else negative
            for i in range(n):
                if i != colour:
                    positive[i] *= self._combs[i]
                    negative[i] = through ^ positive[i] ^ zero[i] * self._combs[i]
        keep = ~through
        union_pos, union_neg = self._union[0] & keep, self._union[1] & keep
        for pos in positive:
            union_pos |= pos
        for neg in negative:
            union_neg |= neg
        lp, inside = self._decide(union_pos, union_neg, classes, through, self.lp)
        self._pending = (colour, moved, classes, through, positive, negative, lp, inside)
        return inside.bit_count()

    def _moved_normals(self, pair: tuple[int, int], colour: int, moved: Sequence[int],
                       classes) -> list[IntVec]:
        """The pair's normals for `classes`, which differ from this table's
        points only in the points `moved` of colour `colour`: a new list
        that copies the normals through that colour's points that stayed
        and builds only those through the moved ones."""
        n = self.dimension + 1
        others = [o for o in range(n) if o not in pair]
        # the normals through point j of that colour are the runs of
        # `stride` normals at j * stride within each block of n * stride
        stride = n ** (len(others) - 1 - others.index(colour))
        fresh = {j: _span_normals([[classes[o][j]] if o == colour else classes[o]
                                   for o in others], self.dimension) for j in moved}
        old = self._normals[pair]
        normals = []
        for start in range(0, len(old), n * stride):
            for j in range(n):
                if j in fresh:
                    normals += fresh[j][start // n:start // n + stride]
                else:
                    normals += old[start + j * stride:start + (j + 1) * stride]
        return normals

    def successor(self) -> "_MinorTable":
        """The table of the last proposal's points, built by dot products
        with every normal list this table held: those of the pairs with the
        moved colour and their packings as they are, the others through
        `_moved_normals`.  Raises AssertionError unless its masks are the
        proposal's."""
        colour, moved, classes, through, positive, negative, lp, inside = self._pending
        table = _MinorTable(
            classes,
            {pair: normals if colour in pair else self._moved_normals(pair, colour, moved, classes)
             for pair, normals in self._normals.items()},
            {pair: packed for pair, packed in self._packings.items() if colour in pair})
        keep = ~through
        proposed = {"positive": [mask & keep | new for mask, new in zip(self.positive, positive)],
                    "negative": [mask & keep | new for mask, new in zip(self.negative, negative)],
                    "lp": lp, "inside": inside}
        for name, mask in proposed.items():
            if getattr(table, name) != mask:
                raise AssertionError(
                    f"the proposal's {name} mask disagrees with a fresh table's dot products")
        return table


def colourful_depth(config: Configuration, allow_high_dimension: bool = False) -> DepthReport:
    """Count, over all transversals, the closed colourful simplices containing
    the origin, with barycentric witnesses in lexicographic order.

    The points are tested as given, each scaled to integers, through one
    `_MinorTable`; weights are read only for the containing transversals.
    The report is cached on the configuration object, as `validate`'s is,
    so every later call returns it without building another table.
    Dimensions beyond the depth limit (6) raise `InputError` unless
    `allow_high_dimension` is set (or the report is already cached)."""
    cached = config.__dict__.get("_depth")
    if cached is not None:
        return cached
    check_dimension("depth", config.dimension, allow_high_dimension)
    scaled = [[scale_to_integers(p) for p in cls] for cls in config.colours]
    table = _MinorTable([[v for v, _ in cls] for cls in scaled])
    contained = _bits(table.inside)
    witnesses = []
    for t, cs in zip(contained, table.weights(contained)):
        choice = table.choice(t)
        verts = [scaled[c][j] for c, j in enumerate(choice)]
        witnesses.append((choice, _contains_origin_scaled(verts, cs)[1]))
    report = DepthReport(depth=len(witnesses), witnesses=tuple(witnesses))
    object.__setattr__(config, "_depth", report)
    return report


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
            prims = [primitive_normal(n) if any(n) else None for n in _span_normals(others, d)]
            shared.append(dict(zip(itertools.product(*[range(len(c)) for c in others]), prims)))
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
    it and the quantity is directional.  Refused, with no override, beyond
    the subset-depth limit (5)."""
    check_dimension("subset depth", config.dimension)
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
