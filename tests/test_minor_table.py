"""`validate` and `colourful_depth` read shared d×d minors; these properties
check both against references that compute no minors: `Fraction`
determinants of the points as given, and one exact LP per transversal
(`depth._origin_weights`), which shares no sign rule with the minor table.

Coordinates have mixed denominators, so the per-point integer scale factors
differ, and some draws plant a degeneracy (a repeated point, or a point on
the line through two others)."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csdepth.depth
from csdepth import (
    Configuration,
    colourful_depth,
    enumerate_transversals,
    random_configuration,
    transversal_points,
    validate,
)
from csdepth.depth import _layout, _MinorTable, _origin_weights, _span_normals
from csdepth.exactgeom import scale_to_integers, vec_dot

coords = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def configurations(draw, d):
    n = d + 1
    pts = draw(st.lists(st.tuples(*[coords] * d), min_size=n * n, max_size=n * n))
    a, b, c = draw(st.permutations(range(n * n)))[:3]
    plant = draw(st.sampled_from(["none", "repeat", "collinear"]))
    if plant == "repeat":
        pts[b] = pts[a]
    elif plant == "collinear":
        t = draw(coords)
        pts[c] = tuple(x + t * (y - x) for x, y in zip(pts[a], pts[b]))
    return Configuration(d, tuple(tuple(pts[k * n:(k + 1) * n]) for k in range(n)))


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over `Fraction`."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def reference_witnesses(config: Configuration) -> tuple:
    d = config.dimension
    labels = [(c, j) for c, j, _ in config.indexed_points()]
    pts = [p for _, _, p in config.indexed_points()]
    affine = [s for s in itertools.combinations(range(len(pts)), d + 1)
              if fraction_det([list(pts[i]) + [1] for i in s]) == 0]
    linear = [s for s in itertools.combinations(range(len(pts)), d)
              if fraction_det([pts[i] for i in s]) == 0]
    return tuple(tuple(labels[i] for i in s) for s in affine + linear)


def check_validate(config: Configuration):
    report = validate(config)
    expected = reference_witnesses(config)
    assert report.degenerate_witnesses == expected
    assert report.general_position == (not expected)
    assert validate(config) is report


def lp_contains_origin(points) -> bool:
    """Closed containment of the origin in the hull of the points, by exact
    feasibility of convex weights alone."""
    scaled = [scale_to_integers(p)[0] for p in points]
    return _origin_weights(scaled, (1,) * len(scaled)) is not None


def check_depth(config: Configuration):
    expected = [choice for choice in enumerate_transversals(config)
                if lp_contains_origin(transversal_points(config, choice))]
    report = colourful_depth(config)
    assert report.depth == len(expected)
    assert [choice for choice, _ in report.witnesses] == expected
    for choice, coeffs in report.witnesses:
        pts = transversal_points(config, choice)
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        for k in range(config.dimension):
            assert sum(c * p[k] for c, p in zip(coeffs, pts)) == 0


class TestMinorTable:
    @settings(max_examples=60, deadline=None)
    @given(configurations(2))
    def test_validate_d2(self, config):
        check_validate(config)

    @settings(max_examples=12, deadline=None)
    @given(configurations(3))
    def test_validate_d3(self, config):
        check_validate(config)

    @settings(max_examples=60, deadline=None)
    @given(configurations(2))
    def test_depth_d2(self, config):
        check_depth(config)

    @settings(max_examples=12, deadline=None)
    @given(configurations(3))
    def test_depth_d3(self, config):
        check_depth(config)


def fresh_normals(points, pair) -> list:
    """The pair's normal list built from scratch."""
    return _span_normals([cls for o, cls in enumerate(points) if o not in pair], len(points) - 1)


def count_span_normals(monkeypatch) -> list:
    """Record every `normal_to_span` call made from `csdepth.depth`."""
    calls = []
    original = csdepth.depth.normal_to_span
    monkeypatch.setattr(csdepth.depth, "normal_to_span",
                        lambda *args: calls.append(args) or original(*args))
    return calls


class TestOneNormalListPerPair:
    """The normals to points of the colours other than i and c give the
    minors of colour i and of colour c alike, up to one sign, so the table
    builds one list per colour pair {i, c}, not one per (i, c)."""

    def test_depth_d4_builds_375_normals(self, monkeypatch):
        d = 4
        config = random_configuration(d, 3)
        calls = count_span_normals(monkeypatch)
        colourful_depth(config)
        # colours 0 and 1 read the list of the pair {0, 1}, colours 2 and 3
        # that of {2, 3}, and colour 4 that of {0, 4}: ceil((d+1)/2) pairs
        # of (d+1)^(d-1) normals each
        assert len(calls) == 3 * (d + 1) ** (d - 1) == 375

    def test_table_after_moves_of_every_colour_holds_a_list_per_pair(self):
        d = 3
        rng = random.Random(11)

        def point():
            return tuple(rng.randint(-20, 20) for _ in range(d))

        table = _MinorTable([[point() for _ in range(d + 1)] for _ in range(d + 1)])
        for _ in range(2):
            for colour in range(d + 1):
                moved = list(table.points[colour])
                moved[rng.randrange(d + 1)] = point()
                table.propose(colour, moved)
                parent, table = table, table.successor()
                # a successor holds every list its parent held
                assert parent._normals.keys() <= table._normals.keys()
        # a proposal of colour c reads the d lists of the pairs with c, so
        # after proposals of every colour the table holds one per pair
        assert sorted(table._normals) == list(itertools.combinations(range(d + 1), 2))
        for pair, normals in table._normals.items():
            assert normals == fresh_normals(table.points, pair)
        assert table.depth == _MinorTable(table.points).depth

    def test_successor_shares_the_moved_colours_lists(self, monkeypatch):
        d = 4
        rng = random.Random(12)

        def point():
            return tuple(rng.randint(-20, 20) for _ in range(d))

        table = _MinorTable([[point() for _ in range(d + 1)] for _ in range(d + 1)])
        colour = 2
        # a proposal of colour 0 builds and packs the lists of the pairs
        # with 0; the proposal of colour 2 those of the pairs with 2
        table.propose(0, [point() for _ in range(d + 1)])
        moved = list(table.points[colour])
        moved[1] = point()
        table.propose(colour, moved)
        shared = [pair for pair in table._normals if colour in pair]
        rebuilt = [pair for pair in table._normals if colour not in pair]
        assert len(shared) == d and sorted(rebuilt) == [(0, 1), (0, 3), (0, 4)]
        assert table._packings.keys() == set(shared + rebuilt)
        before = {pair: list(normals) for pair, normals in table._normals.items()}
        calls = count_span_normals(monkeypatch)
        successor = table.successor()
        # only the (d+1)^(d-2) normals through the one moved point, per list
        assert len(calls) == (d + 1) ** (d - 2) * len(rebuilt) == 25 * 3
        assert table._normals == before  # the parent's lists are not written
        assert successor._normals.keys() == table._normals.keys()
        for pair in shared:
            assert successor._normals[pair] is table._normals[pair]
            assert successor._packings[pair] is table._packings[pair]
        for pair in rebuilt:
            assert successor._normals[pair] is not table._normals[pair]
            assert successor._normals[pair] == fresh_normals(successor.points, pair)
            assert pair not in successor._packings  # packed again on first use


class TestChainedSuccessors:
    """A chain of accepted moves over every colour, each adopting
    `successor()`: after every step the table's depth and masks are those
    of a fresh table of its points, and every normal list it holds, whether
    taken over or built from its parent's, is a fresh `_span_normals` build.
    The chain moves one point, two points, the last point alone, no point,
    points that are multiples of another colour's point (zero normals and
    minors), and a point of more bits than a packing taken over."""

    @staticmethod
    def check(table):
        fresh = _MinorTable(table.points)
        for name in ("positive", "negative", "lp", "inside", "depth"):
            assert getattr(table, name) == getattr(fresh, name), name
        for pair, normals in table._normals.items():
            assert normals == fresh_normals(table.points, pair)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_chain_matches_fresh_tables(self, d):
        n = d + 1
        rng = random.Random(100 + d)

        def point(bits=4):
            return tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(d))

        # every colour once, so every pair's list is held, then the special
        # moves, then random ones
        steps = [(c, "one") for c in range(n)]
        steps += [(0, "none"), (1, "last"), (2, "one"), (2, "big"), (3 % n, "multiple")]
        steps += [(rng.randrange(n), rng.choice(["one", "two", "multiple"]))
                  for _ in range(42 - len(steps))]
        table = _MinorTable([[point() for _ in range(n)] for _ in range(n)])
        self.check(table)
        for colour, kind in steps:
            moved = list(table.points[colour])
            j = rng.randrange(n)
            if kind == "one":
                moved[j] = point()
            elif kind == "two":
                moved[j], moved[(j + 1) % n] = point(), point()
            elif kind == "last":
                moved[d] = point()
            elif kind == "multiple":
                other = (colour + 1 + rng.randrange(d)) % n
                moved[j] = tuple(rng.choice([0, 2, -3]) * x for x in table.points[other][j])
            elif kind == "big":
                # the pairs with this colour were packed by the last proposal
                # and taken over, too narrow for minors of 80-bit points; a
                # point of 80 bits packs them and the colour again
                pairs = [(min(i, colour), max(i, colour)) for i in range(n) if i != colour]
                assert all(table._packings[pair] is parent._packings[pair] for pair in pairs)
                spare = math.factorial(d).bit_length() + 1
                assert all(8 * table._packings[pair][0] < 80 * d + spare for pair in pairs)
                moved[j] = ((1 << 79) + rng.randrange(1 << 79), *point()[1:])
            table.propose(colour, moved)
            if kind == "big":
                capacity, w = table._colour_packings[colour][:2]
                assert capacity >= 80 and 8 * w >= 80 * d + spare
                assert all(table._packings[pair][0] == w for pair in pairs)
            parent, table = table, table.successor()
            assert parent._normals.keys() <= table._normals.keys()
            if kind == "none":
                assert table.inside == parent.inside
            self.check(table)

    def test_successor_catches_a_negated_rebuilt_normal(self, monkeypatch):
        d = 3
        rng = random.Random(7)

        def point():
            return tuple(rng.randint(-20, 20) for _ in range(d))

        table = _MinorTable([[point() for _ in range(d + 1)] for _ in range(d + 1)])
        for colour in range(d + 1):
            moved = list(table.points[colour])
            moved[1] = point()
            table.propose(colour, moved)
            table = table.successor()
        moved = list(table.points[3])
        moved[0] = point()

        moved_normals = _MinorTable._moved_normals

        def planted(self, pair, colour, moved, classes):
            normals = moved_normals(self, pair, colour, moved, classes)
            if pair == (0, 1):
                # the pair {0, 1} spans colours 2 and 3; the normals through
                # the moved colour-3 point 0 are every fourth, from 0
                assert any(normals[0])
                normals[0] = tuple(-x for x in normals[0])
            return normals

        monkeypatch.setattr(_MinorTable, "_moved_normals", planted)
        # colours 0 and 1 of the successor read the rebuilt list of {0, 1}
        table.propose(3, moved)
        with pytest.raises(AssertionError, match="disagrees with a fresh table"):
            table.successor()


def planted_d4(seed: int):
    """A d = 4 configuration with small random coordinates and three planted
    degeneracies: five points on the hyperplane x0 + 2*x1 - x3 = 1, a point
    at the origin, and a repeated point.  Returns the configuration and the
    planted labels (the five, the origin, the repeated pair)."""
    rng = random.Random(seed)
    pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
           for _ in range(25)]
    picks = rng.sample(range(25), 8)
    for k in picks[:5]:
        _, x1, x2, x3 = pts[k]
        pts[k] = (1 - 2 * x1 + x3, x1, x2, x3)
    pts[picks[5]] = (Fraction(0),) * 4
    pts[picks[7]] = pts[picks[6]]
    config = Configuration(4, tuple(tuple(pts[k * 5:(k + 1) * 5]) for k in range(5)))
    labels = [divmod(k, 5) for k in picks]
    return config, tuple(sorted(labels[:5])), labels[5], set(labels[6:])


class TestPencilSweep:
    """The general-position sweep decides the (d+1)-subsets through each
    (d-1)-subset from one set of pencil normals and falls back to
    determinants only where they repeat or vanish; its witnesses, order
    included, equal the `Fraction`-determinant reference in dimensions 1
    and 4, with degeneracies planted to reach that fallback."""

    @settings(max_examples=60, deadline=None)
    @given(configurations(1))
    def test_validate_d1(self, config):
        check_validate(config)

    def test_d1_origin_and_repeat(self):
        config = Configuration(1, (((Fraction(0),), (Fraction(1, 2),)),
                                   ((Fraction(2, 4),), (Fraction(-1),))))
        report = validate(config)
        assert report.degenerate_witnesses == reference_witnesses(config) == (
            ((0, 1), (1, 0)), ((0, 0),))

    def test_validate_d4_planted(self):
        # one draw: the reference computes 65,780 Fraction determinants,
        # about 25 s
        config, on_plane, origin, repeated = planted_d4(1)
        witnesses = validate(config).degenerate_witnesses
        assert witnesses == reference_witnesses(config)
        assert on_plane in witnesses
        assert any(len(s) == 5 and repeated <= set(s) for s in witnesses)
        assert any(len(s) == 4 and origin in s for s in witnesses)


def integer_points(draw, d: int, count: int, bits: int) -> list:
    """Points with coordinates of at most `bits` bits."""
    coord = st.integers(1 - (1 << bits), (1 << bits) - 1)
    return [tuple(draw(coord) for _ in range(d)) for _ in range(count)]


def slot_values(total: int, w: int, count: int) -> list[int]:
    """The signed values of the first `count` slots of 8w bits of a packed
    sum, lowest first."""
    width = 8 * w
    values = []
    for _ in range(count):
        low = total & (1 << width) - 1
        value = low - (1 << width) if low >> width - 1 else low
        values.append(value)
        total = (total - value) >> width
    return values


def check_proposal(table: _MinorTable, colour: int, points: list) -> _MinorTable:
    """Each moved point's slots in its colour's packing are the minors of a
    fresh table of the new points, dot products of other normals, in the
    order the packing promises; the proposal's masks through the moved
    points equal the fresh table's; the successor accepts them and equals
    that fresh table.  Returns the successor."""
    n = table.dimension + 1
    moved = [j for j in range(n) if points[j] != table.points[colour][j]]
    classes = list(table.points)
    classes[colour] = points
    fresh = _MinorTable(classes)
    through = 0
    for j in moved:
        through |= table._point_zero[colour] << j * table._low[colour]
    depth = table.propose(colour, points)
    if moved:
        bits = max(abs(x) for j in moved for x in points[j]).bit_length()
        capacity, w, columns, *_ = table._colour_packings[colour]
        assert capacity >= bits
        padded = -(-table._slots // 8) * 8
        for j in moved:
            total = sum(x * column for x, column in zip(points[j], columns))
            want = []
            for i in range(n):
                if i != colour:
                    _, starts, _, stride = _layout(n, i, colour)
                    want += [fresh.minors[i][start + j * stride] for start in starts]
                    want += [0] * (padded - table._slots)
            assert slot_values(total, w, len(want)) == want
    pending_colour, _, _, pending_through, positive, negative, _, _ = table._pending
    assert (pending_colour, pending_through) == (colour, through)
    assert positive == [mask & through for mask in fresh.positive]
    assert negative == [mask & through for mask in fresh.negative]
    successor = table.successor()
    assert successor.points == fresh.points
    assert successor.minors == fresh.minors
    assert (successor.positive, successor.negative) == (fresh.positive, fresh.negative)
    assert (successor.lp, successor.inside) == (fresh.lp, fresh.inside)
    assert depth == successor.depth == fresh.depth
    return successor


class TestPackedSigns:
    """`propose` reads minor signs from the top bits of the slots of one
    packing per moved colour; the reference is a fresh table's dot products
    of the same points with other normals.  Draws reach 2^200, plant zero
    minors (a moved point that is 0 or a multiple of another colour's
    point), read normals that a successor built after a move of another
    colour, move a point to more bits than the packing holds, which forces
    a repack, and move no point."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_packed_signs_equal_dot_product_signs(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        n = d + 1
        small = data.draw(st.integers(1, 100), label="small bits")
        # multiples by -3 below reach small + 2 bits, and the +1 move one
        # more; a packing's slots round its bits up by at most 7
        big = data.draw(st.integers(small + 11, 200), label="big bits")
        pts = integer_points(data.draw, d, n * n, small)
        table = _MinorTable([pts[k * n:(k + 1) * n] for k in range(n)])
        colour = data.draw(st.integers(0, d), label="colour")

        # planted zero minors: a multiple of a point of another colour
        moved = list(table.points[colour])
        for j, p in zip(data.draw(st.permutations(range(n)))[:2],
                        integer_points(data.draw, d, 2, small)):
            other = data.draw(st.integers(0, d).filter(lambda o: o != colour))
            k = data.draw(st.sampled_from([None, 0, 1, -3]))
            moved[j] = p if k is None else tuple(k * x for x in table.points[other][j])
        table = check_proposal(table, colour, moved)

        # after a move of another colour, the next proposal of this colour
        # reads normals the successor built or took over, packed afresh
        for c in (data.draw(st.integers(0, d).filter(lambda o: o != colour)), colour):
            moved = list(table.points[c])
            moved[data.draw(st.integers(0, d))] = integer_points(data.draw, d, 1, small)[0]
            table = check_proposal(table, c, moved)

        # a point of more bits than every point the packing has seen: a
        # smaller move packs the colour first, and the bigger one repacks
        # it and its pairs
        pairs = [(min(i, colour), max(i, colour)) for i in range(n) if i != colour]
        moved = list(table.points[colour])
        j = data.draw(st.integers(0, d))
        moved[j] = tuple(x + 1 for x in moved[j])
        table.propose(colour, moved)
        assert table._colour_packings[colour][0] < big
        moved[j] = ((1 << big - 1) + data.draw(st.integers(0, (1 << big - 1) - 1)),
                    *integer_points(data.draw, d, 1, big)[0][1:])
        proposing = table
        table = check_proposal(table, colour, moved)
        capacity, w = proposing._colour_packings[colour][:2]
        assert capacity >= big
        assert all(proposing._packings[pair][0] == w for pair in pairs)

        # a proposal that moves no point
        before = table.inside
        table = check_proposal(table, colour, list(table.points[colour]))
        assert table.inside == before

    def test_successor_catches_a_flipped_sign(self, monkeypatch):
        d = 3
        rng = random.Random(5)

        def point():
            return tuple(rng.randint(-20, 20) for _ in range(d))

        points = [[point() for _ in range(d + 1)] for _ in range(d + 1)]
        moved = list(points[1])
        moved[2] = point()
        table = _MinorTable(points)
        table.propose(1, moved)
        table.successor()  # the unflipped packing agrees

        colour_packing = _MinorTable._colour_packing

        def flipped(self, c, bits):
            # negate slot 0, the first normal of the pair {0, 1}: the
            # minor of colour 0 through each moved point's first slot
            capacity, w, columns, *biases = colour_packing(self, c, bits)
            sign = _layout(d + 1, 0, c)[0]
            normal = self._pair_normals(0, c)[0]
            assert vec_dot(moved[2], normal) != 0
            return (capacity, w, [column - 2 * sign * x for column, x in zip(columns, normal)],
                    *biases)

        monkeypatch.setattr(_MinorTable, "_colour_packing", flipped)
        table = _MinorTable(points)
        table.propose(1, moved)
        with pytest.raises(AssertionError, match="disagrees with a fresh table"):
            table.successor()
