import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from csdepth import (
    ConeSpec,
    Configuration,
    InputError,
    antipodal_check,
    colourful_depth,
    cone_contains,
    d_depth,
    enumerate_transversals,
    origin_in_convex_hull,
    random_configuration,
    simplex_contains_origin,
    theorem_bound,
    transversal_points,
)

from csdepth.exactgeom import cone_facet_rows, int_det

from helpers import (
    fp,
    oracle_cone_contains_2d,
    oracle_depth_1d,
    oracle_depth_2d,
    random_rational_point,
    symmetric_example,
)


class TestSimplexContainsOrigin:
    def test_symmetric_containment(self):
        ok, coeffs = simplex_contains_origin([fp(1, 0), fp(0, 1), fp(-1, -1)])
        assert ok
        assert coeffs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_open_halfspace_miss(self):
        ok, coeffs = simplex_contains_origin([fp(1, 0), fp(0, 1), fp(1, 1)])
        assert not ok and coeffs is None

    def test_degenerate_segment(self):
        ok, coeffs = simplex_contains_origin([fp(1, 0), fp(-1, 0), fp(2, 0)])
        assert ok
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        assert sum(c * p[0] for c, p in zip(coeffs, [fp(1, 0), fp(-1, 0), fp(2, 0)])) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            simplex_contains_origin([fp(1, 0), fp(0, 1), fp(1)])

    def test_agrees_with_orientation_oracle(self):
        from helpers import oracle_triangle_contains_origin
        rng = random.Random(2)
        hits = 0
        for _ in range(500):
            pts = [random_rational_point(rng, 2, span=8, den=4) for _ in range(3)]
            got, coeffs = simplex_contains_origin(pts)
            assert got == oracle_triangle_contains_origin(*pts)
            if got:
                hits += 1
                assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
                for k in range(2):
                    assert sum(c * p[k] for c, p in zip(coeffs, pts)) == 0
        assert hits > 20

    def test_scale_invariance_of_verdict(self):
        rng = random.Random(3)
        for _ in range(100):
            pts = [random_rational_point(rng, 2, span=6, den=3) for _ in range(3)]
            base, _ = simplex_contains_origin(pts)
            i = rng.randrange(3)
            s = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            scaled = list(pts)
            scaled[i] = tuple(s * c for c in scaled[i])
            assert simplex_contains_origin(scaled)[0] == base


class TestOriginInHull:
    def test_single_point(self):
        assert origin_in_convex_hull([fp(0, 0)])
        assert not origin_in_convex_hull([fp(1, 0)])

    def test_segment(self):
        assert origin_in_convex_hull([fp(-1, -1), fp(2, 2)])
        assert not origin_in_convex_hull([fp(1, 1), fp(2, 2)])

    def test_agrees_with_caratheodory_oracle_2d(self):
        # in the plane the origin is in the hull of a point set iff it is in
        # the closed hull of at most three of the points
        from helpers import oracle_triangle_contains_origin
        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            pts = [random_rational_point(rng, 2, span=4, den=2)
                   for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                # all on one line through the origin
                pts = [tuple(c * pts[0][k] for k in range(2))
                       for c in (Fraction(rng.randint(-3, 3)) for _ in pts)]
            want = any(oracle_triangle_contains_origin(*t)
                       for t in itertools.combinations_with_replacement(pts, 3))
            assert origin_in_convex_hull(pts) == want
            outcomes[want] += 1
        assert outcomes[True] > 50 and outcomes[False] > 50


class TestOriginInHullFastPath:
    """d+1 points in dimension d are decided by cofactor signs and d points
    by one determinant; both must agree with the exact LP on every input,
    planted degeneracies included."""

    @staticmethod
    def _lp(points):
        from csdepth.depth import _origin_weights
        from csdepth.exactgeom import scale_to_integers

        ints = [scale_to_integers(p)[0] for p in points]
        return _origin_weights(ints, (1,) * len(ints)) is not None

    @staticmethod
    def _plant(rng, pts, d):
        kind = rng.choice(["origin", "collinear", "repeat", "line", "none"])
        order = rng.sample(range(len(pts)), len(pts))
        a, b, c = order[0], order[-1], order[len(order) // 2]
        if kind == "origin":
            pts[a] = (Fraction(0),) * d
        elif kind == "collinear" and len(pts) >= 3:
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            pts[c] = tuple(x + t * (y - x) for x, y in zip(pts[a], pts[b]))
        elif kind == "repeat":
            pts[b] = pts[a]
        elif kind == "line":
            # every point on one line through the origin
            direction = pts[0]
            pts[:] = [tuple(Fraction(rng.randint(-3, 3)) * e for e in direction)
                      for _ in pts]
        return kind

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("extra", [1, 0])
    def test_agrees_with_lp(self, d, extra):
        rng = random.Random(1000 * d + extra)
        outcomes = {True: 0, False: 0}
        kinds = set()
        for trial in range(400):
            pts = [random_rational_point(rng, d, span=4, den=3) for _ in range(d + extra)]
            if trial % 2:
                kinds.add(self._plant(rng, pts, d))
            want = self._lp(pts)
            assert origin_in_convex_hull(pts) == want, pts
            outcomes[want] += 1
        assert outcomes[True] > 10 and outcomes[False] > 10
        assert {"origin", "repeat", "line"} <= kinds


class TestCofactorRule:
    """One rule decides d+1 points in dimension d everywhere: the LP runs
    only when every cofactor weight is 0 (rank below d), and weights that
    are not all 0 but sum to 0 (rank d, affinely dependent) mean outside.
    Seeded planted dependences hold `_cofactor_verdict`,
    `simplex_contains_origin`, `origin_in_convex_hull` and, at d <= 2, the
    minor table's masks to the exact LP."""

    @staticmethod
    def _plant(rng, d, kind):
        pts = [random_rational_point(rng, d, span=4, den=3) for _ in range(d + 1)]
        if kind == "repeat":
            a, b = rng.sample(range(d + 1), 2)
            pts[b] = pts[a]
        elif kind == "hyperplane":
            # the last point an affine combination of the others
            lams = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)]
            lams.append(1 - sum(lams))
            pts[d] = tuple(sum(lam * p[k] for lam, p in zip(lams, pts)) for k in range(d))
        elif kind == "subspace":
            # every point in one linear subspace of dimension d-1
            basis = [random_rational_point(rng, d, span=4, den=3) for _ in range(d - 1)]
            coeffs = [[rng.randint(-2, 2) for _ in basis] for _ in range(d + 1)]
            pts = [tuple(sum(c * b[k] for c, b in zip(cs, basis)) for k in range(d))
                   for cs in coeffs]
        return pts

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_agrees_with_lp(self, monkeypatch, d):
        import csdepth.depth as depth_mod
        from csdepth.depth import _MinorTable, _cofactor_verdict, _origin_weights
        from csdepth.exactgeom import normal_to_span

        lp_calls = []

        def counted(*args):
            lp_calls.append(args)
            return _origin_weights(*args)

        monkeypatch.setattr(depth_mod, "_origin_weights", counted)
        rng = random.Random(7000 + d)
        seen = {"outside by sum 0": 0, "lp": 0}
        for trial in range(300):
            pts = self._plant(rng, d, ["repeat", "hyperplane", "subspace", "none"][trial % 4])
            # one common scale keeps affine dependences, so weights sum to 0
            m = lcm(*[x.denominator for p in pts for x in p])
            ints = [tuple(int(x * m) for x in p) for p in pts]
            want = _origin_weights(ints, (1,) * (d + 1)) is not None
            columns = [tuple(v[k] for v in ints) for k in range(d)]
            cs = normal_to_span(columns, d + 1) or (0,) * (d + 1)
            verdict = _cofactor_verdict(cs)
            if any(cs):
                assert verdict == want, pts
                if sum(cs) == 0:
                    assert not want
                    seen["outside by sum 0"] += 1
            else:
                assert verdict is None
                seen["lp"] += 1
            del lp_calls[:]
            assert simplex_contains_origin(pts)[0] == want, pts
            assert origin_in_convex_hull(pts) == want, pts
            if d <= 2:  # every transversal of d+1 copies of each point is this simplex
                table = _MinorTable([[v] * (d + 1) for v in ints])
                assert table.inside == (want << (d + 1) ** (d + 1)) - want
            assert bool(lp_calls) == (not any(cs))
        assert seen["outside by sum 0"] >= 100 and seen["lp"] >= 50


class TestConeContains:
    def test_positive_quadrant(self):
        cone = ConeSpec((fp(1, 0), fp(0, 1)))
        assert cone_contains(cone, fp(2, 3))

    def test_antipodal_ray(self):
        cone = ConeSpec((fp(1, 0), fp(0, 1)))
        assert not cone_contains(cone, fp(-1, 0))

    def test_apex(self):
        cone = ConeSpec((fp(1, 0), fp(0, 1)))
        assert cone_contains(cone, fp(0, 0))

    def test_dependent_generators_ray(self):
        cone = ConeSpec((fp(1, 1), fp(2, 2)))
        assert cone_contains(cone, fp(3, 3))
        assert not cone_contains(cone, fp(-1, -1))
        assert not cone_contains(cone, fp(1, 0))

    def test_dependent_generators_line(self):
        cone = ConeSpec((fp(1, 1), fp(-2, -2)))
        assert cone_contains(cone, fp(-5, -5))
        assert cone_contains(cone, fp(4, 4))
        assert not cone_contains(cone, fp(1, 2))

    def test_zero_generator_rejected(self):
        with pytest.raises(InputError):
            ConeSpec((fp(0, 0), fp(0, 1)))

    def test_agrees_with_cross_product_oracle(self):
        rng = random.Random(4)
        for _ in range(500):
            g1 = random_rational_point(rng, 2, span=5, den=3)
            g2 = random_rational_point(rng, 2, span=5, den=3)
            x = random_rational_point(rng, 2, span=5, den=3)
            if all(c == 0 for c in g1) or all(c == 0 for c in g2):
                continue
            assert cone_contains(ConeSpec((g1, g2)), x) == \
                oracle_cone_contains_2d(g1, g2, x)


def _row_reduce(rows, width):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    m = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [e / m[r][c] for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _cone_coefficients(gens, x):
    """The unique c with sum c_i g_i = x, or None when the gens are dependent."""
    d = len(gens)
    m, pivots = _row_reduce([[g[k] for g in gens] + [x[k]] for k in range(d)], d)
    return [m[i][d] for i in range(d)] if len(pivots) == d else None


def _span_normal(gens, d):
    """A nonzero vector orthogonal to every generator (their span is proper)."""
    m, pivots = _row_reduce(gens, d)
    free = next(c for c in range(d) if c not in pivots)
    n = [Fraction(0)] * d
    n[free] = Fraction(1)
    for row, c in zip(m, pivots):
        n[c] = -row[free]
    return n


class TestConeContainsBeyondThePlane:
    """Cone membership at d = 3 and 4 against test-local exact linear algebra."""

    def test_independent_generators_match_gauss_jordan(self):
        rng = random.Random(41)
        outcomes = {True: 0, False: 0}
        for d in (3, 4):
            for _ in range(300):
                gens = [random_rational_point(rng, d, span=5, den=3) for _ in range(d)]
                if any(all(c == 0 for c in g) for g in gens):
                    continue
                if rng.random() < 0.5:
                    # on or near the boundary: some coefficients 0 or negative
                    lam = [Fraction(rng.randint(-1, 3), rng.randint(1, 2)) for _ in range(d)]
                    x = tuple(sum(lam[i] * gens[i][k] for i in range(d)) for k in range(d))
                else:
                    x = random_rational_point(rng, d, span=5, den=3)
                coeffs = _cone_coefficients(gens, x)
                if coeffs is None:
                    continue
                want = all(c >= 0 for c in coeffs)
                assert cone_contains(ConeSpec(tuple(gens)), x) == want
                outcomes[want] += 1
        assert outcomes[True] > 100 and outcomes[False] > 100

    def test_dependent_generators(self):
        rng = random.Random(43)
        for d in (3, 4):
            for _ in range(60):
                gens = [random_rational_point(rng, d, span=5, den=3) for _ in range(d - 1)]
                if any(all(c == 0 for c in g) for g in gens):
                    continue
                source = rng.randrange(d - 1)
                scale = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                gens.insert(rng.randrange(d), tuple(scale * c for c in gens[source]))
                cone = ConeSpec(tuple(gens))
                lam = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(d)]
                inside = tuple(sum(lam[i] * gens[i][k] for i in range(d)) for k in range(d))
                assert cone_contains(cone, inside)
                normal = _span_normal(gens, d)
                x = random_rational_point(rng, d, span=5, den=3)
                if sum(a * b for a, b in zip(normal, x)) != 0:
                    assert not cone_contains(cone, x)

    def test_facet_rows_are_adjugate_rows(self):
        rng = random.Random(47)
        singular = 0
        for d in (3, 4):
            for _ in range(200):
                gens = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d)]
                if rng.random() < 0.2:
                    gens[rng.randrange(2, d)] = tuple(
                        a + b for a, b in zip(gens[0], gens[1]))
                rows = cone_facet_rows(gens)
                assert (rows is None) == (int_det(gens) == 0)
                if rows is None:
                    singular += 1
                    continue
                for i, row in enumerate(rows):
                    for k, g in enumerate(gens):
                        value = sum(a * b for a, b in zip(row, g))
                        assert value > 0 if k == i else value == 0
        assert singular > 20


class TestColourfulDepth:
    def test_symmetric_example_is_six(self):
        report = colourful_depth(symmetric_example())
        assert report.depth == 6
        # exactly the transversals picking three pairwise distinct locations
        assert sorted(w[0] for w in report.witnesses) == \
            sorted(itertools.permutations(range(3)))

    def test_d1_example_is_two(self):
        config = Configuration(1, ((fp(1), fp(-1)), (fp(2), fp(-3))))
        report = colourful_depth(config)
        assert report.depth == 2
        assert oracle_depth_1d(config) == 2

    def test_matches_2d_oracle_on_random_configurations(self):
        for seed in range(12):
            config = random_configuration(2, seed)
            assert colourful_depth(config).depth == oracle_depth_2d(config)

    def test_origin_point_forces_many(self):
        for d in (1, 2):
            config = random_configuration(d, 8)
            colours = [list(cls) for cls in config.colours]
            colours[0][0] = tuple(Fraction(0) for _ in range(d))
            config = Configuration(d, tuple(tuple(cls) for cls in colours))
            assert colourful_depth(config).depth >= (d + 1) ** d

    def test_witnesses_reverify(self):
        config = random_configuration(2, 21)
        report = colourful_depth(config)
        assert report.depth == len(report.witnesses)
        for choice, coeffs in report.witnesses:
            pts = transversal_points(config, choice)
            assert sum(coeffs) == 1
            assert all(c >= 0 for c in coeffs)
            for k in range(2):
                assert sum(c * p[k] for c, p in zip(coeffs, pts)) == 0

    def test_witness_order_lexicographic(self):
        report = colourful_depth(symmetric_example())
        choices = [w[0] for w in report.witnesses]
        assert choices == sorted(choices)

    def test_symmetry_under_permutations(self):
        rng = random.Random(6)
        config = random_configuration(2, 31)
        base = colourful_depth(config).depth
        perm = list(range(3))
        rng.shuffle(perm)
        permuted_colours = tuple(config.colours[p] for p in perm)
        assert colourful_depth(Configuration(2, permuted_colours)).depth == base
        shuffled = tuple(tuple(rng.sample(cls, len(cls)))
                         for cls in config.colours)
        assert colourful_depth(Configuration(2, shuffled)).depth == base

    def test_scale_invariance(self):
        rng = random.Random(7)
        config = random_configuration(2, 13)
        base = colourful_depth(config).depth
        colours = [list(cls) for cls in config.colours]
        c = rng.randrange(3)
        j = rng.randrange(3)
        s = Fraction(7, 3)
        colours[c][j] = tuple(s * x for x in colours[c][j])
        assert colourful_depth(Configuration(2, tuple(tuple(x) for x in colours))).depth == base

    def test_lower_bounds_on_random_configurations(self):
        for d in (1, 2, 3):
            for seed in range(4):
                config = random_configuration(d, seed)
                depth = colourful_depth(config).depth
                assert depth >= theorem_bound(d)
                assert depth >= 2 * d


class TestDepthBudget:
    """The minor table holds every one of the (d+1)^(d+1) transversals:
    16,777,216 at d = 7.  That dimension is refused before any table is
    built, unless the caller overrides it."""

    @staticmethod
    def config_d7():
        cls = tuple(tuple(fp(*[k + 1 if k == i else 1 for k in range(7)]) for i in range(8)))
        return Configuration(7, (cls,) * 8)

    def test_dimension_7_is_refused_before_any_table(self, monkeypatch):
        import csdepth.depth

        def no_table(*args):
            pytest.fail("a minor table was built")

        monkeypatch.setattr(csdepth.depth, "_MinorTable", no_table)
        with pytest.raises(InputError, match="depth in dimension 7 needs allow_high_dimension=True"):
            colourful_depth(self.config_d7())

    def test_override_builds_the_table(self, monkeypatch):
        import csdepth.depth

        class Built(Exception):
            pass

        def table(points):
            assert len(points) == 8
            raise Built

        monkeypatch.setattr(csdepth.depth, "_MinorTable", table)
        with pytest.raises(Built):
            colourful_depth(self.config_d7(), allow_high_dimension=True)


class TestDDepth:
    def test_symmetric_direction_count(self):
        config = symmetric_example()
        assert d_depth(config, (0, 1), fp(1, 1)) == 2

    def test_symmetric_hand_enumeration_oracle(self):
        config = symmetric_example()
        pts = config.colours[0]
        for x in (fp(1, 1), fp(-1, -1), fp(5, -2), fp(0, 3)):
            by_hand = sum(
                1 for g1 in pts for g2 in pts if oracle_cone_contains_2d(g1, g2, x))
            assert d_depth(config, (0, 1), x) == by_hand

    def test_antipode_of_config_point_at_least_one(self):
        config = symmetric_example()
        assert d_depth(config, (0, 1), fp(-1, -1)) >= 1

    def test_standard_basis_cone(self):
        e1, e2 = fp(1, 0), fp(0, 1)
        cls0 = (e1, fp(2, 1), fp(-3, -2))
        cls1 = (e2, fp(1, 2), fp(-1, -1))
        cls2 = (fp(1, 1), fp(-2, 1), fp(1, -2))
        config = Configuration(2, (cls0, cls1, cls2))
        assert d_depth(config, (0, 1), fp(1, 1)) >= 1

    def test_origin_rejected(self):
        with pytest.raises(InputError):
            d_depth(symmetric_example(), (0, 1), fp(0, 0))

    def test_matches_gauss_jordan_count_at_d3(self):
        rng = random.Random(53)
        for seed in range(3):
            config = random_configuration(3, seed)
            subset = (0, 2, 3)
            for _ in range(10):
                x = random_rational_point(rng, 3, span=5, den=3)
                if all(c == 0 for c in x):
                    continue
                want = 0
                for choice in itertools.product(range(4), repeat=3):
                    gens = [config.point(c, j) for c, j in zip(subset, choice)]
                    if all(c >= 0 for c in _cone_coefficients(gens, x)):
                        want += 1
                assert d_depth(config, subset, x) == want

    def test_bad_colour_subsets(self):
        config = symmetric_example()
        with pytest.raises(InputError):
            d_depth(config, (0,), fp(1, 1))
        with pytest.raises(InputError):
            d_depth(config, (0, 0), fp(1, 1))
        with pytest.raises(InputError):
            d_depth(config, (0, 3), fp(1, 1))

    def test_config_point_antipodes_on_random_configurations(self):
        # with the origin in the core, the antipode of every point of the
        # colour outside D lands in at least one D-coloured cone
        for d, seeds in ((2, range(6)), (3, range(3))):
            for seed in seeds:
                config = random_configuration(d, seed)
                for excluded in range(d + 1):
                    subset = tuple(c for c in range(d + 1) if c != excluded)
                    for j in range(d + 1):
                        antipode = tuple(-x for x in config.point(excluded, j))
                        assert d_depth(config, subset, antipode) >= 1


class TestAntipodalCheck:
    def test_symmetric_example(self):
        assert antipodal_check(symmetric_example(), (0, 1, 2), 2) is True

    def test_aligned_points_false(self):
        cls0 = (fp(1, 0), fp(2, 1), fp(-3, -2))
        cls1 = (fp(2, 0), fp(1, 2), fp(-1, -1))
        cls2 = (fp(3, 0), fp(-2, 1), fp(1, -2))
        config = Configuration(2, (cls0, cls1, cls2))
        assert antipodal_check(config, (0, 0, 0), 2) is False

    @pytest.mark.parametrize("choice", [(0, 1, -1), (0, 3, 1), (0, 1), (0, 1, 2, 0)])
    def test_transversal_out_of_range_rejected(self, choice):
        with pytest.raises(InputError):
            antipodal_check(symmetric_example(), choice, 2)

    def test_equivalence_on_random_configurations(self):
        for d, seeds in ((2, range(8)), (3, range(2))):
            for seed in seeds:
                config = random_configuration(d, seed)
                for choice in enumerate_transversals(config):
                    want, _ = simplex_contains_origin(transversal_points(config, choice))
                    for colour in range(d + 1):
                        assert antipodal_check(config, choice, colour) == want

    def test_depth_decomposes_over_excluded_colour(self):
        # depth equals the sum over colour-i points of the cone count of
        # their antipodes, for any excluded colour i
        config = random_configuration(2, 17)
        depth = colourful_depth(config).depth
        for excluded in range(3):
            subset = tuple(c for c in range(3) if c != excluded)
            total = sum(
                d_depth(config, subset, tuple(-x for x in config.point(excluded, j)))
                for j in range(3))
            assert total == depth


class TestParityProperty:
    def test_octahedra_contain_the_origin_an_even_number_of_times(self):
        """Deza-Huang-Stephen-Terlaky (DCG 2006): in general position, of the
        2^(d+1) colourful simplices on two points per colour, an even
        number contain the origin."""
        rng = random.Random(2006)
        nonzero = 0
        for d in (1, 2, 3):
            for seed in range(10):
                config = random_configuration(d, seed)
                for _ in range(20):
                    pairs = [rng.sample(range(d + 1), 2) for _ in range(d + 1)]
                    count = sum(
                        simplex_contains_origin(
                            [config.point(c, pairs[c][b]) for c, b in enumerate(bits)])[0]
                        for bits in itertools.product((0, 1), repeat=d + 1))
                    assert count % 2 == 0, (d, seed, pairs)
                    nonzero += count > 0
        assert nonzero > 300
