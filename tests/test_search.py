import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdepth import (
    InputError,
    ViolationError,
    colourful_depth,
    configuration_to_json_dict,
    minimize_depth,
    origin_in_convex_hull,
    random_configuration,
    theorem_bound,
    validate,
)


class TestRandomConfiguration:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_validity(self, d):
        report = validate(random_configuration(d, 42))
        assert report.zero_in_core
        assert report.zero_interior
        assert report.general_position

    def test_deterministic(self):
        assert random_configuration(2, 7) == random_configuration(2, 7)

    def test_seed_sensitivity(self):
        assert random_configuration(2, 7) != random_configuration(2, 8)

    def test_d1_pairs_straddle_origin(self):
        config = random_configuration(1, 5)
        for cls in config.colours:
            values = [p[0] for p in cls]
            assert min(values) < 0 < max(values)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(InputError):
            random_configuration(0, 1)


class TestMinimizeDepth:
    def test_small_budget_d2(self):
        report = minimize_depth(2, restarts=3, steps=80, seed=9)
        assert report.best_depth >= theorem_bound(2)
        assert colourful_depth(report.best_config).depth == report.best_depth
        assert validate(report.best_config).zero_in_core

    def test_history_strictly_decreasing_within_restart(self):
        report = minimize_depth(2, restarts=3, steps=80, seed=9)
        by_restart = {}
        for r, _, depth in report.history:
            by_restart.setdefault(r, []).append(depth)
        for depths in by_restart.values():
            assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_history_iterations_increase(self):
        report = minimize_depth(2, restarts=2, steps=60, seed=4)
        by_restart = {}
        for r, it, _ in report.history:
            by_restart.setdefault(r, []).append(it)
        for its in by_restart.values():
            assert all(a < b for a, b in zip(its, its[1:]))

    def test_comparison_constants(self):
        report = minimize_depth(3, restarts=1, steps=5, seed=0)
        assert report.comparison == {
            "lower_bound": 6,
            "prior_lower": 6,
            "conjecture": 10,
            "bm_bound": 3,
        }

    def test_deterministic(self):
        a = minimize_depth(2, restarts=2, steps=50, seed=3)
        b = minimize_depth(2, restarts=2, steps=50, seed=3)
        assert a.best_depth == b.best_depth
        assert a.best_config == b.best_config
        assert a.history == b.history

    def test_rejects_bad_budgets(self):
        with pytest.raises(InputError):
            minimize_depth(2, restarts=0, steps=10, seed=0)
        with pytest.raises(InputError):
            minimize_depth(2, restarts=1, steps=0, seed=0)

    def test_reaches_conjectured_floor_d2(self):
        report = minimize_depth(2, restarts=8, steps=300, seed=0)
        assert report.best_depth == 5

    def test_never_below_theorem_bound_many_seeds(self):
        for seed in range(6):
            report = minimize_depth(2, restarts=2, steps=60, seed=seed)
            assert report.best_depth >= 4


class TestExactIncrementalDepth:
    """Every proposal's depth comes from the incumbent's minor table of
    integer points, with only the sign bits of the transversals through the
    moved points rewritten; these tests hold each one to a full
    `colourful_depth` of the candidate, and each commit to a fresh table."""

    @staticmethod
    def _spy(monkeypatch):
        import csdepth.search as search
        from csdepth.depth import _MinorTable

        seen = {"proposals": 0, "moved": set(), "commits": 0, "last": None}
        lower_bound = search._ProposalScreen.lower_bound
        invalidate_except = search._ProposalScreen.invalidate_except

        def checked_lower_bound(self, classes, colour):
            old = self.table.points[colour]
            seen["moved"].add(sum(p != q for p, q in zip(classes[colour], old)))
            got = lower_bound(self, classes, colour)
            candidate = search._configuration(len(classes) - 1, classes)
            assert got == colourful_depth(candidate).depth
            seen["proposals"] += 1
            seen["last"] = [list(cls) for cls in classes]
            return got

        def checked_invalidate_except(self):
            invalidate_except(self)
            fresh = _MinorTable(seen["last"])
            assert self.table.points == fresh.points
            assert self.table.minors == fresh.minors
            assert self.table.positive == fresh.positive
            assert self.table.negative == fresh.negative
            assert self.table.lp == fresh.lp
            assert self.table.inside == fresh.inside
            assert self.table.depth == fresh.depth
            for pair, normals in self.table._normals.items():
                assert normals == fresh._pair_normals(*pair)  # refreshed, not stale
            seen["commits"] += 1

        monkeypatch.setattr(search._ProposalScreen, "lower_bound", checked_lower_bound)
        monkeypatch.setattr(search._ProposalScreen, "invalidate_except",
                            checked_invalidate_except)
        return seen

    @pytest.mark.parametrize("d, restarts, steps, seed", [
        (1, 3, 20, 2), (2, 2, 60, 5), (3, 1, 60, 19), (4, 1, 6, 1)])
    def test_every_proposal_matches_colourful_depth(self, monkeypatch, d, restarts,
                                                    steps, seed):
        seen = self._spy(monkeypatch)
        minimize_depth(d, restarts, steps, seed)
        assert seen["proposals"] > steps // 2
        assert seen["moved"] >= {1, 2}  # single moves and anchor repairs
        if d > 1:  # at d = 1 every configuration in general position has depth 2
            assert seen["commits"] > 0

    @staticmethod
    def _propose_counting_lps(monkeypatch, points, colour, moved_to):
        """Propose colour `colour` with `moved_to` in place of its point 0
        on the minor table of `points`, and commit it; returns the table,
        the committed points and the LP calls the proposal made."""
        import csdepth.depth as depth_mod
        from csdepth.search import _ProposalScreen

        screen = _ProposalScreen(points)
        classes = [list(cls) for cls in points]
        classes[colour][0] = moved_to
        lp_calls = []
        origin_weights = depth_mod._origin_weights

        def counted(*args):
            lp_calls.append(args)
            return origin_weights(*args)

        monkeypatch.setattr(depth_mod, "_origin_weights", counted)
        screen.lower_bound(classes, colour)
        monkeypatch.setattr(depth_mod, "_origin_weights", origin_weights)
        screen.invalidate_except()
        return screen.table, classes, lp_calls

    @staticmethod
    def _check_transversal(table, classes, choice):
        """The table's verdict on one transversal equals the exact LP's,
        and its depth equals `colourful_depth`."""
        from csdepth.depth import _origin_weights
        from csdepth.search import _configuration

        verts = [classes[c][j] for c, j in enumerate(choice)]
        t = sum(j * len(choice) ** (len(choice) - 1 - c) for c, j in enumerate(choice))
        assert table.choice(t) == choice
        want = _origin_weights(verts, (1,) * len(verts)) is not None
        assert bool(table.inside >> t & 1) == want
        assert table.depth == colourful_depth(_configuration(len(choice) - 1, classes)).depth
        return want

    def test_rank_below_d_takes_the_lp(self, monkeypatch):
        from csdepth.search import _numerators

        points = _numerators(random_configuration(2, 42))
        p = points[1][0]
        # colour 2's point 0 on the line through colour 1's point 0, and
        # colour 0's point 0 moved onto it: transversal (0, 0, 0) spans a
        # line, so all its weights are 0 and only the LP decides it
        points[2][0] = tuple(2 * e for e in p)
        table, classes, lp_calls = self._propose_counting_lps(
            monkeypatch, points, 0, tuple(-e for e in p))
        assert not any(next(table.weights([0])))
        assert lp_calls
        assert self._check_transversal(table, classes, (0, 0, 0))

    def test_rank_d_weights_summing_to_0_are_outside_without_lp(self, monkeypatch):
        from csdepth.search import _numerators

        points = _numerators(random_configuration(2, 42))
        # colour 0's point 0 repeats colour 1's point 0: each transversal
        # through both copies has weights (a, -a, 0) with a != 0, and is
        # decided outside by the cofactor rule, with no LP at all
        table, classes, lp_calls = self._propose_counting_lps(
            monkeypatch, points, 0, points[1][0])
        assert not lp_calls
        for j in range(3):
            cs = next(table.weights([j]))
            assert any(cs) and sum(cs) == 0
            assert not self._check_transversal(table, classes, (0, 0, j))

    def test_violation_carries_the_counterexample(self, monkeypatch):
        import json

        import csdepth.search as search

        classes = search._numerators(random_configuration(2, 42))
        screen = search._ProposalScreen(classes)
        monkeypatch.setattr(search, "theorem_bound", lambda d: 10 ** 6)
        with pytest.raises(ViolationError) as err:
            screen.lower_bound(classes, 0)
        counterexample = json.loads(err.value.counterexample)
        assert counterexample["d"] == 2
        assert counterexample == configuration_to_json_dict(random_configuration(2, 42))

    def test_successor_catches_a_wrong_containment_bit(self, monkeypatch):
        from csdepth.depth import _MinorTable

        # every proposal loses one containing transversal: its depth drops
        # by one but stays above the bound, so the first proposal no deeper
        # than the incumbent is accepted, and its successor must refuse it
        decide = _MinorTable._decide
        depths = []

        def dropped(self, positive, negative, classes, through, lp):
            lp, inside = decide(self, positive, negative, classes, through, lp)
            if classes is not self.points:  # a proposal, not a table's own
                inside &= inside - 1
                depths.append(inside.bit_count())
            return lp, inside

        monkeypatch.setattr(_MinorTable, "_decide", dropped)
        with pytest.raises(AssertionError, match="inside mask disagrees"):
            minimize_depth(3, 1, 60, 19)
        assert depths and min(depths) >= theorem_bound(3)


class TestIncrementalHullTest:
    """A proposal's hull test updates the incumbent class's cofactors,
    linear in the moved point, instead of recomputing them; its verdict
    equals `origin_in_convex_hull` of the new class, and only cofactors
    that are all 0 (planted: every point, the new one included, with last
    coordinate 0) take that function's exact LP."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_origin_in_convex_hull(self, data):
        import csdepth.search as search
        from csdepth.exactgeom import normal_to_span

        d = data.draw(st.integers(1, 4), label="d")
        coord = st.integers(-40, 40)
        cls = [tuple(data.draw(coord) for _ in range(d)) for _ in range(d + 1)]
        index = data.draw(st.integers(0, d), label="index")
        p = tuple(data.draw(coord) for _ in range(d))
        if data.draw(st.booleans(), label="plant"):
            cls = [q[:-1] + (0,) for q in cls]
            p = p[:-1] + (0,)
        hull = search._hull_cofactors(cls, d)
        moved = cls[:index] + [p] + cls[index + 1:]
        columns = [tuple(q[a] for q in moved) for a in range(d)]
        all_zero = normal_to_span(columns, d + 1) is None

        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "origin_in_convex_hull",
                          lambda pts: calls.append(pts) or origin_in_convex_hull(pts))
            got = search._contains_origin_after(hull, moved, index)
        assert got == origin_in_convex_hull(moved)
        assert bool(calls) == all_zero
        if all(q[-1] == 0 for q in moved):
            assert all_zero


def laplace_det(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** a * x * laplace_det([r[:a] + r[a + 1:] for r in rows[1:]])
               for a, x in enumerate(rows[0]) if x)


def reference_cofactors(cls) -> tuple:
    """Cofactor k of d+1 points is (-1)^k det of the other d as rows, so
    that sum_k cofactor_k * point_k = 0."""
    return tuple((-1) ** k * laplace_det([q for m, q in enumerate(cls) if m != k])
                 for k in range(len(cls)))


class TestHullGradients:
    """`_hull_cofactors` builds gradient[j][k] from the normal to the points
    other than j and k; the reference is the cofactors of the class with
    point j replaced by each unit vector, by cofactor expansion.  Draws plant
    every point on a hyperplane through 0, or a repeated point, where every
    cofactor or some normal vanishes."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gradients_are_the_cofactors_of_unit_vectors(self, data):
        import csdepth.search as search

        d = data.draw(st.integers(1, 4), label="d")
        coord = st.integers(-40, 40)

        def vector(size):
            return tuple(data.draw(coord) for _ in range(size))

        cls = [vector(d) for _ in range(d + 1)]
        plant = data.draw(st.sampled_from(["none", "hyperplane", "repeat"]), label="plant")
        if plant == "hyperplane":
            basis = [vector(d) for _ in range(d - 1)]
            cls = [tuple(sum(c * b[a] for c, b in zip(vector(d - 1), basis)) for a in range(d))
                   for _ in range(d + 1)]
        elif plant == "repeat":
            cls[1] = cls[0]
        cofactors, gradients = search._hull_cofactors(cls, d)
        assert cofactors == reference_cofactors(cls)
        for j in range(d + 1):
            units = [reference_cofactors(cls[:j] + [tuple(int(a == b) for b in range(d))]
                                         + cls[j + 1:]) for a in range(d)]
            for k in range(d + 1):
                if k != j:
                    assert tuple(gradients[j][k]) == tuple(u[k] for u in units)


class TestGoldenSearchDigests:
    """sha256 of the compact JSON of `minimize_depth(...).to_json_dict()`, as
    recorded before proposals were evaluated incrementally (the cone-count
    screen and a full depth per surviving proposal): the search's decisions
    and output must not depend on how a proposal's depth is found.  The
    digest equals the `output_digest` of `csdepth search` for the same
    arguments."""

    @pytest.mark.parametrize("d, restarts, steps, seed, digest", [
        (2, 3, 200, 5, "50428a1b1535a118c774089b1eff901fa02b29c93e9826bbd581560117c85087"),
        (3, 2, 150, 19, "dc3d9fb81deca0a187d861f9633f9b13f35cbec532aa659799d4fadaa7a0400c"),
        (4, 1, 60, 1, "183554bd10791db049fb437728652a57b62aa14042fc37e04b55cee1b9959664"),
        # about 29 accepted moves at d = 4
        (4, 1, 300, 2, "5ea5e29535818fee82343a8bb15e0a9eacbedda731e8ecafb90c36cd527ccb6e"),
    ])
    def test_digest(self, d, restarts, steps, seed, digest):
        import hashlib
        import json

        report = minimize_depth(d, restarts, steps, seed)
        payload = json.dumps(report.to_json_dict(), separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


def perturbed_cross_polytope(seed: int, covered: bool):
    """The pairs (e_i, -e_i) in d = 4, with one point of each of two colours
    moved by at most 19/97 per coordinate, which keeps the 16 cones
    covering space.  The uncovered variant first sets colour 0's second
    point to its first, and keeps every move's x0 component nonnegative, so
    every cone lies in x0 >= 0."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)
    d = 4
    pairs = [[tuple(Fraction(s if k == i else 0) for k in range(d)) for s in (1, -1)]
             for i in range(d)]
    if not covered:
        pairs[0][1] = pairs[0][0]
    for colour in rng.sample(range(d), 2):
        side = rng.randrange(2)
        move = [Fraction(rng.choice([v for v in range(-19, 20) if v]), 97) for _ in range(d)]
        if not covered:
            move[0] = abs(move[0])
        pairs[colour][side] = tuple(a + b for a, b in zip(pairs[colour][side], move))
    return pairs


def uncovered_witness_family(d: int, seed: int):
    """The family of `test_arrangement.TestUncoveredWitnessSearch`: seeded
    pair cones whose first cell no full cone contains, plus the rank-1 cone
    through that cell's witness."""
    import random

    from test_arrangement import random_pair_cones, solve_columns

    from csdepth import ConeSpec, cone_contains, enumerate_cells, facet_hyperplanes

    rng = random.Random(seed)
    while True:
        cones, _ = random_pair_cones(rng, d)
        full = [c for c in cones if solve_columns(c.generators, (1,) * d)[0] != 0]
        _, w = next(iter(enumerate_cells(facet_hyperplanes(cones))))
        if not any(cone_contains(c, w) for c in full):
            return cones + [ConeSpec(tuple(tuple(k * e for e in w) for k in range(1, d + 1)))]


class TestGoldenCrossDigests:
    """sha256 of the compact JSON of `cross` and `cross-check` results
    (`find_cross_position(...)`, `is_deformed_cross_position(...)` and
    `covers_space(...)`, each `.to_json_dict()`), as recorded when every
    arrangement cell carried its witness: reading cone membership from sign
    vectors and building witnesses on demand must not change a byte."""

    @staticmethod
    def digest(result) -> str:
        import hashlib
        import json

        payload = json.dumps(result.to_json_dict(), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    @pytest.mark.parametrize("config, colours, digest", [
        # an exhaustive d = 3 search over all 1834 candidates, which fails
        pytest.param(lambda: random_configuration(3, 100), (0, 1, 2),
                     "c8196eb5e8995569e7699406338adea8c46e926b818773813e4d3c423db0c99d",
                     id="exhaustive-failure"),
        pytest.param(lambda: minimize_depth(3, 2, 150, 19).best_config, (0, 1, 2),
                     "ee6835cfa00f964ca47b6f6ecad0d76fcd70cff74431f1608d30ca4a21c26e01",
                     id="found-at-antipode"),
        # its witness is built on demand
        pytest.param(lambda: minimize_depth(3, 1, 60, 19).best_config, (0, 1, 3),
                     "31d18e5767c19e779c8fe188446c6c73b0e71be49a09208c8a79e07af006e258",
                     id="found-at-cell"),
    ])
    def test_cross(self, config, colours, digest):
        from csdepth import find_cross_position

        assert self.digest(find_cross_position(config(), colours)) == digest

    def test_cross_found_at_a_cell(self):
        from csdepth import CrossPosition, find_cross_position
        from csdepth.exactgeom import primitive_normal, scale_to_integers

        config = minimize_depth(3, 1, 60, 19).best_config
        found = find_cross_position(config, (0, 1, 3))
        assert isinstance(found, CrossPosition)
        antipodes = {primitive_normal(tuple(-e for e in scale_to_integers(p)[0]))
                     for _, _, p in config.indexed_points()}
        assert primitive_normal(scale_to_integers(found.direction)[0]) not in antipodes

    @pytest.mark.parametrize("seed, covered, digest", [
        (1, True, "14e02f45a2844165b8e4d6bae4d70db41e97d44edc56395ee3b3612a6e713d9b"),
        (2, True, "2c4be8620efc2dcd40aaac32281c8295d2f2c5f040f83ccd2bd6294510138f50"),
        (3, False, "51ba517a35d806a08246d71cdf42683bfeb9786a4f4040db9ba5cffdb499dec6"),
        (4, False, "9b182cd76f5149a8c236b2ce5ee8e16ada66c8eb951b757e930c9638bcf0100c"),
    ])
    def test_cross_check(self, seed, covered, digest):
        from csdepth import is_deformed_cross_position

        cert = is_deformed_cross_position(perturbed_cross_polytope(seed, covered))
        assert cert.covered == covered
        assert self.digest(cert) == digest

    @pytest.mark.parametrize("d, seed, digest", [
        (3, 71, "45f3ab0425047dd4686475e7f401081d66ecd502d4e18e7a34825370f7fc21f9"),
        (4, 72, "b2ca01834b108a44ec945a2cad708dd087ee4d1f2ed98408bd9a937bf60e5a66"),
    ])
    def test_uncovered_witness_with_dependent_cone(self, d, seed, digest):
        from csdepth import covers_space

        cert = covers_space(uncovered_witness_family(d, seed))
        assert not cert.covered
        assert self.digest(cert) == digest
