import pytest

from csdepth import (
    Configuration,
    InputError,
    ViolationError,
    colourful_depth,
    minimize_depth,
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
    """Every proposal's depth comes from the incumbent's minor table,
    updated for the moved points only; these tests hold each one to a full
    `colourful_depth` of the candidate."""

    @staticmethod
    def _spy(monkeypatch):
        import csdepth.search as search
        from csdepth.depth import _MinorTable
        from csdepth.exactgeom import scale_to_integers

        seen = {"proposals": 0, "moved": set(), "commits": 0, "last": None}
        lower_bound = search._ProposalScreen.lower_bound
        invalidate_except = search._ProposalScreen.invalidate_except

        def checked_lower_bound(self, classes, colour):
            old = self.table.scaled[colour]
            seen["moved"].add(sum(scale_to_integers(p) != q
                                  for p, q in zip(classes[colour], old)))
            got = lower_bound(self, classes, colour)
            d = len(classes) - 1
            candidate = Configuration(d, tuple(tuple(cls) for cls in classes))
            assert got == colourful_depth(candidate).depth
            seen["proposals"] += 1
            seen["last"] = candidate
            return got

        def checked_invalidate_except(self):
            invalidate_except(self)
            fresh = _MinorTable(seen["last"].colours)
            assert self.table.scaled == fresh.scaled
            assert self.table.minors == fresh.minors
            assert self.table.verdicts == fresh.verdicts
            assert self.table.depth == fresh.depth
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

    def test_affinely_dependent_transversal_takes_the_lp(self, monkeypatch):
        import csdepth.depth as depth_mod
        from csdepth.search import _ProposalScreen

        config = random_configuration(2, 42)
        screen = _ProposalScreen(config)
        classes = [list(cls) for cls in config.colours]
        # repeat a colour-1 point in colour 0, keeping the origin the mean of
        # colour 0: transversals through both copies have cofactors summing to 0
        classes[0][0] = config.point(1, 0)
        classes[0][2] = tuple(-classes[0][0][k] - classes[0][1][k] for k in range(2))
        lp_calls = []
        origin_weights = depth_mod._origin_weights

        def counted(*args):
            lp_calls.append(args)
            return origin_weights(*args)

        monkeypatch.setattr(depth_mod, "_origin_weights", counted)
        got = screen.lower_bound(classes, 0)
        assert lp_calls
        candidate = Configuration(2, tuple(tuple(cls) for cls in classes))
        assert got == colourful_depth(candidate).depth
        assert not validate(candidate).general_position

    def test_violation_carries_the_counterexample(self, monkeypatch):
        import json

        import csdepth.search as search

        config = random_configuration(2, 42)
        screen = search._ProposalScreen(config)
        classes = [list(cls) for cls in config.colours]
        monkeypatch.setattr(search, "theorem_bound", lambda d: 10 ** 6)
        with pytest.raises(ViolationError) as err:
            screen.lower_bound(classes, 0)
        assert json.loads(err.value.counterexample)["d"] == 2


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
    ])
    def test_digest(self, d, restarts, steps, seed, digest):
        import hashlib
        import json

        report = minimize_depth(d, restarts, steps, seed)
        payload = json.dumps(report.to_json_dict(), separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest
