from fractions import Fraction

import pytest

from csdepth import (
    Configuration,
    InputError,
    WitnessSet,
    colourful_depth,
    generate_witnesses,
    minimize_depth,
    random_configuration,
    theorem_bound,
    transversal_points,
    simplex_contains_origin,
    verify_witness_set,
)

from helpers import fp, interior_example_d5, symmetric_example


class TestTheoremBound:
    @pytest.mark.parametrize("d,value", [(1, 2), (2, 4), (3, 6), (4, 9), (5, 12)])
    def test_values(self, d, value):
        assert theorem_bound(d) == value

    def test_equals_telescoping_sum(self):
        for d in range(1, 65):
            total = 0
            term = d + 1
            while term > 0:
                total += term
                term -= 2
            assert theorem_bound(d) == total

    def test_exceeds_prior_bound_from_dimension_four(self):
        assert theorem_bound(3) == 6  # equal to 2d, not better
        for d in range(4, 65):
            assert theorem_bound(d) > 2 * d

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            theorem_bound(0)


class TestGenerateWitnesses:
    def test_symmetric_example_meets_bound(self):
        ws = generate_witnesses(symmetric_example())
        assert len(ws.simplices) >= 4
        assert verify_witness_set(symmetric_example(), ws)
        assert any(stage.fallback for stage in ws.stage_log)

    def test_low_depth_uses_stages(self):
        report = minimize_depth(2, restarts=4, steps=150, seed=3)
        assert report.best_depth < 6
        config = report.best_config
        ws = generate_witnesses(config, seed=0)
        assert verify_witness_set(config, ws)
        assert not any(stage.fallback for stage in ws.stage_log)
        # stage over colour i starts with all d+1 points and loses at most
        # two per earlier stage
        d = config.dimension
        for i, stage in enumerate(ws.stage_log):
            assert stage.colour == i
            assert len(stage.vertices) >= d + 1 - 2 * i
            assert len(stage.emitted) == len(stage.vertices)

    def test_staged_simplices_verify_individually(self):
        report = minimize_depth(2, restarts=4, steps=150, seed=3)
        config = report.best_config
        ws = generate_witnesses(config, seed=0)
        for choice in ws.simplices:
            ok, _ = simplex_contains_origin(transversal_points(config, choice))
            assert ok

    def test_random_configurations_d123(self):
        for d, seeds in ((1, range(4)), (2, range(4)), (3, range(2))):
            for seed in seeds:
                config = random_configuration(d, seed)
                ws = generate_witnesses(config, seed=seed)
                assert len(ws.simplices) >= theorem_bound(d)
                assert verify_witness_set(config, ws)

    def test_origin_point_forces_fallback_with_many_witnesses(self):
        d = 2
        config = random_configuration(d, 8)
        colours = [list(cls) for cls in config.colours]
        colours[0][0] = tuple(Fraction(0) for _ in range(d))
        config = Configuration(d, tuple(tuple(cls) for cls in colours))
        ws = generate_witnesses(config)
        assert len(ws.simplices) >= (d + 1) ** d
        assert any(stage.fallback for stage in ws.stage_log)
        assert verify_witness_set(config, ws)

    def test_requires_origin_in_core(self):
        config = Configuration(1, ((fp(1), fp(2)), (fp(-1), fp(1))))
        with pytest.raises(InputError):
            generate_witnesses(config)

    def test_witness_count_never_exceeds_depth(self):
        for seed in range(3):
            config = random_configuration(2, seed)
            ws = generate_witnesses(config, seed=seed)
            assert len(ws.simplices) <= colourful_depth(config).depth

    def test_deterministic(self):
        config = random_configuration(2, 12)
        a = generate_witnesses(config, seed=5)
        b = generate_witnesses(config, seed=5)
        assert a.simplices == b.simplices


    def test_beyond_the_coverage_limit_enumerates_without_a_search(self, monkeypatch):
        import csdepth.witness
        monkeypatch.setattr(csdepth.witness, "find_cross_position",
                            lambda *a, **k: pytest.fail("a cross-position search started"))
        config = interior_example_d5()
        ws = generate_witnesses(config)
        assert len(ws.simplices) == colourful_depth(config).depth == 7446
        assert [(s.colour, s.fallback) for s in ws.stage_log] == [(-1, True)]
        assert verify_witness_set(config, ws)


class TestGoldenStagedDigests:
    """sha256 of the compact JSON of `generate_witnesses(...).to_json_dict()`
    on configurations that take the staged path at every stage, as recorded
    when each stage tested its 2^d cross-position cones one `ConeSpec` at a
    time: the stages' transversals, cross positions and certificates must
    not depend on how the cones are read."""

    @pytest.mark.parametrize("d, restarts, steps, seed, digest", [
        (2, 4, 150, 3, "beb83e8dc16b7b6aa0efcb3c9442b6db46e66149f5f99d42d9e0a92594a9d164"),
        (3, 1, 150, 4, "6d2556e049cc7899e63b79c3b8f39354685fccb9bf8a7b57f2953fe5d734601e"),
    ])
    def test_digest(self, d, restarts, steps, seed, digest):
        import hashlib
        import json

        config = minimize_depth(d, restarts, steps, seed).best_config
        ws = generate_witnesses(config, seed=0)
        assert not any(stage.fallback for stage in ws.stage_log)
        payload = json.dumps(ws.to_json_dict(), separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestVerifyWitnessSet:
    def test_round_trip(self):
        config = random_configuration(2, 4)
        ws = generate_witnesses(config)
        assert verify_witness_set(config, ws)

    def test_duplicate_rejected(self):
        config = random_configuration(2, 4)
        ws = generate_witnesses(config)
        doctored = WitnessSet(ws.simplices + (ws.simplices[0],),
                              ws.stage_log, ws.bound)
        assert not verify_witness_set(config, doctored)

    def test_non_containing_rejected(self):
        config = random_configuration(2, 4)
        ws = generate_witnesses(config)
        depth_report = colourful_depth(config)
        containing = {w[0] for w in depth_report.witnesses}
        outside = next(t for t in __import__("itertools").product(range(3), repeat=3)
                       if t not in containing)
        doctored = WitnessSet(ws.simplices[:-1] + (outside,),
                              ws.stage_log, ws.bound)
        assert not verify_witness_set(config, doctored)

    def test_wrong_bound_rejected(self):
        config = random_configuration(2, 4)
        ws = generate_witnesses(config)
        doctored = WitnessSet(ws.simplices, ws.stage_log, ws.bound + 1)
        assert not verify_witness_set(config, doctored)

    def test_short_set_rejected(self):
        config = random_configuration(2, 4)
        ws = generate_witnesses(config)
        doctored = WitnessSet(ws.simplices[:theorem_bound(2) - 1],
                              ws.stage_log, ws.bound)
        assert not verify_witness_set(config, doctored)
