import json
import random
from fractions import Fraction

import pytest

from csdepth import (
    Configuration,
    InputError,
    configuration_to_json_dict,
    ParseError,
    enumerate_transversals,
    parse_configuration,
    parse_pairs,
    random_configuration,
    transversal_points,
    validate,
)

from helpers import fp, symmetric_example


MINIMAL_D1 = json.dumps({
    "d": 1,
    "colours": [[["1"], ["-1"]], [["1/2"], ["-1/2"]]],
})


class TestParsing:
    def test_minimal_valid(self):
        config = parse_configuration(MINIMAL_D1)
        assert config.dimension == 1
        assert len(config.colours) == 2
        assert config.point(1, 0) == (Fraction(1, 2),)

    def test_count_mismatch(self):
        doc = {"d": 1, "colours": [[["1"], ["-1"], ["2"]], [["1/2"], ["-1/2"]]]}
        with pytest.raises(ParseError, match="colours"):
            parse_configuration(json.dumps(doc))

    def test_zero_denominator(self):
        doc = {"d": 1, "colours": [[["1/0"], ["-1"]], [["1/2"], ["-1/2"]]]}
        with pytest.raises(ParseError, match="denominator"):
            parse_configuration(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_configuration('{"d": 1,')

    def test_wrong_top_level(self):
        with pytest.raises(ParseError):
            parse_configuration("[1, 2]")

    def test_missing_dimension(self):
        with pytest.raises(ParseError, match="'d'"):
            parse_configuration(json.dumps({"colours": []}))

    def test_wrong_coordinate_count(self):
        doc = {"d": 2, "colours": [
            [["1", "0"], ["0", "1"], ["-1"]],
            [["1", "0"], ["0", "1"], ["-1", "-1"]],
            [["1", "0"], ["0", "1"], ["-1", "-1"]],
        ]}
        with pytest.raises(ParseError, match=r"colours\[0\]\[2\]"):
            parse_configuration(json.dumps(doc))

    def test_accepts_report_envelope(self):
        wrapped = json.dumps({"manifest": {}, "result": json.loads(MINIMAL_D1)})
        config = parse_configuration(wrapped)
        assert config.dimension == 1

    def test_round_trip_identity(self):
        for seed in range(8):
            config = random_configuration(2, seed)
            text = json.dumps(configuration_to_json_dict(config))
            assert parse_configuration(text) == config

    def test_pairs_file(self):
        doc = {"d": 2, "colours": [[["1", "0"], ["-1", "0"]],
                                   [["0", "1"], ["0", "-1"]]]}
        pairs = parse_pairs(json.dumps(doc))
        assert len(pairs) == 2
        assert pairs[0] == (fp(1, 0), fp(-1, 0))

    def test_pairs_wrong_count(self):
        doc = {"d": 2, "colours": [[["1", "0"], ["-1", "0"], ["1", "1"]],
                                   [["0", "1"], ["0", "-1"]]]}
        with pytest.raises(ParseError):
            parse_pairs(json.dumps(doc))


class TestConfigurationShape:
    def test_rejects_wrong_class_count(self):
        with pytest.raises(InputError):
            Configuration(1, ((fp(1), fp(-1)),))

    def test_rejects_wrong_point_count(self):
        with pytest.raises(InputError):
            Configuration(1, ((fp(1),), (fp(2), fp(-2))))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(InputError):
            Configuration(1, ((fp(1, 0), fp(-1)), (fp(2), fp(-2))))

    def test_transversal_points_bounds(self):
        config = symmetric_example()
        with pytest.raises(InputError):
            transversal_points(config, (0, 1))
        with pytest.raises(InputError):
            transversal_points(config, (0, 1, 3))


class TestTransversals:
    @pytest.mark.parametrize("d,count", [(1, 4), (2, 27), (4, 3125)])
    def test_counts(self, d, count):
        config = random_configuration(d, 3)
        assert sum(1 for _ in enumerate_transversals(config)) == count

    def test_count_law_up_to_d5(self):
        for d in range(1, 6):
            config = random_configuration(d, 1) if d <= 4 else _dummy_config(d)
            assert sum(1 for _ in enumerate_transversals(config)) == (d + 1) ** (d + 1)

    def test_lexicographic_and_distinct(self):
        config = symmetric_example()
        seq = list(enumerate_transversals(config))
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def _dummy_config(d):
    # shape-only configuration (validity not needed for counting)
    pts = tuple(tuple(Fraction(i + 1) if k == 0 else Fraction(1)
                      for k in range(d)) for i in range(d + 1))
    return Configuration(d, tuple(pts for _ in range(d + 1)))


class TestValidate:
    def test_dimension_6_refused_before_any_work(self, monkeypatch):
        import csdepth.depth
        monkeypatch.setattr(csdepth.depth, "origin_in_convex_hull",
                            lambda *a: pytest.fail("validate started working"))
        with pytest.raises(InputError, match="dimension 6 needs allow_high_dimension=True"):
            validate(_dummy_config(6))

    def test_symmetric_example_flags(self):
        report = validate(symmetric_example())
        assert report.zero_in_core is True
        assert report.zero_interior is True
        assert report.general_position is False
        assert report.degenerate_witnesses

    def test_symmetric_example_barycentric_oracle(self):
        # independent check: the unique coefficients for {(1,0),(0,1),(-1,-1)}
        # solve l1*(1,0)+l2*(0,1)+l3*(-1,-1)=0, l1+l2+l3=1 by substitution:
        # l1 = l3, l2 = l3, so 3*l3 = 1.
        coeffs = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        pts = symmetric_example().colours[0]
        assert sum(coeffs) == 1
        for k in range(2):
            assert sum(c * p[k] for c, p in zip(coeffs, pts)) == 0

    def test_hull_miss(self):
        config = Configuration(1, ((fp(1), fp(2)), (fp(-1), fp(1))))
        report = validate(config)
        assert report.zero_in_core is False
        assert report.zero_interior is False

    def test_random_configurations_all_flags(self):
        for seed in range(5):
            report = validate(random_configuration(2, seed))
            assert report.zero_in_core and report.zero_interior
            assert report.general_position
            assert report.degenerate_witnesses == ()

    def test_general_position_implies_no_witnesses(self):
        for seed in range(4):
            report = validate(random_configuration(3, seed))
            assert report.general_position == (not report.degenerate_witnesses)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        config = random_configuration(2, 11)
        flags = validate(config)
        colours = list(config.colours)
        rng.shuffle(colours)
        colours = [tuple(sorted(cls, key=lambda p: rng.random())) for cls in colours]
        permuted = Configuration(2, tuple(colours))
        other = validate(permuted)
        assert (other.zero_in_core, other.zero_interior, other.general_position) == \
            (flags.zero_in_core, flags.zero_interior, flags.general_position)

    def test_points_tested_as_given_not_rescaled(self):
        # Each point has its own integer scale factor.  (1,0), (1/2,1/2) and
        # (0,1) all lie on x+y=1 although their scaled forms (1,0), (1,1),
        # (0,1) do not; (1,0), (1/2,1/2), (1/3,-1) are affinely independent
        # although their scaled forms (1,0), (1,1), (1,-3) lie on x=1.
        config = Configuration(2, (
            (fp(1, 0), fp(-1, 1), fp(Fraction(-1, 2), -1)),
            (fp(Fraction(1, 2), Fraction(1, 2)), fp(-1, Fraction(-1, 3)),
             fp(Fraction(1, 3), -1)),
            (fp(0, 1), fp(-1, Fraction(-2, 7)), fp(Fraction(2, 5), -1)),
        ))
        report = validate(config)
        assert ((0, 0), (1, 0), (2, 0)) in report.degenerate_witnesses
        assert ((0, 0), (1, 0), (1, 2)) not in report.degenerate_witnesses
        assert report.general_position is False

    def test_boundary_origin_not_interior(self):
        # origin is a vertex of the first colour's hull
        config = Configuration(1, ((fp(0), fp(1)), (fp(-1), fp(1))))
        report = validate(config)
        assert report.zero_in_core is True
        assert report.zero_interior is False
