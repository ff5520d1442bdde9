"""`validate` and `colourful_depth` read shared d×d minors; these properties
check both against references that compute no minors: `Fraction`
determinants of the points as given, and one exact LP per transversal
(`depth._origin_weights`), which shares no sign rule with the minor table.

Coordinates have mixed denominators, so the per-point integer scale factors
differ, and some draws plant a degeneracy (a repeated point, or a point on
the line through two others)."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from csdepth import (
    Configuration,
    colourful_depth,
    enumerate_transversals,
    transversal_points,
    validate,
)
from csdepth.depth import _origin_weights
from csdepth.exactgeom import scale_to_integers

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
