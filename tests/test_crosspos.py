import itertools
from fractions import Fraction

import pytest

from csdepth import (
    ConeSpec,
    Configuration,
    CrossPosition,
    CrossSearchFailure,
    InputError,
    cone_contains,
    find_cross_position,
    is_deformed_cross_position,
    minimize_depth,
    random_configuration,
)

from helpers import fp, symmetric_example


def unit_pairs(d):
    pairs = []
    for i in range(d):
        plus = tuple(Fraction(1 if k == i else 0) for k in range(d))
        minus = tuple(Fraction(-1 if k == i else 0) for k in range(d))
        pairs.append((plus, minus))
    return pairs


def low_depth_config(d, seed, restarts=4, steps=120):
    """A configuration with depth below d^2 + d, found by short descent."""
    report = minimize_depth(d, restarts=restarts, steps=steps, seed=seed)
    assert report.best_depth < d * d + d
    return report.best_config


class TestIsDeformedCrossPosition:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cross_polytope_directions_covered(self, d):
        cert = is_deformed_cross_position(unit_pairs(d))
        assert cert.covered

    def test_halfspace_family_uncovered(self):
        pairs = [(fp(1, 0), fp(1, 1)), (fp(2, 1), fp(3, -1))]
        cert = is_deformed_cross_position(pairs)
        assert not cert.covered
        witness = cert.uncovered_direction
        cones = [ConeSpec((pairs[0][a], pairs[1][b]))
                 for a in (0, 1) for b in (0, 1)]
        assert not any(cone_contains(c, witness) for c in cones)

    def test_deformed_example_covered(self):
        pairs = [(fp(1, 0), fp(-1, 1)), (fp(0, 1), fp(-1, -2))]
        assert is_deformed_cross_position(pairs).covered

    def test_zero_point_rejected(self):
        with pytest.raises(InputError):
            is_deformed_cross_position([(fp(0, 0), fp(1, 1)), (fp(0, 1), fp(1, 0))])

    def test_cone_indices_follow_binary_choice_order(self):
        # cones are indexed by the per-colour bit pattern (00, 01, 10, 11);
        # for the unit pairs each quadrant cell must map to its own quadrant
        cert = is_deformed_cross_position(unit_pairs(2))
        # hyperplanes sort as [(0,1), (1,0)]: sigma = (sign of y, sign of x)
        expected = {(1, 1): 0, (-1, 1): 1, (1, -1): 2, (-1, -1): 3}
        assert cert.per_cell_cone == expected


class TestFindCrossPosition:
    def test_succeeds_below_threshold_every_subset(self):
        config = low_depth_config(2, seed=3)
        for subset in itertools.combinations(range(3), 2):
            found = find_cross_position(config, subset)
            assert isinstance(found, CrossPosition)
            assert found.certificate.covered

    def test_result_reverifies(self):
        config = low_depth_config(2, seed=5)
        found = find_cross_position(config, (0, 2))
        assert isinstance(found, CrossPosition)
        assert found.colour_set == (0, 2)
        d = config.dimension
        # two distinct points per colour, correct colours, covering cones
        pair_points = []
        for (z, w), colour in zip(found.pairs, found.colour_set):
            assert z != w
            pair_points.append((config.point(colour, z), config.point(colour, w)))
        cert = is_deformed_cross_position(pair_points)
        assert cert.covered

    def test_selection_property(self):
        # the found direction avoids every cone built from an avoider point
        # and lies in the cone of the anchor members
        config = low_depth_config(2, seed=7)
        found = find_cross_position(config, (0, 1))
        assert isinstance(found, CrossPosition)
        x = found.direction
        anchor = ConeSpec(tuple(config.point(c, z)
                                for (z, _), c in zip(found.pairs, found.colour_set)))
        assert cone_contains(anchor, x)
        d = config.dimension
        for pos, colour in enumerate(found.colour_set):
            w = found.pairs[pos][1]
            other = found.colour_set[1 - pos]
            for j in range(d + 1):
                gens = [None, None]
                gens[pos] = config.point(colour, w)
                gens[1 - pos] = config.point(other, j)
                assert not cone_contains(ConeSpec(tuple(gens)), x)

    def test_symmetric_example_fails_legitimately(self):
        config = symmetric_example()  # depth 6 = d^2 + d
        result = find_cross_position(config, (0, 1))
        assert isinstance(result, CrossSearchFailure)
        assert result.min_d_depth >= 2

    def test_exhaustive_failure_proves_minimum(self):
        config = symmetric_example()
        result = find_cross_position(config, (1, 2), exhaustive=True)
        assert isinstance(result, CrossSearchFailure)
        assert result.min_d_depth >= config.dimension

    def test_bad_subset_rejected(self):
        config = symmetric_example()
        with pytest.raises(InputError):
            find_cross_position(config, (0,))
        with pytest.raises(InputError):
            find_cross_position(config, (0, 3))

    def test_requires_interior_origin(self):
        config = Configuration(1, ((fp(0), fp(1)), (fp(-1), fp(1))))
        with pytest.raises(InputError):
            find_cross_position(config, (0,))

    def test_d1_always_fails(self):
        # every direction lies in at least one cone, and d-1 = 0 hits are
        # required, so the search can never succeed in dimension 1
        config = random_configuration(1, 9)
        result = find_cross_position(config, (0,), exhaustive=True)
        assert isinstance(result, CrossSearchFailure)
        assert result.min_d_depth >= 1

    def test_deterministic(self):
        config = low_depth_config(2, seed=11)
        a = find_cross_position(config, (1, 2), seed=4)
        b = find_cross_position(config, (1, 2), seed=4)
        assert a == b

    def test_d3_pipeline(self):
        config = low_depth_config(3, seed=2, restarts=12, steps=400)
        found = find_cross_position(config, (0, 1, 2))
        assert isinstance(found, CrossPosition)
        assert found.certificate.covered
        pair_points = [(config.point(c, z), config.point(c, w))
                       for (z, w), c in zip(found.pairs, found.colour_set)]
        assert is_deformed_cross_position(pair_points).covered


class TestFamilyHyperplanes:
    """The exhaustive search reads its arrangement from the cone family's
    shared normals (and the span normals of its dependent cones); that must
    be the arrangement `facet_hyperplanes` builds from the same cones."""

    @pytest.mark.parametrize("d, seed", [(2, 3), (3, 5), (4, 7)])
    def test_matches_facet_hyperplanes(self, d, seed):
        from csdepth import facet_hyperplanes
        from csdepth.depth import _ConeFamily

        config = random_configuration(d, seed)
        colours = [list(cls) for cls in config.colours]
        # plant dependent cones between every two of colours 0, 1, 2: a
        # repeated point, a parallel one and an antiparallel one
        colours[1][0] = colours[0][0]
        colours[2][1] = tuple(3 * e for e in colours[1][1])
        colours[2][0] = tuple(-2 * e for e in colours[0][2])
        for subset in itertools.combinations(range(d + 1), d):
            classes = [colours[c] for c in subset]
            family = _ConeFamily(classes)
            cones = [ConeSpec(tuple(classes[i][j] for i, j in enumerate(choice)))
                     for choice in family.choices]
            assert any(c.facet_rows is None for c in cones)
            assert family.normals == [h.normal for h in facet_hyperplanes(cones)]


class TestFamilyMembershipBySigns:
    """`_ConeFamily.containing` reads membership from bit masks over the
    family's shared normals (a point's `sides`, where a normal through the
    point counts as inside, or a cell's own mask) and tests only dependent
    cones on a point; it must agree with `cone_contains` on every cone, and
    `d_depth` with the count of those cones."""

    # colours of the point replaced, and of the point it repeats or scales
    PLANTS = {"none": None, "repeat": (1, 0, 1), "parallel": (2, 1, 3),
              "antiparallel": (2, 0, -2)}

    @classmethod
    def planted_config(cls, d, seed, plant):
        colours = [list(points) for points in random_configuration(d, seed).colours]
        if cls.PLANTS[plant] is not None:
            target, source, factor = cls.PLANTS[plant]
            colours[target][0] = tuple(factor * e for e in colours[source][1])
        return Configuration(d, tuple(tuple(points) for points in colours))

    @staticmethod
    def reference(family, cones, x):
        return [choice for choice, cone in zip(family.choices, cones) if cone_contains(cone, x)]

    @pytest.mark.parametrize("d, seed", [(2, 11), (3, 12), (4, 13)])
    @pytest.mark.parametrize("plant", ["none", "repeat", "parallel", "antiparallel"])
    def test_matches_cone_contains(self, d, seed, plant):
        import random

        from csdepth import CentralHyperplane, d_depth, enumerate_cells
        from csdepth.depth import _ConeFamily
        from csdepth.exactgeom import scale_to_integers

        config = self.planted_config(d, seed, plant)
        planted = set(self.PLANTS[plant][:2]) if plant != "none" else set()
        subsets = list(itertools.combinations(range(d + 1), d))
        planted_subset = next(s for s in subsets if planted <= set(s))
        if d == 3:  # the two subsets with colours 1 and 2
            subsets = [subsets[0], subsets[-1]]
        elif d == 4:  # 625 cones, and an LP per dependent one and point
            subsets = [planted_subset]
        rng = random.Random(seed)
        zero_signs = 0
        for subset in subsets:
            classes = [config.colours[c] for c in subset]
            family = _ConeFamily(classes)
            cones = [ConeSpec(tuple(classes[i][j] for i, j in enumerate(choice)))
                     for choice in family.choices]
            assert family.dependent == (bool(planted) and planted <= set(subset))
            # antipodes of the family's points lie on facet hyperplanes, and
            # small integer draws often do: their signs have zeros
            points = [tuple(-e for e in p) for cls in classes for p in cls]
            points += [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(8)]
            for k, x in enumerate(points):
                if not any(x):
                    continue
                ints = scale_to_integers(x)[0]
                want = self.reference(family, cones, x)
                zero_signs += sum(family.sides(ints)) != (1 << len(family.normals)) - 1
                assert family.containing(ints) == want
                if k % d == 0:  # d_depth builds its own family: a sample
                    assert d_depth(config, subset, x) == len(want)
        assert zero_signs > 0

        # cell witnesses, read by their sign vectors, on the family of the
        # first two points per colour (the planted ones among them): every
        # cell at d <= 3; at d = 4 its 32 hyperplanes take seconds to
        # enumerate with points, so only the first cell
        classes = [config.colours[c][:2] for c in planted_subset]
        family = _ConeFamily(classes)
        assert family.dependent == bool(planted)
        cones = [ConeSpec(tuple(classes[i][j] for i, j in enumerate(choice)))
                 for choice in family.choices]
        hyperplanes = [CentralHyperplane(tuple(Fraction(e) for e in n))
                       for n in family.normals]
        for sigma, w in itertools.islice(enumerate_cells(hyperplanes), 1 if d == 4 else None):
            want = self.reference(family, cones, w)
            cell = sum(1 << k for k, s in enumerate(sigma) if s > 0)
            assert family.containing(scale_to_integers(w)[0], cell) == want
            if not family.dependent:
                assert family.containing(None, cell) == want
