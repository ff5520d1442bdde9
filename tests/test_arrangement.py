import itertools
import random
from collections import deque
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csdepth import (
    CentralHyperplane,
    ConeSpec,
    InputError,
    cone_contains,
    covers_space,
    enumerate_cells,
    facet_hyperplanes,
    monte_carlo_refuter,
)
from csdepth.exactgeom import Relation, int_det, max_slack_point, primitive_normal, vec_dot

from helpers import fp, oracle_covers_2d, random_rational_point


def cone(*gens):
    return ConeSpec(tuple(gens))


def quadrant_cones():
    return [cone(fp(sx, 0), fp(0, sy)) for sx in (1, -1) for sy in (1, -1)]


def octant_cones():
    return [cone(fp(a, 0, 0), fp(0, b, 0), fp(0, 0, c))
            for a in (1, -1) for b in (1, -1) for c in (1, -1)]


def random_pair_cones(rng, d):
    pairs = []
    for _ in range(d):
        while True:
            a = random_rational_point(rng, d, span=20, den=8)
            b = random_rational_point(rng, d, span=20, den=8)
            if any(a) and any(b):
                pairs.append((a, b))
                break
    return [ConeSpec(tuple(pairs[i][bits[i]] for i in range(d)))
            for bits in itertools.product((0, 1), repeat=d)], pairs


def hyperplanes_of(normals):
    return tuple(CentralHyperplane(tuple(Fraction(e) for e in n)) for n in normals)


def random_normals(rng, d, m):
    """m distinct primitive normals; about a third are combinations of two
    earlier ones, so restricting to one of those two merges the others."""
    normals = []
    while len(normals) < m:
        if len(normals) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(normals, 2)
            ca, cb = rng.choice((1, -1, 2)), rng.choice((1, -1, 3))
            v = tuple(ca * x + cb * y for x, y in zip(a, b))
        else:
            v = tuple(rng.randint(-4, 4) for _ in range(d))
        if any(v) and primitive_normal(v) not in normals:
            normals.append(primitive_normal(v))
    return normals


def lp_reference_cells(normals, start):
    """Breadth-first wall crossing from `start` that decides every flip by
    one exact strict-feasibility LP, the way cells were enumerated before
    wall tables."""
    order, seen, queue = [], {start}, deque([start])
    while queue:
        sigma = queue.popleft()
        order.append(sigma)
        for j in range(len(sigma)):
            cand = sigma[:j] + (-sigma[j],) + sigma[j + 1:]
            if cand in seen:
                continue
            seen.add(cand)
            rows = [(n if s > 0 else tuple(-e for e in n), Relation.GT)
                    for n, s in zip(normals, cand)]
            if max_slack_point(rows, len(normals[0])) is not None:
                queue.append(cand)
    return order


def solve_columns(columns, y):
    """(det, coefficients) of y in the basis `columns`, by Fraction
    Gauss-Jordan elimination; coefficients are None when det is 0."""
    d = len(y)
    m = [[Fraction(columns[i][r]) for i in range(d)] + [Fraction(y[r])] for r in range(d)]
    det = Fraction(1)
    for k in range(d):
        piv = next((r for r in range(k, d) if m[r][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        m[k] = [e / m[k][k] for e in m[k]]
        for r in range(d):
            if r != k and m[r][k] != 0:
                m[r] = [a - m[r][k] * b for a, b in zip(m[r], m[k])]
    return det, [m[r][d] for r in range(d)]


def pair_degree(pairs, y):
    """Degree of the radial map from the octahedral sphere of the pairs at
    the direction y: the sum, over the 2^d cones containing y, of the sign of
    the cone's determinant times (-1)^(number of second points).  None when y
    lies on a cone's boundary."""
    d = len(pairs)
    degree = 0
    for bits in itertools.product((0, 1), repeat=d):
        det, coeffs = solve_columns([pairs[i][bits[i]] for i in range(d)], y)
        if any(c == 0 for c in coeffs):
            return None
        if all(c > 0 for c in coeffs):
            degree += (1 if det > 0 else -1) * (-1) ** sum(bits)
    return degree


class TestCentralHyperplane:
    def test_canonicalization(self):
        h1 = CentralHyperplane((Fraction(-2), Fraction(4)))
        h2 = CentralHyperplane((Fraction(1), Fraction(-2)))
        assert h1 == h2
        assert h1.normal == (Fraction(1), Fraction(-2))

    def test_fractional_input(self):
        h = CentralHyperplane((Fraction(1, 2), Fraction(-1, 3)))
        assert h.normal == (Fraction(3), Fraction(-2))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            CentralHyperplane((Fraction(0), Fraction(0)))


class TestFacetHyperplanes:
    def test_quadrants_give_axes(self):
        hps = facet_hyperplanes(quadrant_cones())
        assert [h.normal for h in hps] == [(Fraction(0), Fraction(1)),
                                           (Fraction(1), Fraction(0))]

    def test_octants_give_three(self):
        assert len(facet_hyperplanes(octant_cones())) == 3

    def test_generic_pairs_at_most_one_per_point(self):
        rng = random.Random(1)
        cones, pairs = random_pair_cones(rng, 2)
        hps = facet_hyperplanes(cones)
        assert len(hps) <= 4  # one line per distinct point span

    def test_degenerate_subsets_contribute_nothing(self):
        # both generators on one line: a single hyperplane in d=2
        c = cone(fp(1, 1), fp(2, 2))
        assert len(facet_hyperplanes([c])) == 1

    def test_d1_ray_gives_origin_hyperplane(self):
        hps = facet_hyperplanes([cone(fp(3)), cone(fp(-2))])
        assert len(hps) == 1
        assert hps[0].normal == (Fraction(1),)


class TestEnumerateCells:
    def test_two_axes_four_cells(self):
        cells = list(enumerate_cells(facet_hyperplanes(quadrant_cones())))
        assert len(cells) == 4
        assert len({sigma for sigma, _ in cells}) == 4

    def test_three_concurrent_lines_six_cells(self):
        hps = facet_hyperplanes(quadrant_cones()) + \
            (CentralHyperplane((Fraction(1), Fraction(-1))),)
        assert len(list(enumerate_cells(hps))) == 6

    def test_three_coordinate_planes_eight_cells(self):
        assert len(list(enumerate_cells(facet_hyperplanes(octant_cones())))) == 8

    def test_witnesses_satisfy_signs_strictly(self):
        hps = facet_hyperplanes(octant_cones())
        for sigma, witness in enumerate_cells(hps):
            for h, s in zip(hps, sigma):
                assert vec_dot(h.normal, witness) * s > 0

    def test_central_symmetry_parity(self):
        rng = random.Random(5)
        for trial in range(5):
            cones, _ = random_pair_cones(rng, 2)
            sigmas = {sigma for sigma, _ in
                      enumerate_cells(facet_hyperplanes(cones))}
            assert len(sigmas) % 2 == 0
            for sigma in sigmas:
                assert tuple(-s for s in sigma) in sigmas

    def test_2m_cell_law_in_the_plane(self):
        rng = random.Random(9)
        for trial in range(8):
            normals = set()
            for _ in range(rng.randint(1, 6)):
                v = (rng.randint(-5, 5), rng.randint(-5, 5))
                if v != (0, 0):
                    from csdepth.exactgeom import primitive_normal
                    normals.add(primitive_normal(v))
            if not normals:
                continue
            hps = tuple(CentralHyperplane(tuple(Fraction(e) for e in n))
                        for n in sorted(normals))
            cells = list(enumerate_cells(hps))
            assert len(cells) == 2 * len(normals)

    @pytest.mark.parametrize("d,m", [(3, 5), (3, 9), (4, 6), (4, 9)])
    def test_cell_count_law_generic(self, d, m):
        # Cover (1965): m hyperplanes through the origin in general position
        # cut R^d into 2 * sum_{k<d} C(m-1, k) cells.
        rng = random.Random(100 * d + m)
        while True:
            normals = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(m)]
            if all(int_det([normals[i] for i in s])
                   for s in itertools.combinations(range(m), d)):
                break
        cells = list(enumerate_cells(hyperplanes_of(normals)))
        assert len(cells) == 2 * sum(comb(m - 1, k) for k in range(d))

    def assert_matches_lp_reference(self, normals):
        cells = list(enumerate_cells(hyperplanes_of(normals)))
        for sigma, witness in cells:
            for n, s in zip(normals, sigma):
                assert s * vec_dot(n, witness) > 0
        sigmas = [sigma for sigma, _ in cells]
        assert sigmas == lp_reference_cells(normals, sigmas[0])
        return cells

    @pytest.mark.parametrize("d,trials,max_m", [(1, 2, 1), (2, 15, 7), (3, 10, 7),
                                                (4, 5, 6)])
    def test_matches_lp_reference(self, d, trials, max_m):
        rng = random.Random(40 + d)
        for _ in range(trials):
            self.assert_matches_lp_reference(random_normals(rng, d, rng.randint(1, max_m)))

    def test_merged_restrictions_match_lp_reference(self):
        # (1,1,0) = (1,0,0) + (0,1,0): on each of the three, the other two
        # restrict to one hyperplane
        for normals in ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
                        [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0),
                         (1, 0, 1, 2), (0, 0, 0, 1)]):
            self.assert_matches_lp_reference(normals)

    @pytest.mark.parametrize("normal", [(1,), (2, -3), (1, 2, 3), (0, 1, -1, 4)])
    def test_single_hyperplane_two_cells(self, normal):
        cells = self.assert_matches_lp_reference([primitive_normal(normal)])
        assert [sigma for sigma, _ in cells] in ([(1,), (-1,)], [(-1,), (1,)])

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            list(enumerate_cells(()))

    def test_deterministic(self):
        hps = facet_hyperplanes(octant_cones())
        assert list(enumerate_cells(hps)) == list(enumerate_cells(hps))


class TestCoversSpace:
    def test_quadrants_cover(self):
        cert = covers_space(quadrant_cones())
        assert cert.covered
        assert cert.cells_checked == 4
        assert set(cert.per_cell_cone) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_positive_halfplane_family_uncovered(self):
        cones = [cone(fp(1, 0), fp(0, 1)), cone(fp(1, 0), fp(1, 2)),
                 cone(fp(1, 1), fp(0, 1)), cone(fp(1, 1), fp(1, 2))]
        cert = covers_space(cones)
        assert not cert.covered
        assert cert.uncovered_direction is not None
        assert not any(cone_contains(c, cert.uncovered_direction) for c in cones)

    def test_deformed_example_covered(self):
        cones = [cone(fp(1, 0), fp(0, 1)), cone(fp(1, 0), fp(-1, -2)),
                 cone(fp(-1, 1), fp(0, 1)), cone(fp(-1, 1), fp(-1, -2))]
        cert = covers_space(cones)
        assert cert.covered
        gens = [(fp(1, 0), fp(0, 1)), (fp(1, 0), fp(-1, -2)),
                (fp(-1, 1), fp(0, 1)), (fp(-1, 1), fp(-1, -2))]
        assert oracle_covers_2d(gens)

    def test_agrees_with_angular_oracle(self):
        rng = random.Random(14)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            cones, pairs = random_pair_cones(rng, 2)
            got = covers_space(cones).covered
            want = oracle_covers_2d([tuple(c.generators) for c in cones])
            assert got == want
            verdicts[got] += 1
        assert verdicts[True] >= 3 and verdicts[False] >= 3

    def test_per_cell_cone_mapping_verifies(self):
        rng = random.Random(23)
        while True:
            cones, _ = random_pair_cones(rng, 2)
            cert = covers_space(cones)
            if cert.covered:
                break
        hps = cert.hyperplanes
        for sigma, witness in enumerate_cells(hps):
            idx = cert.per_cell_cone[sigma]
            assert cone_contains(cones[idx], witness)

    def test_uncovered_cell_count_partial(self):
        cones = [cone(fp(1, 0), fp(0, 1))]
        cert = covers_space(cones)
        assert not cert.covered
        assert cert.cells_checked >= 1

    def test_degenerate_cones_no_credit(self):
        # a full line of degenerate cones covers nothing two-dimensional
        cones = [cone(fp(1, 1), fp(2, 2)), cone(fp(-1, -1), fp(-3, -3))]
        cert = covers_space(cones)
        assert not cert.covered
        assert not any(cone_contains(c, cert.uncovered_direction) for c in cones)

    def test_degenerate_facets_still_contribute(self):
        full = [cone(fp(1, 0), fp(0, 1)), cone(fp(0, 1), fp(-1, -1)),
                cone(fp(-1, -1), fp(1, 0))]
        degenerate = cone(fp(1, 3), fp(2, 6))
        with_deg = facet_hyperplanes(full + [degenerate])
        without = facet_hyperplanes(full)
        assert len(with_deg) == len(without) + 1

    def test_dimension_guard(self):
        gens = [tuple(Fraction(1 if i == j else 0) for j in range(5))
                for i in range(5)]
        with pytest.raises(InputError, match="allow_high_dimension"):
            covers_space([ConeSpec(tuple(gens))])

    def test_d4_cross_polytope_covered(self):
        cones = []
        for signs in itertools.product((1, -1), repeat=4):
            gens = tuple(tuple(Fraction(signs[i] if j == i else 0) for j in range(4))
                         for i in range(4))
            cones.append(ConeSpec(gens))
        cert = covers_space(cones)
        assert cert.covered
        assert cert.cells_checked == 16

    def test_certificate_serialization(self):
        cert = covers_space(quadrant_cones())
        doc = cert.to_json_dict()
        assert doc["covered"] is True
        assert doc["cells_checked"] == 4
        assert len(doc["per_cell_cone"]) == 4
        assert all(set(k) <= {"+", "-"} for k in doc["per_cell_cone"])


class TestUncoveredWitnessSearch:
    """The first uncovered cell's own witness can lie in a dependent cone;
    the certificate must then carry another point of that cell."""

    @pytest.mark.parametrize("d,seed", [(3, 71), (4, 72)])
    def test_witness_inside_rank_one_cone_is_replaced(self, d, seed):
        rng = random.Random(seed)
        while True:
            cones, _ = random_pair_cones(rng, d)
            full = [c for c in cones if solve_columns(c.generators, (1,) * d)[0] != 0]
            hps = facet_hyperplanes(cones)
            sigma, w = next(iter(enumerate_cells(hps)))
            if not any(cone_contains(c, w) for c in full):
                break
        ray = ConeSpec(tuple(tuple(k * e for e in w) for k in range(1, d + 1)))
        family = cones + [ray]
        cert = covers_space(family)
        assert not cert.covered
        x = cert.uncovered_direction
        assert x != w and cone_contains(ray, w)
        assert not any(cone_contains(c, x) for c in family)
        assert all(vec_dot(h.normal, x) != 0 for h in cert.hyperplanes)
        first = next(s for s, y in enumerate_cells(cert.hyperplanes)
                     if not any(cone_contains(c, y) for c in full))
        signs = tuple(1 if vec_dot(h.normal, x) > 0 else -1 for h in cert.hyperplanes)
        assert signs == first == sigma

    def test_d3_family_without_full_cone(self):
        # one ray (a, 2a, 3a) and two planar cones (a, b, a+b), (b, c, b+2c)
        a, b = fp(1, 2, -1), fp(-3, 1, 4)
        cones = [cone(a, fp(2, 4, -2), fp(3, 6, -3)),
                 cone(a, b, fp(-2, 3, 3)),
                 cone(b, fp(1, 0, 1), fp(-1, 1, 6))]
        assert all(solve_columns(c.generators, (1, 1, 1))[0] == 0 for c in cones)
        cert = covers_space(cones)
        assert not cert.covered
        assert cert.cells_checked == 0
        assert not any(cone_contains(c, cert.uncovered_direction) for c in cones)


class TestDegreeOracle:
    @pytest.mark.parametrize("d,wanted", [(2, 20), (3, 10), (4, 1)])
    def test_nonzero_degree_implies_covered(self, d, wanted):
        # A nonzero degree of the radial map at some direction forces the
        # cones to cover space; the oracle shares no code with the engine.
        rng = random.Random(60 + d)
        nonzero = 0
        for _ in range(500):
            cones, pairs = random_pair_cones(rng, d)
            if any(solve_columns(c.generators, (1,) * d)[0] == 0 for c in cones):
                continue
            degree = None
            while degree is None:
                y = tuple(rng.randint(-50, 50) for _ in range(d))
                degree = pair_degree(pairs, y) if any(y) else None
            if degree != 0:
                assert covers_space(cones).covered
                nonzero += 1
                if nonzero == wanted:
                    break
        assert nonzero == wanted


class TestMonteCarloRefuter:
    def test_covered_family_returns_none(self):
        assert monte_carlo_refuter(quadrant_cones(), 5000, seed=3) is None

    def test_uncovered_family_finds_witness(self):
        cones = [cone(fp(1, 0), fp(0, 1)), cone(fp(1, 0), fp(1, 2)),
                 cone(fp(1, 1), fp(0, 1)), cone(fp(1, 1), fp(1, 2))]
        found = monte_carlo_refuter(cones, 10000, seed=3)
        assert found is not None
        assert not any(cone_contains(c, found) for c in cones)

    def test_returned_point_always_reverifies(self):
        rng = random.Random(31)
        for trial in range(20):
            cones, _ = random_pair_cones(rng, 2)
            found = monte_carlo_refuter(cones, 500, seed=trial)
            if found is not None:
                assert not any(cone_contains(c, found) for c in cones)

    def test_deterministic(self):
        cones = [cone(fp(1, 0), fp(0, 1)), cone(fp(1, 0), fp(1, 2)),
                 cone(fp(1, 1), fp(0, 1)), cone(fp(1, 1), fp(1, 2))]
        assert monte_carlo_refuter(cones, 3000, seed=5) == \
            monte_carlo_refuter(cones, 3000, seed=5)

    def test_sample_validation(self):
        with pytest.raises(InputError):
            monte_carlo_refuter(quadrant_cones(), 0, seed=1)

    def test_agreement_with_exact_checker(self):
        rng = random.Random(44)
        for trial in range(15):
            cones, _ = random_pair_cones(rng, 2)
            cert = covers_space(cones)
            found = monte_carlo_refuter(cones, 2000, seed=trial)
            if cert.covered:
                assert found is None
            if found is not None:
                assert not cert.covered


def eager_covers_space(cones):
    """`covers_space` as it was decided when every cell carried a witness:
    each witness of `enumerate_cells` tested against every full cone with
    `cone_contains`, and the first uncovered one repaired by
    `_uncovered_direction` when it lies in a dependent cone."""
    from csdepth.arrangement import CoverageCertificate, _uncovered_direction
    from csdepth.exactgeom import scale_to_integers

    hyperplanes = facet_hyperplanes(cones)
    full = [(idx, c) for idx, c in enumerate(cones) if c.facet_rows is not None]
    if not full:
        return CoverageCertificate(False, 0, hyperplanes,
                                   uncovered_direction=_uncovered_direction(cones))
    mapping = {}
    for checked, (sigma, w) in enumerate(enumerate_cells(hyperplanes), 1):
        hit = next((idx for idx, c in full if cone_contains(c, w)), None)
        if hit is None:
            if any(cone_contains(c, w) for c in cones):
                w = _uncovered_direction(cones, scale_to_integers(w)[0], hyperplanes)
            return CoverageCertificate(False, checked, hyperplanes, uncovered_direction=w)
        mapping[sigma] = hit
    return CoverageCertificate(True, len(mapping), hyperplanes, per_cell_cone=mapping)


def planted_pair_family(rng, d, near_share):
    """The 2^d colourful cones of d seeded pairs, in binary choice order.
    A share `near_share` of the families start from the cross-polytope (8 e_i, -8 e_i), each
    point moved by small integers with probability 1/(2d-2), so many are covered
    and the cell counts stay small at d = 4; one point is then often replaced by
    a positive or negative multiple of a point of another colour (repeated,
    parallel or antiparallel generators: dependent cones)."""
    near_cross = rng.random() < near_share
    pairs = []
    for i in range(d):
        pair = []
        for s in (8, -8):
            while True:
                if near_cross:
                    moved = rng.random() < 1 / (2 * d - 2)
                    p = [rng.randint(-3, 3) if moved else 0 for _ in range(d)]
                    p[i] += s
                else:
                    p = [rng.randint(-3, 3) for _ in range(d)]
                if any(p):
                    break
            pair.append(p)
        pairs.append(pair)
    plant = rng.choice((None, 1, 2, -3))
    if plant is not None:
        i, k = rng.sample(range(d), 2)
        pairs[k][rng.randrange(2)] = [plant * e for e in pairs[i][rng.randrange(2)]]
    return [ConeSpec(tuple(fp(*pairs[i][bits[i]]) for i in range(d)))
            for bits in itertools.product((0, 1), repeat=d)]


class TestSignFirstCoverage:
    """`covers_space` reads each cell's cone from its sign vector and builds
    a witness only for the uncovered cell it reports; every field of its
    certificate must equal the eager witness-per-cell decision."""

    # at d = 4 random pairs give up to 32 hyperplanes and 5,500 cells, which
    # the eager reference takes seconds to enumerate: only near-cross there
    @pytest.mark.parametrize("d, families, seed, near_share",
                             [(2, 160, 81, 0.5), (3, 110, 82, 0.5), (4, 40, 83, 1.0)])
    def test_matches_eager_reference(self, d, families, seed, near_share):
        rng = random.Random(seed)
        seen = {"covered": 0, "uncovered": 0, "dependent": 0}
        for _ in range(families):
            cones = planted_pair_family(rng, d, near_share)
            cert = covers_space(cones)
            assert cert == eager_covers_space(cones)
            seen["covered" if cert.covered else "uncovered"] += 1
            seen["dependent"] += any(c.facet_rows is None for c in cones)
        assert min(seen.values()) >= families // 10, seen


class TestRepeatedHyperplanes:
    """Two equal hyperplanes leave no wall point off both, so no cell could
    be reached across either: the input is refused, naming the repeat."""

    @pytest.mark.parametrize("normals, message", [
        ([(1, 0), (2, 0), (0, 1)], r"hyperplane 1 repeats hyperplane 0 \(normal \(1, 0\)\)"),
        ([(0, 1, 1), (1, 0, 0), (1, 2, 3), (0, -3, -3)],
         r"hyperplane 3 repeats hyperplane 0 \(normal \(0, 1, 1\)\)"),
        ([(1,), (-5,)], r"hyperplane 1 repeats hyperplane 0 \(normal \(1\)\)"),
    ])
    def test_refused(self, normals, message):
        with pytest.raises(InputError, match=message):
            list(enumerate_cells(hyperplanes_of(normals)))


class TestMixedDimensions:
    """Hyperplanes of different dimensions bound no common arrangement: the
    input is refused, naming the index and both lengths, in either order."""

    @pytest.mark.parametrize("normals, message", [
        ([(1, 0), (1, 1, 0)], "hyperplane 1 has 3 coordinates, hyperplane 0 has 2"),
        ([(1, 1, 0), (1, 0)], "hyperplane 1 has 2 coordinates, hyperplane 0 has 3"),
        ([(1, 0, 0), (0, 1, 0), (1, 1)], "hyperplane 2 has 2 coordinates, hyperplane 0 has 3"),
    ])
    def test_refused(self, normals, message):
        with pytest.raises(InputError, match=message):
            list(enumerate_cells(hyperplanes_of(normals)))


def cells_digest(normals):
    """sha256 of the whole `enumerate_cells` sequence: one line per cell,
    its signs as +/- and its witness's coordinates."""
    import hashlib

    lines = ["".join("+" if s > 0 else "-" for s in sigma) + " " + " ".join(map(str, w))
             for sigma, w in enumerate_cells(hyperplanes_of(normals))]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


MERGED_D3 = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
MERGED_D4 = [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 2), (0, 0, 0, 1)]


class TestGoldenCellDigests:
    """Digests of every cell's sign vector and witness, in order, as recorded
    when sign vectors were tuples and planar walls were found by enumerating
    the line's own one-dimensional arrangement: how cells are held and how a
    line's walls are found must not change a byte.  The families are
    `random_normals(random.Random(1000 * d + m), d, m)`, and the merged
    restrictions of `test_merged_restrictions_match_lp_reference`."""

    @pytest.mark.parametrize("d, m, cells, digest", [
        (1, 1, 2, "0ae3b94aaa5bbfe5ab2cb1fbebec9310aa6ef75fc2e824c2aa71721b54e85406"),
        (2, 1, 2, "7430ed68ac6bc70c7df0091f6bf8b8bdbd3fd2c7c6f6a2fb10b965ce68672bd9"),
        (2, 3, 6, "29bddc8a0d0e61e851d64425e30fd8b34caab0813c9c75145e2e16af8edff017"),
        (2, 6, 12, "3d0c44f97e10ae805b2f041a1ab4f01da9b73f11244524ab28486695c4dbf8ed"),
        (2, 9, 18, "955d36817d048e1eebb63c718f47108b8b5cc9aa5a5e05c8211916aca3487dc4"),
        (3, 1, 2, "56182f3b0364d0a674c95d69b6d16e9f991ca72279f7afac781ee795ad1f5cca"),
        (3, 4, 12, "5992c5c9fc9a58c92f85b6c75b7f6a5485b5260039c89102ec183790e6f1afa3"),
        (3, 7, 40, "437308f04155da8a9de498265b28ac7e8820d04af4f61888dc8c2128e9d4b233"),
        (3, 9, 64, "1846b2e844f6d754aae54907f1b6e2e903164c45ecbb7b4738ec79e0edfc2747"),
        (3, 14, 176, "c42bf91cc00e8d113133858204499dfd286b179d5972a1e9aa24043847a46dea"),
        (4, 1, 2, "696237691e59a82bab7315db742e41e6a6e6fa4e5cf4e0cfbcfde844fcbc565e"),
        (4, 5, 30, "24aec34ae64caabe55e658a979d77dc7f5fffca8bbd1c54a081a08257491e472"),
        (4, 7, 82, "ecc2b26beab8129ce5e6377200338f0dea8603adc281a49fc4ff02bbf2994289"),
        (4, 12, 424, "3879e1b33e8b8d75d0bf6f4ecb818992f7bbdd135f5f7b6a03c734b375b23c3d"),
    ])
    def test_random_family(self, d, m, cells, digest):
        normals = random_normals(random.Random(1000 * d + m), d, m)
        assert cells_digest(normals) == (cells, digest)

    @pytest.mark.parametrize("normals, cells, digest", [
        (MERGED_D3, 12, "6a37c5106129dda468c2700f77d71a96af9fa93c6a350d27361a2c13e6069888"),
        (MERGED_D4, 42, "2c240dc64e7b1154f4487112455ba0eb00be66c84a4ddf0b3cb4a936872125d6"),
    ], ids=["merged-d3", "merged-d4"])
    def test_merged_family(self, normals, cells, digest):
        assert cells_digest(normals) == (cells, digest)


@st.composite
def normal_sets(draw, d):
    """1-9 distinct primitive normals in dimension d.  Each step draws a
    small integer vector, or, once two normals exist, plants a combination
    of two of them, so restricting to either merges the others."""
    coords = st.integers(-4, 4)
    steps = draw(st.lists(st.tuples(st.tuples(*[coords] * d), st.booleans(),
                                    st.integers(0, 8), st.integers(0, 8),
                                    st.sampled_from((1, -1, 2)), st.sampled_from((1, -1, 3))),
                          min_size=1, max_size=9))
    normals = []
    for v, plant, a, b, ca, cb in steps:
        if plant and len(normals) >= 2:
            x, y = normals[a % len(normals)], normals[b % len(normals)]
            v = tuple(ca * e + cb * f for e, f in zip(x, y))
        if any(v) and primitive_normal(v) not in normals:
            normals.append(primitive_normal(v))
    assume(normals)
    return normals


class TestCellsMatchLpReference:
    """Hypothesis: the cells, in order, are those of breadth-first wall
    crossing decided by one exact LP per flip, and every witness is strict."""

    @staticmethod
    def check(normals):
        cells = list(enumerate_cells(hyperplanes_of(normals)))
        for sigma, witness in cells:
            assert all(s * vec_dot(n, witness) > 0 for n, s in zip(normals, sigma))
        sigmas = [sigma for sigma, _ in cells]
        assert sigmas == lp_reference_cells(normals, sigmas[0])

    @settings(max_examples=100, deadline=None)
    @given(normal_sets(2))
    def test_plane(self, normals):
        self.check(normals)

    @settings(max_examples=50, deadline=None)
    @given(normal_sets(3))
    def test_space(self, normals):
        self.check(normals)
