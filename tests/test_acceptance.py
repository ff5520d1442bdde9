"""Acceptance suite: the package-level guarantees, one test per criterion.

All verdicts are exact (zero tolerance): the arithmetic is rational
throughout, so agreement means equality, not closeness.  The terminal
summary prints one pass/fail line per criterion (see conftest.py).  Run with

    pytest tests/test_acceptance.py -v
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from csdepth import (
    ConeSpec,
    Configuration,
    CrossPosition,
    antipodal_check,
    colourful_depth,
    cone_contains,
    covers_space,
    enumerate_transversals,
    find_cross_position,
    generate_witnesses,
    is_deformed_cross_position,
    minimize_depth,
    monte_carlo_refuter,
    random_configuration,
    simplex_contains_origin,
    theorem_bound,
    transversal_points,
    validate,
    verify_witness_set,
)
from csdepth.cli import main as cli_main
from csdepth.search import _sample_point
from csdepth.depth import origin_in_convex_hull

from helpers import (
    fp,
    oracle_depth_1d,
    oracle_depth_2d,
    random_rational_point,
    symmetric_example,
)

SHIPPED_SEED = 0


def unit_pairs(d):
    pairs = []
    for i in range(d):
        plus = tuple(Fraction(1 if k == i else 0) for k in range(d))
        minus = tuple(Fraction(-1 if k == i else 0) for k in range(d))
        pairs.append((plus, minus))
    return pairs


def test_criterion_1_antipodal_equivalence():
    start = time.monotonic()
    for d, n_configs in ((2, 40), (3, 16)):
        tuples = 0
        for i in range(n_configs):
            config = random_configuration(d, 1_000 * d + i)
            for choice in enumerate_transversals(config):
                want, _ = simplex_contains_origin(
                    transversal_points(config, choice))
                for colour in range(d + 1):
                    assert antipodal_check(config, choice, colour) == want
                tuples += 1
        assert tuples >= 1000
    assert time.monotonic() - start < 30


@pytest.fixture(scope="module")
def theorem_corpus():
    corpus = {}
    for d in (2, 3, 4):
        items = []
        for i in range(100):
            config = random_configuration(d, 10_000 * d + i)
            items.append((config, colourful_depth(config).depth))
        corpus[d] = items
    return corpus


def test_criterion_2_theorem_bound(theorem_corpus):
    start = time.monotonic()
    for d, items in theorem_corpus.items():
        bound = theorem_bound(d)
        assert len(items) >= 100
        for config, depth in items:
            assert depth >= bound
            assert depth >= 2 * d
    assert time.monotonic() - start < 120


def test_validate_hull_verdicts_match_lp_on_theorem_corpus(theorem_corpus):
    # validate decides its hull tests by cofactor signs (d+1 points) and one
    # determinant (d points); recompute its two hull flags by the LP alone
    from csdepth.depth import _origin_weights
    from csdepth.exactgeom import scale_to_integers

    def lp(points):
        ints = [scale_to_integers(p)[0] for p in points]
        return _origin_weights(ints, (1,) * len(ints)) is not None

    for d, items in theorem_corpus.items():
        for config, _ in items:
            report = validate(config)
            in_core = all(lp(cls) for cls in config.colours)
            interior = in_core and not any(
                lp(cls[:drop] + cls[drop + 1:])
                for cls in config.colours for drop in range(d + 1))
            assert (report.zero_in_core, report.zero_interior) == (in_core, interior)


def test_criterion_3_witness_construction(theorem_corpus):
    fallbacks = 0
    staged = 0
    for d, items in theorem_corpus.items():
        for i, (config, depth) in enumerate(items):
            ws = generate_witnesses(config, seed=i)
            assert len(ws.simplices) >= theorem_bound(d)
            assert len(set(ws.simplices)) == len(ws.simplices)
            assert verify_witness_set(config, ws)
            for choice in ws.simplices:
                ok, _ = simplex_contains_origin(transversal_points(config, choice))
                assert ok
            if any(stage.fallback for stage in ws.stage_log):
                fallbacks += 1
            else:
                staged += 1
    assert fallbacks > 0  # forced-fallback cases are part of the corpus


def _low_depth_corpus():
    """Deterministic configurations with depth below d^2+d for d = 2, 3.

    At d = 2 plain rejection sampling suffices.  At d = 3 random
    configurations never get close (observed minimum 22 over 400 samples),
    so instances come from the search lab: one hill-descent product plus
    accepted single-point perturbations of it.
    """
    corpus = []
    found = 0
    attempt = 0
    while found < 30:
        assert attempt < 3000
        config = random_configuration(2, 7_000_000 + attempt)
        attempt += 1
        if colourful_depth(config).depth < 6:
            corpus.append((2, config))
            found += 1

    base = minimize_depth(3, restarts=12, steps=400, seed=2).best_config
    assert colourful_depth(base).depth < 12
    corpus.append((3, base))
    rng = random.Random(9157)
    points = [list(cls) for cls in base.colours]
    seen = {base}
    found = 1
    attempt = 0
    while found < 20:
        assert attempt < 3000
        attempt += 1
        candidate = [cls[:] for cls in points]
        colour = rng.randrange(4)
        index = rng.randrange(4)
        candidate[colour][index] = _sample_point(3, rng)
        if not origin_in_convex_hull(tuple(candidate[colour])):
            if index == 3:
                continue
            candidate[colour][3] = tuple(
                -sum(p[k] for p in candidate[colour][:3]) for k in range(3))
        config = Configuration(3, tuple(tuple(cls) for cls in candidate))
        if config in seen:
            continue
        if colourful_depth(config).depth >= 12:
            continue
        report = validate(config)
        if report.zero_interior and report.general_position:
            seen.add(config)
            corpus.append((3, config))
            found += 1
    return corpus


def test_criterion_4_cross_position_guarantee():
    corpus = _low_depth_corpus()
    assert len(corpus) >= 50
    for d, config in corpus:
        assert colourful_depth(config).depth < d * d + d
        for subset in itertools.combinations(range(d + 1), d):
            found = find_cross_position(config, subset, exhaustive=True)
            assert isinstance(found, CrossPosition), \
                f"search failed for d={d}, colours={subset}"
            assert found.certificate.covered
            for (z, w), colour in zip(found.pairs, found.colour_set):
                assert z != w
            pair_points = [(config.point(c, z), config.point(c, w))
                           for (z, w), c in zip(found.pairs, found.colour_set)]
            assert is_deformed_cross_position(pair_points).covered


def test_criterion_5_coverage_decision():
    start = time.monotonic()
    for d in (1, 2, 3, 4):
        assert is_deformed_cross_position(unit_pairs(d)).covered

    # points confined to an open halfspace never cover
    rng = random.Random(3511)
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        pairs = []
        for _ in range(d):
            def positive_first():
                p = list(random_rational_point(rng, d, span=30, den=8))
                p[0] = abs(p[0]) + Fraction(1, 8)
                return tuple(p)
            pairs.append((positive_first(), positive_first()))
        cert = is_deformed_cross_position(pairs)
        assert not cert.covered
        cones = [ConeSpec(tuple(pairs[i][bits[i]] for i in range(d)))
                 for bits in itertools.product((0, 1), repeat=d)]
        assert not any(cone_contains(c, cert.uncovered_direction) for c in cones)

    # exact checker versus seeded refuter on random pair families
    families = 0
    for d in (2, 3):
        for trial in range(100):
            rng_f = random.Random(60_000 + 100 * d + trial)
            pairs = []
            for _ in range(d):
                while True:
                    a = random_rational_point(rng_f, d, span=40, den=16)
                    b = random_rational_point(rng_f, d, span=40, den=16)
                    if any(a) and any(b):
                        pairs.append((a, b))
                        break
            cones = [ConeSpec(tuple(pairs[i][bits[i]] for i in range(d)))
                     for bits in itertools.product((0, 1), repeat=d)]
            cert = covers_space(cones)
            refuted = monte_carlo_refuter(cones, 100_000, seed=trial)
            if cert.covered:
                assert refuted is None
            if refuted is not None:
                assert not cert.covered
                assert not any(cone_contains(c, refuted) for c in cones)
            families += 1
    assert families >= 200
    assert time.monotonic() - start < 120


def test_criterion_6_known_values():
    sym = symmetric_example()
    report = colourful_depth(sym)
    assert report.depth == 6
    assert oracle_depth_2d(sym) == 6

    d1 = Configuration(1, ((fp(1), fp(-1)), (fp(2), fp(-3))))
    assert colourful_depth(d1).depth == 2
    assert oracle_depth_1d(d1) == 2

    d1_symmetric = Configuration(
        1, ((fp(1), fp(-1)), ((Fraction(1, 2),), (Fraction(-1, 2),))))
    assert colourful_depth(d1_symmetric).depth == 2
    assert oracle_depth_1d(d1_symmetric) == 2

    # colour 0 = {1, 2}, colour 1 = {-1, 1}: the pairs (1,-1) and (2,-1)
    # straddle the origin, (1,1) and (2,1) do not
    d1_miss = Configuration(1, ((fp(1), fp(2)), (fp(-1), fp(1))))
    assert colourful_depth(d1_miss).depth == oracle_depth_1d(d1_miss) == 2


def test_criterion_7_search_reaches_conjectured_optimum():
    start = time.monotonic()
    report = minimize_depth(2, restarts=20, steps=500, seed=SHIPPED_SEED)
    assert report.best_depth == 5
    assert colourful_depth(report.best_config).depth == 5
    for seed in (1, 2, 3, 4):
        quick = minimize_depth(2, restarts=3, steps=120, seed=seed)
        assert quick.best_depth >= 4
    assert time.monotonic() - start < 300


def test_criterion_8_bound_formula():
    for d in range(1, 65):
        total = 0
        term = d + 1
        while term > 0:
            total += term
            term -= 2
        assert theorem_bound(d) == total
    for d in range(4, 65):
        assert theorem_bound(d) > 2 * d


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    config_out = run("gen", "-d", "2", "--seed", "7")
    config_path = tmp_path / "c.json"
    config_path.write_text(config_out)
    pairs_path = tmp_path / "p.json"
    pairs_path.write_text(json.dumps(
        {"d": 2, "colours": [[["1", "0"], ["-1", "0"]],
                             [["0", "1"], ["0", "-1"]]]}))

    commands = [
        ("gen", "-d", "2", "--seed", "7"),
        ("depth", str(config_path)),
        ("ddepth", str(config_path), "--colours", "0,1", "--dir", "1,-1/2"),
        ("cross", str(config_path), "--colours", "0,1", "--seed", "3"),
        ("cross-check", str(pairs_path)),
        ("witness", str(config_path), "--seed", "3"),
        ("search", "-d", "2", "--restarts", "2", "--steps", "60", "--seed", "5"),
        ("verify", str(config_path), "--seed", "1"),
    ]
    for argv in commands:
        first = run(*argv)
        second = run(*argv)
        assert first == second, f"non-deterministic output for {argv[0]}"
        doc = json.loads(first)
        assert doc["manifest"]["command"] == argv[0]
