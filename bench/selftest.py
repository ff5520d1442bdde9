"""Self-test of the output checks: real reports must pass them, and one
corrupted report of each kind must be caught.

Runs on small inputs (d = 2 configurations, an uncovered d = 4 pair family,
a short d = 3 search), so it costs about a second; every benchmark run
executes it before its timed work.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import perturbed_cross_polytope, write_classes


def _corrupt(doc: dict, edit) -> dict:
    bad = copy.deepcopy(doc)
    edit(oracle.unwrap(bad))
    return bad


def _set_depth(res):
    res["depth"] += 1


def _break_coeff(res):
    res["witnesses"][0]["coeffs"][0] = "2"


def _duplicate_simplex(res):
    res["simplices"].append(res["simplices"][0])
    res["count"] += 1


def _drop_below_bound(res):
    res["simplices"] = res["simplices"][:res["bound"] - 1]
    res["count"] = len(res["simplices"])


def _move_colour_off_origin(res):
    res["colours"][0] = [[str(Fraction(c) + 10) for c in p] for p in res["colours"][0]]


def run(call, workdir: Path) -> list[str]:
    """Returns one message per check that passed a corrupted report or
    rejected a real one; empty when the checks work."""
    errors = []

    def expect(kind: str, check, good: dict, corruptions) -> None:
        try:
            check(good)
        except oracle.CheckFailed as e:
            errors.append(f"self-test {kind}: real report rejected: {e}")
            return
        for label, edit in corruptions:
            try:
                check(_corrupt(good, edit))
            except oracle.CheckFailed:
                continue
            errors.append(f"self-test {kind}: corrupted report passed ({label})")

    def doc(command, argv):
        c = call(command, argv)
        if c.rc != 0:
            raise RuntimeError(f"self-test input {argv}: exit {c.rc!r}")
        return json.loads(c.stdout)

    config_path = workdir / "selftest-config.json"
    gen = doc("gen", ["gen", "-d", "2", "--seed", "5"])
    config_path.write_text(json.dumps(gen))
    colours = oracle.parse_configuration(gen, 2)
    expected = oracle.depth_set(colours)
    expect("gen", lambda g: oracle.check_configuration(oracle.parse_configuration(g, 2)),
           gen, [("colour 0 moved off the origin", _move_colour_off_origin)])

    depth = doc("depth", ["depth", str(config_path)])
    expect("depth", lambda r: oracle.check_depth(colours, r, expected), depth,
           [("depth count", _set_depth), ("witness coefficient", _break_coeff)])

    outside = next(t for t in itertools.product(range(3), repeat=3) if t not in expected)

    def _swap_outside(res):
        res["simplices"][0] = list(outside)

    witness = doc("witness", ["witness", str(config_path), "--seed", "5"])
    expect("witness", lambda r: oracle.check_witness(colours, r, expected), witness,
           [("duplicate simplex", _duplicate_simplex),
            ("simplex missing the origin", _swap_outside),
            ("fewer than the bound", _drop_below_bound)])

    def _flip_cross(res):
        if res.get("found"):
            res["certificate"]["covered"] = False
        else:
            res["min_d_depth"] = 0

    cross = doc("cross", ["cross", str(config_path), "--colours", "0,1", "--seed", "0"])
    expect("cross", lambda r: oracle.check_cross(colours, (0, 1), r), cross,
           [("search verdict", _flip_cross)])

    pairs = perturbed_cross_polytope(random.Random(5), covered=False)
    pairs_path = write_classes(workdir / "selftest-pairs.json", 4, pairs)
    inside = [str(sum(p[0][k] for p in pairs)) for k in range(4)]

    def _direction_inside(res):
        res["uncovered_direction"] = inside

    def _claim_covered(res):
        res["covered"] = True

    check = doc("cross-check", ["cross-check", pairs_path])
    expect("cross-check", lambda r: oracle.check_cross_check(pairs, r, False), check,
           [("direction inside a cone", _direction_inside),
            ("covered verdict", _claim_covered)])

    def _lower_best(res):
        res["best_depth"] -= 1

    def _below_mu(res):
        res["best_depth"] = 9

    search = doc("search", ["search", "-d", "3", "--restarts", "1", "--steps", "2",
                            "--seed", "5"])
    expect("search", lambda r: oracle.check_search(r, 3), search,
           [("best depth off by one", _lower_best), ("below mu(3)", _below_mu)])
    return errors
