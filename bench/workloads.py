"""The benchmark's workloads: their inputs, their CLI operations, and the
checks on each operation's output.

Every input is a deterministic function of (workload, seed, index), made by
the benchmark itself rather than by csdepth, so a change to the package's
own generators does not change what is measured.  An operation is one unit
of the closed loop: a short chain of CLI commands on one input.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

# Coordinates k / 2^16, the grid csdepth's own generator samples from.
_GRID = 1 << 16


def _point_strings(p) -> list[str]:
    return [str(Fraction(c)) for c in p]


def write_classes(path: Path, d: int, classes) -> str:
    doc = {"d": d, "colours": [[_point_strings(p) for p in cls] for cls in classes]}
    path.write_text(json.dumps(doc))
    return str(path)


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if r is None:
                return 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        for i in range(k + 1, n):
            m[i] = [(m[k][k] * a - m[i][k] * b) // prev for a, b in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def anchored_configuration(d: int, rng: random.Random) -> list[list[tuple[int, ...]]]:
    """d random grid points per colour plus their negated sum, so the origin
    is each colour's centroid; redrawn until every d+1 points are affinely
    independent and every d points linearly independent (general position),
    which also puts the origin strictly inside every colour.  Returned as
    integer numerators over `_GRID`."""
    while True:
        classes = []
        for _ in range(d + 1):
            pts = [tuple(rng.randint(-_GRID, _GRID) for _ in range(d)) for _ in range(d)]
            pts.append(tuple(-sum(p[k] for p in pts) for k in range(d)))
            classes.append(pts)
        flat = [p for cls in classes for p in cls]
        if all(_det([list(flat[i]) + [1] for i in s])
               for s in itertools.combinations(range(len(flat)), d + 1)) and \
                all(_det([list(flat[i]) for i in s])
                    for s in itertools.combinations(range(len(flat)), d)):
            return classes


def perturbed_cross_polytope(rng: random.Random, covered: bool):
    """Pairs (e_i, -e_i) for d = 4, with one point in each of two colours
    moved by at most 19/97 < 1/5 per coordinate.  Moves that small keep
    the origin off every colourful facet, so the 16 cones still cover space;
    this gives 12 facet hyperplanes and 240 cells.  The uncovered variant
    also puts colour 0's second point on the +x0 side and keeps every move's
    x0 component nonnegative: all cones then lie in x0 >= 0."""
    d = 4
    pairs = [[tuple(Fraction(s if k == i else 0) for k in range(d)) for s in (1, -1)]
             for i in range(d)]
    if not covered:
        pairs[0][1] = pairs[0][0]
    for colour in rng.sample(range(d), 2):
        side = rng.randrange(2)
        move = [Fraction(rng.choice([v for v in range(-19, 20) if v]), 97)
                for _ in range(d)]
        if not covered:
            move[0] = abs(move[0])
        pairs[colour][side] = tuple(a + b for a, b in zip(pairs[colour][side], move))
    return pairs


class Workload:
    """One workload: `item(i)` makes input i, `operate(item, call)` runs its
    commands, `check` raises `oracle.CheckFailed` on a wrong output."""

    name = ""
    prefetch = 0      # inputs made during set-up
    trace_items = 1   # inputs run by a traced run
    min_ops = 3       # operations a closed-loop run always completes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._items: list = []

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def item(self, i: int):
        while len(self._items) <= i:
            self._items.append(self.make_item(len(self._items)))
        return self._items[i]

    def make_item(self, i: int):
        raise NotImplementedError

    def operate(self, item, call) -> list:
        raise NotImplementedError

    def check(self, item, outputs: list[dict]) -> dict:
        """Check every command's output in order; returns observations
        (fallback taken, best depth) for the report."""
        raise NotImplementedError


class AnalyzeD4(Workload):
    """gen -d 4, then depth and witness on the generated file."""

    name = "analyze-d4"

    def make_item(self, i):
        return {"seed": self.rng(i).randrange(1 << 30), "path": self.workdir / f"config{i}.json"}

    def operate(self, item, call):
        seed = str(item["seed"])
        gen = call("gen_d4", ["gen", "-d", "4", "--seed", seed])
        if gen.rc == 0:
            item["path"].write_text(gen.stdout)
        path = str(item["path"])
        return [gen, call("depth_d4", ["depth", path]),
                call("witness_d4", ["witness", path, "--seed", seed])]

    def check(self, item, outputs):
        colours = oracle.parse_configuration(outputs[0], 4)
        oracle.check_configuration(colours)
        expected = oracle.depth_set(colours)
        oracle.check_depth(colours, outputs[1], expected)
        return {"fallback": oracle.check_witness(colours, outputs[2], expected)}


class Cover(Workload):
    """One cycle: cross --colours 0,1,2 on a random d = 3 configuration (an
    exhaustive search over every cell of the cone family's arrangement that
    fails), then cross-check on eight perturbed d = 4 cross-polytope pair
    families, every fourth uncovered by construction.  The two halves take
    about the same time, so either cell path moves the cycle's time."""

    name = "cover"
    prefetch = 3
    families = 8
    subset = (0, 1, 2)

    def make_item(self, i):
        classes = anchored_configuration(3, self.rng(i))
        colours = [[tuple(Fraction(c, _GRID) for c in p) for p in cls] for cls in classes]
        pairs = []
        for k in range(self.families):
            covered = k % 4 != 3
            family = perturbed_cross_polytope(self.rng(f"{i}.{k}"), covered)
            pairs.append({"pairs": family, "covered": covered,
                          "path": write_classes(self.workdir / f"pairs{i}.{k}.json", 4, family)})
        return {"colours": colours, "families": pairs,
                "path": write_classes(self.workdir / f"config{i}.json", 3, colours)}

    def operate(self, item, call):
        cross = call("cross_d3", ["cross", item["path"], "--colours",
                                  ",".join(map(str, self.subset)), "--seed", "0"])
        return [cross] + [call("cross_check_d4", ["cross-check", f["path"]])
                          for f in item["families"]]

    def check(self, item, outputs):
        oracle.check_cross(item["colours"], self.subset, outputs[0])
        for family, doc in zip(item["families"], outputs[1:]):
            oracle.check_cross_check(family["pairs"], doc, family["covered"])
        return {}


class SearchD3(Workload):
    """One fixed-budget hill-descent search at d = 3."""

    name = "search-d3"
    restarts, steps = 4, 300

    def make_item(self, i):
        return {"seed": self.rng(i).randrange(1 << 30)}

    def operate(self, item, call):
        return [call("search_d3", ["search", "-d", "3", "--restarts", str(self.restarts),
                                "--steps", str(self.steps), "--seed", str(item["seed"])])]

    def check(self, item, outputs):
        return {"best_depth": oracle.check_search(outputs[0], 3)}


WORKLOADS = {w.name: w for w in (AnalyzeD4, Cover, SearchD3)}
