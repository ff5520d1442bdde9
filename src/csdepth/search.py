"""Random configuration generation and depth minimization by hill descent.

Configurations are sampled with one designated anchor point per colour: the
first d points are drawn from [-1, 1]^d with bounded denominators and the
anchor is their negated sum, so the origin is the mean of each colour class
and sits strictly inside its hull.  Descent proposals replace one uniformly
chosen point with a fresh sample, repairing the anchor (when a non-anchor
point moved) or rejecting the proposal (when moving the anchor itself would
evict the origin), so every configuration ever evaluated keeps the origin in
its core.  That hull test reads the signs of the moved class's cofactors
(`_cofactor_verdict`), with no LP unless they are all 0: the class keeps
its cofactors and their gradients (`_hull_cofactors`), in which the
cofactors of a one-point replacement are linear, so the test costs d+1 dot
products; the exact LP is `origin_in_convex_hull`'s.  The gradients are,
up to sign, the C(d+1, 2) normals to the class less two of its points.

Every sampled coordinate is an integer numerator over 2^16, and the
descent keeps points as those integer vectors; `Fraction`s are made only
for a bound violation's counterexample and the output.  Each proposal is
evaluated exactly and incrementally: its depth is updated from the
incumbent's minor table, reading the signs of only the minors through the
moved points, those of every other colour at once from one packing of the
moved colour's normals (d multiply-adds per moved point), and rewriting
only the sign bits of the transversals through them (`_ProposalScreen`).
A proposal is accepted iff that depth is below the incumbent's.  An
accepted move adopts the proposal's `_MinorTable.successor`, a table of
the new points whose minors are dot products, which share no arithmetic
with the packed signs of a proposal: it is the tripwire, and its sign
masks and containing transversals must equal the proposal's.  The
successor recomputes only what the move changed: it keeps the
incumbent's normal lists, rebuilding in each only the normals through the
moved points, and the packings of the lists the move left unchanged.  Every depth, incremental or full, is checked
against the proven lower bound; a violation aborts the search with the
offending configuration attached, since it would be a counterexample to
the bound or a defect in the predicates underneath.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .configuration import Configuration, configuration_to_json_dict, validate
from .depth import _cofactor_verdict, _cofactors, _MinorTable, origin_in_convex_hull
from .errors import InputError, ViolationError, check_dimension
from .exactgeom import IntVec, normal_to_span, vec_dot, vec_neg
from .witness import theorem_bound

_DENOMINATOR = 1 << 16
_GENERATION_RETRIES = 64


@dataclass(frozen=True)
class SearchReport:
    best_config: Configuration
    best_depth: int
    history: tuple[tuple[int, int, int], ...]  # (restart, iteration, depth)
    comparison: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "best_depth": self.best_depth,
            "best_config": configuration_to_json_dict(self.best_config),
            "history": [
                {"restart": r, "iteration": i, "depth": v}
                for r, i, v in self.history
            ],
            "comparison": dict(self.comparison),
        }


def _sample_numerators(d: int, rng: random.Random) -> IntVec:
    return tuple([rng.randint(-_DENOMINATOR, _DENOMINATOR) for _ in range(d)])


def _sample_point(d: int, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, _DENOMINATOR) for x in _sample_numerators(d, rng))


def _numerators(config: Configuration) -> list[list[IntVec]]:
    """The points of a sampled configuration as integer numerators over
    2^16, the form the descent keeps."""
    return [[tuple(x.numerator * (_DENOMINATOR // x.denominator) for x in p) for p in cls]
            for cls in config.colours]


def _configuration(d: int, points: Sequence[Sequence[IntVec]]) -> Configuration:
    """The configuration whose points have the given numerators over 2^16."""
    return Configuration(d, tuple(tuple(tuple(Fraction(x, _DENOMINATOR) for x in p)
                                        for p in cls) for cls in points))


def _anchored_class(points: list[tuple[Fraction, ...]], d: int
                    ) -> tuple[tuple[Fraction, ...], ...]:
    anchor = tuple(-sum(p[k] for p in points) for k in range(d))
    return tuple(points) + (anchor,)


def random_configuration(d: int, seed: int) -> Configuration:
    """A seeded valid configuration: origin strictly interior to every colour
    hull and all points in general position.  Deterministic per seed.
    Dimensions beyond the validation limit are refused before sampling, as
    by `validate`."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    check_dimension("validation", d)
    rng = random.Random(seed)
    for _ in range(_GENERATION_RETRIES):
        colours = tuple(
            _anchored_class([_sample_point(d, rng) for _ in range(d)], d)
            for _ in range(d + 1))
        config = Configuration(d, colours)
        report = validate(config)
        if report.zero_interior and report.general_position:
            return config
    raise InputError(
        f"could not sample a general-position configuration for d={d}, "
        f"seed={seed} after {_GENERATION_RETRIES} attempts")


def _check_bound(d: int, depth: int, points: Sequence[Sequence[IntVec]]) -> None:
    bound = theorem_bound(d)
    if depth < bound:
        config = _configuration(d, points)
        raise ViolationError(
            f"configuration of depth {depth} < {bound} found: counterexample "
            "to the proven bound, or a defect in the containment predicates",
            counterexample=json.dumps(configuration_to_json_dict(config)))


def _checked_depth(table: _MinorTable) -> int:
    """The colourful depth of a minor table of numerators over 2^16,
    checked against the bound."""
    _check_bound(table.dimension, table.depth, table.points)
    return table.depth


def _hull_cofactors(cls: Sequence[IntVec], d: int
                    ) -> tuple[tuple[int, ...], list[list[Optional[IntVec]]]]:
    """The cofactors of a class of d+1 points (`origin_in_convex_hull`
    reads their signs), and for each point j their gradient in it: entry k
    != j of the cofactors with point j replaced by p is dot(p, gradient[j][k]);
    entry j does not read p, and gradient[j][j] is None.

    Cofactor k is (-1)^k det of the points other than k, p among them in
    row r (j, or j - 1 if j > k), so it is (-1)^(k+r) dot(p, N) with N the
    `normal_to_span` of the points other than j and k: one normal per pair."""
    gradients = [[None] * (d + 1) for _ in range(d + 1)]
    for j, k in itertools.combinations(range(d + 1), 2):
        normal = normal_to_span([p for m, p in enumerate(cls) if m not in (j, k)], d) or (0,) * d
        # p is row j of the points other than k, row k - 1 of those other than j
        gradients[j][k] = normal if (j + k) % 2 == 0 else vec_neg(normal)
        gradients[k][j] = normal if (j + k) % 2 == 1 else vec_neg(normal)
    return _cofactors(cls), gradients


def _contains_origin_after(hull, cls: Sequence[IntVec], index: int) -> bool:
    """Whether the hull of `cls` contains the origin, where `hull` is
    `_hull_cofactors` of the same class before point `index` became
    cls[index]: by the signs of the updated cofactors, or by
    `origin_in_convex_hull` when they are all 0."""
    cofactors, gradients = hull
    p = cls[index]
    verdict = _cofactor_verdict([c if k == index else vec_dot(p, g)
                                 for k, (c, g) in enumerate(zip(cofactors, gradients[index]))])
    return origin_in_convex_hull(tuple(cls)) if verdict is None else verdict


class _ProposalScreen:
    """Exact colourful depth of each descent proposal, updated from the
    incumbent's `_MinorTable` of integer numerators (`propose`) instead of
    recomputed, and checked against the proven bound.

    The method names are kept from the cone-count screen this replaced,
    whose counts bounded the depth from below: `lower_bound` returns the
    exact depth, and `invalidate_except` adopts the proposal's
    `_MinorTable.successor`, the tripwire.
    """

    def __init__(self, points: Sequence[Sequence[IntVec]]):
        self.table = _MinorTable(points)

    def lower_bound(self, classes, colour: int) -> int:
        depth = self.table.propose(colour, classes[colour])
        _check_bound(self.table.dimension, depth, classes)
        return depth

    def invalidate_except(self) -> None:
        self.table = self.table.successor()


def comparison_constants(d: int) -> dict[str, int]:
    return {
        "lower_bound": theorem_bound(d),
        "prior_lower": 2 * d,
        "conjecture": d * d + 1,
        "bm_bound": -(-d * (d + 1) // 5),
    }


def minimize_depth(d: int, restarts: int, steps: int, seed: int) -> SearchReport:
    """Hill descent over configurations: accept a proposal only when the depth
    strictly decreases; a restart ends after `steps` non-improving proposals.
    Restarts use independently derived seeds and merge by best depth with
    earlier restarts winning ties."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    if restarts < 1 or steps < 1:
        raise InputError("restarts and steps must be positive")
    best_config = None
    best_depth = None
    history: list[tuple[int, int, int]] = []
    for r in range(restarts):
        child_seed = seed * 1_000_003 + r
        points = _numerators(random_configuration(d, child_seed))
        rng = random.Random(child_seed ^ 0x9E3779B9)
        screen = _ProposalScreen(points)
        hulls = [_hull_cofactors(cls, d) for cls in points]
        depth = _checked_depth(screen.table)
        history.append((r, 0, depth))
        iteration = 0
        rejected = 0
        while rejected < steps:
            iteration += 1
            colour = rng.randrange(d + 1)
            index = rng.randrange(d + 1)
            fresh = _sample_numerators(d, rng)
            cls = points[colour][:]
            cls[index] = fresh
            if not _contains_origin_after(hulls[colour], cls, index):
                if index == d:
                    # the anchor itself evicted the origin: nothing to repair
                    rejected += 1
                    continue
                # pull the origin back as the mean of the class
                cls[d] = tuple(-sum(p[k] for p in cls[:d]) for k in range(d))
            candidate = points[:]
            candidate[colour] = cls
            trial_depth = screen.lower_bound(candidate, colour)
            if trial_depth >= depth:
                rejected += 1
                continue
            screen.invalidate_except()
            points = candidate
            depth = _checked_depth(screen.table)
            history.append((r, iteration, depth))
            hulls[colour] = _hull_cofactors(cls, d)
        if best_depth is None or depth < best_depth:
            best_depth = depth
            best_config = _configuration(d, points)
    return SearchReport(
        best_config=best_config,
        best_depth=best_depth,
        history=tuple(history),
        comparison=comparison_constants(d),
    )
