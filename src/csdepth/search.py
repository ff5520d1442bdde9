"""Random configuration generation and depth minimization by hill descent.

Configurations are sampled with one designated anchor point per colour: the
first d points are drawn from [-1, 1]^d with bounded denominators and the
anchor is their negated sum, so the origin is the mean of each colour class
and sits strictly inside its hull.  Descent proposals replace one uniformly
chosen point with a fresh sample, repairing the anchor (when a non-anchor
point moved) or rejecting the proposal (when moving the anchor itself would
evict the origin), so every configuration ever evaluated keeps the origin in
its core.

Every depth evaluation is checked against the proven lower bound; a
violation aborts the search with the offending configuration attached,
since it would be a counterexample to the bound or a defect in the
predicates underneath.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .configuration import (
    Configuration,
    check_validation_budget,
    configuration_to_json_dict,
    validate,
)
from .depth import _ConeFamily, colourful_depth, origin_in_convex_hull
from .errors import InputError, ViolationError
from .exactgeom import scale_to_integers
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


def _sample_point(d: int, rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-_DENOMINATOR, _DENOMINATOR), _DENOMINATOR)
                 for _ in range(d))


def _anchored_class(points: list[tuple[Fraction, ...]], d: int
                    ) -> tuple[tuple[Fraction, ...], ...]:
    anchor = tuple(-sum(p[k] for p in points) for k in range(d))
    return tuple(points) + (anchor,)


def random_configuration(d: int, seed: int) -> Configuration:
    """A seeded valid configuration: origin strictly interior to every colour
    hull and all points in general position.  Deterministic per seed.
    Dimensions beyond 5 are refused before sampling, as by `validate`."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    check_validation_budget(d)
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


def _checked_depth(config: Configuration) -> int:
    depth = colourful_depth(config).depth
    bound = theorem_bound(config.dimension)
    if depth < bound:
        raise ViolationError(
            f"configuration of depth {depth} < {bound} found: counterexample "
            "to the proven bound, or a defect in the containment predicates",
            counterexample=json.dumps(configuration_to_json_dict(config)))
    return depth


class _ProposalScreen:
    """Cheap exact lower bound on candidate depths for descent screening.

    Counting the cones that contain each antipode of the modified colour's
    points hits a subset of the containing transversals (all of them in
    general position), so a count at or above the incumbent depth soundly
    rejects the proposal.  The cone family over the unmodified colours is
    cached and rebuilt only after accepted moves.
    """

    def __init__(self, d: int):
        self.d = d
        self._families: dict[int, _ConeFamily] = {}

    def invalidate_except(self, colour: int) -> None:
        self._families = {c: f for c, f in self._families.items() if c == colour}

    def lower_bound(self, classes, colour: int) -> int:
        family = self._families.get(colour)
        if family is None:
            family = _ConeFamily(
                [classes[c] for c in range(self.d + 1) if c != colour])
            self._families[colour] = family
        total = 0
        for p in classes[colour]:
            antipode = tuple(-e for e in scale_to_integers(p)[0])
            if any(antipode):
                total += family.count_containing(antipode)
            else:
                total += len(family.choices)
        return total


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
        config = random_configuration(d, child_seed)
        rng = random.Random(child_seed ^ 0x9E3779B9)
        points = [list(cls) for cls in config.colours]
        depth = _checked_depth(config)
        history.append((r, 0, depth))
        screen = _ProposalScreen(d)
        iteration = 0
        rejected = 0
        while rejected < steps:
            iteration += 1
            colour = rng.randrange(d + 1)
            index = rng.randrange(d + 1)
            fresh = _sample_point(d, rng)
            candidate = [cls[:] for cls in points]
            candidate[colour][index] = fresh
            if not origin_in_convex_hull(tuple(candidate[colour])):
                if index == d:
                    # the anchor itself evicted the origin: nothing to repair
                    rejected += 1
                    continue
                # pull the origin back as the mean of the class
                candidate[colour][d] = tuple(
                    -sum(p[k] for p in candidate[colour][:d]) for k in range(d))
            if screen.lower_bound(candidate, colour) >= depth:
                rejected += 1
                continue
            trial = Configuration(d, tuple(tuple(cls) for cls in candidate))
            trial_depth = _checked_depth(trial)
            if trial_depth < depth:
                points = candidate
                depth = trial_depth
                history.append((r, iteration, depth))
                screen.invalidate_except(colour)
            else:
                rejected += 1
        if best_depth is None or depth < best_depth:
            best_depth = depth
            best_config = Configuration(d, tuple(tuple(cls) for cls in points))
    return SearchReport(
        best_config=best_config,
        best_depth=best_depth,
        history=tuple(history),
        comparison=comparison_constants(d),
    )
