"""Constructive lower-bound witnesses: floor((d+2)^2/4) simplices around the
origin.

The staged construction processes colours in order.  Stage i finds a
deformed cross position on the other d colours; the antipode of every
still-unused colour-i point then lies in one of its 2^d cones (they cover
space), and that cone's generators together with the point form a colourful
simplex containing the origin.  Earlier stages consume at most two points of
colour i each, so stage i contributes at least d+1-2(i-1) fresh simplices,
and the stage totals telescope to the bound.

When any stage's cross-position search fails (possible once the depth
reaches d^2+d, and always in dimension 1), the generator falls back to full
exact enumeration, which is sound unconditionally and meets the bound for
every configuration with the origin in its core.  Beyond the coverage limit
(dimension 4) no cross position is certified, so it enumerates at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .configuration import (
    Configuration,
    Transversal,
    _origin_in_core,
    configuration_to_json_dict,
    transversal_points,
)
from .crosspos import CrossPosition, CrossSearchFailure, find_cross_position
from .depth import _ConeFamily, colourful_depth, simplex_contains_origin
from .errors import DIMENSION_LIMITS, InputError, ViolationError
from .exactgeom import scale_to_integers, vec_neg


def theorem_bound(d: int) -> int:
    """floor((d+2)^2/4): equals the telescoping sum (d+1)+(d-1)+... of
    positive terms."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    return (d + 2) ** 2 // 4


@dataclass(frozen=True)
class WitnessStage:
    colour: int
    cross_position: Optional[CrossPosition]
    fallback: bool
    vertices: tuple[int, ...]
    emitted: tuple[Transversal, ...]

    def to_json_dict(self) -> dict:
        return {
            "colour": self.colour,
            "cross_position": None if self.cross_position is None
            else self.cross_position.to_json_dict(),
            "fallback": self.fallback,
            "vertices": list(self.vertices),
            "emitted": [list(t) for t in self.emitted],
        }


@dataclass(frozen=True)
class WitnessSet:
    simplices: tuple[Transversal, ...]
    stage_log: tuple[WitnessStage, ...]
    bound: int

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "count": len(self.simplices),
            "simplices": [list(t) for t in self.simplices],
            "stage_log": [s.to_json_dict() for s in self.stage_log],
        }


def _stage_quotas(d: int) -> list[int]:
    quotas = []
    q = d + 1
    while q > 0:
        quotas.append(q)
        q -= 2
    return quotas


def _derive_seed(seed: int, stage: int) -> int:
    return seed * 1_000_003 + stage


def generate_witnesses(config: Configuration, seed: int = 0) -> WitnessSet:
    """Produce at least theorem_bound(d) distinct verified colourful simplices
    containing the origin.

    Requires the origin in the core.  The staged construction additionally
    needs the origin strictly inside every colour hull and d within the
    coverage limit; otherwise, or when a stage's search fails, the result is
    the full enumeration.
    """
    d = config.dimension
    zero_in_core, zero_interior = _origin_in_core(config)
    if not zero_in_core:
        raise InputError("the origin must lie in the core of the configuration")
    bound = theorem_bound(d)
    stage_log: list[WitnessStage] = []
    simplices: list[Transversal] = []

    staged_ok = zero_interior and d <= DIMENSION_LIMITS["exact coverage"]
    if staged_ok:
        used: dict[int, set[int]] = {c: set() for c in range(d + 1)}
        for stage_index, quota in enumerate(_stage_quotas(d)):
            colour = stage_index
            subset = tuple(c for c in range(d + 1) if c != colour)
            # heuristic candidates only: if they miss, full enumeration is far
            # cheaper than exhausting the cone facet arrangement
            found = find_cross_position(config, subset,
                                        seed=_derive_seed(seed, stage_index),
                                        exhaustive=False)
            if isinstance(found, CrossSearchFailure):
                staged_ok = False
                stage_log.append(WitnessStage(colour, None, True, (), ()))
                break
            available = [j for j in range(d + 1) if j not in used[colour]]
            if len(available) < quota:
                raise AssertionError("earlier stages consumed too many points")
            family = _ConeFamily([[config.point(c, j) for j in pair]
                                  for c, pair in zip(found.colour_set, found.pairs)])
            emitted = []
            for v_index in available:
                transversal = _locate_transversal(config, found, family, colour, v_index)
                verdict, _ = simplex_contains_origin(
                    transversal_points(config, transversal))
                if not verdict:
                    raise AssertionError("staged simplex failed re-verification")
                emitted.append(transversal)
            simplices.extend(emitted)
            stage_log.append(WitnessStage(colour, found, False,
                                          tuple(available), tuple(emitted)))
            for pos, c in enumerate(found.colour_set):
                used[c].update(found.pairs[pos])

    if not staged_ok:
        enumeration = colourful_depth(config)
        simplices = [choice for choice, _ in enumeration.witnesses]
        stage_log.append(WitnessStage(-1, None, True, (),
                                      tuple(simplices)))

    distinct = set(simplices)
    if len(distinct) != len(simplices):
        raise AssertionError("duplicate simplices emitted")
    result = WitnessSet(tuple(simplices), tuple(stage_log), bound)
    if len(result.simplices) < bound:
        raise ViolationError(
            f"only {len(result.simplices)} witnesses found, bound is {bound}: "
            "this contradicts the proven lower bound",
            counterexample=json.dumps(configuration_to_json_dict(config)))
    return result


def _locate_transversal(config: Configuration, position: CrossPosition,
                        family: _ConeFamily, colour: int, v_index: int) -> Transversal:
    """First cone of the cross position's pair family (in binary choice
    order) containing the antipode of point `v_index` of colour `colour`,
    assembled into a full transversal with that point."""
    apex = scale_to_integers(vec_neg(config.point(colour, v_index)))[0]
    hits = family.containing(apex)
    if not hits:
        raise AssertionError("certified cross position left a direction uncovered")
    choice = [0] * (config.dimension + 1)
    choice[colour] = v_index
    for c, pair, bit in zip(position.colour_set, position.pairs, hits[0]):
        choice[c] = pair[bit]
    return tuple(choice)


def verify_witness_set(config: Configuration, ws: WitnessSet) -> bool:
    """Independent re-check of a witness set: consistent shapes, pairwise
    distinct transversals, every simplex freshly re-verified, count meeting
    the dimension's bound."""
    d = config.dimension
    if ws.bound != theorem_bound(d):
        return False
    if len(set(ws.simplices)) != len(ws.simplices):
        return False
    if len(ws.simplices) < ws.bound:
        return False
    for choice in ws.simplices:
        if len(choice) != d + 1 or not all(0 <= j <= d for j in choice):
            return False
        verdict, _ = simplex_contains_origin(transversal_points(config, choice))
        if not verdict:
            return False
    return True
