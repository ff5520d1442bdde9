"""Deformed cross positions: decision and constructive search.

A family of two points in each of d colours is in deformed cross position
when the 2^d one-point-per-colour cones cover space, like the vertices of a
cross-polytope after deformation.  The decision delegates to the exact
arrangement engine, `covers_space`, which reads the 2^d cones through the
same cone table, `depth._ConeFamily`, as the search below.

The constructive search hunts for a direction x contained in few cones of
the full one-point-per-colour family on a d-subset of colours.  Once x lies
in at most d-1 cones, each colour still has at least two points generating
no cone through x; pairing one such point per colour with a generator of a
cone through x yields a family whose coverage is then certified exactly.
Candidate directions come, in order, from the antipodes of all configuration
points, from the cells of the family's facet arrangement (exhaustively for
d <= 3, where the cell count stays small), and from seeded random
directions.  The cone count of a candidate is read from bit masks over the
family's shared facet normals (`_ConeFamily`): a cell's own mask from the
enumeration, a point's from one dot product per normal.  A cell's exact
witness is built only when it is output as the search direction, or when
dependent cones, which are tested on points, need it.  The colour subset
is checked as `d_depth` checks it; beyond the coverage limit (dimension 4)
a decision or a search, which could not be certified, is refused before
any cone is built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .arrangement import CoverageCertificate, _Arrangement, covers_space
from .configuration import Configuration, _origin_in_core
from .depth import ConeSpec, _check_colour_subset, _ConeFamily
from .errors import InputError, check_dimension
from .exactgeom import IntVec, Point, is_zero_vec, primitive_normal, scale_to_integers

_RANDOM_CANDIDATES = 64


@dataclass(frozen=True)
class CrossPosition:
    """A verified deformed cross position inside a configuration.

    For each colour c in `colour_set`, `pairs` holds the two point indices
    (cone_member, avoider): the first generates a cone containing the search
    direction, the second generates none.
    """

    colour_set: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    direction: Point
    certificate: CoverageCertificate

    def to_json_dict(self) -> dict:
        return {
            "colours": list(self.colour_set),
            "pairs": [{"colour": c, "cone_member": z, "avoider": w}
                      for c, (z, w) in zip(self.colour_set, self.pairs)],
            "direction": [str(x) for x in self.direction],
            "certificate": self.certificate.to_json_dict(),
        }


@dataclass(frozen=True)
class CrossSearchFailure:
    """No direction of low cone count was found within budget."""

    min_d_depth: int
    candidates_tried: int

    def to_json_dict(self) -> dict:
        return {
            "found": False,
            "min_d_depth": self.min_d_depth,
            "candidates_tried": self.candidates_tried,
        }


def is_deformed_cross_position(pairs: Sequence[tuple[Point, Point]]
                               ) -> CoverageCertificate:
    """Build the 2^d colourful cones from d pairs and decide coverage."""
    d = len(pairs)
    if d < 1:
        raise InputError("need at least one colour pair")
    for c, (a, b) in enumerate(pairs):
        for p in (a, b):
            if len(p) != d:
                raise InputError(f"pair {c}: expected {d} coordinates, got {len(p)}")
            if is_zero_vec(p):
                raise InputError(f"pair {c}: points must be nonzero")
    check_dimension("exact coverage", d)
    cones = [ConeSpec(tuple(pairs[i][bits[i]] for i in range(d)))
             for bits in itertools.product((0, 1), repeat=d)]
    return covers_space(cones)


def _candidate_directions(config: Configuration, family: _ConeFamily,
                          cells: Optional[_Arrangement], seed: int):
    """Candidate directions in deterministic priority order, as (integer
    point, cell mask, hyperplane crossed): antipodes of all configuration
    points, then every cell of the family's facet arrangement when `cells`
    holds it, then random draws.  Antipodes and draws are nonzero points,
    distinct up to positive scaling, with no mask.  A cell comes as its
    mask and the hyperplane `cells` crossed to reach it; its point is built
    only when dependent cones need it, and is None otherwise."""
    d = config.dimension
    emitted: set[IntVec] = set()

    def fresh(x: IntVec) -> bool:
        if all(e == 0 for e in x):
            return False
        key = primitive_normal(x)
        if key in emitted:
            return False
        emitted.add(key)
        return True

    for _, _, p in config.indexed_points():
        x = tuple(-e for e in scale_to_integers(p)[0])
        if fresh(x):
            yield x, None, None
    if cells is not None:
        for cell, j in cells.masks():
            yield (cells.witness(cell, j) if family.dependent else None), cell, j
    rng = random.Random(seed)
    for _ in range(_RANDOM_CANDIDATES):
        x = tuple(rng.getrandbits(20) - (1 << 19) for _ in range(d))
        if fresh(x):
            yield x, None, None


def find_cross_position(config: Configuration, colours: Sequence[int], *,
                        seed: int = 0,
                        exhaustive: Optional[bool] = None
                        ) -> Union[CrossPosition, CrossSearchFailure]:
    """Search the configuration for a deformed cross position on the given
    d colours.

    Succeeds whenever some candidate direction lies in between 1 and d-1 of
    the one-point-per-colour cones; the returned family carries its verified
    coverage certificate.  With `exhaustive` (default for d <= 3) the
    candidate stream includes a witness for every arrangement cell, so the
    search is complete: failure then proves that the minimum cone count over
    all directions is at least d.
    """
    d = config.dimension
    subset = _check_colour_subset(config, colours)
    check_dimension("validation", d)  # first: its refusal names the larger cost
    check_dimension("exact coverage", d)
    if not _origin_in_core(config)[1]:
        raise InputError("configuration must contain the origin strictly inside "
                         "every colour hull")
    if exhaustive is None:
        exhaustive = d <= 3

    family = _ConeFamily([config.colours[c] for c in subset])
    cells = _Arrangement(family.normals, d, pointed=family.dependent) if exhaustive else None
    best = len(family.choices) + 1
    tried = 0
    for x, cell, crossed in _candidate_directions(config, family, cells, seed):
        tried += 1
        hits = family.containing(x, cell)
        best = min(best, len(hits))
        if not 1 <= len(hits) <= d - 1:
            continue
        used = [set() for _ in range(d)]
        for choice in hits:
            for pos, j in enumerate(choice):
                used[pos].add(j)
        anchor = hits[0]
        pairs = []
        pair_points = []
        for pos in range(d):
            w = next(j for j in range(d + 1) if j not in used[pos])
            z = anchor[pos]
            pairs.append((z, w))
            cls = config.colours[subset[pos]]
            pair_points.append((cls[z], cls[w]))
        certificate = is_deformed_cross_position(pair_points)
        if certificate.covered:
            if x is None:
                x = cells.witness(cell, crossed)
            return CrossPosition(
                colour_set=subset,
                pairs=tuple(pairs),
                direction=tuple(Fraction(e) for e in x),
                certificate=certificate,
            )
    return CrossSearchFailure(min_d_depth=best, candidates_tried=tried)
