"""Colourful configurations: data model, validation, and JSON file I/O.

A configuration in dimension d holds d+1 colour classes of d+1 points each.
The query point is always the origin; callers translate their data if they
care about some other point.  Points are kept exactly as given (no
normalization): every predicate downstream is invariant under positive
scaling of individual points, so working projectively costs nothing and
keeps all coordinates rational.

File format (also used, with different counts, for cross-position pair
files)::

    {"d": 2, "colours": [[["1", "0"], ["0", "1"], ["-1", "-1"]], ...]}

Coordinates are rational strings as defined in `exactgeom`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import InputError, ParseError
from .exactgeom import (
    Point,
    point_from_strings,
    point_to_strings,
    scale_to_integers,
)

Transversal = tuple[int, ...]

_MAX_DEFAULT_DIMENSION = 5


@dataclass(frozen=True)
class Configuration:
    """d+1 colour classes of d+1 points each in dimension d."""

    dimension: int
    colours: tuple[tuple[Point, ...], ...]

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise InputError(f"dimension must be positive, got {d}")
        if len(self.colours) != d + 1:
            raise InputError(f"expected {d + 1} colour classes, got {len(self.colours)}")
        for c, cls in enumerate(self.colours):
            if len(cls) != d + 1:
                raise InputError(f"colour {c}: expected {d + 1} points, got {len(cls)}")
            for j, p in enumerate(cls):
                if len(p) != d:
                    raise InputError(
                        f"colour {c}, point {j}: expected {d} coordinates, got {len(p)}")

    def point(self, colour: int, index: int) -> Point:
        return self.colours[colour][index]

    def indexed_points(self) -> Iterator[tuple[int, int, Point]]:
        for c, cls in enumerate(self.colours):
            for j, p in enumerate(cls):
                yield c, j, p


@dataclass(frozen=True)
class ValidationReport:
    zero_in_core: bool
    zero_interior: bool
    general_position: bool
    degenerate_witnesses: tuple[tuple[tuple[int, int], ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "zero_in_core": self.zero_in_core,
            "zero_interior": self.zero_interior,
            "general_position": self.general_position,
            "degenerate_witnesses": [
                [list(ix) for ix in subset] for subset in self.degenerate_witnesses
            ],
        }


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    # CLI reports wrap their payload in {"manifest":..., "result":...}; accept both.
    if isinstance(doc, dict) and "result" in doc and "d" not in doc:
        doc = doc["result"]
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def _parse_classes(doc: dict, classes: int, points_per_class: int,
                   what: str) -> tuple[tuple[Point, ...], ...]:
    d = doc.get("d")
    raw = doc.get("colours")
    if not isinstance(raw, list):
        raise ParseError("field 'colours' must be a list of colour classes")
    if len(raw) != classes:
        raise ParseError(f"{what} in dimension {d} needs {classes} colour classes, "
                         f"got {len(raw)}")
    out = []
    for c, cls in enumerate(raw):
        if not isinstance(cls, list) or len(cls) != points_per_class:
            n = len(cls) if isinstance(cls, list) else "non-list"
            raise ParseError(f"colours[{c}]: expected {points_per_class} points, got {n}")
        pts = []
        for j, coords in enumerate(cls):
            if not isinstance(coords, list) or len(coords) != d:
                n = len(coords) if isinstance(coords, list) else "non-list"
                raise ParseError(f"colours[{c}][{j}]: expected {d} coordinates, got {n}")
            try:
                pts.append(point_from_strings(coords))
            except ParseError as e:
                raise ParseError(f"colours[{c}][{j}]: {e}") from None
        out.append(tuple(pts))
    return tuple(out)


def _parse_dimension(doc: dict) -> int:
    d = doc.get("d")
    # bool is a subclass of int: JSON true must not pass as d = 1
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError(f"field 'd' must be a positive integer, got {d!r}")
    return d


def parse_configuration(text: str) -> Configuration:
    """Parse a configuration document, rejecting wrong counts and bad rationals."""
    doc = _load_document(text)
    d = _parse_dimension(doc)
    return Configuration(d, _parse_classes(doc, d + 1, d + 1, "a configuration"))


def parse_pairs(text: str) -> tuple[tuple[Point, Point], ...]:
    """Parse a pair file: d colour classes of 2 points each in dimension d."""
    doc = _load_document(text)
    d = _parse_dimension(doc)
    classes = _parse_classes(doc, d, 2, "a pair family")
    return tuple((cls[0], cls[1]) for cls in classes)


def configuration_to_json_dict(config: Configuration) -> dict:
    return {
        "d": config.dimension,
        "colours": [[point_to_strings(p) for p in cls] for cls in config.colours],
    }


def enumerate_transversals(config: Configuration) -> Iterator[Transversal]:
    """All (d+1)^(d+1) one-point-per-colour selections, lexicographically."""
    n = config.dimension + 1
    return itertools.product(range(n), repeat=n)


def transversal_points(config: Configuration, choice: Transversal) -> tuple[Point, ...]:
    if len(choice) != config.dimension + 1:
        raise InputError(f"transversal needs {config.dimension + 1} entries")
    for c, j in enumerate(choice):
        if not 0 <= j <= config.dimension:
            raise InputError(f"transversal entry {j} for colour {c} out of range")
    return tuple(config.point(c, j) for c, j in enumerate(choice))


def check_validation_budget(d: int, allow_high_dimension: bool = False) -> None:
    """Refuse, before any work, a validation whose minor table would not fit:
    it holds C((d+1)^2, d) minors, about 14 million at d = 6."""
    if d > _MAX_DEFAULT_DIMENSION and not allow_high_dimension:
        raise InputError(
            f"validation in dimension {d} needs allow_high_dimension=True "
            f"(the minor table holds C({(d + 1) ** 2},{d}) = {comb((d + 1) ** 2, d):,} "
            "minors: expect most of a gigabyte of memory and hours of work beyond "
            "dimension 5)")


def validate(config: Configuration, *,
             allow_high_dimension: bool = False) -> ValidationReport:
    """Check the standing assumptions: origin in the core, strictly so, and
    general position.

    zero_in_core: the origin lies in the closed hull of every colour class.
    zero_interior: additionally, no containment is witnessed on a proper
    face, i.e. for every colour, dropping any single point evicts the origin
    from the hull (for affinely independent classes this is exactly "all
    barycentric coordinates strictly positive").
    general_position: every d+1 points are affinely independent and every d
    points are linearly independent (no simplex facet hyperplane through the
    origin); failures are listed as point-index subsets, all (d+1)-subsets
    before all d-subsets, each group in lexicographic order.

    The points are tested as given.  Every minor of the configuration's
    points is computed once, for the length of the call, by Laplace
    expansion over the minors one size smaller: the d×d minors decide the
    d-subsets, and the affine determinant of each (d+1)-subset is its
    expansion along the column of ones into d+1 of them, weighted by the
    points' scale factors.  The report is cached on the configuration
    object, so every later call returns the same report without
    recomputing it.  Beyond dimension 5 the call is refused with
    `InputError` unless `allow_high_dimension` is set (or the report is
    already cached).
    """
    cached = config.__dict__.get("_validation")
    if cached is not None:
        return cached
    check_validation_budget(config.dimension, allow_high_dimension)
    from .depth import origin_in_convex_hull  # local import: depth builds on this module

    d = config.dimension
    zero_in_core = all(origin_in_convex_hull(cls) for cls in config.colours)
    zero_interior = zero_in_core
    if zero_in_core:
        for cls in config.colours:
            for drop in range(d + 1):
                reduced = cls[:drop] + cls[drop + 1:]
                if origin_in_convex_hull(reduced):
                    zero_interior = False
                    break
            if not zero_interior:
                break

    labels = []
    rows = []
    for c, j, p in config.indexed_points():
        v, m = scale_to_integers(p)
        labels.append((c, j))
        rows.append(v + (m,))
    n = len(rows)
    # Row i is point i times its scale factor m_i, followed by m_i.  The
    # k×k minor of a set of rows on their first k columns is the Laplace
    # expansion along column k-1 over the (k-1)×(k-1) minors, which are
    # read from a flat list by colex rank: the sorted subset s_0 < s_1 < ...
    # has rank sum_j C(s_j, j+1).  At k = d the minors are det[m_i p_i], at
    # k = d+1 they are det[m_i p_i, m_i]: det[p_i] and det[p_i, 1] of the
    # points as given, times the positive product of their m_i.
    up = [[comb(s, j + 1) for s in range(n)] for j in range(d + 1)]
    minors = [1]
    linear = []
    for k in range(1, d + 2):
        level = [0] * comb(n, k) if k <= d else None
        zeros = []
        for subset in itertools.combinations(range(n), k):
            rank = sum(up[j - 1][subset[j]] for j in range(1, k))  # subset - s_0
            total = 0
            for j, i in enumerate(subset):
                term = rows[i][k - 1] * minors[rank]
                total += term if (j + k - 1) % 2 == 0 else -term
                if j < k - 1:
                    rank += up[j][i] - up[j][subset[j + 1]]  # subset - s_(j+1)
            if level is not None:
                level[sum(up[j][s] for j, s in enumerate(subset))] = total
            if total == 0 and k >= d:
                zeros.append(tuple(labels[i] for i in subset))
        if k == d:
            linear = zeros
        minors = level
    witnesses = tuple(zeros + linear)
    report = ValidationReport(
        zero_in_core=zero_in_core,
        zero_interior=zero_interior,
        general_position=not witnesses,
        degenerate_witnesses=witnesses,
    )
    object.__setattr__(config, "_validation", report)
    return report
