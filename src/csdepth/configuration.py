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
from math import gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import InputError, ParseError, check_dimension
from .exactgeom import (
    IntVec,
    Point,
    point_from_strings,
    point_to_strings,
    scale_to_integers,
)

Transversal = tuple[int, ...]


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
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as e:
        # an integer literal past the interpreter's digit limit
        raise ParseError(f"JSON number: {e}") from None
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


def _origin_in_core(config: Configuration, allow_high_dimension: bool = False
                    ) -> tuple[bool, bool]:
    """(zero_in_core, zero_interior) of `validate`, from (d+1)(d+2) hull
    tests; cached on the configuration object.  Refused beyond the
    validation limit exactly as `validate` is, so the callers that need only
    these two flags (the staged witnesses and the cross-position search)
    keep its budget."""
    cached = config.__dict__.get("_core")
    if cached is not None:
        return cached
    check_dimension("validation", config.dimension, allow_high_dimension)
    from .depth import origin_in_convex_hull  # local import: depth builds on this module

    zero_in_core = all(origin_in_convex_hull(cls) for cls in config.colours)
    zero_interior = zero_in_core and not any(
        origin_in_convex_hull(cls[:drop] + cls[drop + 1:])
        for cls in config.colours for drop in range(len(cls)))
    core = (zero_in_core, zero_interior)
    object.__setattr__(config, "_core", core)
    return core


def _expansion_plans(d: int) -> list[list[tuple[tuple[int, int, int], ...]]]:
    """Plan k, for each (k+1)-subset of the d+1 columns in `combinations`
    order, lists the terms (column, rank of the k-subset without it, sign
    parity) of the Laplace expansion of a (k+1)×(k+1) minor along its last
    row."""
    plans = []
    for k in range(d + 1):
        rank = {cols: t for t, cols in enumerate(itertools.combinations(range(d + 1), k))}
        plans.append([tuple((c, rank[cols[:j] + cols[j + 1:]], (k + j) % 2)
                            for j, c in enumerate(cols))
                      for cols in itertools.combinations(range(d + 1), k + 1)])
    return plans


def _ray(x: int, y: int) -> Optional[tuple[int, int]]:
    """The primitive form of (x, y) up to sign, or None for (0, 0)."""
    g = gcd(x, y)
    if g == 0:
        return None
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return x // g, y // g


def _dependent_subsets(rows: Sequence[IntVec], d: int
                       ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The (d+1)-subsets of the rows with zero determinant, and the
    d-subsets with zero minor on the first d columns, each in lexicographic
    order.

    A depth-first walk over prefix subsets U in lexicographic order carries
    the minors of U on every |U|-subset of the d+1 columns; one dot product
    of a new row with a precomputed expansion vector (`_expansion_plans`)
    gives each minor of U+i.  At |U| = d-1 the walk decides every subset
    through U together.  Write N_i[c] for the minor of U+i on the columns
    other than c: N_i[d] decides the d-subset U+i, and N_i is, up to fixed
    signs, the normal of the hyperplane spanned by U+i, so U+i+j is
    dependent exactly when N_i or N_j vanishes or the two are proportional.
    Proportional normals have proportional coordinates, so if the primitive
    rays of (N_i[0], N_i[d]) are all nonzero and distinct, no subset through
    U is affinely dependent.  All N_i are orthogonal to U, so when U spans a
    (d-1)-space they lie in a plane, and those two coordinates tell them
    apart unless the minor of U on the other d-1 columns is 0.  Otherwise
    each U+i+j is decided by its determinant, the dot product of row j with
    the expansion of N_i."""
    n = len(rows)
    plans = _expansion_plans(d)
    affine: list[tuple[int, ...]] = []
    linear: list[tuple[int, ...]] = []

    def expansion(terms, minors) -> list[int]:
        v = [0] * (d + 1)
        for c, t, odd in terms:
            v[c] = -minors[t] if odd else minors[t]
        return v

    def walk(prefix: tuple[int, ...], minors: list[int]) -> None:
        k = len(prefix)
        start = prefix[-1] + 1 if prefix else 0
        if k < d - 1:
            vectors = [expansion(terms, minors) for terms in plans[k]]
            for i in range(start, n - d + k + 1):  # leave room for d-k-1 more rows
                r = rows[i]
                walk(prefix + (i,), [sum(map(mul, v, r)) for v in vectors])
            return
        # plans[k][d - c] expands N_i[c]
        first, last = expansion(plans[k][d], minors), expansion(plans[k][0], minors)
        rays = []
        for i in range(start, n):
            r = rows[i]
            y = sum(map(mul, last, r))
            if y == 0:
                linear.append(prefix + (i,))
            rays.append(_ray(sum(map(mul, first, r)), y))
        if None in rays or len(set(rays)) < len(rays):
            vectors = [expansion(terms, minors) for terms in plans[k]]
            for i in range(start, n):
                r = rows[i]
                top = expansion(plans[d][0], [sum(map(mul, v, r)) for v in vectors])
                affine.extend(prefix + (i, j) for j in range(i + 1, n)
                              if sum(map(mul, top, rows[j])) == 0)

    walk((), [1])
    return affine, linear


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

    The points are tested as given.  The two core flags come from
    `_origin_in_core`, which callers that need nothing else use alone.  The
    general-position sweep (`_dependent_subsets`) walks the subsets of d-1
    points depth first, extending each prefix's minors by one dot product
    per minor and row; it decides the d-subsets by their minors, and all
    (d+1)-subsets through one (d-1)-subset at once, from the pencil of
    hyperplanes through it, computing determinants only where that pencil
    has a repeated or vanishing normal.  The report is cached on the
    configuration object, so every later call returns the same report
    without recomputing it.  Beyond the validation limit of
    `errors.DIMENSION_LIMITS` (5) the call is refused with `InputError`
    unless `allow_high_dimension` is set (or the report is already cached).
    """
    cached = config.__dict__.get("_validation")
    if cached is not None:
        return cached
    zero_in_core, zero_interior = _origin_in_core(config, allow_high_dimension)

    # Row i is point i times its scale factor m_i, followed by m_i.  The
    # determinant of d+1 rows is det[p_i, 1] of the points as given, and the
    # minor of d rows on the first d columns is det[p_i], each times the
    # positive product of their m_i.
    labels = []
    rows = []
    for c, j, p in config.indexed_points():
        v, m = scale_to_integers(p)
        labels.append((c, j))
        rows.append(v + (m,))
    affine, linear = _dependent_subsets(rows, config.dimension)
    witnesses = tuple(tuple(labels[i] for i in subset) for subset in affine + linear)
    report = ValidationReport(
        zero_in_core=zero_in_core,
        zero_interior=zero_interior,
        general_position=not witnesses,
        degenerate_witnesses=witnesses,
    )
    object.__setattr__(config, "_validation", report)
    return report
