"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the production code paths: containment
is decided by orientation signs and segment tests, 2D coverage and
feasibility by exact angular sweeps.  They exist so the engine's Cramer and
simplex routes are checked against something that cannot share their bugs.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from csdepth import Configuration


def fp(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def symmetric_example() -> Configuration:
    """Three identical colour classes {(1,0), (0,1), (-1,-1)}: depth 6."""
    tri = (fp(1, 0), fp(0, 1), fp(-1, -1))
    return Configuration(2, (tri, tri, tri))


def interior_example_d5() -> Configuration:
    """A valid d = 5 configuration with the origin strictly inside every
    colour hull, not in general position: depth 7,446.  Colour 0 is
    (1,...,1) and -2e_i; colour a+1 is -e_a and e_a + u/10 for each u in
    {e_k : k != a} and -sum_{k != a} e_k."""
    def e(i, s=1):
        return fp(*[s if k == i else 0 for k in range(5)])

    def colour(a):
        us = [e(k) for k in range(5) if k != a] + [fp(*[-(k != a) for k in range(5)])]
        return (e(a, -1),) + tuple(tuple(x + y / 10 for x, y in zip(e(a), u)) for u in us)

    first = (fp(1, 1, 1, 1, 1),) + tuple(e(i, -2) for i in range(5))
    return Configuration(5, (first,) + tuple(colour(a) for a in range(5)))


def cross(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def origin_on_segment(u, v) -> bool:
    return cross(u, v) == 0 and dot(u, v) <= 0


def oracle_triangle_contains_origin(a, b, c) -> bool:
    """Closed containment of the origin in a 2D triangle, by orientation
    signs, with collinear degeneracy decided on the boundary segments."""
    area = cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1]))
    if area == 0:
        return (origin_on_segment(a, b) or origin_on_segment(b, c)
                or origin_on_segment(c, a))
    signs = [cross(a, b), cross(b, c), cross(c, a)]
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def oracle_segment_contains_origin(a, b) -> bool:
    """d=1: the closed hull of two reals contains 0."""
    return min(a[0], b[0]) <= 0 <= max(a[0], b[0])


def oracle_depth_2d(config: Configuration) -> int:
    count = 0
    for choice in itertools.product(range(3), repeat=3):
        pts = [config.point(c, j) for c, j in enumerate(choice)]
        if oracle_triangle_contains_origin(*pts):
            count += 1
    return count


def oracle_depth_1d(config: Configuration) -> int:
    count = 0
    for choice in itertools.product(range(2), repeat=2):
        pts = [config.point(c, j) for c, j in enumerate(choice)]
        if oracle_segment_contains_origin(*pts):
            count += 1
    return count


def oracle_cone_contains_2d(g1, g2, x) -> bool:
    """x in the nonnegative span of g1, g2 (2D), by cross-product signs."""
    base = cross(g1, g2)
    if base != 0:
        return cross(g1, x) * base >= 0 and cross(x, g2) * base >= 0
    if dot(g1, g2) < 0:  # opposite rays: the cone is the whole line
        return cross(g1, x) == 0
    return cross(g1, x) == 0 and dot(g1, x) >= 0


def _angle_cmp(u, v) -> int:
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def angular_order(vectors):
    """Distinct nonzero 2D vectors sorted counterclockwise from the +x axis."""
    unique = []
    for v in vectors:
        if v[0] == 0 and v[1] == 0:
            continue
        if not any(_angle_cmp(v, u) == 0 and cross(v, u) == 0 and dot(v, u) > 0
                   for u in unique):
            unique.append(v)
    return sorted(unique, key=functools.cmp_to_key(_angle_cmp))


def probe_directions_2d(rays):
    """Complete probe set for sector questions in 2D: every boundary ray plus
    a strict interior direction of every angular gap between consecutive rays.

    The bisector u+v only lands inside a gap smaller than a half turn; wider
    gaps (including the wrap-around one) get u rotated a quarter turn
    counterclockwise, which lies strictly inside any gap of at least 180
    degrees."""
    rays = angular_order(rays)
    probes = list(rays)
    n = len(rays)
    for i in range(n):
        u, v = rays[i], rays[(i + 1) % n]
        c = cross(u, v)
        if c > 0:
            probes.append((u[0] + v[0], u[1] + v[1]))
        elif c < 0 or dot(u, v) < 0:
            probes.append((-u[1], u[0]))
        else:
            # v is u itself (a single distinct ray): probe the other quadrants
            probes.extend([(-u[1], u[0]), (-u[0], -u[1]), (u[1], -u[0])])
    if not probes:
        probes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return probes


def oracle_covers_2d(cone_generators) -> bool:
    """Do the given 2D cones (pairs of generators) cover the plane?  Complete
    by the sector structure: membership changes only across generator rays."""
    rays = []
    for g1, g2 in cone_generators:
        rays.extend([g1, g2])
    for x in probe_directions_2d(rays):
        if not any(oracle_cone_contains_2d(g1, g2, x) for g1, g2 in cone_generators):
            return False
    return True


def oracle_feasible_2d(rows) -> bool:
    """Strict feasibility of a homogeneous 2D sign system, by angular probing.

    rows: (normal, rel) with rel in {'>=', '>', '='}.  Complete because the
    feasible set is a sector bounded by rotations of the normals.
    """
    rays = []
    for (a, b), _ in rows:
        rays.extend([(-b, a), (b, -a), (a, b), (-a, -b)])
    candidates = probe_directions_2d(rays) + [(0, 0)]
    for x in candidates:
        ok = True
        for normal, rel in rows:
            v = dot(normal, x)
            if rel == ">=" and v < 0:
                ok = False
            elif rel == ">" and v <= 0:
                ok = False
            elif rel == "=" and v != 0:
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def random_rational_point(rng: random.Random, d: int, span: int = 64,
                          den: int = 16) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, den))
                 for _ in range(d))
