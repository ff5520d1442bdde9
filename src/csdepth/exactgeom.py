"""Exact rational linear algebra and strict linear feasibility.

Every geometric predicate in this package reduces to the operations here:
integer determinants, the cofactor normal of d-1 vectors in dimension d
(`normal_to_span`, from which cone facet rows and simplex weights are
built), and exact feasibility of homogeneous sign systems.  All arithmetic
is over arbitrary-precision rationals (``fractions.Fraction``) or plain
Python integers; no floating point is used anywhere.

Scalars serialize as base-10 strings ``"p/q"`` (or ``"p"`` when q = 1) in
canonical form: gcd(|p|, q) = 1 with q > 0.  ``Fraction`` maintains exactly
this canonical form, so parsing and formatting are thin wrappers with strict
input validation.

The feasibility solver decides systems of homogeneous rows ``a . x REL 0``
with REL one of >=, >, =.  Strict rows are handled by maximizing a single
bounded slack with an exact simplex method (integer pivoting, Bland's rule):
the system is strictly feasible iff the optimal slack is positive.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import InputError, ParseError

Point = tuple[Fraction, ...]
IntVec = tuple[int, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a base-10 rational string "p" or "p/q"."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"{text!r} is not a valid rational (expected 'p' or 'p/q')")
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den or "1")
    except ValueError:  # more digits than int() converts: sys.get_int_max_str_digits()
        raise ParseError(f"a rational of {len(text)} characters has more digits than "
                         f"the {sys.get_int_max_str_digits()}-digit limit") from None
    if q == 0:
        raise ParseError(f"{text!r} has a zero denominator")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    return str(value)


def point_from_strings(items: Sequence[str]) -> Point:
    return tuple(parse_rational(s) for s in items)


def point_to_strings(point: Point) -> list[str]:
    return [format_rational(c) for c in point]


def vec_dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def vec_neg(a: Point) -> Point:
    return tuple(-x for x in a)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def scale_to_integers(point: Sequence[Fraction]) -> tuple[IntVec, int]:
    """Return (m*point as integers, m) for the smallest positive integer m.

    Coordinates may be `Fraction`s or plain ints; only their `numerator`
    and `denominator` are read, so an integer point costs no division."""
    m = lcm(*[c.denominator for c in point])
    return tuple([c.numerator * (m // c.denominator) for c in point]), m


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 2:
        (a, b), (c, e) = rows
        return a * e - b * c
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for l in range(k + 1, n):
                if m[l][k] != 0:
                    m[k], m[l] = m[l], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def normal_to_span(vectors: Sequence[IntVec], dimension: int) -> Optional[IntVec]:
    """Integer vector orthogonal to d-1 given vectors (generalized cross product).

    Returns None when the vectors do not span a (d-1)-dimensional space.
    With zero input vectors in dimension 1 the span is the origin and the
    normal is (1,).
    """
    if len(vectors) != dimension - 1:
        raise InputError(f"need {dimension - 1} vectors in dimension {dimension}")
    out = []
    for j in range(dimension):
        minor = [[v[k] for k in range(dimension) if k != j] for v in vectors]
        entry = int_det(minor)
        out.append(-entry if j % 2 else entry)
    if all(e == 0 for e in out):
        return None
    return tuple(out)


def primitive_normal(vec: IntVec) -> IntVec:
    """Divide out the content and make the first nonzero entry positive."""
    g = gcd(*vec)
    if g == 0:
        raise InputError("zero vector has no primitive form")
    if next(e for e in vec if e) < 0:
        g = -g
    return tuple([e // g for e in vec])


def kernel_vector(vectors: Sequence[IntVec], dimension: int) -> Optional[IntVec]:
    """Some nonzero integer vector orthogonal to all given vectors, or None.

    Returns None exactly when the vectors span the whole space.
    """
    rows = [list(v) for v in vectors if any(v)]
    pivots: list[int] = []
    reduced: list[list[Fraction]] = []
    for row in rows:
        work = [Fraction(x) for x in row]
        for col, red in zip(pivots, reduced):
            if work[col] != 0:
                f = work[col] / red[col]
                work = [a - f * b for a, b in zip(work, red)]
        pivot_col = next((j for j in range(dimension) if work[j] != 0), None)
        if pivot_col is not None:
            pivots.append(pivot_col)
            reduced.append(work)
    if len(pivots) == dimension:
        return None
    free = next(j for j in range(dimension) if j not in pivots)
    sol = [Fraction(0)] * dimension
    sol[free] = Fraction(1)
    # back-substitute pivot coordinates against the free one
    for col, red in reversed(list(zip(pivots, reduced))):
        sol[col] = -sum(red[j] * sol[j] for j in range(dimension) if j != col) / red[col]
    return scale_to_integers(sol)[0]


def cone_facet_rows(int_columns: Sequence[IntVec]) -> Optional[tuple[IntVec, ...]]:
    """Facet-normal rows of a simplicial cone with the given integer generators.

    A point x lies in the cone iff row . x >= 0 for every returned row.
    Row i is the normal to the other generators, signed to face g_i; row i
    dotted with x is +-det of the generators with g_i replaced by x (the
    adjugate row), and dotted with g_i it is |det|.  Returns None when the
    generators are linearly dependent.
    """
    d = len(int_columns)
    out = []
    for i, g in enumerate(int_columns):
        normal = normal_to_span([*int_columns[:i], *int_columns[i + 1:]], d)
        side = vec_dot(normal, g) if normal is not None else 0
        if side == 0:
            return None
        out.append(normal if side > 0 else vec_neg(normal))
    return tuple(out)


class Relation(Enum):
    GE = ">=0"
    GT = ">0"
    EQ = "=0"


def max_slack_point(int_rows: Sequence[tuple[IntVec, Relation]],
                    dimension: int) -> Optional[Point]:
    """An exact point x satisfying every integer row (a, rel), strict rows
    strictly, or None.

    Variables are x = u - v with u, v >= 0 plus the slack t in [0, 1];
    maximize t subject to a.x >= 0 (weak), a.x >= t (strict), a.x = 0.
    Returns x when the optimum t is positive, else None.
    """
    d = dimension
    nstruct = 2 * d + 1
    tcol = 2 * d
    cons: list[tuple[list[int], int]] = []
    for normal, rel in int_rows:
        pos = list(normal)
        neg = [-a for a in normal]
        if rel is Relation.GE:
            cons.append((neg + pos + [0], 0))
        elif rel is Relation.GT:
            cons.append((neg + pos + [1], 0))
        else:
            cons.append((pos + neg + [0], 0))
            cons.append((neg + pos + [0], 0))
    cons.append(([0] * (2 * d) + [1], 1))  # t <= 1
    m = len(cons)
    ncols = nstruct + m + 1
    rhs_col = ncols - 1

    tableau: list[list[int]] = []
    for i, (coeffs, rhs) in enumerate(cons):
        row = coeffs + [0] * m + [rhs]
        row[nstruct + i] = 1
        tableau.append(row)
    obj = [0] * ncols
    obj[tcol] = -1
    basis = list(range(nstruct, nstruct + m))
    det = 1

    while True:
        enter = -1
        for j in range(nstruct + m):
            if obj[j] < 0:  # Bland: smallest improving index
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        num = den = 0
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][rhs_col]
                if leave < 0 or b * den < num * a or \
                        (b * den == num * a and basis[i] < basis[leave]):
                    leave, num, den = i, b, a
        if leave < 0:
            raise AssertionError("slack LP cannot be unbounded")
        pivot = tableau[leave][enter]
        pivot_row = tableau[leave]
        for row in tableau:
            if row is pivot_row:
                continue
            f = row[enter]
            for j in range(ncols):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // det
        f = obj[enter]
        for j in range(ncols):
            obj[j] = (obj[j] * pivot - f * pivot_row[j]) // det
        det = pivot
        basis[leave] = enter

    values = {}
    for i in range(m):
        values[basis[i]] = Fraction(tableau[i][rhs_col], det)
    if values.get(tcol, Fraction(0)) == 0:
        return None
    return tuple(values.get(k, Fraction(0)) - values.get(d + k, Fraction(0))
                 for k in range(d))
