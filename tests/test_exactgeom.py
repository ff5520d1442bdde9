import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csdepth import ParseError, format_rational, parse_rational
from csdepth.exactgeom import Relation, int_det, max_slack_point, vec_dot, vec_neg

from helpers import oracle_feasible_2d

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=64)
integers = st.integers(min_value=-10_000, max_value=10_000)
# entries up to 2^200, with zeros often enough to reach every pivot case
entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(1 << 200), 1 << 200))


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)),
        ("-7/2", Fraction(-7, 2)),
        ("0", Fraction(0)),
        ("10/4", Fraction(5, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", "0/0", "1.5", "a", "", "1/-2", "1 /2"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1" + "0" * 5000, "-7/1" + "0" * 5000],
                             ids=["numerator", "denominator"])
    def test_rejects_more_digits_than_int_converts(self, text):
        # int() refuses strings beyond sys.get_int_max_str_digits() (4300 by
        # default) with ValueError; that is bad input, not a crash
        with pytest.raises(ParseError, match="digit limit"):
            parse_rational(text)

    @given(fractions)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_canonical_form(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(-3, 1)) == "-3"


class TestDetSign:
    """Determinant signs, by `int_det` on integer rows."""

    def test_identity(self):
        assert int_det([(1, 0), (0, 1)]) == 1

    def test_swap(self):
        assert int_det([(0, 1), (1, 0)]) == -1

    def test_dependent(self):
        assert int_det([(1, 2), (2, 4)]) == 0

    @given(st.lists(st.tuples(integers, integers, integers), min_size=3, max_size=3))
    def test_transposition_flips(self, rows):
        base = int_det(rows)
        swapped = int_det([rows[1], rows[0], rows[2]])
        assert swapped == -base

    @given(st.tuples(integers, integers), st.tuples(integers, integers))
    def test_repeated_column_is_zero(self, a, b):
        assert int_det([a, a]) == 0

    @given(st.tuples(entries, entries), st.tuples(entries, entries))
    def test_2x2_equals_elimination(self, top, bottom):
        # zero pivots come from the drawn zeros: a zero top-left entry, and
        # a zero first column
        assert int_det([top, bottom]) == elimination_det([top, bottom])


def elimination_det(rows) -> int:
    """Reference determinant by fraction-free elimination, swapping rows
    past a zero pivot."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            m[i] = [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev for j in range(n)]
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class TestFeasiblePoint:
    """Feasible points of integer sign systems, by `max_slack_point`."""

    def test_open_quadrant(self):
        sol = max_slack_point([((1, 0), Relation.GT), ((0, 1), Relation.GT)], 2)
        assert sol is not None and sol[0] > 0 and sol[1] > 0

    def test_contradictory(self):
        assert max_slack_point([((1,), Relation.GT), ((-1,), Relation.GT)], 1) is None

    def test_forced_origin(self):
        sol = max_slack_point([((1,), Relation.GE), ((-1,), Relation.GE)], 1)
        assert sol == (Fraction(0),)

    def test_equality_plus_strict(self):
        sol = max_slack_point([((1, 1), Relation.EQ), ((1, 0), Relation.GT)], 2)
        assert sol is not None
        assert sol[0] + sol[1] == 0 and sol[0] > 0

    def test_constructed_feasible_never_absent(self):
        rng = random.Random(20240811)
        for _ in range(400):
            d = rng.choice([1, 2, 3, 4])
            x = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                      for _ in range(d))
            rows = []
            for _ in range(rng.randint(1, 8)):
                a = tuple(rng.randint(-9, 9) for _ in range(d))
                v = vec_dot(a, x)
                if v > 0:
                    rows.append((a, rng.choice([Relation.GT, Relation.GE])))
                elif v == 0:
                    rows.append((a, rng.choice([Relation.EQ, Relation.GE])))
                else:
                    rows.append((vec_neg(a), rng.choice([Relation.GT, Relation.GE])))
            sol = max_slack_point(rows, d)
            assert sol is not None
            for normal, rel in rows:
                value = vec_dot(normal, sol)
                if rel is Relation.GT:
                    assert value > 0
                elif rel is Relation.GE:
                    assert value >= 0
                else:
                    assert value == 0

    def test_agrees_with_angular_oracle_2d(self):
        """Exact cross-check, both verdicts, against an independent
        sector-sweep decision procedure."""
        rng = random.Random(99)
        rels = {Relation.GE: ">=", Relation.GT: ">", Relation.EQ: "="}
        outcomes = {True: 0, False: 0}
        for _ in range(500):
            rows = []
            for _ in range(rng.randint(1, 5)):
                a = (rng.randint(-4, 4), rng.randint(-4, 4))
                if a == (0, 0):
                    a = (1, 0)
                rel = rng.choice([Relation.GE, Relation.GT, Relation.GT, Relation.EQ])
                rows.append((a, rel))
            got = max_slack_point(rows, 2) is not None
            want = oracle_feasible_2d([(a, rels[r]) for a, r in rows])
            assert got == want
            outcomes[got] += 1
        assert outcomes[True] > 30 and outcomes[False] > 30

    def test_determinism(self):
        rows = [((3, -1), Relation.GT), ((1, 2), Relation.GT), ((0, 1), Relation.GE)]
        assert max_slack_point(rows, 2) == max_slack_point(rows, 2)
