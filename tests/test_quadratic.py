import operator
import random
from fractions import Fraction as F
from math import isqrt

from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from subgf import quadratic
from subgf.quadratic import QuadraticReal as Q, _decimal_column, _decimal_str, is_square_free

TAU = Q(F(1, 2), F(1, 2), 5)


def test_square_free_validation():
    assert is_square_free(5) and is_square_free(2) and is_square_free(30)
    assert not is_square_free(4) and not is_square_free(12) and not is_square_free(18)
    with pytest.raises(ValueError):
        Q(1, 1, 4)
    with pytest.raises(ValueError):
        Q(1, 1, 1)
    Q(1, 0, 4)  # rational values do not constrain the radicand


def test_golden_ratio_identities():
    assert TAU * TAU == TAU + 1
    assert TAU**3 == Q(2, 1, 5)
    assert 1 / TAU == TAU - 1
    assert TAU > 1 and TAU < 2


def test_field_operations():
    x = Q(F(3, 2), F(-1, 3), 2)
    y = Q(F(-1), F(2), 2)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x - x == 0
    assert (x / x) == 1
    assert x**0 == 1
    assert x**-2 == 1 / (x * x)
    with pytest.raises(ZeroDivisionError):
        x / Q(0, 0, 2)


def test_mixed_radicand_rules():
    r = Q(F(7, 3), 0, 5)
    s = Q(1, 1, 2)
    assert r + s == Q(F(7, 3) + 1, 1, 2)
    with pytest.raises(ValueError):
        Q(0, 1, 5) + Q(0, 1, 2)
    # 1, sqrt(d) and sqrt(e) are independent over Q: equality is decided
    assert Q(0, 1, 5) != Q(0, 1, 2)
    assert not Q(0, 1, 5) == Q(0, 1, 2)
    assert Q(1, 1, 2) not in [Q(1, 1, 3)]
    assert Q(1, 1, 2) in [Q(1, 1, 3), Q(1, 1, 2)]
    assert r != s and s != Q(F(7, 3), 0, 2)
    # arithmetic and ordering still refuse mixed radicands
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError):
            op(Q(1, 1, 5), Q(1, 1, 2))


def test_sign_cases():
    assert Q(0, 0, 5).sign() == 0
    assert Q(3, 0, 5).sign() == 1
    assert Q(0, -2, 5).sign() == -1
    assert Q(1, 1, 5).sign() == 1
    assert Q(-1, -1, 5).sign() == -1
    # 3 - sqrt(5) > 0, 2 - sqrt(5) < 0
    assert Q(3, -1, 5).sign() == 1
    assert Q(2, -1, 5).sign() == -1
    assert Q(-3, 1, 5).sign() == -1
    assert Q(-2, 1, 5).sign() == 1


def test_comparisons_with_rationals():
    assert TAU > F(8, 5)
    assert TAU < F(13, 8)
    assert Q(F(5, 2), 0, 5) == F(5, 2)
    assert sorted([TAU, Q(1, 0, 5), Q(0, 1, 5)]) == [
        Q(1, 0, 5),
        TAU,
        Q(0, 1, 5),
    ]


def test_decimal_of_golden_ratio():
    assert (
        TAU.decimal(50)
        == "1.61803398874989484820458683436563811772030917980576"
    )
    assert Q(-1, 0, 5).decimal(3) == "-1.000"
    assert Q(F(1, 4), 0, 5).decimal(2) == "0.25"


def test_interval_encloses_value():
    for x in (TAU, Q(-2, 3, 7), Q(F(5, 3), F(-1, 2), 13)):
        lo, hi = x.interval(30)
        assert hi - lo <= F(1, 10**30)
        assert (x - lo).sign() >= 0
        assert (x - hi).sign() <= 0


def test_total_order_matches_decimal_evaluation():
    # comparison decisions must agree with 50-digit interval evaluation
    rng = random.Random(20240811)
    ds = [2, 3, 5, 7]
    for _ in range(10**4):
        d = rng.choice(ds)
        x = Q(F(rng.randint(-30, 30), rng.randint(1, 9)),
              F(rng.randint(-30, 30), rng.randint(1, 9)), d)
        y = Q(F(rng.randint(-30, 30), rng.randint(1, 9)),
              F(rng.randint(-30, 30), rng.randint(1, 9)), d)
        xlo, xhi = x.interval(50)
        ylo, yhi = y.interval(50)
        if xhi < ylo:
            assert x < y
        elif yhi < xlo:
            assert x > y
        else:
            # overlapping 1e-50 intervals force equality at these sizes
            assert x == y


def test_hash_consistent_with_rational_equality():
    assert hash(Q(F(3, 2), 0, 5)) == hash(F(3, 2))
    assert Q(F(3, 2), 0, 5) == F(3, 2)



# -- the integer form against sympy ------------------------------------------

RADICANDS = (2, 3, 5, 7, 13, 30)


def _random_part(rng):
    """A rational of either sign with a small or a large numerator and a
    unit, a small or a large denominator."""
    num = rng.choice([rng.randint(-40, 40), rng.randint(-10**30, 10**30)])
    den = rng.choice([1, rng.randint(2, 60), rng.randint(10**11, 10**13)])
    return F(num, den)


def _sympy(a, b, d):
    return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
        b.numerator, b.denominator
    ) * sympy.sqrt(d)


def _random_values(seed, count, d=None):
    """(x, x in sympy) with nonzero surd parts of both signs."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = _random_part(rng), _random_part(rng)
        if b == 0:
            b = F(rng.choice([-1, 1]), rng.randint(1, 9))
        x = Q(a, b, d or rng.choice(RADICANDS))
        yield x, _sympy(x.a, x.b, x.d)


def _sympy_floor(expr):
    """floor of a real sympy number of magnitude below 10**120 whose
    fractional part is not within 10**-60 of 0 or 1.  sympy's own
    `floor` loses digits to cancellation on values like
    (10**20*sqrt(2) - 141421356237309504880) / 7 * 10**50, so evaluate to 200
    digits (strict: sympy raises rather than return fewer) and floor that."""
    v = sympy.N(expr, 200, strict=True)
    n = sympy.floor(v)
    assert sympy.Float(10**-60) < v - n < 1 - sympy.Float(10**-60)
    return int(n)


def _expected_decimal(sx, digits):
    n = _sympy_floor(10**digits * abs(sx))
    s = str(n).rjust(digits + 1, "0")
    return ("-" if sx.is_negative else "") + f"{s[:-digits]}.{s[-digits:]}"


def test_decimal_and_interval_match_sympy_floor():
    scale = 10**50
    for x, sx in _random_values(20261018, 400):
        assert x.decimal(50) == _expected_decimal(sx, 50)
        n = _sympy_floor(scale * sx)
        assert x.interval(50) == (F(n, scale), F(n + 1, scale))


def test_decimal_near_integers_matches_sympy_floor():
    # p - q*sqrt(d) and its negative just above or below 0, from the digits of
    # sqrt(d): a floor that is one unit off for a negative surd part shows
    for d in RADICANDS:
        for n in (1, 2, 5, 20):
            q = 10**n
            p = isqrt(d * q * q)
            for a, b, c in ((-p, q, 1), (p + 1, -q, 1), (p, -q, 7), (-p - 1, q, 3)):
                x = Q(F(a, c), F(b, c), d)
                sx = _sympy(x.a, x.b, d)
                assert x.sign() == sympy.sign(sx)
                assert x.decimal(50) == _expected_decimal(sx, 50)


def test_sign_and_comparisons_match_sympy():
    rng = random.Random(7)
    for d in RADICANDS:
        xs = list(_random_values(d, 40, d))
        for (x, sx), (y, sy) in zip(xs, xs[1:] + xs[:1]):
            if rng.random() < 0.2:  # the same value, built another way
                y, sy = (x * 3 + 1 - 1) / 3, sx
            diff = sympy.sign(sympy.expand(sx - sy))
            assert x.sign() == sympy.sign(sx)
            assert (x < y, x <= y, x == y, x != y, x >= y, x > y) == (
                diff < 0, diff <= 0, diff == 0, diff != 0, diff >= 0, diff > 0,
            )
            r = _random_part(rng)
            dr = sympy.sign(sx - sympy.Rational(r.numerator, r.denominator))
            assert (x < r, x == r, x > r, r < x, r == x) == (
                dr < 0, dr == 0, dr > 0, dr > 0, dr == 0,
            )


def test_field_operations_match_sympy():
    for d in RADICANDS:
        xs = list(_random_values(100 + d, 20, d))
        for (x, sx), (y, sy) in zip(xs, xs[1:] + xs[:1]):
            r = y.a
            sr = sympy.Rational(r.numerator, r.denominator)
            for ours, expected in (
                (x + y, sx + sy),
                (x - y, sx - sy),
                (x * y, sx * sy),
                (x / y, sympy.radsimp(sx / sy)),
                (r + x, sr + sx),
                (r - x, sr - sx),
                (x * r, sx * sr),
                (r / x, sympy.radsimp(sr / sx)),
                (x**3, sx**3),
                (x**-2, sympy.radsimp(1 / sx**2)),
            ):
                assert sympy.expand(expected - _sympy(ours.a, ours.b, d)) == 0
                # the form is reduced: equal values hold equal integers
                rebuilt = Q(ours.a, ours.b, d)
                assert (ours._p, ours._q, ours._c) == (rebuilt._p, rebuilt._q, rebuilt._c)
                assert ours._c > 0


def test_rational_results_agree_with_fraction():
    for x, sx in _random_values(43, 200):
        conjugate = Q(x.a, -x.b, x.d)
        norm = x * conjugate  # a*a - b*b*d
        expected = F(str(sympy.expand(sx * _sympy(x.a, -x.b, x.d))))
        assert norm.is_rational and norm.b == 0 and norm.a == expected
        assert norm == expected and expected == norm
        assert hash(norm) == hash(expected)
        assert {expected: 1}[norm] == 1
        half = (x + conjugate) / 2  # the rational part a
        assert half == x.a and hash(half) == hash(x.a)
        assert x - x == 0 and hash(x - x) == hash(0)


SQUARE_FREE = [d for d in range(2, 200) if is_square_free(d)]


@st.composite
def decimal_columns(draw):
    """(rows, c, d, digits): rows (p, q) of both signs over one denominator
    c >= 1 and a square-free radicand d, or d = None with every q = 0.  Rows
    are random, or p + q*sqrt(d) within about 1 of 0, or |q| >= 10**21 * c,
    past the guard digits of the shared root."""
    c = draw(st.integers(1, 10**6))
    d = draw(st.none() | st.sampled_from(SQUARE_FREE))
    sign = st.sampled_from([1, -1])
    p = st.integers(-10**60, 10**60)
    if d is None:
        row = st.tuples(p, st.just(0))
    else:
        q = st.integers(-10**12, 10**12)
        near = st.builds(lambda q, e, s: (s * (e - isqrt(d * q * q)), s * q),
                         st.integers(1, 10**30), st.integers(-1, 1), sign)
        wide = st.builds(lambda q, s: s * q * c, st.integers(10**21, 10**40), sign)
        row = st.tuples(p, q) | near | st.tuples(p, wide)
    rows = draw(st.lists(row, max_size=12))
    return rows, c, d, draw(st.integers(0, 60))


@given(decimal_columns())
@settings(max_examples=300, deadline=None)
def test_decimal_column_matches_decimal_str(column):
    # the rows whose shared-root bracket is wider than the guard digits
    # allow fall back to `_decimal_str`, and only those: a bracket without
    # its width, or no guard digits, shows as a wrong or an extra fallback
    rows, c, d, digits = column
    ps, qs = [p for p, _ in rows], [q for _, q in rows]
    expected = [_decimal_str(p, q, c, d, digits) for p, q in rows]
    with mock.patch.object(quadratic, "_decimal_str", wraps=_decimal_str) as fallback:
        assert list(_decimal_column(ps, qs, c, d, digits)) == expected
    fell = {call.args[:2] for call in fallback.call_args_list}
    assert all(abs(q) >= 10**10 * c for _, q in fell)
    assert {(p, q) for p, q in rows if abs(q) >= 10**21 * c} <= fell


def _pell(d: int, at_least: int) -> tuple[int, int]:
    """The first x, y > at_least with x*x - d*y*y = +-1, by the continued
    fraction of sqrt(d): y*sqrt(d) is within 1/(2x) of the integer x."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    h, h1, k, k1 = a0, 1, 1, 0
    while not (k > at_least and abs(h * h - d * k * k) == 1):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h, h1, k, k1 = a * h + h1, h, a * k + k1, k
    return h, k


@pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
def test_decimal_column_at_unit_boundaries(d):
    # (e - x + y*sqrt(d)) / c is within 1/(2x) of e/c: with y near 10**10,
    # the shared root's bracket, q = y units wide, holds or touches the
    # boundary of a last digit at e/c, on either sign, so a bracket misplaced
    # by its width on one side shows as a wrong digit
    x, y = _pell(d, 10**10)
    rows = [(s * (e - x), s * y) for e in range(-3, 4) for s in (1, -1)]
    for c in (1, 3):
        for digits in (0, 1, 2):
            ps, qs = [p for p, _ in rows], [q for _, q in rows]
            assert list(_decimal_column(ps, qs, c, d, digits)) == [
                _decimal_str(p, q, c, d, digits) for p, q in rows
            ]

