from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from subgf.fibonacci import pair_polynomials
from subgf.genfun import rational_form_from_witness
from subgf.periodicity import PeriodWitness
from subgf.polynomials import ExactPolynomial as P, X
from subgf.realroots import RootIsolator
from subgf.substitutions import (
    characteristic_polynomial,
    parse_substitution,
    substitution_matrix,
)


def test_trailing_zeros_stripped():
    assert P([1, 2, 0, 0]).coefficients == (F(1), F(2))
    assert P([1, 2, 0, 0]).coefficient(5) == 0
    assert P([0, 0]).is_zero
    assert P([]).degree == -1
    assert P([0]).degree == -1


def test_arithmetic():
    p = P([1, 1])
    q = P([-1, 1])
    assert p + q == P([0, 2])
    assert p - p == P.zero()
    assert p * q == P([-1, 0, 1])
    assert 3 * p == P([3, 3])
    assert -p == P([-1, -1])
    assert p.shift(2) == P([0, 0, 1, 1])
    assert (p * q)(F(3)) == 8


def test_known_factorizations():
    assert P([1, 0, 1, 1]) * P([1, 0, 0, 0, 0, 1]) == P.from_exponents(
        [0, 2, 3, 5, 7, 8]
    )


def test_monomial_and_exponents():
    assert P.monomial(3, 2) == P([0, 0, 0, 2])
    assert P.from_exponents([]) == P.zero()
    with pytest.raises(ValueError):
        P.monomial(-1)


def test_eval_and_sign():
    p = P([-2, 0, 1])
    assert p(F(3, 2)) == F(1, 4)
    assert p.sign_at(F(3, 2)) == 1
    assert p.sign_at(F(1)) == -1
    assert P([1, 3]).sign_at(F(-1, 3)) == 0
    assert P.zero().sign_at(5) == 0


def _integral(p):
    return all(type(c) is int for c in p.coefficients)


def test_integer_coefficients_stay_integers():
    p, q = P([3, -1, 0, 2]), P([-5, 4])
    for r in (p + q, p - q, p * q, 3 * p, -p, p.shift(4)):
        assert _integral(r), r
    assert type(p.coefficient(9)) is int
    polys = pair_polynomials(4)
    assert all(_integral(poly) for poly in polys.by_label().values())
    matrix = substitution_matrix(parse_substitution("x->xyzy\ny->xy\nz->zy"))
    assert _integral(characteristic_polynomial(matrix))
    form = rational_form_from_witness([5, 1, 2, 1, 2, 1, 2, 1], PeriodWitness(1, 2))
    assert _integral(form.numerator)
    assert all(type(c) is int for c in form.expand(20).coefficients)
    # only integers are coefficients: no Fraction, even an integral one, no
    # string and no float
    for coeffs in ([F(6, 2)], [F(1, 2), 1], ["1"], [1.5], [1, 2.0]):
        with pytest.raises(TypeError):
            P(coeffs)


def test_to_string():
    assert P([-1, -1, 1]).to_string() == "-1 - X + X^2"
    assert P.zero().to_string() == "0"
    assert X.to_string() == "X"


small_frac = st.fractions(min_value=-50, max_value=50, max_denominator=8)
polys = st.lists(st.integers(-50, 50), max_size=8).map(P)


@given(polys, polys, small_frac)
def test_ring_homomorphism_at_points(f, g, x):
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert f.sign_at(x) == (f(x) > 0) - (f(x) < 0)


int_polys = st.lists(st.integers(-10**12, 10**12), max_size=12).map(P)
dyadic = st.builds(
    lambda n, k: F(n, 2**k), st.integers(-10**6, 10**6), st.integers(0, 64)
)
non_dyadic = st.fractions(max_denominator=10**9).filter(
    lambda x: x.denominator & (x.denominator - 1)
)


@given(int_polys, st.one_of(dyadic, non_dyadic), st.booleans())
def test_integer_sign_evaluators_agree(p, x, root_at_x):
    if root_at_x:  # make x a root, so sign 0 is checked too
        p = p * P([-x.numerator, x.denominator])
    value = F(0)
    for c in reversed(p.coefficients):
        value = value * x + c
    expected = (value > 0) - (value < 0)
    assert p.sign_at(x) == expected
    if not p.is_zero:
        assert RootIsolator(p).sign_at(x) == expected
