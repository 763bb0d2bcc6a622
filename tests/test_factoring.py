import time

from hypothesis import assume, given, settings, strategies as st
from sympy import Poly as SympyPoly, symbols

from subgf import factoring
from subgf.factoring import irreducible_factors
from subgf.polynomials import ExactPolynomial as P, _convolve
from subgf.substitutions import (
    SubstitutionMatrix,
    characteristic_polynomial,
    parse_substitution,
    pf_data,
    substitution_matrix,
)

_X = symbols("x")


def _ours(cs):
    return sorted(tuple(f) for f in irreducible_factors(list(cs)))


def _sympy(cs):
    """sympy's distinct irreducible factors of a monic integer polynomial,
    which are monic."""
    _, parts = SympyPoly(cs[::-1], _X).factor_list()
    return sorted(tuple(int(c) for c in reversed(f.all_coeffs())) for f, _ in parts)


def _product(factors):
    out = P([1])
    for f in factors:
        out = out * P(f)
    return list(out.coefficients)


monic_factors = st.lists(
    st.tuples(
        st.lists(st.integers(-30, 30), min_size=1, max_size=5),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


@given(monic_factors)
@settings(max_examples=200, deadline=None)
def test_factors_match_sympy_on_products_of_monic_factors(factors):
    cs = _product([low + [1] for low, mult in factors for _ in range(mult)])
    assert _ours(cs) == _sympy(cs)


def test_irreducible_polynomial_that_splits_modulo_every_prime():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3)
    assert _ours([1, 0, -10, 0, 1]) == [(1, 0, -10, 0, 1)]


def test_swinnerton_dyer_degree_eight_is_irreducible():
    # minimal polynomial of sqrt(2) + sqrt(3) + sqrt(5): modulo every prime
    # it splits into factors of degree at most 2, so recombination has to
    # reject every proper subset of at least four
    cs = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    assert _ours(cs) == [tuple(cs)] == _sympy(cs)


def test_x_to_the_n_minus_one_gives_the_cyclotomic_polynomials():
    for n in range(1, 13):
        cs = [-1] + [0] * (n - 1) + [1]
        got = _ours(cs)
        assert got == _sympy(cs)
        assert len(got) == sum(n % d == 0 for d in range(1, n + 1))


def test_linear_factors_with_roots_near_a_billion():
    roots = (999_999_937, -1_000_000_007, 10**9)
    cs = _product([(-r, 1) for r in roots] + [(1, 0, 1)])
    assert _ours(cs) == sorted([(-r, 1) for r in roots] + [(1, 0, 1)])


def test_repeated_and_zero_roots_give_each_factor_once():
    assert _ours(_product([(0, 1)] * 3 + [(-1, -1, 1)] * 2)) == [(-1, -1, 1), (0, 1)]
    assert _ours([0, 1]) == [(0, 1)]
    assert _ours([1]) == []


def test_lift_modulus_exceeds_twice_mignottes_bound(monkeypatch):
    # every factor of f has coefficients of absolute value at most
    # 2**n * |f|_2, so symmetric residues mod q recover them only when q
    # exceeds twice that; no small input needs the full margin, so the
    # modulus itself is checked
    seen = []
    recombine = factoring._recombine
    monkeypatch.setattr(
        factoring, "_recombine",
        lambda f, lifted, q: seen.append((f, q)) or recombine(f, lifted, q),
    )
    cases = [[1, 0, -10, 0, 1], [576, 0, -960, 0, 352, 0, -40, 0, 1]]
    cases += [[-1] + [0] * (n - 1) + [1] for n in range(2, 13)]
    cases += [_product([(-999_999_937, 1), (1_000_000_007, 1), (1, 0, 1)])]
    for cs in cases:
        irreducible_factors(cs)
    assert len(seen) == len(cases)
    for f, q in seen:
        assert q * q > 4 * 4 ** (len(f) - 1) * sum(c * c for c in f)


def test_char_poly_of_x_power_times_g():
    # rank 2: char poly x^2 (x^2 - x - 3)
    s = parse_substitution("a->abcd\nb->a\nc->a\nd->a")
    char = characteristic_polynomial(substitution_matrix(s))
    assert char == P([0, 0, -3, -1, 1])
    assert _ours(list(char.coefficients)) == [(-3, -1, 1), (0, 1)]
    assert pf_data(substitution_matrix(s)).min_poly_of_pf == P([-3, -1, 1])


def test_pf_data_on_a_huge_determinant_is_fast():
    # a -> a^200003 b, b -> b^200019 c, c -> c^200043 a: det is about 8e15,
    # where trial division of the constant term took 12 s
    m = SubstitutionMatrix(((200003, 1, 0), (0, 200019, 1), (1, 0, 200043)))
    start = time.perf_counter()
    data = pf_data(m)
    assert time.perf_counter() - start < 1
    assert data.min_poly_of_pf == data.char_poly
    assert not data.is_rational


def _sparse_product(a, b):
    """The product as a dict from exponent to nonzero coefficient."""
    out = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


coefficients = st.lists(
    st.one_of(
        st.integers(-(10**20), 10**20),
        st.just(0),
        st.fractions(max_denominator=50).filter(lambda x: x.denominator > 1),
    ),
    max_size=8,
)


@given(coefficients, coefficients)
@settings(max_examples=300, deadline=None)
def test_convolve_matches_a_sparse_product(a, b):
    out = _convolve(a, b)
    assert len(out) == (len(a) + len(b) - 1 if a and b else 0)
    assert {k: c for k, c in enumerate(out) if c} == _sparse_product(a, b)


moduli = st.sampled_from([3, 5, 3**8, 2**31 - 1])


@given(
    st.lists(st.integers(-(10**12), 10**12), max_size=14),
    st.lists(st.integers(-(10**6), 10**6), max_size=6),
    moduli,
)
@settings(max_examples=300, deadline=None)
def test_divmod_by_a_monic_divisor_mod_m(a, low, m):
    b = low + [1]
    q, r = factoring._divmod(a, b, m)
    assert len(r) < len(b) and (not r or r[-1])
    assert all(0 <= c < m for c in q + r)
    # a = q*b + r, coefficientwise mod m
    qb = _sparse_product(q, b)
    for k in range(max(len(a), len(q) + len(b) - 1)):
        rhs = qb.get(k, 0) + (r[k] if k < len(r) else 0)
        assert ((a[k] if k < len(a) else 0) - rhs) % m == 0, k


@given(
    st.lists(
        st.tuples(st.lists(st.integers(-9, 9), min_size=1, max_size=3),
                  st.integers(-3, 3).filter(bool), st.integers(1, 2)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.sampled_from([3, 5, 7, 2**31 - 1]),
)
@settings(max_examples=200, deadline=None)
def test_coprime_mod_matches_sympy(factors, distinct, p):
    # products of random factors, each taken once or with multiplicity up
    # to 2, so both answers occur for small and large p
    f = _product([low + [lead] for low, lead, mult in factors
                  for _ in range(1 if distinct else mult)])
    assume(len(f) > 1 and f[-1] % p)
    derivative = [i * c for i, c in enumerate(f)][1:]
    expected = (
        SympyPoly(f[::-1], _X, modulus=p)
        .gcd(SympyPoly(derivative[::-1], _X, modulus=p))
        .degree()
        == 0
    )
    assert factoring._coprime_mod(f, derivative, p) == expected
