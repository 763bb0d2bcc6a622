import random
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly as SympyPoly, Rational as SympyRational, symbols

from subgf import factoring, polynomials, realroots
from subgf.cli import main
from subgf.errors import (
    EndpointIsRootError,
    NegativeOnIntervalError,
    NoRootError,
    RootPresentError,
    ZeroPolynomialError,
)
from subgf.genfun import char_prefix_poly
from subgf.polynomials import ExactPolynomial as P
from subgf.realroots import (
    RootIsolator,
    _root_free_certificate,
    certify_positive,
    isolate_max_root,
    locate_max_root,
    separate_max_root,
)
from sturm_reference import count_roots, sturm_chain

R1 = char_prefix_poly("abaababa", "a")
S1 = char_prefix_poly("abaababaab", "a")
T1 = char_prefix_poly("abaabaab", "a")


def proportional(p, q):
    """q is a positive rational multiple of p."""
    if p.degree != q.degree:
        return False
    a, b = p.leading_coefficient, q.leading_coefficient
    return a * b > 0 and q * a == p * b


def test_textbook_chain_up_to_positive_scaling():
    chain = sturm_chain(P([-2, 0, 1]))
    textbook = [P([-2, 0, 1]), P([0, 2]), P([2])]
    assert len(chain) == 3
    for member, expected in zip(chain.members, textbook):
        assert proportional(expected, member)


def test_square_free_reduction_applied_first():
    chain = sturm_chain(P([1, 1]) * P([1, 1]))
    assert chain.square_free_part.degree == 1
    assert count_roots(chain, -2, 0) == 1


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        sturm_chain(P.zero())


def test_counts():
    p = P([-2, 0, 1])
    assert count_roots(p, 0, 2) == 1
    assert count_roots(p, -2, 2) == 2
    assert count_roots(p, 2, 3) == 0
    # right endpoint roots are counted, the interval is (l, r]
    assert count_roots(P([0, 1]), -1, 0) == 1


def test_level_one_pair_polynomial_counts():
    chain = sturm_chain(R1)
    assert chain.count(F(-1), F(0)) == 1
    # S1 vanishes at -1 itself: that root must be divided out first
    with pytest.raises(EndpointIsRootError):
        sturm_chain(S1).count(F(-1), F(0))
    assert RootIsolator(S1).without_root(F(-1)).count(F(-1), F(0)) == 0
    assert sturm_chain(T1).count(F(-1), F(0)) == 0


def test_chain_length_bound():
    chain = sturm_chain(R1)
    assert len(chain) <= R1.degree + 1


def test_isolate_sqrt2():
    u, v = isolate_max_root(P([-2, 0, 1]), 0, 2, F(1, 10**6))
    assert v - u <= F(1, 10**6)
    assert u * u < 2 < v * v


def test_isolate_prefers_largest():
    p = P([-2, 0, 1]) * P([-1, 1])  # roots -sqrt2, 1, sqrt2
    u, v = isolate_max_root(p, -2, 2, F(1, 2**20))
    assert u < F(2**20 + 1, 2**19) and v > 1  # bracket around sqrt2


def test_isolate_exact_rational_root():
    # the first bisection midpoint lands exactly on the root 1/2
    u, v = isolate_max_root(P([-1, 2]), 0, 1, F(1, 10**6))
    assert u < F(1, 2) <= v
    assert v - u <= F(1, 10**6)


def test_isolate_requires_root():
    with pytest.raises(NoRootError):
        isolate_max_root(P([1, 0, 1]), -1, 1, F(1, 100))


def test_certificates():
    cert = certify_positive(P([1, 0, 1]), -1, 1)
    assert cert.root_count_in_interval == 0
    assert cert.sample_sign == "+"
    assert cert.poly_degree == 2
    for poly in (S1, T1):
        cert = certify_positive(poly, F(-1), F(0))
        assert cert.root_count_in_interval == 0


def test_certificate_rejects_root_in_interval():
    with pytest.raises(RootPresentError) as err:
        certify_positive(P([-2, 0, 1]), 1, 2)
    lo, hi = err.value.bracket
    assert lo * lo < 2 < hi * hi


def test_root_free_certificate_needs_a_nonempty_interval():
    for lower, upper in ((F(0), F(0)), (F(1), F(0))):
        with pytest.raises(ValueError):
            _root_free_certificate(P([1]), lower, upper)


def test_certificate_rejects_negative():
    with pytest.raises(NegativeOnIntervalError):
        certify_positive(P([-1, 0, -1]), -1, 1)


def test_count_counts_distinct_roots_only():
    poly = P([-1, 1]) * P([-1, 1]) * P([-3, 1])
    assert count_roots(poly, 0, 4) == 2


def test_count_matches_known_roots_on_random_polynomials():
    rng = random.Random(97)
    pool = sorted({F(n, d) for n in range(-12, 13) for d in (1, 2, 3)})
    for _ in range(40):
        roots = sorted(rng.sample(pool, 5))
        poly = P([1])
        for r in roots:
            poly = poly * P([-r.numerator, r.denominator])
        if rng.random() < 0.5:
            poly = poly * P([1, 0, 1])  # irreducible factor, no real roots
        chain = sturm_chain(poly)
        for _ in range(6):
            a = F(rng.randint(-30, 30), rng.randint(1, 4))
            b = a + F(rng.randint(1, 40), rng.randint(1, 4))
            if any(r == a for r in roots):
                continue
            expected = sum(1 for r in roots if a < r <= b)
            assert chain.count(a, b) == expected


def _step_off_root(chain, x, toward):
    """Move x toward `toward` in doubling steps from 2**-64 of the gap until
    the chain no longer vanishes there."""
    step = (toward - x) / 2**64
    while chain.sign_at(x) == 0:
        x += step
        step *= 2
    return x


def test_count_matches_grid_sign_scan():
    # roots separated far beyond the grid spacing, so scanning signs at
    # 10**4 points sees every crossing exactly once
    rng = random.Random(1234)
    grid = 10**4
    for _ in range(8):
        roots = rng.sample([F(n, 3) for n in range(-36, 37)], rng.randint(2, 10))
        poly = P([1])
        for r in roots:
            poly = poly * P([-r.numerator, r.denominator])
        if rng.random() < 0.5:
            poly = poly * P([1, 0, 1])
        chain = sturm_chain(poly)
        lo, hi = F(-4), F(4)
        if chain.sign_at(lo) == 0:
            lo = _step_off_root(chain, lo, hi)
        step = (hi - lo) / grid
        crossings = 0
        prev = None
        for i in range(grid + 1):
            s = chain.sign_at(lo + i * step)
            if s == 0:
                crossings += 1
                prev = None
                continue
            if prev is not None and s != prev:
                crossings += 1
            prev = s
        assert chain.count(lo, hi) == crossings


# -- Descartes counts against Sturm chains and sympy -------------------------

_X = symbols("x")
# dyadic roots, so bisection midpoints land on roots, and a few others
_ROOT_POOL = sorted(
    {F(n, 2**k) for n in range(-16, 17) for k in (0, 1, 2, 3)}
    | {F(n, 3) for n in range(-8, 9)}
)
_POINT_POOL = sorted({F(n, 4) for n in range(-20, 21)} | {F(n, 3) for n in range(-6, 7)})


def _random_polynomial(rng):
    """Integer polynomial with repeated, dyadic and irrational real roots and
    complex pairs, with its rational roots; three times in ten a dense random
    one instead."""
    if rng.random() < 0.3:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        return P(coeffs + [rng.randint(1, 9)]), []
    poly = P([rng.choice([1, -1, 2, -3])])
    roots = rng.sample(_ROOT_POOL, rng.randint(1, 5))
    for r in roots:
        factor = P([-r.numerator, r.denominator])
        poly = poly * (factor if rng.random() < 0.7 else factor * factor)
    for _ in range(rng.randint(0, 2)):
        poly = poly * rng.choice([P([-2, 0, 1]), P([1, 0, 1]), P([-1, -1, 1]), P([5, -2, 1])])
    return poly, roots


def _rational(x):
    return SympyRational(x.numerator, x.denominator)


def _sympy_poly(poly):
    return SympyPoly([_rational(c) for c in reversed(poly.coefficients)], _X)


def _sympy_count(poly, a, b):
    """Distinct roots in (a, b]: sympy counts the closed [a, b]."""
    return _sympy_poly(poly).count_roots(_rational(a), _rational(b)) - (poly(a) == 0)


def _divide_out_root(poly, root):
    """poly / (den*X - num) for root = num/den, by sympy's exact division
    (`Poly.exquo`); the divisor is primitive, so by Gauss's lemma the
    quotient of an integer polynomial has integer coefficients."""
    root = F(root)
    divisor = P([-root.numerator, root.denominator])
    quotient = _sympy_poly(poly).exquo(_sympy_poly(divisor))
    return P(reversed(quotient.all_coeffs()))


def _sturm_isolate_max_root(poly, lower, upper, eps):
    """The bisection of `isolate_max_root` decided by Sturm counts alone."""
    chain = sturm_chain(poly)
    lo, hi = lower, upper
    if chain.count(lo, hi) < 1:
        raise NoRootError("")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if chain.sign_at(mid) == 0:
            deflated = sturm_chain(_divide_out_root(chain.square_free_part, mid))
            if deflated.count(mid, hi) >= 1:
                lo = mid
            else:
                return mid - eps / 2, min(mid + eps / 2, hi)
        elif chain.count(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _random_cases(seed, count):
    """(poly, a, b) with a < b; in two cases of five an end is a root."""
    rng = random.Random(seed)
    while count:
        poly, roots = _random_polynomial(rng)
        ends = rng.sample(_POINT_POOL, 2)
        if roots and rng.random() < 0.4:
            ends[rng.randrange(2)] = rng.choice(roots)
        if ends[0] != ends[1]:
            count -= 1
            yield poly, min(ends), max(ends)


def test_descartes_counts_match_sturm_and_sympy():
    for poly, a, b in _random_cases(2024, 120):
        roots = RootIsolator(poly)
        if poly(a) == 0:
            with pytest.raises(EndpointIsRootError):
                roots.count(a, b)
            continue
        expected = sturm_chain(poly).count(a, b)
        assert expected == _sympy_count(poly, a, b)
        assert roots.count(a, b) == expected, (poly, a, b)
        assert roots.count(a, b, 1) == min(expected, 1)
        # Descartes' bound on the polynomial held: never below the count,
        # and of the same parity when neither end is a root
        if poly(b) != 0:
            v = roots.variations(a, b)
            assert v >= expected and (v - expected) % 2 == 0


def test_isolate_max_root_matches_sturm_bisection():
    checked = 0
    eps_rng = random.Random(78)
    for poly, a, b in _random_cases(77, 120):
        eps = F(1, 2 ** eps_rng.randint(3, 30))
        if poly(a) == 0:
            continue
        try:
            expected = _sturm_isolate_max_root(poly, a, b, eps)
        except NoRootError:
            with pytest.raises(NoRootError):
                isolate_max_root(poly, a, b, eps)
            continue
        assert isolate_max_root(poly, a, b, eps) == expected, (poly, a, b, eps)
        lo, hi = separate_max_root(poly, *expected)
        assert sturm_chain(poly).count(lo, hi) == 1
        checked += 1
    assert checked > 40


def test_certify_positive_matches_sturm():
    outcomes = set()
    for poly, a, b in _random_cases(5, 150):
        # the reference: divide endpoint roots out, then count in (a, b)
        part = sturm_chain(poly).square_free_part
        for end in (a, b):
            if part(end) == 0:
                part = _divide_out_root(part, end)
        inside = sturm_chain(part).count(a, b)
        try:
            cert = certify_positive(poly, a, b)
        except RootPresentError as err:
            outcomes.add("root")
            assert inside > 0
            assert err.bracket == _sturm_isolate_max_root(part, a, b, F(1, 2**40))
        except NegativeOnIntervalError:
            outcomes.add("negative")
            assert inside == 0 and poly((a + b) / 2) < 0
        else:
            outcomes.add("positive")
            assert inside == 0 and poly(cert.sample_point) > 0
            assert cert.lower == a and cert.upper == b
    assert outcomes == {"root", "negative", "positive"}


def _power(p, k):
    out = P([1])
    for _ in range(k):
        out = out * p
    return out


def test_square_free_part_only_when_needed():
    square_free = P([-2, 0, 1]) * P([1, 1])
    assert RootIsolator(square_free)._cs == [-2, -2, 1, 1]
    repeated = P([-1, 2]) * P([-1, 2]) * P([3, 1])  # (2x - 1)^2 (x + 3)
    roots = RootIsolator(repeated)
    assert roots._cs == [3, -11, 8, 4]  # held as given while V <= 1
    assert roots.count(1, 2) == 0  # V = 0
    assert roots.count(-4, -2) == 1  # V = 1
    assert roots.sign_at(0) == 1
    assert roots._cs == [3, -11, 8, 4]
    # V = 3 on (-4, 1): the split needs the square-free part
    assert roots.variations(-4, 1) == 3
    assert roots.count(-4, 1) == 2
    assert roots._cs == [-3, 5, 2]  # (2x - 1)(x + 3), primitive
    # signs and counts of the old polynomial are forgotten with it
    assert roots.sign_at(0) == -1
    assert roots.variations(-4, 1) == 2
    assert roots.count(-1, 0, 1) == 0
    assert roots.sign_at(F(1, 2)) == 0


@pytest.mark.parametrize("with_split", [False, True])
def test_without_root_divides_out_the_full_multiplicity(with_split):
    # (2x - 1)^3 (x + 3): a triple root at 1/2
    poly = _power(P([-1, 2]), 3) * P([3, 1])
    roots = RootIsolator(poly)
    if with_split:
        assert roots.count(-4, 1) == 2  # now holds the square-free part
    deflated = roots.without_root(F(1, 2))
    assert deflated._cs == [3, 1]
    assert deflated.sign_at(F(1, 2)) == 1
    assert deflated.polynomial is poly
    assert deflated.count(F(1, 2), 1) == 0
    assert deflated.count(F(1, 2), 5) == 0
    assert deflated.count(-5, F(1, 2)) == 1
    assert roots.without_root(0) is roots  # not a root: nothing to divide
    # the roots above a multiple root, and the interval starting at it
    poly = _power(P([-1, 2]), 3) * P([-1, 1]) * _power(P([-3, 1]), 2) * P([1, 0, 1])
    above = RootIsolator(poly).without_root(F(1, 2))
    assert above.count(F(1, 2), 4) == 2
    assert above.count(F(1, 2), 2) == 1
    lo, hi = isolate_max_root(above, F(1, 2), 4, F(1, 2**10))
    assert lo < 3 <= hi
    # both ends are roots, one of them triple and one double
    assert certify_positive(poly * P([-1]), F(1, 2), 1).sample_point == F(3, 4)
    assert certify_positive(poly, 1, 3).sample_point == 2


def _non_square_free_cases(seed, count):
    """(poly, a, b): a random polynomial times the square or cube of a
    factor with a real root, so repeated roots sit inside, outside or at
    the ends of (a, b]."""
    rng = random.Random(seed)
    for poly, a, b in _random_cases(seed, count):
        root = rng.choice(_ROOT_POOL + [a, b])
        factor = P([-root.numerator, root.denominator])
        yield poly * _power(factor, rng.choice([2, 3])), a, b


def test_counts_on_non_square_free_polynomials_match_sympy():
    split = 0
    for poly, a, b in _non_square_free_cases(31, 120):
        roots = RootIsolator(poly)
        if poly(a) == 0:
            with pytest.raises(EndpointIsRootError):
                roots.count(a, b)
            continue
        expected = _sympy_count(poly, a, b)
        assert roots.count(a, b, 1) == min(expected, 1), (poly, a, b)
        assert roots.count(a, b) == expected, (poly, a, b)
        split += roots._is_square_free
    assert split > 20


def test_isolate_max_root_on_non_square_free_polynomials_matches_sympy():
    checked = 0
    eps_rng = random.Random(32)
    for poly, a, b in _non_square_free_cases(33, 120):
        eps = F(1, 2 ** eps_rng.randint(3, 30))
        if poly(a) == 0:
            continue
        if _sympy_count(poly, a, b) == 0:
            with pytest.raises(NoRootError):
                isolate_max_root(poly, a, b, eps)
            continue
        lo, hi = isolate_max_root(poly, a, b, eps)
        assert hi - lo <= eps and hi <= b, (poly, a, b, eps)
        # the largest root in (a, b] lies in (lo, hi]: one there, none above
        assert _sympy_count(poly, max(lo, a), hi) >= 1, (poly, a, b, eps)
        assert hi == b or _sympy_count(poly, hi, b) == 0, (poly, a, b, eps)
        checked += 1
    assert checked > 40


def test_roots_level_four_makes_three_transforms_and_no_square_free_proof(
    monkeypatch, capsys
):
    calls = {"_descartes": 0, "_coprime_mod": 0, "_square_free": 0}
    for name in calls:
        module = factoring if name == "_coprime_mod" else realroots
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(["roots", "--level", "4"]) == 0
    capsys.readouterr()
    assert calls == {"_descartes": 3, "_coprime_mod": 0, "_square_free": 0}


def test_variations_agree_from_either_endpoint():
    # the counts of roots on (-1, 0) now shift from 0; the transform from -1
    # is its reversal, so the counts must agree
    from subgf.fibonacci import pair_polynomials

    intervals = [(F(-1), F(0)), (F(-1), F(-1, 2)), (F(-1, 2), F(0)),
                 (F(-3, 4), F(-5, 8))]
    for n in range(1, 5):
        for poly in pair_polynomials(n).by_label().values():
            cs = list(poly.coefficients)
            for a, b in intervals:
                count = realroots._variations_from(cs, a, b)
                assert realroots._variations_from(cs, b, a) == count, (n, a, b)
                assert realroots._descartes(cs, a, b) == count


def test_zero_variations_prove_root_free():
    roots = RootIsolator(R1)  # 1 + x^2 + x^3 + x^5 + x^7, one real root
    assert roots.variations(F(0), F(1)) == 0
    assert roots.variations(F(-1, 2), F(0)) == 0
    assert roots.count(F(-1, 2), F(0)) == 0
    assert roots.variations(F(-1), F(-9, 10)) == 1
    assert roots.count(F(-1), F(-9, 10)) == 1
    with pytest.raises(ZeroPolynomialError):
        RootIsolator(P.zero())


def _sympy_square_free(cs):
    """sympy's square-free part, primitive with a positive leading
    coefficient."""
    _, part = SympyPoly(cs[::-1], _X).sqf_part().primitive()
    out = [int(c) for c in reversed(part.all_coeffs())]
    return out if out[-1] > 0 else [-c for c in out]


def test_square_free_fallback_matches_sympy():
    # repeated factors, and square-free polynomials whose leading
    # coefficient the prime of the modular proof divides: both fail that
    # proof and take the exact integer gcd
    rng = random.Random(59)
    prime = factoring._PRIME
    cases = [poly for poly, _, _ in _non_square_free_cases(57, 70)]
    while len(cases) < 100:
        poly = P([rng.randint(1, 9), prime * rng.randint(1, 3)])
        for r in rng.sample(_ROOT_POOL, rng.randint(1, 4)):
            poly = poly * P([-r.numerator, r.denominator])
        if rng.random() < 0.5:
            poly = poly * rng.choice([P([-2, 0, 1]), P([1, 0, 1]), P([5, -2, 1])])
        cases.append(poly)
    for poly in cases:
        cs = polynomials._primitive(list(poly.coefficients))
        derivative = [i * c for i, c in enumerate(cs)][1:]
        proved = (len(cs) - 1) * cs[-1] % prime and factoring._coprime_mod(
            cs, derivative, prime
        )
        assert not proved, poly
        assert factoring._square_free(cs) == _sympy_square_free(cs), poly


@st.composite
def _grid_cases(draw):
    """(p, eps, root): a square-free product of linear factors 8x - n and at
    most one irreducible x^2 - c, the eps of bisection on (-6, 6], and the
    largest root if it is rational.  Roots n/8 fall on the bisection grid
    for some n and eps."""
    roots = draw(st.lists(st.integers(-47, 47), min_size=1, max_size=4, unique=True))
    p = P([1])
    for n in roots:
        p = p * P([-n, 8])
    c = draw(st.sampled_from([0, 2, 3, 5, 7, 11, 30]))
    if c:
        p = p * P([-c, 0, 1])
    eps = draw(st.sampled_from([F(1, 2**m) for m in (1, 3, 7, 20, 41)]
                               + [F(1, 10**m) for m in (1, 6, 12)]))
    top = F(max(roots), 8)
    return p, eps, (top if not c or top > 0 and top * top > c else None)


@given(_grid_cases(), st.floats(-7, 7))
@settings(max_examples=300, deadline=None)
def test_locate_max_root_is_bisection_or_none(case, estimate):
    # from the estimate of its midpoint, the bisection's bracket is located
    # iff no midpoint hits the largest root (12 / 2**k wide cells, k up to
    # the last level) and p changes sign across the bracket (not so if a
    # smaller root is an end of it, or shares it); any other estimate gives
    # that bracket or None
    p, eps, root = case
    bracket = isolate_max_root(p, -6, 6, eps)
    level = next(k for k in count() if F(12, 2**k) <= eps)
    on_grid = root is not None and ((root + 6) * 2**level / 12).denominator == 1
    missed = on_grid or p.sign_at(bracket[0]) * p.sign_at(bracket[1]) >= 0
    located = locate_max_root(p, -6, 6, eps, float(sum(bracket) / 2))
    assert located == (None if missed else bracket)
    assert locate_max_root(p, -6, 6, eps, estimate) in (None, bracket)


def test_locate_max_root_rejects_cells_off_the_largest_root():
    # roots 1/3 and +-sqrt2 on (0, 2]: cells just above and below sqrt2, and
    # the cell of the smaller root 1/3, whose sign change is not enough
    p = P([-2, 0, 1]) * P([-1, 3])
    eps = F(1, 2**20)
    bracket = isolate_max_root(p, 0, 2, eps)
    assert locate_max_root(p, 0, 2, eps, 2**0.5) == bracket
    for estimate in (2**0.5 + 1e-3, 2**0.5 - 1e-3, 1 / 3, 2.5, -0.5, float("nan"),
                     float("inf")):
        assert locate_max_root(p, 0, 2, eps, estimate) is None, estimate
    # the top cell (u, upper] needs no count above it
    q = P([-(2**23 - 1), 2**22])  # root 2 - 2**-22, inside the top cell
    u, v = isolate_max_root(q, 0, 2, eps)
    assert v == 2 and locate_max_root(q, 0, 2, eps, 2.0 - 2**-22) == (u, v)


def test_locate_max_root_grid_level():
    # K is the least level whose cells are at most eps wide: 12 / 2**K <= eps
    p = P([-7, 0, 1])  # sqrt7
    for eps in (F(12, 2**5), F(12, 2**5) - F(1, 10**9), F(12, 2**5) + F(1, 10**9), F(5)):
        u, v = locate_max_root(p, -6, 6, eps, 7**0.5)
        assert (u, v) == isolate_max_root(p, -6, 6, eps)
        assert v - u <= eps < 2 * (v - u)
