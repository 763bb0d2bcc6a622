"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live).

Criterion 3 is split: 3a covers the level-1/2 displays, 3b the stated
level-4 degree tuple.  3b fails by mathematical necessity - the stated
tuple contradicts the definitional word expansion that 3a itself pins down;
see the "Known red test" note in the README.  Everything else passes.
"""
import time
from fractions import Fraction as F

import pytest

from subgf.fibonacci import (
    pair_polynomials,
    positivity_bound,
    supertile_word,
    verify_decomposition,
)
from subgf.genfun import (
    CHARACTERISTIC,
    POSITION,
    Rational,
    TranscendentalByAperiodicity,
    char_prefix_poly,
    char_series,
    difference_transform,
    position_prefix_poly,
    position_series,
    recursive_char_poly,
    recursive_pos_poly,
    series_verdict,
    summatory_transform,
)
from subgf.geometric import endpoint_sequence, natural_lengths
from subgf.polynomials import ExactPolynomial as P
from subgf.quadratic import QuadraticReal as Q
from subgf.substitutions import (
    AperiodicByIrrationalPF,
    InconclusiveUpTo,
    aperiodicity_verdict,
    fixed_point_seed,
    fixed_word_prefix,
    gap_bound,
    pf_data,
    substitution_matrix,
)

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover
    mpz = int

TAU = Q(F(1, 2), F(1, 2), 5)

_LEVEL4_CACHE = {}


def level4_bound():
    if "bound" not in _LEVEL4_CACHE:
        _LEVEL4_CACHE["bound"] = positivity_bound(4, F(1, 10**8))
    return _LEVEL4_CACHE["bound"]


class Stopwatch:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s)", flush=True)
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_fibonacci_baseline(fib, fib_seed):
    with Stopwatch("1", 1.0):
        matrix = substitution_matrix(fib)
        assert matrix.rows == ((1, 1), (1, 0))
        data = pf_data(matrix)
        assert data.min_poly_of_pf == P([-1, -1, 1])
        assert not data.is_rational
        assert aperiodicity_verdict(fib) == AperiodicByIrrationalPF()
        for letter in "ab":
            for kind in (CHARACTERISTIC, POSITION):
                verdict = series_verdict(fib, fib_seed, letter, kind)
                assert isinstance(verdict, TranscendentalByAperiodicity)


def test_criterion_02_xyz_certificates(xyz, xyz_seed):
    with Stopwatch("2", 5.0):
        bounds = (1000, 200)
        c_y = series_verdict(xyz, xyz_seed, "y", CHARACTERISTIC, bounds)
        assert isinstance(c_y, Rational)
        assert c_y.form.numerator == P([0, 1])
        assert c_y.form.period == 2
        assert c_y.form.summatory_power == 0
        p_y = series_verdict(xyz, xyz_seed, "y", POSITION, bounds)
        assert isinstance(p_y, Rational)
        assert p_y.form.numerator == P([0, 1, 1])
        assert p_y.form.period == 1
        assert p_y.form.summatory_power == 1
        for letter in "xz":
            verdict = series_verdict(xyz, xyz_seed, letter, CHARACTERISTIC, bounds)
            assert not isinstance(verdict, Rational)


def test_criterion_03a_supertile_polynomials_match_displays():
    with Stopwatch("3a", 10.0):
        sp1 = pair_polynomials(1)
        assert sp1.poly_r == P.from_exponents([0, 2, 3, 5, 7])
        assert sp1.poly_s == P([1, 0, 1, 1]) * P([1, 0, 0, 0, 0, 1])
        assert sp1.poly_t == P([1, 0, 1]) * P([1, 0, 0, 1]) + P.monomial(6)
        base = [0, 2, 3, 5, 7, 8, 10, 11, 13, 15, 16, 18,
                20, 21, 23, 24, 26, 28, 29]
        sp2 = pair_polynomials(2)
        assert sp2.poly_r == P.from_exponents(base + [31, 32])
        assert sp2.poly_s == P.from_exponents(base + [31, 32, 34, 36, 37, 39, 41])
        assert sp2.poly_t == P.from_exponents(base + [31, 33])
        # the same recursion pinned above also fixes level 4 exactly
        sp4 = pair_polynomials(4)
        a12, b12 = supertile_word(12), supertile_word(12, "B")
        assert sp4.poly_r == char_prefix_poly(a12 + b12, "a")
        assert sp4.poly_s == char_prefix_poly(a12 + a12, "a")
        assert sp4.poly_t == char_prefix_poly(b12 + a12, "a")


def test_criterion_03b_level4_degree_tuple_as_stated():
    with Stopwatch("3b", 10.0):
        sp4 = pair_polynomials(4)
        degrees = (sp4.poly_r.degree, sp4.poly_s.degree, sp4.poly_t.degree)
        assert degrees == (609, 752, 608), (
            f"stated tuple (609, 752, 608) is unattainable: the definitional "
            f"word expansion verified in 3a forces {degrees}; the stated "
            f"numbers are the positions of the last b, not the last a - see "
            f"the README's known-red-test note"
        )


def test_criterion_04_certified_root_bounds():
    with Stopwatch("4", 1800.0):
        printed = {
            1: (F("-0.901593"), "R", F(1, 10**6)),
            2: (F("-0.951699"), "T", F(1, 10**6)),
            3: (F("-0.99436269"), "R", F(1, 10**8)),
            4: (F("-0.99729758"), "T", F(1, 10**8)),
        }
        previous = None
        for level, (target, binding, tol) in printed.items():
            bound = (
                level4_bound() if level == 4 else positivity_bound(level, tol)
            )
            assert bound.binding == binding, (level, bound.binding)
            assert abs(bound.alpha_hat - target) <= 2 * tol, (
                level, float(bound.alpha_hat),
            )
            assert set(bound.certificates) == {"R", "S", "T"}
            for label, cert in bound.certificates.items():
                assert cert.root_count_in_interval == 0
                assert cert.sample_sign == "+"
            if previous is not None:
                assert bound.alpha_hat <= previous + tol
            previous = bound.alpha_hat


def test_certified_root_bounds_exact_values():
    # binding block, alpha_hat and bracket at the default tolerance 1e-8,
    # pinned exactly so that a change of root-finding method shows
    pinned = {
        1: ("R", "-121009819/134217728", "-30252455/33554432"),
        2: ("T", "-31933707/33554432", "-127734829/134217728"),
        3: ("R", "-133461101/134217728", "-66730551/67108864"),
        4: ("T", "-133855015/134217728", "-16731877/16777216"),
    }
    for level, (binding, alpha_hat, lower) in pinned.items():
        bound = level4_bound() if level == 4 else positivity_bound(level)
        assert bound.binding == binding, level
        assert bound.alpha_hat == F(alpha_hat), level
        assert bound.bracket == (F(lower), F(alpha_hat)), level


def test_criterion_05_recursion_oracles(fib, xyz):
    with Stopwatch("5", 60.0):
        for s, top in ((fib, 18), (xyz, 12)):
            for source in s.alphabet:
                for m in range(top + 1):
                    word = s.apply_power(source, m)
                    for target in s.alphabet:
                        assert recursive_char_poly(s, target, source, m) == \
                            char_prefix_poly(word, target)
                        assert recursive_pos_poly(s, target, source, m) == \
                            position_prefix_poly(word, target)


def test_criterion_06_identity_suite(corpus, fib, fib_seed):
    with Stopwatch("6", 120.0):
        order = 10**4
        for s in corpus.values():
            seed = fixed_point_seed(s)
            total = [F(0)] * (order + 1)
            for letter in s.alphabet:
                for i, c in enumerate(
                    char_series(s, seed, letter, order).coefficients
                ):
                    total[i] += c
            assert all(c == 1 for c in total)

        lengths = natural_lengths(fib)
        points = endpoint_sequence(fib, fib_seed, lengths, order)
        word = fixed_word_prefix(fib, fib_seed, order)
        table = lengths.by_letter
        assert points[0] == 0
        assert all(
            points[n + 1] - points[n] == table[word[n]] for n in range(order)
        )

        counts = summatory_transform(char_series(fib, fib_seed, "a", order))
        assert all(
            points[n] == n + (TAU - 1) * counts.coefficients[n - 1]
            for n in range(1, order + 1)
        )

        pos_a = [i for i, ch in enumerate(word) if ch == "a"]
        pos_b = [i for i, ch in enumerate(word) if ch == "b"]
        assert all(
            pos_b[n] - pos_a[n] == n + 1 for n in range(len(pos_b))
        )
        assert all(
            counts.coefficients[pos_a[n - 1]] == n
            for n in range(1, len(pos_a) + 1)
        )


def test_criterion_07_position_difference_boundedness(fib, fib_seed):
    with Stopwatch("7", 60.0):
        terms = 10**5
        gaps_by_letter = {}
        for letter in "ab":
            ts = position_series(fib, fib_seed, letter, terms)
            diff = difference_transform(ts, 1)
            gaps_by_letter[letter] = set(map(int, diff.coefficients[2:]))
        assert gaps_by_letter["a"] <= {1, 2, 3}
        assert gaps_by_letter["a"] == {1, 2}
        assert len(gaps_by_letter["b"]) <= gap_bound(fib)
        assert gaps_by_letter["b"] == {2, 3}

        prefix = fixed_word_prefix(fib, fib_seed, terms)
        bound = gap_bound(fib)
        for letter in "ab":
            last = None
            worst = 0
            for i, ch in enumerate(prefix):
                if ch == letter:
                    if last is not None:
                        worst = max(worst, i - last)
                    last = i
            assert worst <= bound


def test_criterion_08_decomposition(fib):
    with Stopwatch("8", 60.0):
        assert verify_decomposition(1, 10**4)
        assert verify_decomposition(2, 10**4)


def test_criterion_09_thue_morse_honesty(thue_morse, thue_morse_seed):
    with Stopwatch("9", 10.0):
        verdict = aperiodicity_verdict(thue_morse, 10**4, 10**3)
        assert verdict == InconclusiveUpTo(10**4, 10**3)
        for letter in "ab":
            for kind in (CHARACTERISTIC, POSITION):
                v = series_verdict(thue_morse, thue_morse_seed, letter, kind)
                assert isinstance(v, InconclusiveUpTo)


def _exceeds_tail_bound(coeffs, p: int, e: int) -> bool:
    """For x = p / 2**e with |x| < 1 and a 0/1 truncation of order N,
    certify  sum(c_i x**i) > |x|**(N+1) / (1 - |x|)  by the cross-multiplied
    integer comparison  acc * (2**e - |p|) > |p|**(N+1), where acc is the
    homogeneous value sum(c_i p**i 2**(e(N-i)))."""
    num = mpz(p)
    d = len(coeffs) - 1
    acc = mpz(coeffs[d])
    for i in range(d - 1, -1, -1):
        acc *= num
        if coeffs[i]:
            acc += mpz(1) << (e * (d - i))
    if acc <= 0:
        return False
    return acc * ((mpz(1) << e) - abs(num)) > abs(num) ** (d + 1)


def test_criterion_10_positivity_sampling(fib, fib_seed):
    bound = level4_bound()
    with Stopwatch("10", 120.0):
        order = 10**4
        coeffs = [int(c) for c in char_series(fib, fib_seed, "a", order).coefficients]
        left = bound.alpha_hat
        assert abs(left - F("-0.99729758")) <= F(2, 10**8)
        e = 20
        scale = 1 << e
        step = (F(1) - left) / 1001
        numerators = []
        for j in range(1, 1001):
            p = round((left + j * step) * scale)
            if left < F(p, scale) < 1:
                numerators.append(p)
        assert len(numerators) == 1000
        for p in numerators:
            assert _exceeds_tail_bound(coeffs, p, e), p / scale
