import time
from fractions import Fraction as F
from itertools import accumulate

import pytest

from subgf import fibonacci
from subgf.errors import TooLargeError
from subgf.fibonacci import (
    FIBONACCI,
    FIBONACCI_SEED,
    MIN_TOLERANCE,
    PAIR_LABELS,
    _pair_code,
    block_sequence,
    pair_polynomials,
    positivity_bound,
    supertile_word,
    verify_decomposition,
)
from subgf.genfun import char_prefix_poly, char_series
from subgf.geometric import pf_as_quadratic
from subgf.polynomials import ExactPolynomial as P
from subgf.quadratic import QuadraticReal as Q
from subgf.realroots import RootIsolator, certify_positive, poly_fingerprint
from subgf.substitutions import (
    fixed_point_seed,
    fixed_word_prefix,
    pf_data,
    substitution_matrix,
)

# FIB[k] is the Fibonacci number f_{k+1}, with f_1 = f_2 = 1
FIB = [1, 1]
while len(FIB) < 40:
    FIB.append(FIB[-1] + FIB[-2])


def brute_polys(n):
    a, b = supertile_word(3 * n), supertile_word(3 * n, "B")
    return (
        char_prefix_poly(a + b, "a"),
        char_prefix_poly(a + a, "a"),
        char_prefix_poly(b + a, "a"),
    )


class TestSupertiles:
    def test_words(self):
        assert supertile_word(3) == "abaab"
        assert supertile_word(3, "B") == "aba"
        assert supertile_word(0) == "a"
        assert supertile_word(0, "B") == "b"

    def test_b_is_previous_a(self):
        for n in range(1, 12):
            assert supertile_word(n, "B") == supertile_word(n - 1)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            supertile_word(41)

    def test_words_match_sigma_powers(self):
        for n in range(16):
            assert supertile_word(n) == FIBONACCI.apply_power("a", n)
            assert supertile_word(n, "B") == FIBONACCI.apply_power("b", n)

    def test_prefix_limit_bounds_the_level(self):
        # |sigma**33(a)| = 9227465 letters fit in the prefix limit of 10**7;
        # |sigma**34(a)| = 14930352 do not, and are refused before any is built
        assert supertile_word(34, "B") == supertile_word(33)
        assert len(supertile_word(33)) == FIB[34] == 9227465
        with pytest.raises(TooLargeError) as info:
            supertile_word(34)
        assert str(info.value) == "prefix of 14930352 letters exceeds the limit of 10000000"
        # a far level is refused as soon as both lengths pass the limit, not
        # after a million steps over Fibonacci-sized integers
        for which in "AB":
            start = time.perf_counter()
            with pytest.raises(TooLargeError, match="exceeds the limit of 10000000"):
                supertile_word(10**6, which)
            assert time.perf_counter() - start < 0.1

    def test_length_identities(self):
        # the blocks R, S, T of level n are AB, AA, BA of supertile level 3n
        for n in range(1, 9):
            len_a = len(supertile_word(3 * n))
            len_b = len(supertile_word(3 * n, "B"))
            len_r, len_s, len_t = len_a + len_b, 2 * len_a, len_b + len_a
            assert len_r == FIB[3 * n + 2] == len_t
            assert len_s == 2 * FIB[3 * n + 1]
            assert len_r % 2 == len_s % 2 == len_t % 2 == 0


class TestPairPolynomials:
    def test_level_one_displays(self):
        sp = pair_polynomials(1)
        assert sp.poly_r == P.from_exponents([0, 2, 3, 5, 7])
        assert sp.poly_s == P([1, 0, 1, 1]) * P([1, 0, 0, 0, 0, 1])
        assert sp.poly_t == P([1, 0, 1]) * P([1, 0, 0, 1]) + P.monomial(6)
        assert (sp.len_r, sp.len_s, sp.len_t) == (8, 10, 8)

    def test_level_two_display_exponents(self):
        sp = pair_polynomials(2)
        base = [0, 2, 3, 5, 7, 8, 10, 11, 13, 15, 16, 18, 20, 21, 23, 24, 26, 28, 29]
        assert sp.poly_r == P.from_exponents(base + [31, 32])
        assert sp.poly_s == P.from_exponents(base + [31, 32, 34, 36, 37, 39, 41])
        assert sp.poly_t == P.from_exponents(base + [31, 33])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recursion_equals_word_expansion(self, n):
        sp = pair_polynomials(n)
        br, bs, bt = brute_polys(n)
        assert sp.poly_r == br
        assert sp.poly_s == bs
        assert sp.poly_t == bt

    def test_s_splits_off_a_shifted_r(self):
        # S at level n+1 is R at level n+1 followed by R at level n
        for n in range(1, 4):
            low, high = pair_polynomials(n), pair_polynomials(n + 1)
            shift = 3 * FIB[3 * n + 2] + 2 * FIB[3 * n + 1]
            assert high.poly_s == high.poly_r + low.poly_r.shift(shift)

    def test_level_four_degrees_from_word_expansion(self):
        # position of the last 'a' in each block, pinned by brute force
        sp = pair_polynomials(4)
        assert (sp.poly_r.degree, sp.poly_s.degree, sp.poly_t.degree) == (
            608, 753, 609,
        )

    def test_lengths_are_supertile_lengths(self):
        # (|R_n|, |S_n|, |T_n|) = (f_{3n+3}, 2 f_{3n+2}, f_{3n+3}), all even
        for n in range(1, 6):
            sp = pair_polynomials(n)
            lengths = (sp.len_r, sp.len_s, sp.len_t)
            assert lengths == (FIB[3 * n + 2], 2 * FIB[3 * n + 1], FIB[3 * n + 2])
            assert all(length % 2 == 0 for length in lengths)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            pair_polynomials(0)
        with pytest.raises(TooLargeError):
            pair_polynomials(7)


class TestDecomposition:
    def test_induced_substitution(self, rst):
        code = _pair_code(FIBONACCI, 3, "ab")
        label = {pair: name.lower() for pair, name in PAIR_LABELS.items()}
        relabelled = {
            label[pair]: "".join(map(label.__getitem__, image))
            for pair, image in code.items()
        }
        assert relabelled == rst.rules
        matrix = substitution_matrix(rst)
        assert matrix.rows == ((1, 1, 2), (2, 1, 2), (2, 1, 1))
        lam = pf_as_quadratic(pf_data(matrix))
        assert lam == Q(2, 1, 5)
        tau = Q(F(1, 2), F(1, 2), 5)
        assert lam == tau**3

    def test_induced_fixed_word(self, rst):
        seed = fixed_point_seed(rst)
        assert fixed_word_prefix(rst, seed, 17) == "rsttrsttrrstrrstr"

    def test_block_sequence_matches_letter_pairs(self, rst):
        # the block sequence is the fixed word of the induced substitution
        word = fixed_word_prefix(rst, fixed_point_seed(rst), 200)
        assert block_sequence(200) == list(word.upper())

    @pytest.mark.parametrize("n", [1, 2])
    def test_decomposition(self, n):
        assert verify_decomposition(n, 2000)

    def test_odd_block_length_fails_decomposition(self, monkeypatch):
        # blocks that reproduce the series still fail when one has odd
        # length, as its successor would start at an odd offset
        coeffs = list(char_series(FIBONACCI, FIBONACCI_SEED, "a", 21).coefficients)
        monkeypatch.setattr(fibonacci, "_pair_lists", lambda n: [coeffs] * 3)
        assert verify_decomposition(1, 20)
        monkeypatch.setattr(fibonacci, "_pair_lists", lambda n: [coeffs[:21]] * 3)
        assert not verify_decomposition(1, 20)


class TestPositionIdentities:
    def test_report(self):
        # p_a(n) = (n-1) + S(n-2) and p_b(n) = (2n-1) + S(n-2), with S(m)
        # the number of a's among w_0..w_m and S(-1) = 0
        word = fixed_word_prefix(FIBONACCI, FIBONACCI_SEED, 10**5)
        running = [0, *accumulate(ch == "a" for ch in word)]

        def S(m):
            return running[m + 1]

        pos_a = [i for i, ch in enumerate(word) if ch == "a"]
        pos_b = [i for i, ch in enumerate(word) if ch == "b"]
        assert all(p == (n - 1) + S(n - 2) for n, p in enumerate(pos_a, 1))
        assert all(p == (2 * n - 1) + S(n - 2) for n, p in enumerate(pos_b, 1))
        # the off-by-one index convention is refuted immediately
        shifted_a = (n for n, p in enumerate(pos_a, 1) if p != n - 2 + S(n - 1))
        shifted_b = (n for n, p in enumerate(pos_b, 1) if p != 2 * n - 2 + S(n - 1))
        assert next(shifted_a) == 2
        assert next(shifted_b) == 2

    def test_small_values(self):
        word = fixed_word_prefix(FIBONACCI, FIBONACCI_SEED, 30)
        pos_a = [i for i, ch in enumerate(word) if ch == "a"]
        pos_b = [i for i, ch in enumerate(word) if ch == "b"]
        assert pos_a[0] == 0 and pos_b[0] == 1
        assert pos_a[4] == 7  # fifth a


def test_series_at_least_one_on_unit_interval():
    # 0/1 coefficients with constant term 1: any truncation is >= 1 on
    # [0, 1), and the tail is non-negative there
    ts = char_series(FIBONACCI, FIBONACCI_SEED, "a", 3000)
    poly = P(ts.coefficients)
    for x in (F(0), F(1, 7), F(1, 2), F(9, 10), F(99, 100)):
        assert poly(x) >= 1


class TestPositivityBounds:
    def test_level_one(self):
        bound = positivity_bound(1, F(1, 10**6))
        assert bound.binding == "R"
        assert abs(bound.alpha_hat - F("-0.901593")) <= F(2, 10**6)
        assert set(bound.certificates) == {"R", "S", "T"}
        for cert in bound.certificates.values():
            assert cert.root_count_in_interval == 0
            assert cert.sample_sign == "+"
            assert cert.lower == bound.alpha_hat and cert.upper == 0

    def test_level_two(self):
        bound = positivity_bound(2, F(1, 10**6))
        assert bound.binding == "T"
        assert abs(bound.alpha_hat - F("-0.951699")) <= F(2, 10**6)

    def test_monotone_in_level(self):
        b1 = positivity_bound(1, F(1, 10**6))
        b2 = positivity_bound(2, F(1, 10**6))
        assert b2.alpha_hat <= b1.alpha_hat + F(1, 10**6)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            positivity_bound(1, 0)
        with pytest.raises(ValueError):
            positivity_bound(1, 1)
        with pytest.raises(ValueError):
            positivity_bound(1, MIN_TOLERANCE / 10)

    def test_tolerance_floor_is_accepted(self):
        bound = positivity_bound(1, MIN_TOLERANCE)
        lo, hi = bound.bracket
        assert hi == bound.alpha_hat and hi - lo <= MIN_TOLERANCE

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_certificates_match_descartes_on_the_interval(self, level):
        # the certificates rest on the isolation's counts; a Descartes proof
        # on (alpha_hat, 0) itself must give the same ones, field by field
        bound = positivity_bound(level)
        polys = pair_polynomials(level).by_label()
        for label, p in polys.items():
            roots = RootIsolator(p).without_root(-1)
            expected = certify_positive(roots, bound.alpha_hat, 0)
            assert bound.certificates[label] == expected, (level, label)
            assert expected.poly_sha256 == poly_fingerprint(p)
