from fractions import Fraction as F

import pytest

from subgf.errors import WrongAlphabetSizeError
from subgf.geometric import (
    classify_two_letter,
    endpoint_sequence,
    geometric_identity_ok,
    geometric_series,
    natural_lengths,
    pf_as_quadratic,
    reduce_two_letter,
)
from subgf.genfun import summatory_transform, char_series
from subgf.polynomials import ExactPolynomial as P
from subgf.quadratic import QuadraticReal as Q
from subgf.substitutions import (
    fixed_point_seed,
    fixed_word_prefix,
    parse_substitution,
    pf_data,
    substitution_matrix,
)

TAU = Q(F(1, 2), F(1, 2), 5)


class TestNaturalLengths:
    def test_fibonacci(self, fib):
        lengths = natural_lengths(fib)
        assert lengths.exact and lengths.radicand == 5
        assert lengths.by_letter["a"] == TAU
        assert lengths.by_letter["b"] == 1

    def test_rational_eigenvalue(self, abab):
        lengths = natural_lengths(abab)
        assert lengths.exact and lengths.radicand is None
        assert lengths.by_letter == {"a": F(1), "b": F(1)}

    def test_single_letter(self):
        lengths = natural_lengths(parse_substitution("a->aa"))
        assert lengths.by_letter == {"a": F(1)}

    def test_left_eigenvector_identity_exact(self, fib, xyz, rst):
        for s in (fib, xyz, rst):
            matrix = substitution_matrix(s)
            lam = pf_as_quadratic(pf_data(matrix))
            vec = natural_lengths(s).values_in_order(s)
            k = matrix.k
            for j in range(k):
                image = sum(vec[i] * matrix.rows[i][j] for i in range(k))
                assert image == lam * vec[j]

    def test_cubic_eigenvalue_is_flagged_approximate(self):
        tri = parse_substitution("a->ab\nb->ac\nc->a")
        lengths = natural_lengths(tri)
        assert not lengths.exact
        assert lengths.error_bound is not None
        assert lengths.error_bound < F(1, 10**6)
        assert all(v > 0 for v in lengths.by_letter.values())


class TestEndpoints:
    def test_fibonacci_prefix(self, fib, fib_seed):
        lengths = natural_lengths(fib)
        points = endpoint_sequence(fib, fib_seed, lengths, 4)
        assert points == [Q(0, 0, 5), TAU, TAU + 1, 2 * TAU + 1, 3 * TAU + 1]

    def test_unit_lengths_give_integers(self, fib, fib_seed):
        points = endpoint_sequence(fib, fib_seed, {"a": F(1), "b": F(1)}, 50)
        assert points == [F(n) for n in range(51)]

    def test_periodic_word_with_integer_lengths(self, abab, abab_seed):
        points = endpoint_sequence(abab, abab_seed, {"a": F(2), "b": F(1)}, 5)
        assert [int(t) for t in points] == [0, 2, 3, 5, 6, 8]

    def test_strictly_increasing_with_steps_in_lengths(self, fib, fib_seed):
        lengths = natural_lengths(fib)
        allowed = set(lengths.by_letter.values())
        points = endpoint_sequence(fib, fib_seed, lengths, 2000)
        for a, b in zip(points, points[1:]):
            assert (b - a).sign() > 0
            assert b - a in allowed

    def test_positive_lengths_required(self, fib, fib_seed):
        with pytest.raises(ValueError):
            endpoint_sequence(fib, fib_seed, {"a": F(0), "b": F(1)}, 5)


class TestGeometricSeries:
    def test_coefficients_and_weights(self, fib, fib_seed):
        lengths = natural_lengths(fib)
        gs = geometric_series(fib, fib_seed, lengths, 4)
        assert gs.coefficients[1] == TAU
        assert gs.weights == lengths.by_letter

    def test_identity_one_minus_x_g(self, fib, fib_seed, xyz, xyz_seed):
        for s, seed in ((fib, fib_seed), (xyz, xyz_seed)):
            lengths = natural_lengths(s)
            points = endpoint_sequence(s, seed, lengths, 1000)
            prefix = fixed_word_prefix(s, seed, 1000)
            assert geometric_identity_ok(points, prefix, lengths)
            # a wrong endpoint, a wrong start and a short truncation all fail
            assert not geometric_identity_ok(
                points[:500] + [points[500] + 1] + points[501:], prefix, lengths)
            assert not geometric_identity_ok(
                [p + 1 for p in points], prefix, lengths)
            assert not geometric_identity_ok(points[:-1], prefix, lengths)

    def test_fibonacci_decomposition_display(self, fib, fib_seed):
        # endpoint n equals n + (tau - 1) * (number of a's before position n)
        lengths = natural_lengths(fib)
        points = endpoint_sequence(fib, fib_seed, lengths, 2000)
        counts = summatory_transform(char_series(fib, fib_seed, "a", 2000))
        for n in range(1, 2001):
            expected = n + (TAU - 1) * counts.coefficients[n - 1]
            assert points[n] == expected


class TestTwoLetterReduction:
    def test_fibonacci(self, fib, fib_seed):
        red = reduce_two_letter(fib, fib_seed, natural_lengths(fib))
        assert red.difference == TAU - 1
        assert red.first_weight == TAU
        assert red.second_weight == 1
        assert red.verified

    def test_equal_lengths(self, fib, fib_seed):
        red = reduce_two_letter(fib, fib_seed, {"a": F(3), "b": F(3)})
        assert red.difference == 0 and red.first_weight == 3
        assert red.verified

    def test_integer_lengths(self, fib, fib_seed):
        red = reduce_two_letter(fib, fib_seed, {"a": F(2), "b": F(1)})
        assert (red.difference, red.first_weight) == (1, 2)
        assert red.verified

    def test_needs_two_letters(self, xyz, xyz_seed):
        with pytest.raises(WrongAlphabetSizeError):
            reduce_two_letter(xyz, xyz_seed, natural_lengths(xyz))


class TestClassification:
    def test_fibonacci_transcendental(self, fib, fib_seed):
        cls = classify_two_letter(fib, fib_seed, natural_lengths(fib))
        assert cls.case == "transcendental"
        assert cls.verified

    def test_equal_lengths(self, fib, fib_seed):
        cls = classify_two_letter(fib, fib_seed, {"a": F(1), "b": F(1)})
        assert cls.case == "equal-lengths"
        assert cls.shared_length == 1
        assert cls.verified

    def test_periodic_rational(self, abab, abab_seed):
        cls = classify_two_letter(abab, abab_seed, {"a": F(2), "b": F(1)})
        assert cls.case == "periodic-rational"
        assert cls.period == 2
        assert cls.numerator == P([1])
        assert cls.difference == 1 and cls.second_weight == 1
        assert cls.verified

    def test_thue_morse_natural_lengths_are_equal(self, thue_morse, thue_morse_seed):
        lengths = natural_lengths(thue_morse)
        cls = classify_two_letter(thue_morse, thue_morse_seed, lengths)
        assert cls.case == "equal-lengths"

    def test_thue_morse_unequal_lengths_inconclusive(
        self, thue_morse, thue_morse_seed
    ):
        cls = classify_two_letter(
            thue_morse, thue_morse_seed, {"a": F(2), "b": F(1)}
        )
        assert cls.case == "inconclusive"

    def test_needs_two_letters(self, xyz, xyz_seed):
        with pytest.raises(WrongAlphabetSizeError):
            classify_two_letter(xyz, xyz_seed, natural_lengths(xyz))

    @pytest.mark.parametrize("lengths", [
        {"a": F(-1), "b": F(1)},
        {"a": F(0), "b": F(0)},
        {"a": F(1)},
    ])
    def test_lengths_checked_in_every_case(self, corpus, lengths):
        # fib is transcendental, abab periodic-rational, thue_morse
        # inconclusive with unequal lengths; none builds endpoints first
        for name in ("fib", "abab", "thue_morse"):
            s = corpus[name]
            with pytest.raises(ValueError):
                classify_two_letter(s, fixed_point_seed(s), lengths)
