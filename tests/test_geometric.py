import io
from contextlib import redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import repeat
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from subgf import cli, geometric
from subgf.errors import WrongAlphabetSizeError
from subgf.geometric import (
    CHECK_ORDER,
    _endpoint_sums,
    _endpoints,
    _sums_ok,
    classify_two_letter,
    endpoint_sequence,
    natural_lengths,
    pf_as_quadratic,
)
from subgf.genfun import RationalForm, summatory_transform, char_series
from subgf.polynomials import ExactPolynomial as P
from subgf.quadratic import QuadraticReal as Q, _decimal_str, _int_form
from subgf.serialize import exact_str, value_decimal, value_str
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

    def test_left_eigenvector_identity_exact(self, corpus, rst):
        # the natural lengths are the frequency direction g.M = lambda g
        for s in (*corpus.values(), rst):
            matrix = substitution_matrix(s)
            lam = pf_as_quadratic(pf_data(matrix))
            by_letter = natural_lengths(s).by_letter
            vec = [by_letter[a] for a in s.alphabet]
            k = matrix.k
            for j in range(k):
                image = sum(vec[i] * matrix.rows[i][j] for i in range(k))
                assert image == lam * vec[j]

    def test_cubic_eigenvalue_is_flagged_approximate(self):
        tri = parse_substitution("a->ab\nb->ac\nc->a")
        lengths = natural_lengths(tri)
        assert not lengths.exact
        # eigen-residual against the PF enclosure's midpoint, plus its width
        matrix = substitution_matrix(tri)
        data = pf_data(matrix)
        lam = (data.pf_lower + data.pf_upper) / 2
        vec = [lengths.by_letter[a] for a in tri.alphabet]
        k = matrix.k
        residual = max(
            abs(sum(vec[i] * matrix.rows[i][j] for i in range(k)) - lam * vec[j])
            for j in range(k)
        )
        assert residual + (data.pf_upper - data.pf_lower) < F(1, 10**6)
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
    def test_identity_one_minus_x_g(self, fib, fib_seed, xyz, xyz_seed):
        for s, seed in ((fib, fib_seed), (xyz, xyz_seed)):
            table = natural_lengths(s).by_letter
            prefix = fixed_word_prefix(s, seed, 1000)
            _, _, ps, qs = _endpoint_sums(s, table, prefix)
            assert _sums_ok(table, prefix, ps, qs)
            # a wrong endpoint (either part), a wrong start and a short
            # truncation all fail
            assert not _sums_ok(table, prefix, ps[:500] + [ps[500] + 1] + ps[501:], qs)
            assert not _sums_ok(table, prefix, ps, qs[:500] + [qs[500] + 1] + qs[501:])
            assert not _sums_ok(table, prefix, [p + 1 for p in ps], qs)
            assert not _sums_ok(table, prefix, ps[:-1], qs[:-1])

    def test_fibonacci_decomposition_display(self, fib, fib_seed):
        # endpoint n equals n + (tau - 1) * (number of a's before position n)
        lengths = natural_lengths(fib)
        points = endpoint_sequence(fib, fib_seed, lengths, 2000)
        counts = summatory_transform(char_series(fib, fib_seed, "a", 2000))
        for n in range(1, 2001):
            expected = n + (TAU - 1) * counts.coefficients[n - 1]
            assert points[n] == expected


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


_TWO_LETTER_RULES = ["a->ab\nb->ab", "a->aab\nb->aab", "a->abb\nb->abb", "a->ab\nb->a"]


@st.composite
def _two_letter_lengths(draw):
    """Positive lengths of a and b in Q or Q(sqrt(d)), equal half the time."""
    d = draw(st.sampled_from([2, 5, 13]))
    value = st.one_of(
        st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
        st.builds(lambda a, b: Q(a, b, d), _small, _small),
    ).filter(lambda x: x > 0)
    g1 = draw(value)
    return {"a": g1, "b": g1 if draw(st.booleans()) else draw(value)}


def _reference_verified(s, lengths, cls) -> bool:
    """`verified` of an equal-lengths or periodic-rational classification,
    recomputed on Fraction and QuadraticReal endpoint values."""
    g1, g2 = lengths["a"], lengths["b"]
    irrational = [x for x in (g1, g2) if isinstance(x, Q) and x.b]
    points = [Q(0, 0, irrational[0].d) if irrational else F(0)]
    for ch in fixed_word_prefix(s, fixed_point_seed(s), CHECK_ORDER):
        points.append(points[-1] + lengths[ch])
    if cls.case == "equal-lengths":
        return all(points[n] == n * g1 for n in range(CHECK_ORDER + 1))
    counts = RationalForm(cls.numerator, cls.period, 1).expand(CHECK_ORDER).coefficients
    return all(
        points[n] == (counts[n - 1] if n else 0) * (g1 - g2) + n * g2
        for n in range(CHECK_ORDER + 1)
    )


@given(st.sampled_from(_TWO_LETTER_RULES), _two_letter_lengths(),
       st.integers(1, CHECK_ORDER), st.booleans())
@settings(max_examples=60, deadline=None)
def test_classification_verified_matches_value_arithmetic(rules, lengths, n, in_q):
    s = parse_substitution(rules)
    cls = classify_two_letter(s, fixed_point_seed(s), lengths)
    if cls.case not in ("equal-lengths", "periodic-rational"):
        return
    assert cls.verified
    assert _reference_verified(s, lengths, cls)

    # one integer sum off by one, in the rational or the surd part
    def bumped(*args):
        c, d, ps, qs = original(*args)
        (qs if in_q else ps)[n] += 1
        return c, d, ps, qs

    original = geometric._endpoint_sums
    with patch.object(geometric, "_endpoint_sums", bumped):
        assert not classify_two_letter(s, fixed_point_seed(s), lengths).verified


# -- the integer endpoint kernel against a value-by-value reference ----------

def _reference_str(x) -> str:
    """The exact form from x's Fraction parts a and b."""
    a, b = (x.a, x.b) if isinstance(x, Q) else (F(x), F(0))
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt({x.d})"
    return f"{a} {'+' if b > 0 else '-'} {abs(b)}*sqrt({x.d})"


def _reference_decimal(x, digits=50) -> str:
    """Truncation toward zero via 300-digit Decimal arithmetic for an
    irrational x (far from a decimal boundary at these sizes), exactly
    via Fraction for a rational one."""
    a, b = (x.a, x.b) if isinstance(x, Q) else (F(x), F(0))
    if b == 0:
        v = abs(a)
        n = v.numerator * 10**digits // v.denominator
        neg = a < 0
    else:
        with localcontext() as ctx:
            ctx.prec = 300
            val = (Decimal(a.numerator) / a.denominator
                   + Decimal(b.numerator) / b.denominator * Decimal(x.d).sqrt())
            n = int(abs(val).scaleb(digits))
            neg = val < 0
    s = str(n).rjust(digits + 1, "0")
    return ("-" if neg else "") + f"{s[:-digits]}.{s[-digits:]}"


_RULES_BY_SIZE = {2: "a->ab\nb->a", 3: "a->abc\nb->ab\nc->a"}
_small = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _tilings(draw):
    """(substitution, lengths, prefix): 2-3 letters with positive lengths in
    Q or Q(sqrt(D)), including p = 0, p < 0 and q < 0, and a random prefix."""
    k = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([2, 3, 5, 13]))
    s = parse_substitution(_RULES_BY_SIZE[k])
    special = [Q(0, F(2, 3), d), Q(-1, 1, d), Q(3, -1, d), Q(F(9, 2), -1, d)]
    value = st.one_of(
        st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
        st.builds(lambda a, b: Q(a, b, d), _small, _small),
        st.sampled_from(special),
    ).filter(lambda x: x > 0)
    lengths = {a: draw(value) for a in s.alphabet}
    prefix = draw(st.text(alphabet="".join(s.alphabet), max_size=40))
    return s, lengths, prefix


@given(_tilings(), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_endpoint_sums_match_value_arithmetic(tiling, chunk_rows):
    s, lengths, prefix = tiling
    irrational = [x for x in lengths.values() if isinstance(x, Q) and x.b]
    ref = [Q(0, 0, irrational[0].d) if irrational else F(0)]
    for ch in prefix:
        ref.append(ref[-1] + lengths[ch])

    assert _endpoints(s, lengths, prefix) == ref
    c, d, ps, qs = _endpoint_sums(s, lengths, prefix)
    assert c == lcm(*(_int_form(x)[2] for x in lengths.values()))
    exact = [exact_str(p, q, c, d) for p, q in zip(ps, qs)]
    assert exact == [_reference_str(x) for x in ref]
    assert exact == [value_str(x) for x in ref]
    decimals = [_decimal_str(p, q, c, d, 50) for p, q in zip(ps, qs)]
    assert decimals == [_reference_decimal(x) for x in ref]
    assert decimals == [value_decimal(x, 50) for x in ref]

    assert _sums_ok(lengths, prefix, ps, qs)
    if prefix:
        assert not _sums_ok(lengths, prefix, ps[:-1] + [ps[-1] + 1], qs)

    # the CSV writer: one %-format per chunk of chunk_rows rows
    out = io.StringIO()
    with patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows), redirect_stdout(out):
        cli._write_csv(
            "index,exact,decimal50",
            map(exact_str, ps, qs, repeat(c), repeat(d), repeat("")),
            map(_decimal_str, ps, qs, repeat(c), repeat(d), repeat(50)),
        )
    assert out.getvalue() == "index,exact,decimal50\n" + "".join(
        f"{i},{_reference_str(x).replace(' ', '')},{_reference_decimal(x)}\n"
        for i, x in enumerate(ref)
    )


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_exact_str_of_a_ratio_is_the_fraction_str(n, c):
    assert exact_str(n, 0, c, None) == str(F(n, c))
