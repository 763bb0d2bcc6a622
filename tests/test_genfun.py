from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from subgf import genfun
from subgf.errors import (
    InsufficientDataError,
    NoGrowingFixedPointError,
    NotPrimitiveError,
    WitnessInvalidError,
)
from subgf.genfun import (
    CHARACTERISTIC,
    POSITION,
    Rational,
    RationalForm,
    TranscendentalByAperiodicity,
    TruncatedSeries,
    char_prefix_poly,
    char_series,
    difference_transform,
    position_prefix_poly,
    position_series,
    rational_form_from_witness,
    recursive_char_poly,
    recursive_pos_poly,
    series_verdict,
    series_verdict_of,
    summatory_transform,
    _scan_positions,
)
from subgf.periodicity import PeriodWitness, detect_period, verify_witness
from subgf.polynomials import ExactPolynomial as P
from subgf.substitutions import (
    Analysis,
    InconclusiveUpTo,
    Substitution,
    fixed_point_seed,
    fixed_word_prefix,
    gap_bound,
    parse_substitution,
)


class TestPrefixPolynomials:
    def test_char_examples(self):
        assert char_prefix_poly("abaababa", "a") == P.from_exponents([0, 2, 3, 5, 7])
        assert char_prefix_poly("bbb", "a").is_zero
        assert char_prefix_poly("abaababaab", "a") == P([1, 0, 1, 1]) * P(
            [1, 0, 0, 0, 0, 1]
        )

    def test_position_examples(self):
        assert position_prefix_poly("abaababa", "a") == P([0, 0, 2, 3, 5, 7])
        assert position_prefix_poly("xyzyxyzy", "y") == P([0, 1, 3, 5, 7])
        assert position_prefix_poly("b", "a").is_zero


class TestSeries:
    def test_char_series(self, fib, fib_seed, xyz, xyz_seed):
        assert [int(c) for c in char_series(fib, fib_seed, "a", 7).coefficients] == [
            1, 0, 1, 1, 0, 1, 0, 1,
        ]
        assert [int(c) for c in char_series(fib, fib_seed, "b", 7).coefficients] == [
            0, 1, 0, 0, 1, 0, 1, 0,
        ]
        assert [int(c) for c in char_series(xyz, xyz_seed, "y", 7).coefficients] == [
            0, 1, 0, 1, 0, 1, 0, 1,
        ]

    def test_negative_order_raises(self, fib, fib_seed):
        with pytest.raises(ValueError):
            char_series(fib, fib_seed, "a", -1)

    def test_sum_identity(self, corpus):
        from subgf.substitutions import fixed_point_seed

        for s in corpus.values():
            seed = fixed_point_seed(s)
            total = [F(0)] * 501
            for letter in s.alphabet:
                for i, c in enumerate(char_series(s, seed, letter, 500).coefficients):
                    total[i] += c
            assert all(c == 1 for c in total)

    def test_position_series(self, fib, fib_seed, xyz, xyz_seed):
        assert [int(c) for c in position_series(fib, fib_seed, "a", 6).coefficients] == [
            0, 0, 2, 3, 5, 7, 8,
        ]
        assert [int(c) for c in position_series(fib, fib_seed, "b", 4).coefficients] == [
            0, 1, 4, 6, 9,
        ]
        assert [int(c) for c in position_series(xyz, xyz_seed, "y", 4).coefficients] == [
            0, 1, 3, 5, 7,
        ]

    @given(
        st.sampled_from(["fib", "xyz", "abab", "thue_morse"]),
        st.data(),
        st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_position_series_matches_enumerate(self, corpus, name, data, n_terms):
        s = corpus[name]
        seed = fixed_point_seed(s)
        letter = data.draw(st.sampled_from(s.alphabet))
        _check_positions(s, seed, letter, n_terms)

    @pytest.mark.parametrize("name", ["fib", "xyz", "thue_morse"])
    def test_position_series_at_orders_zero_and_one(self, corpus, name):
        s = corpus[name]
        for letter in s.alphabet:
            for n_terms in (0, 1):
                _check_positions(s, fixed_point_seed(s), letter, n_terms)

    @pytest.mark.parametrize("name", ["fib", "xyz"])
    def test_position_series_across_whole_blocks(self, corpus, name):
        # the last occurrence read steps over 2**16, the longest block a
        # prefix appends whole, one occurrence at a time
        s = corpus[name]
        seed = fixed_point_seed(s)
        word = fixed_word_prefix(s, seed, 3 * 2**16)
        for letter in s.alphabet:
            hits = [i for i, ch in enumerate(word) if ch == letter]
            k = sum(h < 2**16 for h in hits)
            for n_terms in range(k - 2, k + 3):
                got = position_series(s, seed, letter, n_terms).coefficients
                assert got == (0, *hits[:n_terms])

    @pytest.mark.parametrize("name", ["fib", "xyz"])
    def test_reconstruction_from_positions(self, name, corpus):
        # the indicator series is the sum of X**position over occurrences
        from subgf.substitutions import fixed_point_seed

        s = corpus[name]
        seed = fixed_point_seed(s)
        order = 2000
        for letter in s.alphabet:
            ts = char_series(s, seed, letter, order)
            count = sum(1 for c in ts.coefficients if c)
            pos = position_series(s, seed, letter, count)
            rebuilt = [0] * (order + 1)
            for n in range(1, count + 1):
                p = int(pos.coefficients[n])
                if p <= order:
                    rebuilt[p] = 1
            assert tuple(F(c) for c in rebuilt) == ts.coefficients


def _check_positions(s, seed, letter, n_terms):
    """`position_series` against a brute-force `enumerate` over a prefix of
    the gap bound times n_terms + 2 letters, which holds every occurrence
    asked for."""
    word = seed.start_letter
    while len(word) < gap_bound(s) * (n_terms + 2):
        word = s.apply_power(word, seed.power)
    hits = [i for i, ch in enumerate(word) if ch == letter]
    ts = position_series(s, seed, letter, n_terms)
    assert list(ts.coefficients) == [0, *hits[:n_terms]]
    assert all(type(c) is int for c in ts.coefficients)


class TestRecursion:
    def test_char_examples(self, fib):
        assert recursive_char_poly(fib, "a", "a", 3) == P([1, 0, 1, 1])
        assert recursive_char_poly(fib, "a", "b", 4) == recursive_char_poly(
            fib, "a", "a", 3
        )
        assert recursive_char_poly(fib, "a", "a", 0) == P([1])
        assert recursive_char_poly(fib, "a", "b", 0).is_zero

    def test_pos_examples(self, fib):
        assert recursive_pos_poly(fib, "a", "a", 2) == P([0, 0, 2])
        assert recursive_pos_poly(fib, "b", "a", 3) == P([0, 1, 4])
        assert recursive_pos_poly(fib, "a", "a", 0).is_zero

    @pytest.mark.parametrize("name", ["fib", "xyz"])
    def test_matches_brute_force(self, name, corpus):
        s = corpus[name]
        for m in range(0, 11 if name == "fib" else 8):
            for target in s.alphabet:
                for source in s.alphabet:
                    word = s.apply_power(source, m)
                    assert recursive_char_poly(s, target, source, m) == \
                        char_prefix_poly(word, target)
                    assert recursive_pos_poly(s, target, source, m) == \
                        position_prefix_poly(word, target)


@st.composite
def substitutions(draw):
    """Random substitutions on 1-4 letters with images of 1-4 letters,
    primitive or not."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    image = st.text(letters, min_size=1, max_size=4)
    return Substitution.from_rules({a: draw(image) for a in letters})


@given(substitutions(), st.integers(0, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_recursion_matches_word_expansion(s, level, data):
    target = data.draw(st.sampled_from(s.alphabet))
    source = data.draw(st.sampled_from(s.alphabet))
    word = s.apply_power(source, level)
    assert recursive_char_poly(s, target, source, level) == \
        char_prefix_poly(word, target)
    assert recursive_pos_poly(s, target, source, level) == \
        position_prefix_poly(word, target)


class TestTransforms:
    def test_difference_of_positions(self, xyz, xyz_seed):
        ts = position_series(xyz, xyz_seed, "y", 10)
        d = difference_transform(ts, 1)
        assert [int(c) for c in d.coefficients[:5]] == [0, 1, 2, 2, 2]

    def test_zero_order_is_identity(self, fib, fib_seed):
        ts = char_series(fib, fib_seed, "a", 30)
        assert difference_transform(ts, 0) == ts

    def test_summatory_of_ones(self):
        ts = TruncatedSeries.from_coefficients([1] * 6)
        assert [int(c) for c in summatory_transform(ts).coefficients] == [
            1, 2, 3, 4, 5, 6,
        ]

    def test_summatory_counts_occurrences(self, fib, fib_seed):
        ts = summatory_transform(char_series(fib, fib_seed, "a", 5))
        assert [int(c) for c in ts.coefficients] == [1, 1, 2, 3, 3, 4]

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                    min_size=1, max_size=40),
           st.integers(min_value=0, max_value=3))
    def test_difference_then_summatory_roundtrip(self, coeffs, m):
        ts = TruncatedSeries.from_coefficients(coeffs)
        out = difference_transform(ts, m)
        for _ in range(m):
            out = summatory_transform(out)
        assert out == ts

    def test_differenced_fib_positions_bounded(self, fib, fib_seed):
        # successive-position differences (the gap sequence) start at n = 2;
        # the n = 1 term is the first position itself
        for letter, gaps in (("a", {1, 2}), ("b", {2, 3})):
            ts = position_series(fib, fib_seed, letter, 10**4)
            d = difference_transform(ts, 1)
            assert set(map(int, d.coefficients[2:])) == gaps
            assert int(d.coefficients[1]) == (0 if letter == "a" else 1)


def naive_witness(seq, max_preperiod, max_period):
    """The smallest d, then the smallest n0 <= max_preperiod with
    c[n] == c[n + d] for every n >= n0, by brute force."""
    for d in range(1, max_period + 1):
        n0 = len(seq) - d
        while n0 > 0 and seq[n0 - 1] == seq[n0 - 1 + d]:
            n0 -= 1
        if n0 <= max_preperiod:
            return PeriodWitness(n0, d)
    return None


def naive_verify(seq, w):
    d = w.period
    return all(seq[n] == seq[n + d] for n in range(w.preperiod, len(seq) - d))


@st.composite
def period_cases(draw, wide=False):
    """(seq, max_preperiod, max_period) over ints >= 0 and the sentinel -1:
    a head ending in -1, then a repeated block, then up to two changed
    values.  The block never holds -1, so unless a change says otherwise the
    preperiod is at least the head's length, and max_preperiod is drawn just
    below it, at it or above it.  A wide head has over 256 distinct values."""
    if wide:
        head = draw(st.lists(st.integers(300, 10**9), min_size=257, max_size=260, unique=True))
    else:
        head = draw(st.lists(st.integers(0, 3), max_size=6))
    head.append(-1)
    max_period = draw(st.integers(1, 4))
    block = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_period + 1))
    max_preperiod = max(0, len(head) + draw(st.sampled_from([-1, 0, 1, 3])))
    periods = draw(st.sampled_from([2, 10]))  # detect_period's minimum, or more
    size = max_preperiod + periods * max_period + draw(st.integers(0, 8))
    seq = (head + block * size)[:size]
    for _ in range(draw(st.integers(0, 2))):
        seq[draw(st.integers(0, size - 1))] = draw(st.integers(-1, 3))
    return seq, max_preperiod, max_period


def _forms(seq) -> list:
    """seq as a non-ASCII str, a tuple, an iterator and a list mixing
    Fractions in, plus an ASCII str and bytes when its values fit."""
    rank = {v: i for i, v in enumerate(sorted(set(seq)))}
    forms = [
        "".join(chr(0x3B1 + rank[v]) for v in seq),
        tuple(seq),
        iter(seq),
        [F(v) if i % 2 else v for i, v in enumerate(seq)],
    ]
    if len(rank) <= 94:
        forms.append("".join(chr(33 + rank[v]) for v in seq))
    if len(rank) <= 256:
        forms.append(bytes(rank[v] for v in seq))
    return forms


class TestDetectPeriod:
    @given(st.one_of(period_cases(), period_cases(wide=True)))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        seq, max_preperiod, max_period = case
        w = detect_period(seq, max_preperiod, max_period)
        assert w == naive_witness(seq, max_preperiod, max_period)
        assert w is None or verify_witness(seq, w)

    @given(st.one_of(period_cases(), period_cases(wide=True)))
    @settings(max_examples=150, deadline=None)
    def test_input_types_agree(self, case):
        seq, max_preperiod, max_period = case
        expected = naive_witness(seq, max_preperiod, max_period)
        for form in _forms(seq):
            assert detect_period(form, max_preperiod, max_period) == expected
        if expected:
            assert verify_witness(_forms(seq)[0], expected)
            assert verify_witness(iter(seq), expected)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("max_period", [1, 2, 5, 31])
    def test_period_at_the_bound(self, wide, max_period):
        # the smallest period is exactly max_period, so its copy of the head
        # is the last one the candidate search may find
        head = list(range(1000, 1300)) if wide else [7, 8]
        block = [0] * (max_period - 1) + [1]
        seq = head + block * (10 * max_period + 3)
        n0 = len(head)
        cases = {(n0, max_period): PeriodWitness(n0, max_period), (n0 - 1, max_period): None}
        if max_period > 1:
            cases[n0, max_period - 1] = None
        for bounds, expected in cases.items():
            assert naive_witness(seq, *bounds) == expected
            for form in _forms(seq):
                assert detect_period(form, *bounds) == expected

    @given(st.lists(st.integers(0, 2), max_size=30), st.integers(0, 35), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_verify_witness_matches_brute_force(self, seq, preperiod, period):
        w = PeriodWitness(preperiod, period)
        expected = naive_verify(seq, w)
        text = "".join("abc"[v] for v in seq)
        for form in (seq, tuple(seq), text, iter(seq)):
            assert verify_witness(form, w) == expected

    def test_verify_witness_period_longer_than_sequence(self):
        # a negative slice stop would compare [1] with [] and say False
        assert verify_witness([1, 2, 3], PeriodWitness(0, 5))
        assert verify_witness("abc", PeriodWitness(1, 3))

    def test_xyz_letter(self, xyz, xyz_seed):
        coeffs = [int(c) for c in char_series(xyz, xyz_seed, "y", 2999).coefficients]
        assert detect_period(coeffs, 1000, 200) == PeriodWitness(0, 2)

    def test_fibonacci_has_no_short_period(self, fib, fib_seed):
        coeffs = [int(c) for c in char_series(fib, fib_seed, "a", 2999).coefficients]
        assert detect_period(coeffs, 1000, 200) is None

    def test_all_zero(self):
        assert detect_period([0] * 3000, 100, 100) == PeriodWitness(0, 1)

    def test_smallest_period_then_preperiod(self):
        seq = [9, 9] + [1, 0] * 1500
        assert detect_period(seq, 100, 100) == PeriodWitness(2, 2)
        seq4 = [1, 2, 1, 3] * 800
        assert detect_period(seq4, 100, 100) == PeriodWitness(0, 4)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            detect_period([1] * 100, 100, 100)

    def test_bounds_respected(self):
        seq = [7] * 50 + [1, 2] * 1500
        assert detect_period(seq, 49, 200) is None
        assert detect_period(seq, 50, 200) == PeriodWitness(50, 2)
        assert detect_period([1, 2] * 20, 0, 2) == PeriodWitness(0, 2)
        assert detect_period([9] + [1, 2] * 20, 0, 2) is None

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_two_periods_return_the_minimal_period(self, block, extra):
        # a purely periodic sequence of minimal period D <= max_period: its
        # first 2 * max_period values give D (Fine and Wilf), and one value
        # fewer is refused, since the head's copy at offset D = max_period
        # would not fit
        d = min(k for k in range(1, len(block) + 1)
                if block == (block[k:] + block)[: len(block)] and len(block) % k == 0)
        max_period = d + extra
        seq = block[:d] * (2 * max_period // d + 1)
        assert detect_period(seq[: 2 * max_period], 0, max_period) == (
            PeriodWitness(0, d))
        with pytest.raises(InsufficientDataError):
            detect_period(seq[: 2 * max_period - 1], 0, max_period)

    def test_many_distinct_values(self):
        # forces the wide integer encoding path
        seq = list(range(300)) + [5, 6] * 1500
        assert detect_period(seq, 300, 10) == PeriodWitness(300, 2)
        # the tail repeats id 0, whose eight zero bytes match the head at
        # every byte offset: only whole ids count as periods
        seq = [7, *range(1000, 1300)] + [7] * 3000
        assert detect_period(seq, 301, 10) == PeriodWitness(301, 1)
        assert detect_period(seq, 300, 10) is None


@st.composite
def primitive_substitutions(draw):
    """Random primitive substitutions on 2-5 letters, with images of 1-4
    letters and a growing fixed point."""
    letters = "abcde"[: draw(st.integers(2, 5))]
    image = st.text(letters, min_size=1, max_size=4)
    s = Substitution.from_rules({a: draw(image) for a in letters})
    analysis = Analysis(s)
    assume(analysis.primitivity_witness is not None)
    try:
        analysis.seed
    except NoGrowingFixedPointError:
        assume(False)
    return s


def _fixed_word(s: Substitution, n: int) -> str:
    """The first n letters of the fixed word of sigma**p from a, for the
    smallest p at which some sigma**p(a) starts with a and is longer than
    a (the first such a in alphabet order), by plain string substitution."""
    images = dict(s.rules)  # sigma**p of every letter
    while not (seeds := [a for a, w in images.items() if w[0] == a and len(w) > 1]):
        images = {a: "".join(map(s.rules.__getitem__, w)) for a, w in images.items()}
    word = seeds[0]
    while len(word) < n:
        word = "".join(map(images.__getitem__, word))
    return word[:n]


def _least_witness(seq, max_preperiod, max_period):
    """Smallest period, then smallest preperiod, of seq within the bounds."""
    for d in range(1, max_period + 1):
        for p in range(max_preperiod + 1):
            if seq[p + d :] == seq[p : len(seq) - d]:
                return PeriodWitness(p, d)
    return None


class TestPositionWitness:
    """The position verdict's witness against the least witness of the gaps
    of the fixed word's positions, computed here from a plain expansion."""

    @given(
        primitive_substitutions(),
        st.sampled_from([(3, 2), (2, 1), (2, 2), (5, 3), (1, 3)]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_gaps(self, s, bounds, data):
        letter = data.draw(st.sampled_from(s.alphabet))
        pos = [i for i, ch in enumerate(_fixed_word(s, 20_000)) if ch == letter]
        gaps = [0, pos[0], *(b - a for a, b in zip(pos, pos[1:]))]
        v = series_verdict(s, None, letter, POSITION, bounds)
        got = v.witness if isinstance(v, Rational) else None
        assert got == _least_witness(gaps, *bounds)


class TestRationalForm:
    def test_xyz_char_form(self, xyz, xyz_seed):
        coeffs = [int(c) for c in char_series(xyz, xyz_seed, "y", 2999).coefficients]
        form = rational_form_from_witness(coeffs, PeriodWitness(0, 2))
        assert form.numerator == P([0, 1])
        assert form.period == 2

    def test_constant_form(self):
        form = rational_form_from_witness([1] * 64, PeriodWitness(0, 1))
        assert form.numerator == P([1]) and form.period == 1

    def test_preperiodic_form(self):
        seq = [5, -2, 3, 3, 3, 3, 3, 3, 3, 3]
        form = rational_form_from_witness(seq, PeriodWitness(2, 1))
        assert form.expand(9).coefficients == tuple(seq)

    def test_invalid_witness(self):
        with pytest.raises(WitnessInvalidError):
            rational_form_from_witness([1, 2] * 10, PeriodWitness(0, 1))

    def test_summatory_power_expansion(self):
        form = RationalForm(P([0, 1, 1]), 1, summatory_power=1)
        # (X + X^2) / (1-X)^2 has coefficients 0, 1, 3, 5, 7, ...
        assert [int(c) for c in form.expand(5).coefficients] == [0, 1, 3, 5, 7, 9]


class TestVerdicts:
    def test_fibonacci_all_transcendental(self, fib, fib_seed):
        for letter in "ab":
            for kind in (CHARACTERISTIC, POSITION):
                v = series_verdict(fib, fib_seed, letter, kind)
                assert isinstance(v, TranscendentalByAperiodicity)

    def test_xyz_y_rational_char(self, xyz, xyz_seed):
        v = series_verdict(xyz, xyz_seed, "y", CHARACTERISTIC)
        assert isinstance(v, Rational)
        assert v.form.numerator == P([0, 1])
        assert v.form.period == 2
        assert v.form.summatory_power == 0

    def test_xyz_y_rational_position(self, xyz, xyz_seed):
        v = series_verdict(xyz, xyz_seed, "y", POSITION)
        assert isinstance(v, Rational)
        assert v.form.numerator == P([0, 1, 1])
        assert v.form.period == 1
        assert v.form.summatory_power == 1

    def test_xyz_x_z_transcendental(self, xyz, xyz_seed):
        for letter in "xz":
            for kind in (CHARACTERISTIC, POSITION):
                v = series_verdict(xyz, xyz_seed, letter, kind)
                assert isinstance(v, TranscendentalByAperiodicity)

    def test_thue_morse_inconclusive(self, thue_morse, thue_morse_seed):
        for kind in (CHARACTERISTIC, POSITION):
            v = series_verdict(thue_morse, thue_morse_seed, "a", kind)
            assert isinstance(v, InconclusiveUpTo)

    def test_periodic_substitution_rational(self, abab, abab_seed):
        v = series_verdict(abab, abab_seed, "a", CHARACTERISTIC)
        assert isinstance(v, Rational)
        expanded = v.form.expand(100)
        assert [int(c) for c in expanded.coefficients[:4]] == [1, 0, 1, 0]

    def test_position_witness_needs_a_proof(self):
        # at (3, 2) the gaps of c begin 1, 13, 1, 13, ..., a period-2 witness
        # from index 2 that the word's later gaps refute
        s = parse_substitution("a->bb\nb->ccba\nc->aaaa")
        v = series_verdict(s, None, "c", POSITION, (3, 2))
        assert v == InconclusiveUpTo(3, 2)
        word = fixed_word_prefix(s, fixed_point_seed(s), 10**5)
        pos = [i for i, ch in enumerate(word) if ch == "c"]
        gaps = [0, pos[0], *(b - a for a, b in zip(pos, pos[1:]))]
        assert detect_period(gaps[:24], 3, 2) == PeriodWitness(2, 2)
        assert not verify_witness(gaps, PeriodWitness(2, 2))

    def test_position_search_reads_two_spans(self):
        # every letter's indicator has minimal period 7 with one 1, so at
        # (2, 1) the characteristic searches read 2 letters each, the span
        # B = pos[2] - pos[1] is 7 = D itself, and the search over 2 B = 14
        # letters must place the head's copy at offset B; the certificate
        # reads 2 + 2c = 4 gaps, past the 2 1s of those 14 letters
        s = parse_substitution("".join(f"{a}->abcdefg\n" for a in "abcdefg"))
        analysis = Analysis(s, None, (2, 1))
        assert [analysis.position("a", n) for n in (1, 2)] == [0, 7]
        lengths = []

        def recorded(coeffs, *args, **kwargs):
            lengths.append(len(coeffs))
            return detect_period(coeffs, *args, **kwargs)

        with mock.patch("subgf.substitutions.detect_period", recorded):
            for letter in s.alphabet:
                assert series_verdict_of(analysis, letter, CHARACTERISTIC) == (
                    InconclusiveUpTo(2, 1))
                v = series_verdict_of(analysis, letter, POSITION)
                assert v.witness == PeriodWitness(2, 1) and v.form.period == 1
        assert lengths == [2] * 7 + [14] * 7

    def test_requires_primitive(self):
        s = parse_substitution("a->ab\nb->b")
        with pytest.raises(NotPrimitiveError):
            series_verdict(s, None, "a", CHARACTERISTIC)

    def test_adjunction(self, fib, fib_seed):
        # the summatory series evaluated at each occurrence position gives
        # back the occurrence index
        order = 2000
        summ = summatory_transform(char_series(fib, fib_seed, "a", order))
        pos = position_series(fib, fib_seed, "a", 500)
        for n in range(1, 501):
            p = int(pos.coefficients[n])
            assert summ.coefficients[p] == n
