import copy
import hashlib
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import (
    Matrix,
    Poly as SympyPoly,
    Rational,
    factor_list,
    minimal_polynomial,
    symbols,
)

from subgf.errors import (
    DuplicateRuleError,
    EmptyImageError,
    NoGrowingFixedPointError,
    NotPrimitiveError,
    RuleSyntaxError,
    TooLargeError,
    UnknownLetterError,
    WrongAlphabetSizeError,
)
from subgf import genfun, periodicity, substitutions
from subgf.cli import main
from subgf.genfun import _scan_positions, position_series
from subgf.polynomials import ExactPolynomial as P
from subgf.substitutions import (
    Analysis,
    AperiodicByIrrationalPF,
    EventuallyPeriodic,
    FixedPointSeed,
    InconclusiveUpTo,
    Substitution,
    SubstitutionMatrix,
    aperiodicity_verdict,
    characteristic_polynomial,
    fixed_point_seed,
    fixed_word_prefix,
    gap_bound,
    is_primitive,
    parse_substitution,
    pf_data,
    substitution_matrix,
)

from test_genfun import primitive_substitutions


class TestParser:
    def test_fibonacci(self, fib):
        assert fib.alphabet == ("a", "b")
        assert fib.rules == {"a": "ab", "b": "a"}

    def test_rules_are_one_read_only_table(self, fib):
        assert fib.rules is fib.rules
        with pytest.raises(TypeError):
            fib.rules["a"] = "b"
        assert pickle.loads(pickle.dumps(fib)) == copy.deepcopy(fib) == fib

    def test_identity_single_letter(self):
        s = parse_substitution("a->a")
        assert s.rules == {"a": "a"}

    def test_comments_blanks_and_spacing(self):
        s = parse_substitution("\n# intro\n a ->  ab  # trailing\n\nb->a\n")
        assert s.rules == {"a": "ab", "b": "a"}

    def test_empty_image(self):
        with pytest.raises(EmptyImageError) as err:
            parse_substitution("a->\n")
        assert err.value.line == 1

    def test_duplicate_rule(self):
        with pytest.raises(DuplicateRuleError) as err:
            parse_substitution("a->ab\nb->a\na->b")
        assert err.value.line == 3

    def test_unknown_letter_in_image(self):
        with pytest.raises(UnknownLetterError) as err:
            parse_substitution("a->ab\nb->ac")
        assert err.value.line == 2
        assert err.value.column >= 4

    def test_missing_arrow(self):
        with pytest.raises(RuleSyntaxError):
            parse_substitution("a = ab")

    def test_multi_letter_lhs_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_substitution("ab->a")

    def test_non_letter_in_image(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_substitution("a->a b")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, column", [
        ("a -> ab -> zz\nb -> a", 8),
        ("a->ab->\nb->a", 6),
    ])
    def test_second_arrow_rejected(self, text, column):
        with pytest.raises(RuleSyntaxError) as err:
            parse_substitution(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_empty_file(self):
        with pytest.raises(RuleSyntaxError):
            parse_substitution("# nothing here\n")


def _matrix_power(m, e):
    """Rows of M**e for a substitution matrix M and e >= 1."""
    cols = list(zip(*m.rows))
    out = m.rows
    for _ in range(e - 1):
        out = tuple(tuple(sum(map(operator.mul, r, c)) for c in cols) for r in out)
    return out


class TestMatrix:
    def test_fibonacci(self, fib):
        assert substitution_matrix(fib).rows == ((1, 1), (1, 0))

    def test_xyz(self, xyz):
        assert substitution_matrix(xyz).rows == ((1, 2, 1), (1, 1, 0), (0, 1, 1))

    def test_identity(self):
        assert substitution_matrix(parse_substitution("a->a")).rows == ((1,),)

    def test_power_homomorphism(self, corpus):
        for s in corpus.values():
            base = substitution_matrix(s)
            for m in range(1, 11):
                images = tuple(s.apply_power(a, m) for a in s.alphabet)
                sigma_m = Substitution(s.alphabet, images)
                assert substitution_matrix(sigma_m).rows == _matrix_power(base, m)

    def test_row_sums_are_image_lengths(self, xyz):
        m = substitution_matrix(xyz)
        assert m.row_sums() == tuple(len(xyz.rules[a]) for a in xyz.alphabet)


class TestPrimitivity:
    def test_fibonacci_witness(self, fib):
        assert is_primitive(substitution_matrix(fib)) == 2

    def test_all_positive_is_one(self, rst):
        assert is_primitive(substitution_matrix(rst)) == 1

    def test_non_primitive(self):
        s = parse_substitution("a->ab\nb->b")
        assert is_primitive(substitution_matrix(s)) is None

    def test_witness_minimality_against_integer_powers(self, corpus, rst):
        mats = [substitution_matrix(s) for s in corpus.values()]
        mats.append(substitution_matrix(rst))
        for m in mats:
            w = is_primitive(m)
            assert w is not None
            assert all(x > 0 for row in _matrix_power(m, w) for x in row)
            for e in range(1, w):
                assert not all(x > 0 for row in _matrix_power(m, e) for x in row)


class TestPFData:
    def test_fibonacci(self, fib):
        data = pf_data(substitution_matrix(fib))
        assert data.char_poly == P([-1, -1, 1])
        assert data.min_poly_of_pf == P([-1, -1, 1])
        assert not data.is_rational
        assert data.pf_upper - data.pf_lower <= F(1, 10**12)
        assert F("1.618033") < data.pf_lower and data.pf_upper < F("1.618034")

    def test_enclosure_sign_change(self, fib):
        data = pf_data(substitution_matrix(fib))
        poly = data.min_poly_of_pf
        assert poly.sign_at(data.pf_lower) * poly.sign_at(data.pf_upper) < 0

    def test_xyz(self, xyz):
        data = pf_data(substitution_matrix(xyz))
        assert data.min_poly_of_pf == P([1, -3, 1])
        assert not data.is_rational
        assert F("2.618033") < data.pf_lower and data.pf_upper < F("2.618035")

    def test_induced_three_letter(self, rst):
        data = pf_data(substitution_matrix(rst))
        assert data.min_poly_of_pf == P([-1, -4, 1])
        assert F("4.236067") < data.pf_lower and data.pf_upper < F("4.236069")

    def test_rational_eigenvalue(self, abab):
        data = pf_data(substitution_matrix(abab))
        assert data.is_rational
        assert data.min_poly_of_pf == P([-2, 1])
        assert data.pf_lower < 2 < data.pf_upper

    def test_degree_four_minimal_polynomial(self):
        s = parse_substitution("a->ab\nb->c\nc->d\nd->a")
        data = pf_data(substitution_matrix(s))
        assert data.min_poly_of_pf == P([-1, 0, 0, -1, 1])
        assert not data.is_rational

    def test_not_primitive(self):
        s = parse_substitution("a->ab\nb->b")
        with pytest.raises(NotPrimitiveError):
            pf_data(substitution_matrix(s))

    def test_char_poly_via_trace_recurrence(self):
        m = SubstitutionMatrix(((2, 1), (1, 2)))
        assert characteristic_polynomial(m) == P([3, -4, 1])

    def test_char_poly_matches_sympy(self):
        x = symbols("x")
        rng = random.Random(2024)
        for trial in range(120):
            k = trial % 6 + 1
            rows = [[rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(k)] for _ in range(k)]
            for i, row in enumerate(rows):
                row[i] += sum(row) == 0  # every row must sum to at least 1
            expected = Matrix(rows).charpoly(x).all_coeffs()
            got = characteristic_polynomial(SubstitutionMatrix(tuple(map(tuple, rows))))
            assert got == P([int(c) for c in reversed(expected)])

    def test_min_poly_matches_sympy_minimal_polynomial(self):
        x = symbols("x")
        rng = random.Random(4049)
        checked = {k: 0 for k in range(2, 7)}
        while min(checked.values()) < 6:
            k = rng.randint(2, 6)
            rows = [[rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(k)] for _ in range(k)]
            for i, row in enumerate(rows):
                row[i] += sum(row) == 0  # every row must sum to at least 1
            m = SubstitutionMatrix(tuple(map(tuple, rows)))
            if is_primitive(m) is None:
                continue
            data = pf_data(m)
            char = SympyPoly(list(reversed(data.char_poly.coefficients)), x)
            root = char.real_roots()[-1]  # sorted: the last is the largest
            expected = SympyPoly(minimal_polynomial(root, x), x).all_coeffs()
            assert data.min_poly_of_pf == P([int(c) for c in reversed(expected)]), rows
            lower = Rational(data.pf_lower.numerator, data.pf_lower.denominator)
            upper = Rational(data.pf_upper.numerator, data.pf_upper.denominator)
            assert lower < root < upper, rows
            checked[k] += 1


    def test_one_root_isolation(self, corpus, monkeypatch):
        built = []
        isolator = substitutions.RootIsolator
        monkeypatch.setattr(
            substitutions, "RootIsolator", lambda p: built.append(p) or isolator(p)
        )
        for s in corpus.values():
            pf_data(substitution_matrix(s))
        assert len(built) == len(corpus)

    def test_pf_data_pinned_on_random_primitive_matrices(self):
        # recorded with the enclosure from a second isolation on the minimal
        # polynomial; one isolation on the char poly must give the same bytes
        rng = random.Random(1976)
        digest = hashlib.sha256()
        done = 0
        while done < 200:
            k = done % 4 + 2
            rows = [[rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(k)] for _ in range(k)]
            for i, row in enumerate(rows):
                row[i] += sum(row) == 0  # every row must sum to at least 1
            m = SubstitutionMatrix(tuple(map(tuple, rows)))
            if is_primitive(m) is None:
                continue
            d = pf_data(m)
            digest.update(
                f"{d.char_poly.coefficients};{d.min_poly_of_pf.coefficients};"
                f"{d.pf_lower};{d.pf_upper}\n".encode()
            )
            done += 1
        assert digest.hexdigest() == (
            "81bedb2639c81a6a500cafc273d15d93d41a6692834a8624f18061b0a4c3a019"
        )

    @staticmethod
    def _random_primitive_matrices(seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            k = rng.randint(1, 5)
            rows = [[rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(k)] for _ in range(k)]
            for i, row in enumerate(rows):
                row[i] += sum(row) == 0  # every row must sum to at least 1
            if rng.random() < 0.2:  # a circulant: lambda is its row sum
                rows = [rows[0][i:] + rows[0][:i] for i in range(k)]
            m = SubstitutionMatrix(tuple(map(tuple, rows)))
            if is_primitive(m) is not None:
                out.append(m)
        return out

    def test_located_cell_is_the_bisection_cell(self):
        # the cell from the float estimate is always proved (the one-circle
        # argument), and it is the one that plain bisection ends in
        rational = 0
        for m in self._random_primitive_matrices(30, 150):
            char = characteristic_polynomial(m)
            upper = max(m.row_sums()) + 1
            bounds = (F(1, 2), upper, F(1, 2 * 10**12))
            estimate = substitutions._pf_estimate(char.coefficients, upper)
            cell = substitutions.locate_max_root(char, *bounds, estimate)
            assert cell == substitutions.isolate_max_root(char, *bounds), m
            rational += pf_data(m).is_rational
        assert rational >= 20

    def test_pf_data_same_without_the_located_cell(self, monkeypatch):
        # pf_data on the located cell against pf_data that always bisects
        matrices = self._random_primitive_matrices(31, 100)
        located = [pf_data(m) for m in matrices]
        monkeypatch.setattr(substitutions, "locate_max_root", lambda *args: None)
        assert [pf_data(m) for m in matrices] == located

    @pytest.mark.parametrize("estimate", [
        float("nan"), float("inf"), -1.0, 0.0, 1.0, 1.5, 2.5, 2.999, 3.001, 3.5, 5.0,
    ])
    def test_missed_cell_falls_back_to_bisection(self, monkeypatch, estimate):
        # lambda = 3 and 1.618...; no estimate is in the right cell (that of
        # the other eigenvalue 1 of [[2, 1], [1, 2]] changes sign too, but a
        # root lies above it), so each pf_data bisects, to the same data
        cases = [SubstitutionMatrix(((2, 1), (1, 2))), SubstitutionMatrix(((1, 1), (1, 0)))]
        expected = [pf_data(m) for m in cases]
        calls = []
        bisect = substitutions.isolate_max_root
        monkeypatch.setattr(substitutions, "isolate_max_root",
                            lambda *args: calls.append(args) or bisect(*args))
        monkeypatch.setattr(substitutions, "_pf_estimate", lambda cs, upper: estimate)
        assert [pf_data(m) for m in cases] == expected
        assert len(calls) == 2


class TestFixedPoints:
    def test_seeds(self, fib, xyz):
        assert fixed_point_seed(fib) == FixedPointSeed(1, "a")
        assert fixed_point_seed(xyz) == FixedPointSeed(1, "x")

    def test_swap_start_needs_square(self):
        s = parse_substitution("a->ba\nb->ab")
        assert fixed_point_seed(s) == FixedPointSeed(2, "a")

    def test_identity_has_no_growing_seed(self):
        with pytest.raises((NoGrowingFixedPointError, NotPrimitiveError)):
            fixed_point_seed(parse_substitution("a->a"))

    def test_prefixes(self, fib, fib_seed, xyz, xyz_seed):
        assert fixed_word_prefix(fib, fib_seed, 13) == "abaababaabaab"
        assert fixed_word_prefix(xyz, xyz_seed, 14) == "xyzyxyzyxyxyzy"
        assert fixed_word_prefix(fib, fib_seed, 0) == ""

    def test_prefix_of_prefix(self, fib, fib_seed):
        long = fixed_word_prefix(fib, fib_seed, 500)
        for n in (0, 1, 13, 100, 499):
            assert long.startswith(fixed_word_prefix(fib, fib_seed, n))

    def test_self_similarity(self, corpus):
        for s in corpus.values():
            seed = fixed_point_seed(s)
            prefix = fixed_word_prefix(s, seed, 200)
            image = s.apply_power(prefix, seed.power)
            assert image.startswith(prefix)
            assert fixed_word_prefix(s, seed, len(image)) == image


class TestGapBound:
    def test_fibonacci_value(self, fib):
        assert gap_bound(fib) == 6

    def test_xyz_value(self, xyz):
        # witness power 2; image lengths there are (10, 6, 4)
        assert gap_bound(xyz) == 20

    def test_single_letter_rejected(self):
        with pytest.raises(WrongAlphabetSizeError):
            gap_bound(parse_substitution("a->aa"))

    def test_measured_gaps_within_bound(self, corpus):
        for s in corpus.values():
            seed = fixed_point_seed(s)
            bound = gap_bound(s)
            prefix = fixed_word_prefix(s, seed, 10**5)
            for letter in s.alphabet:
                last = -1
                worst = 0
                for i, ch in enumerate(prefix):
                    if ch == letter:
                        worst = max(worst, i - last)
                        last = i
                assert last >= 0
                assert worst <= bound


class TestAperiodicityVerdict:
    def test_fibonacci(self, fib):
        assert aperiodicity_verdict(fib) == AperiodicByIrrationalPF()

    def test_eventually_periodic(self, abab):
        assert aperiodicity_verdict(abab) == EventuallyPeriodic(0, 2)

    def test_thue_morse_inconclusive(self, thue_morse):
        verdict = aperiodicity_verdict(thue_morse, 10**4, 10**3)
        assert verdict == InconclusiveUpTo(10**4, 10**3)

    def test_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            aperiodicity_verdict(parse_substitution("a->ab\nb->b"))


def test_substitution_validation():
    with pytest.raises(ValueError):
        Substitution.from_rules({"a": ""})
    with pytest.raises(ValueError):
        Substitution.from_rules({"a": "ax"})
    with pytest.raises(ValueError):
        Substitution(parse_substitution("a->a").alphabet, ("a", "a"))


@pytest.mark.parametrize("alphabet, images, message", [
    ((), (), "alphabet must contain at least one letter"),
    (("ab",), ("ab",), "invalid letter 'ab'"),
    (("a", "a"), ("a", "a"), "duplicate letter 'a'"),
    (("a", "b"), ("ab",), "one image per letter required"),
])
def test_letter_checks(alphabet, images, message):
    with pytest.raises(ValueError) as err:
        Substitution(alphabet, images)
    assert str(err.value) == message


def _random_seeded_substitutions(rng, count):
    """(substitution, seed) pairs: primitive ones with their fixed-point
    seed, and non-primitive ones with an explicit seed, whose fixed word can
    hold a letter rarely or not at all."""
    out = []
    while len(out) < count:
        k = rng.randint(2, 4)
        letters = "abcd"[:k]
        images = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                  for _ in letters]
        s = Substitution.from_rules(dict(zip(letters, images)))
        if is_primitive(substitution_matrix(s)) is not None:
            try:
                seed = fixed_point_seed(s)
            except NoGrowingFixedPointError:
                continue
        elif images[0].startswith("a") and len(images[0]) >= 2:
            seed = FixedPointSeed(1, "a")
        else:
            continue
        if seed.power <= 3:
            out.append((s, seed))
    return out


def _brute_force_prefix(s, seed, n):
    """The first n letters of the fixed word by whole sigma**p iterations of
    the start letter, independent of the block stream."""
    word = seed.start_letter
    while len(word) < n:
        word = s.apply_power(word, seed.power)
    return word[:n]


class TestAnalysisPrefix:
    """The one growing prefix of an Analysis against brute-force expansion."""

    def cases(self, corpus):
        rng = random.Random(77)
        cases = [(s, fixed_point_seed(s)) for s in corpus.values()]
        cases += [(parse_substitution("a->ab\nb->bb"), FixedPointSeed(1, "a")),
                  (parse_substitution("a->aab\nb->b\nc->c"), FixedPointSeed(1, "a")),
                  (parse_substitution("a->ba\nb->ab"), FixedPointSeed(2, "a")),
                  (parse_substitution("a->b\nb->ab"), FixedPointSeed(2, "a")),
                  (parse_substitution("a->bc\nb->ca\nc->a"), FixedPointSeed(3, "a"))]
        return cases + _random_seeded_substitutions(rng, 40)

    def test_seeds_of_higher_power_are_covered(self, corpus):
        powers = {seed.power for _, seed in self.cases(corpus)}
        assert {1, 2, 3} <= powers

    def test_prefixes_match_streams_and_brute_force(self, corpus):
        for s, seed in self.cases(corpus):
            for bounds in ((4, 2), (30, 7)):
                analysis = Analysis(s, seed, bounds)
                n0 = bounds[0] + 10 * bounds[1]
                base = analysis.prefix(n0)
                assert base == _brute_force_prefix(s, seed, n0)
                for n in (0, 1, 17, 3 * len(base) + 9):
                    assert analysis.prefix(n) == _brute_force_prefix(s, seed, n)

    def test_prefixes_across_many_pieces(self, corpus):
        # lengths up and down around 4096 and around the longest block a
        # prefix appends whole (2**16 letters), then one jump past it, on
        # seeds of power 1 and 2
        for s, seed in [(corpus["fib"], fixed_point_seed(corpus["fib"])),
                        (corpus["xyz"], fixed_point_seed(corpus["xyz"])),
                        (parse_substitution("a->ba\nb->ab"), FixedPointSeed(2, "a"))]:
            oracle = _brute_force_prefix(s, seed, 200_000)
            analysis = Analysis(s, seed)
            for n in (1, 4095, 4096, 4097, 3 * 4096 + 1, 5000, 60_000,
                      2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 1, 200_000):
                assert analysis.prefix(n) == oracle[:n]
            assert fixed_word_prefix(s, seed, 200_000) == oracle

    def test_positions_match_position_series(self, corpus):
        # with the prefix limit at 2000 letters, n occurrences are found
        # exactly when the first 2000 letters hold them
        raised, n, limit = 0, 35, 2000
        for s, seed in self.cases(corpus):
            analysis = Analysis(s, seed, (5, 3))
            word = _brute_force_prefix(s, seed, limit)
            for letter in s.alphabet:
                expected = [i for i, ch in enumerate(word) if ch == letter][:n]
                with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS", limit):
                    if len(expected) < n:
                        raised += 1
                        with pytest.raises(TooLargeError):
                            _scan_positions(analysis, letter, n)
                        with pytest.raises(TooLargeError):
                            position_series(s, seed, letter, n)
                        continue
                    got = _scan_positions(analysis, letter, n)
                    assert got.coefficients == (0, *expected)
                    assert position_series(s, seed, letter, n) == got
            # the scans read the one prefix, which is still the fixed word
            assert analysis.prefix(999) == _brute_force_prefix(s, seed, 999)
        assert raised >= 2

    def test_long_position_scan_crosses_pieces(self, fib, fib_seed):
        word = _brute_force_prefix(fib, fib_seed, 60_000)
        expected = [i for i, ch in enumerate(word) if ch == "b"][:20_000]
        got = _scan_positions(Analysis(fib, fib_seed), "b", 20_000)
        assert got.coefficients == (0, *expected)

    def test_hostile_images_stay_bounded(self, capsys, tmp_path):
        # lambda = 1000: B_2 alone would hold 999 * 10**6 letters
        rules = "a->a" + "b" * 999 + "\nb->b" + "a" * 999
        s = parse_substitution(rules)
        n = 2 * 10**6
        # x = sigma(x) and every image has 1000 letters, so the first n
        # letters are the image of the first n / 1000
        expected = s.apply_power(s.apply_power("a", 2)[: n // 1000], 1)
        tracemalloc.start()
        try:
            analysis = Analysis(s)
            got = analysis.prefix(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 4 * (n + 4096 * 1000)
        path = tmp_path / "hostile.sub"
        path.write_text(rules)
        assert main(["expand", str(path), "--n", str(n)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_skewed_blocks_stay_bounded(self):
        # sigma**j(b) outgrows sigma**j(a): the first n letters lie in
        # sigma**5(a), of 6 * 10**6 letters, while sigma**4(b) alone has
        # 5 * 10**6; building whole levels of every letter holds over 4 n
        s = parse_substitution("a->ab\nb->" + "a" * 1000 + "b")
        n = 2 * 10**6
        expected = _brute_force_prefix(s, FixedPointSeed(1, "a"), n)
        tracemalloc.start()
        try:
            got = Analysis(s).prefix(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 4 * n


class TestPosition:
    """`Analysis.position`, read off the count tables, against brute-force
    expansion."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, corpus, data):
        # the limit is drawn too: an occurrence at or past it is None, and
        # so is one that never comes (a->ab, b->bb holds a single a)
        s, seed = data.draw(st.one_of(
            primitive_substitutions().map(lambda s: (s, fixed_point_seed(s))),
            st.sampled_from(TestAnalysisPrefix().cases(corpus))))
        letter = data.draw(st.sampled_from(s.alphabet))
        limit = data.draw(st.integers(1, 3000))
        hits = [i for i, ch in enumerate(_brute_force_prefix(s, seed, limit))
                if ch == letter]
        n = data.draw(st.integers(1, len(hits) + 2))
        analysis = Analysis(s, seed)
        with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS", limit):
            got = analysis.position(letter, n)
        assert got == (hits[n - 1] if n <= len(hits) else None)

    def test_limit_is_inclusive_and_nothing_is_built(self, fib, fib_seed):
        # the 4th b of abaababaa|b is letter 9, the last of a 10-letter prefix
        analysis = Analysis(fib, fib_seed)
        with mock.patch.object(Analysis, "_build", side_effect=AssertionError), \
                mock.patch.object(Analysis, "prefix", side_effect=AssertionError):
            assert [analysis.position("b", n) for n in range(1, 5)] == [1, 4, 6, 9]
            for limit, expected in ((10, 9), (9, None)):
                with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS", limit):
                    assert analysis.position("b", 4) == expected
            # the 9 * 10**6-th b is near letter 9 * 10**6 * (phi + 1)
            assert analysis.position("b", 9 * 10**6) is None

    def test_letter_that_never_recurs(self):
        analysis = Analysis(parse_substitution("a->ab\nb->bb"), FixedPointSeed(1, "a"))
        assert analysis.position("a", 1) == 0
        assert analysis.position("a", 2) is None
        with pytest.raises(ValueError):
            analysis.position("a", 0)


@st.composite
def primitive_seeded(draw):
    """(substitution, seed): primitive on 1-3 letters, images of 1-4 letters."""
    letters = "abc"[: draw(st.integers(1, 3))]
    image = st.text(letters, min_size=1, max_size=4)
    s = Substitution.from_rules({a: draw(image) for a in letters})
    assume(is_primitive(substitution_matrix(s)) is not None)
    try:
        return s, fixed_point_seed(s)
    except NoGrowingFixedPointError:
        assume(False)


def _pairs_of(word):
    return {word[i : i + 2] for i in range(len(word) - 1)}


class TestPeriodProof:
    """`Analysis.pairs` and `has_period` against a brute-force prefix of 10**5
    letters.  Every 2-letter factor shows up long before its end: by letter
    169 on the fixed cases, and by letter 1197 on the primitive 1-3 letter
    rules among 30000 random draws with images of 1-4 letters."""

    N = 10**5

    def cases(self, corpus):
        cases = [(s, fixed_point_seed(s)) for s in corpus.values()]
        seeded = _random_seeded_substitutions(random.Random(26), 80)
        return cases + [(s, seed) for s, seed in seeded
                        if is_primitive(substitution_matrix(s)) is not None]

    def _check(self, s, seed, periods):
        analysis = Analysis(s, seed)
        word = _brute_force_prefix(s, seed, self.N)
        assert analysis.pairs == _pairs_of(word)
        for letter in s.alphabet:
            ones = bytes(ch == letter for ch in word)
            for d in periods:
                assert analysis.has_period(letter, d) == (ones[d:] == ones[:-d])

    def test_corpus_and_seeded_rules(self, corpus):
        cases = self.cases(corpus)
        assert len(cases) >= 30
        for s, seed in cases:
            self._check(s, seed, range(1, 41))

    @given(primitive_seeded(), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_drawn_rules(self, case, d):
        self._check(*case, (d,))

    def test_pairs_close_over_boundaries(self, fib):
        # sigma(a) = ab holds only ab; ba and aa straddle images
        assert Analysis(fib).pairs == {"ab", "ba", "aa"}

    def test_not_primitive(self):
        s = parse_substitution("a->aab\nb->b")
        with pytest.raises(NotPrimitiveError):
            Analysis(s, FixedPointSeed(1, "a")).has_period("a", 1)

    def test_proof_held_to_the_limit(self, corpus):
        # has_period is None exactly when its proof, the blocks of the pairs
        # at the least level whose blocks all have d letters, passes the
        # limit.  That proof reads at least 4 d letters, so the 3 d letters
        # of a certificate fit whenever it does
        for s, seed in self.cases(corpus):
            analysis = Analysis(s, seed)
            word = _brute_force_prefix(s, seed, self.N)
            pairs = _pairs_of(word)
            indicators = {a: bytes(ch == a for ch in word) for a in s.alphabet}
            for d in range(1, 41):
                j = 0
                while min((sizes := s.image_lengths(seed.power * j)).values()) < d:
                    j += 1
                proof = sum(sizes[b] + sizes[c] for b, c in pairs)
                assert proof >= 4 * d
                for letter, ones in indicators.items():
                    with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS",
                                           proof - 1):
                        assert analysis.has_period(letter, d) is None
                    with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS",
                                           proof):
                        assert analysis.has_period(letter, d) == (ones[d:] == ones[:-d])

    def test_period_search_held_to_the_limit(self):
        # x = (a b**9)**inf: a's indicator has period 10, proved over the
        # pairs ab, bb, ba of 60 letters.  A search of bound B reads 2 * B
        # letters and the period's proof 60: past the limit, either leaves
        # a undecided instead of raising
        s = parse_substitution("a->abbbbbbbbb\nb->abbbbbbbbb")
        for limit, bound, expected in (
            (23, 12, None), (29, 12, None), (60, 12, 10), (79, 40, None), (100, 40, 10)
        ):
            with mock.patch.object(substitutions, "MAX_EXTENDED_LETTERS", limit):
                assert Analysis(s, None, (0, 1)).period("a", bound) == expected



def _rational_frequency_letters(rules: dict) -> set:
    """The letters with a rational frequency, by mpmath at 60 digits: the
    left eigenvector of each conjugate of lambda, normalised to sum 1, is
    the conjugate of the frequency vector, and a frequency is rational iff
    all its conjugates agree.  Written apart from subgf: the matrix, the
    factors (sympy) and the eigenvectors (mpmath) are all made here."""
    letters = list(rules)
    m = [[rules[a].count(b) for b in letters] for a in letters]
    x = symbols("x")
    tiny = mpmath.mpf(10) ** -40
    with mpmath.workdps(60):
        def roots(cs):
            return mpmath.polyroots(cs, maxsteps=400, extraprec=400)

        def top_real_root(cs):
            return max((mpmath.re(r) for r in roots(cs) if abs(mpmath.im(r)) < tiny),
                       default=-1)

        factors = [SympyPoly(f, x).all_coeffs()
                   for f, _ in factor_list(Matrix(m).charpoly(x).as_expr())[1]]
        values, left = mpmath.eig(mpmath.matrix(m), left=True, right=False)
        freqs = []
        for mu in roots(max(factors, key=top_real_root)):
            i = min(range(len(letters)), key=lambda i: abs(values[i] - mu))
            row = [left[i, j] for j in range(len(letters))]
            freqs.append([c / sum(row) for c in row])
        return {a for j, a in enumerate(letters)
                if all(abs(f[j] - freqs[0][j]) < tiny for f in freqs)}


def _random_primitive_rules(rng, count):
    """`count` primitive rules on 2-5 letters, images of 1-4 letters."""
    out = []
    while len(out) < count:
        letters = "abcde"[: 2 + len(out) % 4]
        rules = {a: "".join(rng.choices(letters, k=rng.randint(1, 4))) for a in letters}
        if is_primitive(substitution_matrix(Substitution.from_rules(rules))) is not None:
            out.append(rules)
    return out


class TestIrrationalLetters:
    """`Analysis.irrational_letters` (the rank test) against the conjugate
    frequencies of `_rational_frequency_letters`."""

    def _check(self, rules):
        s = Substitution.from_rules(rules)
        assert Analysis(s).irrational_letters == set(rules) - _rational_frequency_letters(
            rules), rules

    def test_corpus(self, corpus):
        expected = {"fib": {"a", "b"}, "xyz": {"x", "z"}, "abab": set(), "thue_morse": set()}
        for name, s in corpus.items():
            assert Analysis(s).irrational_letters == expected[name]
            self._check(dict(s.rules))

    def test_seeded_rules(self):
        rules = _random_primitive_rules(random.Random(30), 60)
        for r in rules:
            self._check(r)
        irrational = sum(len(Analysis(Substitution.from_rules(r)).irrational_letters)
                         for r in rules)
        assert 100 < irrational < sum(map(len, rules))

    @given(st.integers(2, 4).flatmap(lambda k: st.lists(
        st.text("abcd"[:k], min_size=1, max_size=4), min_size=k, max_size=k)))
    @settings(max_examples=60, deadline=None)
    def test_drawn_rules(self, images):
        rules = dict(zip("abcd", images))
        assume(is_primitive(substitution_matrix(Substitution.from_rules(rules))) is not None)
        self._check(rules)

    def test_not_primitive_or_rational_lambda_has_none(self, abab):
        assert Analysis(parse_substitution("a->ab\nb->b")).irrational_letters == set()
        assert Analysis(parse_substitution("a->aab\nb->bba")).irrational_letters == set()

    def test_rational_letter_under_irrational_lambda_is_scanned(self, monkeypatch):
        # lambda = (3 + sqrt5)/2, frequencies (1/2, (3 - sqrt5)/4, (sqrt5 - 1)/4)
        s = parse_substitution("a -> ca\nb -> ab\nc -> aabc")
        analysis = Analysis(s)
        assert analysis.irrational_letters == {"b", "c"}
        assert _rational_frequency_letters(dict(s.rules)) == {"a"}
        scanned = []
        detect = periodicity.detect_period
        monkeypatch.setattr(substitutions, "detect_period",
                            lambda seq, *b: scanned.append(seq) or detect(seq, *b))
        verdicts = {(a, kind): genfun.series_verdict_of(analysis, a, kind)
                    for a in "abc" for kind in (genfun.CHARACTERISTIC, genfun.POSITION)}
        # two searches of a's indicator, at the max period and at the span B
        # of its position verdict; none for b or c
        assert len(scanned) == 2 and scanned[0] == analysis.indicator("a", 400)
        # as before the skip: no letter has a witness, and three are undecided
        assert set(verdicts.values()) == {InconclusiveUpTo(1000, 200)}
