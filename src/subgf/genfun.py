"""Generating functions of letters in a fixed word: truncated series,
prefix polynomials, the block recursion over sigma**n, differencing and
summatory transforms, periodicity certificates, and rationality verdicts.

Series, positions and verdicts read the prefix, PF data, witnesses and the
aperiodicity verdict from a `substitutions.Analysis`, which derives each once;
the public `(s, seed)` forms build a fresh one.

A position verdict is read off the letter's indicator.  If the indicator has
minimal period D and c 1s in each period, the gaps [0, g1, g2, ...] of its
positions (the position series times 1 - X) have minimal preperiod exactly 2
and minimal period exactly c: they repeat from g2 on as pos[k + c] = pos[k] +
D; g0 = 0 is below every later gap; and a period c' of the gaps from g2 is a
period D' of the indicator with c' 1s in [0, D'), so c' >= c and g[1 + c'] =
g1 + D' - pos[c'] > g1.  So no gap sequence is searched.

Everything here is exact: series are integer sequences, certificate
numerators are integer polynomials, and there is no floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice
from operator import sub
from typing import Union

from .errors import NotPrimitiveError, TooLargeError, WitnessInvalidError
from .periodicity import PeriodWitness, verify_witness
from .polynomials import ExactPolynomial
from .substitutions import (
    DEFAULT_BOUNDS,
    MAX_EXTENDED_LETTERS,
    AperiodicByIrrationalPF,
    Analysis,
    FixedPointSeed,
    InconclusiveUpTo,
    Substitution,
    _zero_one,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """First order+1 coefficients of a formal power series."""

    order: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")

    @classmethod
    def from_coefficients(cls, coeffs) -> TruncatedSeries:
        cs = tuple(coeffs)
        return cls(len(cs) - 1, cs)


def char_prefix_poly(word: str, letter: str) -> ExactPolynomial:
    """Polynomial with a 1 at every position of the letter in the word."""
    return ExactPolynomial([int(ch == letter) for ch in word])


def position_prefix_poly(word: str, letter: str) -> ExactPolynomial:
    """Coefficient of X**n is the 0-based position of the n-th occurrence
    (n >= 1) of the letter; the zero polynomial if it is absent."""
    coeffs = [0]
    for i, ch in enumerate(word):
        if ch == letter:
            coeffs.append(i)
    return ExactPolynomial(coeffs)


def char_series(
    s: Substitution, seed: FixedPointSeed, letter: str, order: int
) -> TruncatedSeries:
    """`_char_series` on a fresh `Analysis(s, seed)`."""
    return _char_series(Analysis(s, seed), letter, order)


def _char_series(analysis: Analysis, letter: str, order: int) -> TruncatedSeries:
    if letter not in analysis.substitution.alphabet:
        raise KeyError(f"letter {letter!r} not in alphabet")
    if order < 0:
        raise ValueError("order must be >= 0")
    prefix = analysis.prefix(order + 1)
    return TruncatedSeries.from_coefficients(_zero_one(prefix, letter))


def position_series(
    s: Substitution, seed: FixedPointSeed, letter: str, n_terms: int
) -> TruncatedSeries:
    """First n_terms occurrence positions, as coefficients of X**1..X**n_terms
    with constant term 0."""
    return _scan_positions(Analysis(s, seed), letter, n_terms)


def _scan_positions(analysis, letter, n_terms, ones=None) -> TruncatedSeries:
    """`position_series` on an Analysis: `compress` over the letter's 0/1
    bytes `ones` (by default through its n_terms-th occurrence), all in C."""
    if ones is None:
        if letter not in analysis.substitution.alphabet:
            raise KeyError(f"letter {letter!r} not in alphabet")
        if n_terms < 0:
            raise ValueError("n_terms must be >= 0")
        last = analysis.position(letter, n_terms) if n_terms else -1
        if last is None:
            raise TooLargeError(
                f"prefix with {n_terms} occurrences of {letter!r} exceeds the "
                f"limit of {MAX_EXTENDED_LETTERS}"
            )
        ones = analysis.indicator(letter, last + 1)
    hits = compress(count(), ones)
    return TruncatedSeries.from_coefficients([0, *islice(hits, n_terms)])


def _level_table(images: dict, table: dict, level: int) -> dict:
    """Dense coefficient lists over `level` steps of the block code `images`
    (each block's image sequence of blocks), from the lists `table` over each
    block: the one block recursion.  A block's list is the concatenation of
    the lists of its image, so for indicator lists C(uv) = C(u) + X**|u| *
    C(v), and a list's length is its block length."""
    for _ in range(level):
        table = {
            a: list(chain.from_iterable(table[b] for b in image))
            for a, image in images.items()
        }
    return table


def _indicator_list(s: Substitution, target: str, source: str, level: int) -> list:
    """0/1 list of `target` over sigma**level(source), by `_level_table`."""
    if level < 0:
        raise ValueError("level must be >= 0")
    for letter in (target, source):
        if letter not in s.alphabet:
            raise KeyError(f"letter {letter!r} not in alphabet")
    base = {a: [int(a == target)] for a in s.alphabet}
    return _level_table(s.rules, base, level)[source]


def recursive_char_poly(
    s: Substitution, target: str, source: str, level: int
) -> ExactPolynomial:
    """Indicator polynomial of `target` in sigma**level(source), computed by
    the concatenation recursion without expanding words."""
    return ExactPolynomial(_indicator_list(s, target, source, level))


def recursive_pos_poly(
    s: Substitution, target: str, source: str, level: int
) -> ExactPolynomial:
    """Position polynomial of `target` in sigma**level(source): the positions
    of the 1s in the recursion's indicator list."""
    hits = _indicator_list(s, target, source, level)
    return ExactPolynomial([0, *compress(count(), hits)])


def difference_transform(ts: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficients of (1 - X)**m times the series, truncated at the same
    order."""
    if m < 0:
        raise ValueError("order of differencing must be >= 0")
    cs = list(ts.coefficients)
    for _ in range(m):
        cs = [cs[0], *map(sub, cs[1:], cs)]
    return TruncatedSeries(ts.order, tuple(cs))


def summatory_transform(ts: TruncatedSeries) -> TruncatedSeries:
    out = []
    acc = 0
    for c in ts.coefficients:
        acc += c
        out.append(acc)
    return TruncatedSeries(ts.order, tuple(out))


@dataclass(frozen=True)
class RationalForm:
    """numerator / ((1 - X**period) * (1 - X)**summatory_power), the
    generating function of an integer sequence.

    summatory_power is 0 for eventually periodic coefficient sequences; the
    position pipeline sets it to 1 after undoing one differencing step.
    """

    numerator: ExactPolynomial
    period: int
    summatory_power: int = 0

    def expand(self, order: int) -> TruncatedSeries:
        cs = list(self.numerator.coefficients[: order + 1])
        cs += [0] * (order + 1 - len(cs))
        d = self.period
        for n in range(d, order + 1):
            cs[n] += cs[n - d]
        for _ in range(self.summatory_power):
            cs = list(accumulate(cs))
        return TruncatedSeries(order, tuple(cs))


def rational_form_from_witness(coeffs, witness: PeriodWitness) -> RationalForm:
    """Certificate numerator/(1 - X**d) of an integer sequence (0/1 letter
    indicators or integer gaps) built from a verified witness: the
    preperiodic head times (1 - X**d) plus the shifted period block."""
    seq = list(coeffs)
    n0, d = witness.preperiod, witness.period
    if len(seq) < n0 + 2 * d or not verify_witness(seq, witness):
        raise WitnessInvalidError(f"witness {witness} does not hold on the data")
    head = ExactPolynomial(seq[:n0])
    block = ExactPolynomial(seq[n0 : n0 + d])
    one_minus_xd = ExactPolynomial([1] + [0] * (d - 1) + [-1])
    numerator = head * one_minus_xd + block.shift(n0)
    form = RationalForm(numerator, d)
    if form.expand(len(seq) - 1).coefficients != tuple(seq):
        raise WitnessInvalidError("re-expansion of the rational form failed")
    return form


@dataclass(frozen=True)
class Rational:
    form: RationalForm
    witness: PeriodWitness


@dataclass(frozen=True)
class TranscendentalByAperiodicity:
    reason: str


SeriesVerdict = Union[Rational, TranscendentalByAperiodicity, InconclusiveUpTo]

CHARACTERISTIC = "characteristic"
POSITION = "position"


def series_verdict(
    s: Substitution,
    seed: FixedPointSeed,
    letter: str,
    kind: str = CHARACTERISTIC,
    bounds: tuple[int, int] = DEFAULT_BOUNDS,
) -> SeriesVerdict:
    """`series_verdict_of` on a fresh `Analysis(s, seed, bounds)`."""
    return series_verdict_of(Analysis(s, seed, bounds), letter, kind)


def series_verdict_of(
    analysis: Analysis, letter: str, kind: str = CHARACTERISTIC
) -> SeriesVerdict:
    """Rationality/transcendence verdict for one letter's generating function.

    A letter with a proved periodicity witness gets a Rational certificate
    regardless of the substitution-level verdict (an aperiodic substitution
    can still place one letter periodically).  Transcendence is only claimed
    when the dominant eigenvalue is irrational and the letter is pinned down
    by elimination: the witness-free letters are exactly two, and at least
    two letters of an aperiodic fixed word must be non-periodic because the
    letter indicators sum to the all-ones sequence.  Everything else is
    inconclusive.

    The position series has the witness (2, c) when the indicator has
    minimal period D with c <= max period 1s per period (the module
    docstring proves it), and none at max preperiod 0 or 1.  D is the
    characteristic witness's period when there is one.  Otherwise c <= max
    period forces D = pos[1 + c] - pos[1] <= B = pos[1 + max period] - pos[1],
    read by `analysis.position` (none past the prefix limit: undecided), and
    D is `analysis.period(letter, B)`.  Either certificate reads 3 D letters,
    which hold the characteristic one's 2 D and the position one's 2 + 2c
    gaps; the position one is re-checked on their positions.

    Either witness is a proved period of the letter's indicator, which then
    has a rational frequency: a letter of `analysis.irrational_letters` has
    none, and neither kind is searched for it.
    """
    s = analysis.substitution
    if letter not in s.alphabet:
        raise KeyError(f"letter {letter!r} not in alphabet")
    if analysis.primitivity_witness is None:
        raise NotPrimitiveError("substitution is not primitive")
    if kind not in (CHARACTERISTIC, POSITION):
        raise ValueError(f"unknown kind {kind!r}")
    inconclusive = InconclusiveUpTo(*analysis.bounds)

    if kind == CHARACTERISTIC:
        w = analysis.witness(letter)
        if w is not None:
            form = rational_form_from_witness(analysis.indicator(letter, 3 * w.period), w)
            return Rational(form, w)
    elif analysis.bounds[0] >= 2 and letter not in analysis.irrational_letters:
        # position kind: the minimal period D of the indicator, then the
        # gaps' witness (2, c), its certificate times 1/(1 - X) re-checked
        # on the positions of the same bytes
        m = analysis.bounds[1]
        d = analysis.period(letter, m)
        if d is None and (last := analysis.position(letter, m + 1)) is not None:
            d = analysis.period(letter, last - analysis.position(letter, 1))
        if d is not None:
            ones = analysis.indicator(letter, 3 * d)
            w = PeriodWitness(2, ones[:d].count(1))
            pos = _scan_positions(analysis, letter, ones.count(1), ones=ones)
            base = rational_form_from_witness(difference_transform(pos, 1).coefficients, w)
            form = RationalForm(base.numerator, base.period, summatory_power=1)
            if form.expand(pos.order).coefficients != pos.coefficients:
                raise WitnessInvalidError("position re-expansion failed")
            return Rational(form, w)

    if isinstance(analysis.verdict, AperiodicByIrrationalPF):
        undetermined = [a for a in s.alphabet if analysis.witness(a) is None]
        if len(undetermined) == 2 and letter in undetermined:
            by = "" if len(s.alphabet) == 2 else "-and-elimination"
            return TranscendentalByAperiodicity("aperiodic-by-irrational-eigenvalue" + by)
    return inconclusive
