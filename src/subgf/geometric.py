"""Geometric realisation of a fixed word: natural tile lengths from the
dominant left eigenvector, the increasing endpoint sequence, the identity of
its generating function, and the two-letter classification.  With M[i][j]
the count of letter j in sigma(i), the natural lengths g.M = lambda g are the
letter frequencies up to scale (Queffelec, LNM 1294, ch. 5), not self-similar
lengths (M g = lambda g) unless M is symmetric: `equal-lengths` of a
two-letter rule means equal frequencies.

Lengths are exact (rational, or in Q(sqrt(D)) when the minimal polynomial of
the dominant eigenvalue is quadratic); for higher-degree eigenvalues they are
rational power-iteration approximations, flagged `exact: false`.  Endpoints
are integer prefix sums over the lengths' one common denominator; values are
built from them only on request.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import eq, sub
from typing import Optional, Union

from .errors import WrongAlphabetSizeError
from .genfun import RationalForm, series_verdict_of
from .polynomials import ExactPolynomial
from .quadratic import QuadraticReal, _int_form, _make, _square_free_split
from .substitutions import (
    DEFAULT_BOUNDS,
    AperiodicByIrrationalPF,
    Analysis,
    EventuallyPeriodic,
    FixedPointSeed,
    PFData,
    Substitution,
)

TileLength = Union[Fraction, QuadraticReal]
# endpoints that `classify_two_letter_of` checks against a closed form
CHECK_ORDER = 1000


def pf_as_quadratic(data: PFData) -> Optional[QuadraticReal]:
    """The dominant eigenvalue as an exact quadratic number, when its minimal
    polynomial has degree at most 2."""
    poly = data.min_poly_of_pf
    if poly.degree == 1:
        return QuadraticReal(-poly.coefficient(0), 0)
    if poly.degree != 2:
        return None
    b, c = poly.coefficient(1), poly.coefficient(0)
    disc = b * b - 4 * c
    m, d = _square_free_split(disc)
    # the dominant eigenvalue is the larger root, so the surd term is +
    return QuadraticReal(Fraction(-b, 2), Fraction(m, 2), d)


@dataclass(frozen=True)
class LengthAssignment:
    """Tile length per letter; natural lengths are the letter frequencies up
    to scale, not self-similar lengths (`natural_lengths_of`)."""

    by_letter: dict[str, TileLength]
    exact: bool
    radicand: Optional[int] = None

    def __post_init__(self):
        for letter, value in self.by_letter.items():
            if value <= 0:
                raise ValueError(f"length of {letter!r} must be positive")


def _length_map(lengths) -> dict[str, TileLength]:
    if isinstance(lengths, LengthAssignment):
        return lengths.by_letter
    return dict(lengths)


def _kernel_vector(rows: list[list]) -> list:
    """Nonzero kernel vector of a square matrix over a field, by full
    row reduction; the kernel must be one-dimensional."""
    k = len(rows)
    rows = [list(r) for r in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    free = [c for c in range(k) if c not in pivot_of_col]
    if len(free) != 1:
        raise ArithmeticError(f"kernel dimension {len(free)}, expected 1")
    f = free[0]
    vec: list = [Fraction(0)] * k
    vec[f] = Fraction(1)
    for c, i in pivot_of_col.items():
        vec[c] = -rows[i][f]
    return vec


def natural_lengths(s: Substitution) -> LengthAssignment:
    """`natural_lengths_of` on a fresh `Analysis(s)`."""
    return natural_lengths_of(Analysis(s))


def natural_lengths_of(analysis: Analysis) -> LengthAssignment:
    """Left eigenvector g.M = lambda g of the substitution matrix for the
    dominant eigenvalue, normalized so the last letter's tile has length 1:
    the letter frequencies up to scale, not self-similar lengths."""
    s, matrix = analysis.substitution, analysis.matrix
    data = analysis.pf  # raises NotPrimitiveError
    k = matrix.k
    lam = pf_as_quadratic(data)
    if lam is not None:
        # left eigenvector: transpose, subtract lambda on the diagonal;
        # entries live in Fraction or QuadraticReal, never bare int
        rows = [
            [Fraction(matrix.rows[j][i]) - (lam if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
        vec = _kernel_vector(rows)
        last = vec[-1]
        vec = [x / last for x in vec]
        surds = [x.d for x in vec if isinstance(x, QuadraticReal) and not x.is_rational]
        radicand = surds[0] if surds else None
        if radicand is None:
            vec = [x.a if isinstance(x, QuadraticReal) else x for x in vec]
        return LengthAssignment(dict(zip(s.alphabet, vec)), exact=True, radicand=radicand)
    return _approximate_lengths(s, matrix)


def _approximate_lengths(s, matrix) -> LengthAssignment:
    """300 steps of power iteration in exact integers, normalized so the last
    letter's tile has length 1; the result is flagged approximate."""
    k = matrix.k
    vec = [1] * k
    for _ in range(300):
        vec = [sum(vec[i] * matrix.rows[i][j] for i in range(k)) for j in range(k)]
    last = vec[-1]
    values = [Fraction(x, last) for x in vec]
    return LengthAssignment(dict(zip(s.alphabet, values)), exact=False)


def endpoint_sequence(
    s: Substitution, seed: FixedPointSeed, lengths, n: int
) -> list[TileLength]:
    """t_0 = 0 and t_{m+1} = t_m + length of the m-th tile; n+1 values."""
    return _endpoints(s, lengths, Analysis(s, seed).prefix(n))


def _endpoints(s: Substitution, lengths, prefix: str) -> list[TileLength]:
    """The endpoints of `prefix` as values, from `_endpoint_sums`."""
    c, d, ps, qs = _endpoint_sums(s, lengths, prefix)
    if d is None:
        return list(map(Fraction, ps, repeat(c)))
    return list(map(_make, ps, qs, repeat(c), repeat(d)))


def _endpoint_sums(s: Substitution, lengths, prefix: str):
    """(c, d, ps, qs): endpoint m of `prefix` is (ps[m] + qs[m]*sqrt(d)) / c,
    with c the lcm of the lengths' denominators and d None when every length
    is rational.  ps and qs are integer prefix sums, accumulated in C."""
    c, d, p_of, q_of = _scaled_lengths(_checked_lengths(s, lengths))
    ps = list(accumulate(map(p_of.__getitem__, prefix), initial=0))
    qs = list(accumulate(map(q_of.__getitem__, prefix), initial=0))
    return c, d, ps, qs


def _scaled_lengths(table: dict):
    """(c, d, p_of, q_of): the length of letter a is
    (p_of[a] + q_of[a]*sqrt(d)) / c over the one common denominator c."""
    forms = {a: _int_form(x) for a, x in table.items()}
    c = lcm(*(f[2] for f in forms.values()))
    radicands = {f[3] for f in forms.values() if f[1]}
    if len(radicands) > 1:
        raise ValueError(f"mixed radicands {sorted(radicands)}")
    d = radicands.pop() if radicands else None
    p_of = {a: p * (c // ca) for a, (p, _, ca, _) in forms.items()}
    q_of = {a: q * (c // ca) for a, (_, q, ca, _) in forms.items()}
    return c, d, p_of, q_of


def _checked_lengths(s: Substitution, lengths) -> dict[str, TileLength]:
    """The length map, once every letter has a positive length."""
    table = _length_map(lengths)
    for letter in s.alphabet:
        if letter not in table:
            raise ValueError(f"no length for letter {letter!r}")
        if table[letter] <= 0:
            raise ValueError(f"length of {letter!r} must be positive")
    return table


def _sums_ok(table: dict, prefix: str, ps: list, qs: list) -> bool:
    """(1 - X) * G = X * C_g on integer endpoint sums over `_scaled_lengths`:
    they start at 0 and step by the scaled length of each letter."""
    _, _, p_of, q_of = _scaled_lengths(table)
    return (
        len(ps) == len(qs) == len(prefix) + 1
        and ps[0] == qs[0] == 0
        and all(map(eq, map(sub, ps[1:], ps), map(p_of.__getitem__, prefix)))
        and all(map(eq, map(sub, qs[1:], qs), map(q_of.__getitem__, prefix)))
    )


@dataclass(frozen=True)
class TwoLetterClassification:
    """Exactly one of: equal tile lengths (rational with an explicit closed
    form), unequal lengths over an eventually periodic word (rational with a
    certificate), unequal lengths over an aperiodic word (transcendental),
    or inconclusive."""

    case: str  # "equal-lengths" | "periodic-rational" | "transcendental" | "inconclusive"
    shared_length: Optional[TileLength] = None
    numerator: Optional[ExactPolynomial] = None
    period: Optional[int] = None
    difference: Optional[TileLength] = None
    second_weight: Optional[TileLength] = None
    reason: Optional[str] = None
    verified: bool = False


def classify_two_letter(
    s: Substitution,
    seed: FixedPointSeed,
    lengths,
    bounds: tuple[int, int] = DEFAULT_BOUNDS,
) -> TwoLetterClassification:
    """`classify_two_letter_of` on a fresh `Analysis(s, seed, bounds)`."""
    return classify_two_letter_of(Analysis(s, seed, bounds), lengths)


def classify_two_letter_of(analysis: Analysis, lengths) -> TwoLetterClassification:
    """Classify with positive tile lengths; only the equal-lengths and
    periodic-rational cases check CHECK_ORDER endpoints against a closed
    form, on integer sums (`_on_line`)."""
    s = analysis.substitution
    if len(s.alphabet) != 2:
        raise WrongAlphabetSizeError("classification requires exactly two letters")
    table = _checked_lengths(s, lengths)
    first, second = s.alphabet
    g1, g2 = table[first], table[second]
    if g1 == g2:
        # g1 - g2 = 0, so endpoint n is n * g1 whatever the counts
        zeros = [0] * (CHECK_ORDER + 1)
        ok = _on_line(s, table, analysis.prefix(CHECK_ORDER), zeros)
        return TwoLetterClassification(
            "equal-lengths", shared_length=g1, verified=ok
        )
    verdict = analysis.verdict
    if isinstance(verdict, EventuallyPeriodic):
        form = series_verdict_of(analysis, first).form
        # G = difference * X * P / ((1-X)(1-X^d)) + second * X / (1-X)^2
        expanded = RationalForm(form.numerator, form.period, 1).expand(CHECK_ORDER)
        counts = [0, *expanded.coefficients[:CHECK_ORDER]]
        return TwoLetterClassification(
            "periodic-rational",
            numerator=form.numerator,
            period=form.period,
            difference=g1 - g2,
            second_weight=g2,
            verified=_on_line(s, table, analysis.prefix(CHECK_ORDER), counts),
        )
    if isinstance(verdict, AperiodicByIrrationalPF):
        return TwoLetterClassification(
            "transcendental",
            difference=g1 - g2,
            second_weight=g2,
            reason="aperiodic-word-with-unequal-algebraic-lengths",
            verified=True,
        )
    return TwoLetterClassification("inconclusive", verified=False)


def _on_line(s: Substitution, table: dict, prefix: str, counts: list) -> bool:
    """Whether endpoint n of `prefix` is counts[n] * (g1 - g2) + n * g2 for
    every n, with g1 and g2 the lengths of the first and second letter.
    Both sides are scaled by the common denominator c of `_scaled_lengths`,
    where (p + q*sqrt(d)) / c has one integer form, so the check compares
    the integer sums ps and qs of `_endpoint_sums` with integers."""
    _, _, ps, qs = _endpoint_sums(s, table, prefix)
    _, _, p_of, q_of = _scaled_lengths(table)
    first, second = s.alphabet
    for sums, of in ((ps, p_of), (qs, q_of)):
        diff, step = of[first] - of[second], of[second]
        if sums != [e * diff + n * step for n, e in enumerate(counts)]:
            return False
    return True
