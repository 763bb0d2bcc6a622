"""Substitutions on finite alphabets: rule parsing, substitution matrices,
primitivity, Perron-Frobenius data, one-sided fixed words, and the
aperiodicity verdict.

`Analysis` derives each of these facts once, on first use, together with
the shared fixed-word prefix and letter positions, the letters whose
frequency is irrational and each other letter's proved period witness.

Letters are single characters from [A-Za-z0-9]; words are plain strings.
All values but an `Analysis` are immutable after construction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .errors import (
    DuplicateRuleError,
    EmptyImageError,
    NoGrowingFixedPointError,
    NotPrimitiveError,
    RuleSyntaxError,
    TooLargeError,
    UnknownLetterError,
    WrongAlphabetSizeError,
)
from .factoring import irreducible_factors
from .periodicity import PeriodWitness, detect_period
from .polynomials import ExactPolynomial, _primitive
from .realroots import (
    RootIsolator,
    isolate_max_root,
    locate_max_root,
    separate_max_root,
)

_LETTER = re.compile(r"[A-Za-z0-9]")


@dataclass(frozen=True)
class Substitution:
    """Map letter -> non-empty word, extended to words by concatenation.
    `alphabet` holds distinct single-character letters, in the order that
    fixes matrix indexing; `images[i]` is the image of `alphabet[i]`."""

    alphabet: tuple[str, ...]
    images: tuple[str, ...]

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("alphabet must contain at least one letter")
        for i, ch in enumerate(self.alphabet):
            if len(ch) != 1 or not _LETTER.fullmatch(ch):
                raise ValueError(f"invalid letter {ch!r}")
            if ch in self.alphabet[:i]:
                raise ValueError(f"duplicate letter {ch!r}")
        if len(self.images) != len(self.alphabet):
            raise ValueError("one image per letter required")
        for letter, image in zip(self.alphabet, self.images):
            if not image:
                raise ValueError(f"empty image for {letter!r}")
            for ch in image:
                if ch not in self.alphabet:
                    raise ValueError(f"image of {letter!r} uses unknown letter {ch!r}")

    @classmethod
    def from_rules(cls, rules: dict[str, str]) -> Substitution:
        return cls(tuple(rules), tuple(rules.values()))

    @cached_property
    def rules(self) -> Mapping[str, str]:
        """letter -> image in alphabet order: the one rule table, built on
        first use and shared read-only."""
        return MappingProxyType(dict(zip(self.alphabet, self.images)))

    def __reduce__(self):  # the cached table is a mappingproxy, which cannot be pickled
        return Substitution, (self.alphabet, self.images)

    def apply_power(self, word: str, m: int) -> str:
        for _ in range(m):
            word = "".join(map(self.rules.__getitem__, word))
        return word

    def image_lengths(self, m: int) -> dict[str, int]:
        """|sigma^m(letter)| for every letter, via length vectors (no words
        are expanded)."""
        lengths = {a: 1 for a in self.alphabet}
        for _ in range(m):
            lengths = {
                a: sum(lengths[b] for b in image) for a, image in self.rules.items()
            }
        return lengths


def parse_substitution(text: str) -> Substitution:
    """Parse rule text, one `<letter> -> <image>` per line.

    Blank lines are ignored and `#` starts a comment.  The alphabet is the
    set of left-hand sides in order of first appearance.
    """
    rules: dict[str, str] = {}
    image_spans: list[tuple[str, str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "->" not in line:
            raise RuleSyntaxError("expected '<letter> -> <image>'", lineno, 1)
        left, right = line.split("->", 1)
        lhs = left.strip()
        lhs_col = len(left) - len(left.lstrip()) + 1
        if len(lhs) != 1 or not _LETTER.fullmatch(lhs):
            raise RuleSyntaxError(
                f"left side must be a single letter, got {lhs!r}", lineno, lhs_col
            )
        if lhs in rules:
            raise DuplicateRuleError(f"duplicate rule for {lhs!r}", lineno, lhs_col)
        image = right.strip()
        image_col = line.index("->") + 3 + (len(right) - len(right.lstrip()))
        if not image:
            raise EmptyImageError(
                f"empty image for {lhs!r}; images must be non-empty", lineno, image_col
            )
        for i, ch in enumerate(image):
            if not _LETTER.fullmatch(ch):
                raise RuleSyntaxError(
                    f"image must be a contiguous string of letters, got {ch!r}",
                    lineno,
                    image_col + i,
                )
        rules[lhs] = image
        image_spans.append((lhs, image, lineno, image_col))
    if not rules:
        raise RuleSyntaxError("no rules found", 1, 1)
    for lhs, image, lineno, col in image_spans:
        for i, ch in enumerate(image):
            if ch not in rules:
                raise UnknownLetterError(
                    f"image of {lhs!r} uses {ch!r}, which has no rule",
                    lineno,
                    col + i,
                )
    return Substitution.from_rules(rules)


@dataclass(frozen=True)
class SubstitutionMatrix:
    """Non-negative integer matrix; entry (i, j) counts letter j in the image
    of letter i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.rows)
        for row in self.rows:
            if len(row) != k:
                raise ValueError("matrix must be square")
            if any(e < 0 for e in row):
                raise ValueError("entries must be non-negative")
            if sum(row) < 1:
                raise ValueError("every row must sum to at least 1")

    @property
    def k(self) -> int:
        return len(self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


def substitution_matrix(s: Substitution) -> SubstitutionMatrix:
    return SubstitutionMatrix(
        tuple(
            tuple(image.count(b) for b in s.alphabet) for image in s.images
        )
    )


def is_primitive(m: SubstitutionMatrix) -> Optional[int]:
    """Smallest power making the matrix entrywise positive, or None.

    Uses boolean reachability (rows as bitmasks) up to the bound
    (k-1)*k + 1, which suffices for primitive non-negative matrices.
    """
    k = m.k
    base = [sum(1 << j for j, e in enumerate(row) if e) for row in m.rows]
    full = (1 << k) - 1
    cur = list(base)
    for power in range(1, (k - 1) * k + 2):
        if all(r == full for r in cur):
            return power
        nxt = []
        for row in cur:
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc |= base[j]
                row >>= 1
                j += 1
            nxt.append(acc)
        cur = nxt
    return None


def characteristic_polynomial(m: SubstitutionMatrix) -> ExactPolynomial:
    """det(X*I - A), monic with integer coefficients, by the
    Faddeev-LeVerrier trace recurrence in integers: every M_k is an integer
    matrix, so every c_k = -tr(A*M_k)/k is an exact integer quotient."""
    k = m.k
    a = m.rows
    work = [[int(i == j) for j in range(k)] for i in range(k)]
    coeffs = [0] * k + [1]
    for step in range(1, k + 1):
        prod = [
            [sum(a[i][t] * work[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)
        ]
        c, rem = divmod(-sum(prod[i][i] for i in range(k)), step)
        assert rem == 0
        coeffs[k - step] = c
        work = [
            [prod[i][j] + (c if i == j else 0) for j in range(k)] for i in range(k)
        ]
    return ExactPolynomial(coeffs)


@dataclass(frozen=True)
class PFData:
    """Perron-Frobenius data of a primitive substitution matrix."""

    char_poly: ExactPolynomial
    min_poly_of_pf: ExactPolynomial
    pf_lower: Fraction
    pf_upper: Fraction
    is_rational: bool


_PF_WIDTH = Fraction(1, 10**12)


def _pf_estimate(coeffs, upper: int) -> float:
    """Newton's method in floats on the characteristic polynomial (integer
    coefficients, constant term first) from `upper`, above every eigenvalue:
    each step stays above lambda, since every other eigenvalue has real part
    below the iterate, so the iterates fall to lambda.  An estimate only; nan
    or a wrong value when floats overflow or lose the root."""
    x = float(upper)
    try:
        for _ in range(200):
            p = dp = 0.0
            for c in reversed(coeffs):
                dp = dp * x + p
                p = p * x + c
            nxt = x - p / dp
            if not nxt < x:
                break
            x = nxt
    except (OverflowError, ZeroDivisionError):
        return float("nan")
    return x


def pf_data(m: SubstitutionMatrix, _witness: Optional[int] = None) -> PFData:
    """Characteristic polynomial, minimal polynomial of the dominant
    eigenvalue, and a rational enclosure of it with width <= 1e-12.
    `_witness` is m's primitivity witness when the caller already has it."""
    if (_witness or is_primitive(m)) is None:
        raise NotPrimitiveError("matrix is not primitive")
    char = characteristic_polynomial(m)
    roots = RootIsolator(char)
    # the dominant eigenvalue lies in [1, max row sum]; rational roots of a
    # monic integer polynomial are integers, so no root can sit at 1/2.
    # Every other eigenvalue has modulus < lambda < v, so the disc on
    # (v, upper) holds no root and its Descartes count is 0 (the one-circle
    # theorem): the estimate's cell is proved unless the estimate misses it,
    # and a miss bisects to the same cell
    upper = max(m.row_sums()) + 1
    bounds = (Fraction(1, 2), upper, _PF_WIDTH / 2)
    estimate = _pf_estimate(char.coefficients, upper)
    lo, hi = locate_max_root(roots, *bounds, estimate) or isolate_max_root(roots, *bounds)
    lo, hi = separate_max_root(roots, lo, hi)
    # the dominant eigenvalue is a simple root of char and its only root in
    # (lo, hi], so exactly the irreducible factor vanishing there changes
    # sign across the bracket; a factor vanishing at lo is X - lo itself.
    # Bisection asks only whether the largest root lies above a midpoint,
    # the same question for char and that factor: the bracket is its enclosure.
    candidates = [
        f
        for f in map(ExactPolynomial, irreducible_factors(list(char.coefficients)))
        if f.sign_at(lo) not in (0, f.sign_at(hi))
    ]
    if len(candidates) != 1:
        raise AssertionError("dominant root not isolated to a unique factor")
    min_poly = candidates[0]
    if min_poly.degree == 1:
        root = -min_poly.coefficient(0)
        half = _PF_WIDTH / 4
        lo, hi = root - half, root + half
    assert min_poly.sign_at(lo) * min_poly.sign_at(hi) < 0
    return PFData(
        char_poly=char,
        min_poly_of_pf=min_poly,
        pf_lower=lo,
        pf_upper=hi,
        is_rational=min_poly.degree == 1,
    )


@dataclass(frozen=True)
class FixedPointSeed:
    """sigma**power fixes an infinite word starting at start_letter."""

    power: int
    start_letter: str


def fixed_point_seed(
    s: Substitution, _witness: Optional[int] = None
) -> FixedPointSeed:
    """Seed with the smallest power, ties broken by alphabet order.
    `_witness` is s's primitivity witness when the caller already has it."""
    if (_witness or is_primitive(substitution_matrix(s))) is None:
        raise NotPrimitiveError("substitution is not primitive")
    k = len(s.alphabet)
    first = {a: image[0] for a, image in s.rules.items()}
    lengths = {a: 1 for a in s.alphabet}
    heads = {a: a for a in s.alphabet}
    bound = k * ((k - 1) * k + 1)
    for power in range(1, bound + 1):
        heads = {a: first[heads[a]] for a in s.alphabet}
        lengths = {a: sum(lengths[b] for b in image) for a, image in s.rules.items()}
        for a in s.alphabet:
            if heads[a] == a and lengths[a] >= 2:
                return FixedPointSeed(power, a)
    raise NoGrowingFixedPointError("no growing fixed point exists")


_WHOLE = 1 << 16  # longest block above level 1 that `Analysis.prefix` appends whole


def fixed_word_prefix(s: Substitution, seed: FixedPointSeed, n: int) -> str:
    """`Analysis.prefix` on a fresh `Analysis(s, seed)`."""
    return Analysis(s, seed).prefix(n)


def gap_bound(s: Substitution) -> int:
    """Upper bound for the gap between successive copies of any letter in a
    fixed word: twice the longest image length at the primitivity witness."""
    witness = is_primitive(substitution_matrix(s))
    if witness is None:
        raise NotPrimitiveError("substitution is not primitive")
    if len(s.alphabet) < 2:
        raise WrongAlphabetSizeError("gap bound needs at least two letters")
    return 2 * max(s.image_lengths(witness).values())


@dataclass(frozen=True)
class AperiodicByIrrationalPF:
    """The dominant eigenvalue is irrational, which forces aperiodicity of
    every fixed word of a primitive substitution."""


@dataclass(frozen=True)
class EventuallyPeriodic:
    preperiod: int
    period: int


@dataclass(frozen=True)
class InconclusiveUpTo:
    preperiod_bound: int
    period_bound: int


AperiodicityVerdict = Union[AperiodicByIrrationalPF, EventuallyPeriodic, InconclusiveUpTo]


DEFAULT_BOUNDS = (1000, 200)  # (max preperiod, max period) of every search
# The one limit on the letters an Analysis reads.  A read the user asks for
# raises TooLargeError past it, before anything is built: a prefix of the
# fixed word (`expand --n`, the orders of `series` and `geom`,
# `fibonacci.supertile_word`), a position series through its last occurrence
# (`Analysis.position`), and the 2 * max_period letters of the search at the
# max period (refused in `Analysis.__init__`).  A read a decision needs
# leaves the letter undecided past it instead: the span pos[1 + max_period]
# (`Analysis.position` is None), the 2 * B letters of the search at a span
# B (`Analysis.period`), and the sum of block(b) + block(c) over the pairs
# of a period proof (`Analysis.has_period` is None).
MAX_EXTENDED_LETTERS = 10**7


def aperiodicity_verdict(
    s: Substitution,
    prefix_bound: int = DEFAULT_BOUNDS[0],
    period_bound: int = DEFAULT_BOUNDS[1],
) -> AperiodicityVerdict:
    """`Analysis.verdict` for the fixed word of `fixed_point_seed(s)`."""
    return Analysis(s, None, (prefix_bound, period_bound)).verdict


def _rank(vectors: list[list[int]]) -> int:
    """Rank over Q of integer vectors, by fraction-free elimination."""
    rank, rows = 0, vectors
    while rows:
        row, *rows = rows
        j = next((j for j, x in enumerate(row) if x), None)
        if j is not None:
            rank += 1
            rows = [_primitive([row[j] * x - r[j] * y for x, y in zip(r, row)])
                    for r in rows]
    return rank


def _zero_one(word: str, letter: str) -> bytes:
    """The letter's 0/1 indicator over the word, one byte (0 or 1) per
    letter, by one `bytes.translate`: words are ASCII, since letters are.
    `detect_period` reads it as ids as it is; the position series reads its
    1s by `compress`."""
    table = bytearray(256)
    table[ord(letter)] = 1
    return word.encode("ascii").translate(table)


class Analysis:
    """The facts derived from a substitution, a seed (by default
    `fixed_point_seed`) and bounds (max preperiod, max period), each on first
    use.  Words come from the blocks sigma**(p*j)(b), p the seed's power,
    each joined at most once from the blocks of its image one level down
    (`_block`); lengths, letter counts and positions come from integer
    count tables.  Past MAX_EXTENDED_LETTERS a read asked for raises, and a
    read a period decision needs leaves the letter undecided."""

    def __init__(self, s: Substitution, seed=None, bounds=DEFAULT_BOUNDS):
        self.substitution, self.bounds, self._seed = s, bounds, seed
        if bounds[0] < 0 or bounds[1] < 1:
            raise ValueError("bounds must satisfy max_preperiod >= 0, max_period >= 1")
        if 2 * bounds[1] > MAX_EXTENDED_LETTERS:
            raise TooLargeError(
                f"period search over {2 * bounds[1]} letters exceeds the "
                f"limit of {MAX_EXTENDED_LETTERS}"
            )
        self._period: dict[tuple[str, int], Optional[int]] = {}
        self._count_levels: dict[Optional[str], list[dict[str, int]]] = {}  # of `_counts`

    @cached_property
    def matrix(self) -> SubstitutionMatrix:
        return substitution_matrix(self.substitution)

    @cached_property
    def primitivity_witness(self) -> Optional[int]:
        return is_primitive(self.matrix)

    @cached_property
    def pf(self) -> PFData:
        return pf_data(self.matrix, self.primitivity_witness)

    @cached_property
    def seed(self) -> FixedPointSeed:
        if self._seed:
            return self._seed
        return fixed_point_seed(self.substitution, self.primitivity_witness)

    @cached_property
    def power_table(self) -> dict[str, str]:
        """sigma**p of every letter, p the seed's power."""
        s, p = self.substitution, self.seed.power
        return {a: s.apply_power(a, p) for a in s.alphabet}

    @cached_property
    def _block_levels(self) -> list[dict[str, str]]:
        """Level j: letter b -> sigma**(p*j)(b), blocks built on demand."""
        return [{a: a for a in self.power_table}, self.power_table]

    def _counts(self, level: int, letter: Optional[str] = None) -> dict[str, int]:
        """The count of `letter` in sigma**(p*level)(b) for every letter b, or
        with no letter its length (the table whose level 0 is all ones), each
        level the sums over the images of the level below, kept."""
        table = self.power_table
        if letter not in self._count_levels:
            self._count_levels[letter] = [{b: int(letter in (None, b)) for b in table}]
        levels = self._count_levels[letter]
        while len(levels) <= level:
            below = levels[-1]
            levels.append({a: sum(map(below.__getitem__, w)) for a, w in table.items()})
        return levels[level]

    def _build(self, letter: str, level: int) -> None:
        """Join sigma**(p*level)(letter) from the blocks of its image one
        level down, which must be built."""
        blocks, image = self._block_levels, self.power_table[letter]
        blocks[level][letter] = "".join(map(blocks[level - 1].__getitem__, image))

    def _block(self, letter: str, level: int) -> str:
        """sigma**(p*level)(letter), built with every missing block below it
        that it is joined from, each once; by an explicit stack, since
        slow-growing rules can need hundreds of levels."""
        blocks, table = self._block_levels, self.power_table
        while len(blocks) <= level:
            blocks.append({})
        stack = [(letter, level)]
        while stack:
            a, j = stack[-1]
            if a in blocks[j]:
                stack.pop()
                continue
            below = blocks[j - 1]
            missing = [(b, j - 1) for b in dict.fromkeys(table[a]) if b not in below]
            if missing:
                stack += missing
            else:
                self._build(a, j)
                stack.pop()
        return blocks[level][letter]

    def _start(self) -> str:
        """The seed's letter a0, checked to begin a longer sigma**p(a0)."""
        a, table = self.seed.start_letter, self.power_table
        if not table[a].startswith(a) or len(table[a]) < 2:
            raise ValueError("invalid seed for this substitution")
        return a

    def prefix(self, n: int) -> str:
        """The first n letters of the fixed word; checks the seed even if n = 0.

        x begins with sigma**(p*K)(a0) for the least K with
        |sigma**(p*K)(a0)| >= n, found from the size tables.  The walk reads
        that block's tree left to right: a block that fits in what is left
        is appended whole if it is a letter, a sigma**p image or at most
        _WHOLE letters long, and is otherwise replaced by the blocks of its
        image one level down, so the walk descends into the one block that
        crosses n.  No block a prefix builds is longer than _WHOLE, so memory
        is the n letters and a memo of short blocks, however far another
        letter's blocks outgrow the seed's."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n > MAX_EXTENDED_LETTERS:
            raise TooLargeError(
                f"prefix of {n} letters exceeds the limit of {MAX_EXTENDED_LETTERS}"
            )
        a, table = self._start(), self.power_table
        if not n:
            return ""
        level = 0
        while self._counts(level)[a] < n:
            level += 1
        parts, left, stack = [], n, [(iter(a), level)]
        while left:
            letters, j = stack[-1]
            b = next(letters, None)
            if b is None:
                stack.pop()
            elif (size := self._counts(j)[b]) <= left and (j <= 1 or size <= _WHOLE):
                parts.append(self._block(b, j))
                left -= size
            else:
                stack.append((iter(table[b]), j - 1))
        return "".join(parts)

    def position(self, letter: str, n: int) -> Optional[int]:
        """The index in x of the n-th occurrence (n >= 1) of a letter, or None
        past MAX_EXTENDED_LETTERS, from the count tables alone: below the
        least K whose sigma**(p*K)(a0) holds n, blocks holding fewer than are
        left are passed over, and the first that holds the rest is replaced
        by the blocks of its image one level down, to the letter itself."""
        if n < 1:
            raise ValueError("occurrence number must be >= 1")
        a, table = self._start(), self.power_table
        level = 0
        while self._counts(level, letter)[a] < n:
            if self._counts(level)[a] >= MAX_EXTENDED_LETTERS:
                return None
            level += 1
        left, index, word = n, 0, a
        for j in range(level, -1, -1):
            counts, sizes = self._counts(j, letter), self._counts(j)
            for b in word:
                if counts[b] >= left:
                    break
                left -= counts[b]
                index += sizes[b]
            word = table[b]
        return index if index < MAX_EXTENDED_LETTERS else None

    def indicator(self, letter: str, n: int) -> bytes:
        """The letter's `_zero_one` bytes over the first n letters."""
        return _zero_one(self.prefix(n), letter)

    @cached_property
    def pairs(self) -> set[str]:
        """The 2-letter factors of x = sigma**p(x): those inside each
        sigma**p(a), closed under bc -> the last letter of sigma**p(b) and the
        first of sigma**p(c), the one other factor of sigma**p(bc)."""
        t = self.power_table
        pairs, new = set(), {w[i : i + 2] for w in t.values() for i in range(len(w) - 1)}
        while new:
            pairs |= new
            new = {t[b][-1] + t[c][0] for b, c in new} - pairs
        return pairs

    def has_period(self, letter: str, d: int) -> Optional[bool]:
        """Whether the letter's 0/1 indicator over all of x has period d, or
        None if the proof would read more than MAX_EXTENDED_LETTERS letters:
        not decided within the limit.  A primitive x is uniformly recurrent,
        and once every block sigma**(p*j)(a) has d letters each (d + 1)-letter
        factor of x lies in block(b) + block(c) for a pair bc, so checking
        those pairs is a proof."""
        if self.primitivity_witness is None:
            raise NotPrimitiveError("substitution is not primitive")
        level = 0
        while min(self._counts(level).values()) < d:
            level += 1
        sizes = self._counts(level)
        if sum(sizes[b] + sizes[c] for b, c in self.pairs) > MAX_EXTENDED_LETTERS:
            return None
        ones = {a: _zero_one(self._block(a, level), letter) for a in sizes}
        return all((u := ones[b] + ones[c])[d:] == u[:-d] for b, c in self.pairs)

    @cached_property
    def irrational_letters(self) -> frozenset[str]:
        """The letters of a primitive substitution whose frequency is
        irrational.  The frequencies are the left PF eigenvector f with
        f.1 = 1 (Queffelec, LNM 1294, ch. 5), so f = sum of lambda**i * w_i
        over i < deg q, q the minimal polynomial of lambda, with rational w_i;
        the left kernel of C = q(M) has the basis w_i, and its part with
        v.1 = 0 has the basis w_i, i >= 1.  So f_a is rational iff v_a = 0 on
        that part, that is iff rank[C | 1 | e_a] = rank[C | 1]."""
        if self.primitivity_witness is None or self.pf.is_rational:
            return frozenset()
        rows, k = self.matrix.rows, self.matrix.k
        c = [[0] * k for _ in range(k)]
        for coeff in reversed(self.pf.min_poly_of_pf.coefficients):  # Horner
            c = [[sum(map(mul, row, col)) + coeff * (i == j)
                  for j, col in enumerate(zip(*rows))] for i, row in enumerate(c)]
        columns = [*map(list, zip(*c)), [1] * k]
        full = _rank(columns)
        return frozenset(
            a for i, a in enumerate(self.substitution.alphabet)
            if _rank([*columns, [int(i == j) for j in range(k)]]) > full
        )

    def period(self, letter: str, bound: int) -> Optional[int]:
        """The minimal period D <= bound of the letter's indicator over all
        of x, or None: `detect_period` over its first 2 * bound letters,
        kept if `has_period` proves it.  An eventually periodic indicator over
        a uniformly recurrent word is purely periodic, so by Fine and Wilf the
        search returns D itself.  A periodic 0/1 sequence has a rational
        frequency, so the irrational letters are not searched; nor is a bound
        whose 2 * bound letters pass MAX_EXTENDED_LETTERS, and a D whose proof
        would pass it is not kept.  The proof reads at least 4 * D letters,
        since its blocks have >= D letters each and a primitive word on k >= 2
        letters has two 2-letter factors (for k = 1, D = 1), so the 3 * D
        letters of `genfun`'s certificates fit whenever the proof does."""
        if (letter, bound) not in self._period:
            w = None
            if letter not in self.irrational_letters and 2 * bound <= MAX_EXTENDED_LETTERS:
                w = detect_period(self.indicator(letter, 2 * bound), 0, bound)
            proved = w and self.has_period(letter, w.period)
            self._period[letter, bound] = w.period if proved else None
        return self._period[letter, bound]

    def witness(self, letter: str) -> Optional[PeriodWitness]:
        """The witness (0, D) of `period` at the max period, or None."""
        d = self.period(letter, self.bounds[1])
        return None if d is None else PeriodWitness(0, d)

    @cached_property
    def verdict(self) -> AperiodicityVerdict:
        """An irrational dominant eigenvalue proves aperiodicity.  Otherwise
        x has period d iff every letter's indicator does: the lcm of the proved
        letter periods, if within bounds; else inconclusive, not aperiodic."""
        if not self.pf.is_rational:
            return AperiodicByIrrationalPF()
        ws = [self.witness(a) for a in self.substitution.alphabet]
        if all(ws) and (d := lcm(*(w.period for w in ws))) <= self.bounds[1]:
            return EventuallyPeriodic(0, d)
        return InconclusiveUpTo(*self.bounds)
