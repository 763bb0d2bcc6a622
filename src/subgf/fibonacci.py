"""Supertile structure of the Fibonacci substitution a -> ab, b -> a.

Level-3n supertiles pair up into three block types (AB, AA, BA) whose
lengths are even, so the fixed word decomposes into blocks starting at even
offsets.  The indicator polynomials of the three blocks satisfy an explicit
recursion, and certified root-free intervals for them near -1 bound the
roots of the full characteristic generating function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import NoRootInIntervalError, TooLargeError
from .genfun import _level_table, char_series
from .polynomials import ExactPolynomial
from .realroots import (
    ExclusionCertificate,
    RootIsolator,
    _root_free_certificate,
    isolate_max_root,
)
from .substitutions import (
    MAX_EXTENDED_LETTERS,
    FixedPointSeed,
    Substitution,
    fixed_word_prefix,
)

FIBONACCI = Substitution.from_rules({"a": "ab", "b": "a"})
FIBONACCI_SEED = FixedPointSeed(1, "a")
# labels of the pairs at even offsets of the fixed word (bb never occurs)
PAIR_LABELS = {"ab": "R", "aa": "S", "ba": "T"}

# pair polynomials grow like (2+sqrt(5))**n: degrees ~3e3 at level 5 and
# ~1.1e4 at 6.  On a 2-vCPU VM with pure-Python integers, `roots --level 5`
# takes about 1.7 s and level 6 about 100 s at 60 MB, so level 6 is refused
MAX_PAIR_LEVEL = 5
# a finer tolerance costs more bisection steps on longer rationals: at
# 1e-30 `roots --level 4` takes 0.3 s and level 5 3.9 s, and below this
# floor level 4 would take 1.0 s at 1e-60 and 3.7 s at 1e-100 (same VM).
# A tolerance of 1 or more stops at the bracket (-1, 0], alpha_hat = 0, and
# would certify the empty (0, 0)
MIN_TOLERANCE = Fraction(1, 10**30)


def supertile_word(n: int, which: str = "A") -> str:
    """sigma**n applied to a (which='A') or to b (which='B'): the fixed
    word's prefix of |sigma**n(a)| letters, and sigma**n(b) = sigma**(n-1)(a)
    for n >= 1, so both are held to the prefix limit.  The lengths stop
    growing once both pass it, so a large level is refused at once."""
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        return which.lower()
    a, b = 1, 1  # |sigma**k(a)|, |sigma**k(b)|
    for _ in range(n):
        if b > MAX_EXTENDED_LETTERS:
            break
        a, b = a + b, a
    return fixed_word_prefix(FIBONACCI, FIBONACCI_SEED, a if which == "A" else b)


@dataclass(frozen=True)
class SupertilePolys:
    """Indicator polynomials of the letter a over the three level-n pair
    blocks, with their lengths."""

    level: int
    poly_r: ExactPolynomial
    poly_s: ExactPolynomial
    poly_t: ExactPolynomial
    len_r: int
    len_s: int
    len_t: int

    def by_label(self) -> dict[str, ExactPolynomial]:
        return {"R": self.poly_r, "S": self.poly_s, "T": self.poly_t}


def _pair_code(s: Substitution, m: int, first: str) -> dict[str, list[str]]:
    """The substitution induced on the pairs at even offsets of s's fixed
    word x: each pair uv maps to the pairs of sigma**m(uv), closed from x's
    first pair `first`.  Precondition: every |sigma**m(letter)| is odd, so
    each sigma**m(uv) has even length and the blocks sigma**(m*n)(uv) follow
    the pairs of x = sigma**(m*n)(x)."""
    code: dict[str, list[str]] = {}
    todo = [first]
    while todo:
        pair = todo.pop(0)
        if pair not in code:
            word = s.apply_power(pair, m)
            code[pair] = [word[i : i + 2] for i in range(0, len(word), 2)]
            todo += code[pair]
    return code


def _pair_lists(n: int) -> list[list[int]]:
    """Indicator lists of a over the level-n pair blocks R, S, T: each
    pair's own list carried n levels by the pair code of sigma**3
    (`genfun._level_table`), so no word is expanded beyond sigma**3 of a
    pair."""
    if n < 1:
        raise ValueError("pair level must be >= 1")
    if n > MAX_PAIR_LEVEL:
        raise TooLargeError(
            f"pair level {n} exceeds the supported range {MAX_PAIR_LEVEL}"
        )
    code = _pair_code(FIBONACCI, 3, "ab")
    base = {pair: [int(ch == "a") for ch in pair] for pair in code}
    lists = _level_table(code, base, n)
    return [lists[pair] for pair in PAIR_LABELS]


def pair_polynomials(n: int) -> SupertilePolys:
    """Pair polynomials at level n, over the blocks sigma**(3n) of ab, aa
    and ba (`_pair_lists`)."""
    lists = _pair_lists(n)
    return SupertilePolys(n, *map(ExactPolynomial, lists), *map(len, lists))


def block_sequence(limit: int) -> list[str]:
    """First `limit` pair-block labels of the fixed word, as 'R'/'S'/'T':
    the labels of its own first `limit` pairs."""
    word = fixed_word_prefix(FIBONACCI, FIBONACCI_SEED, 2 * limit)
    return [PAIR_LABELS[word[i : i + 2]] for i in range(0, 2 * limit, 2)]


def verify_decomposition(n: int, order: int) -> bool:
    """Check that the N-truncation of the letter-a series is reproduced by
    laying the level-n blocks along the block sequence, with every block
    offset even: every block has even length."""
    lists = _pair_lists(n)
    if any(len(block) % 2 for block in lists):
        return False
    table = dict(zip(PAIR_LABELS.values(), lists))
    labels = block_sequence(order // min(map(len, lists)) + 1)
    coeffs = list(chain.from_iterable(table[label] for label in labels))
    if len(coeffs) <= order:
        return False  # ran out of blocks
    target = char_series(FIBONACCI, FIBONACCI_SEED, "a", order)
    return coeffs[: order + 1] == list(target.coefficients)


@dataclass(frozen=True)
class PositivityBound:
    """Certified rational alpha_hat < 0 such that all three level-n pair
    polynomials are strictly positive on (alpha_hat, 0); by the even-offset
    decomposition this makes the characteristic series of a positive on
    (alpha_hat, 1)."""

    level: int
    alpha_hat: Fraction
    binding: str
    bracket: tuple[Fraction, Fraction]
    certificates: dict[str, ExclusionCertificate]


def positivity_bound(n: int, tolerance=Fraction(1, 10**8)) -> PositivityBound:
    """Locate the largest root in (-1, 0) among the three pair polynomials,
    return a rational upper bound within `tolerance`, and certify all three
    polynomials positive on (alpha_hat, 0) from the isolation's own counts."""
    tolerance = Fraction(tolerance)
    if not MIN_TOLERANCE <= tolerance < 1:
        raise ValueError(f"tolerance must lie in [{float(MIN_TOLERANCE):g}, 1)")
    polys = pair_polynomials(n)
    low, zero = Fraction(-1), Fraction(0)
    # a root exactly at -1 (the S blocks always have one) is outside the
    # open interval: divide it out, which keeps every sign on (-1, 0]
    isolators = {
        label: RootIsolator(p).without_root(low)
        for label, p in polys.by_label().items()
    }
    brackets: dict[str, tuple[Fraction, Fraction]] = {}
    for label, roots in isolators.items():
        if roots.count(low, zero, 1):
            brackets[label] = isolate_max_root(roots, low, zero, tolerance)
    if not brackets:
        raise NoRootInIntervalError(
            "no pair polynomial has a root in (-1, 0); the letter-a series "
            "would be positive on all of (-1, 1) - review before trusting"
        )
    while True:
        binding = max(brackets, key=lambda lb: brackets[lb][1])
        lo_b, hi_b = brackets[binding]
        overlapping = [
            lb
            for lb in brackets
            if lb != binding and brackets[lb][1] > lo_b
        ]
        if not overlapping:
            break
        # distinct real roots: shrink until the maximum is unambiguous
        for lb in overlapping + [binding]:
            u, v = brackets[lb]
            brackets[lb] = isolate_max_root(isolators[lb], u - tolerance, v, (v - u) / 4)
    alpha_hat = brackets[binding][1]
    # isolate_max_root left no root in (hi, 0] above each bracket (lo, hi],
    # and a polynomial without a bracket has none in (-1, 0]: so none of the
    # three has a root in (alpha_hat, 0), and one exact sign each proves
    # them positive there
    assert all(hi <= alpha_hat for _, hi in brackets.values())
    certificates = {
        label: _root_free_certificate(p, alpha_hat, zero)
        for label, p in polys.by_label().items()
    }
    return PositivityBound(
        level=n,
        alpha_hat=alpha_hat,
        binding=binding,
        bracket=brackets[binding],
        certificates=certificates,
    )
