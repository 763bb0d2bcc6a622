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
from itertools import islice

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
    FixedPointSeed,
    Substitution,
    fixed_point_seed,
    fixed_word,
)

FIBONACCI = Substitution.from_rules({"a": "ab", "b": "a"})
FIBONACCI_SEED = FixedPointSeed(1, "a")

MAX_SUPERTILE_LEVEL = 40
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


def fibonacci_numbers(count: int) -> list[int]:
    """f_1 = f_2 = 1, one-indexed: returns [f_1, ..., f_count]."""
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def supertile_word(n: int, which: str = "A") -> str:
    """sigma**n applied to a (which='A') or to b (which='B')."""
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    if n < 0:
        raise ValueError("level must be >= 0")
    if which == "B":
        return "b" if n == 0 else supertile_word(n - 1, "A")
    if n > MAX_SUPERTILE_LEVEL:
        raise TooLargeError(f"level {n} supertile would not fit in memory")
    prev, cur = "b", "a"
    for _ in range(n):
        prev, cur = cur, cur + prev
    return cur


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

    def lengths_by_label(self) -> dict[str, int]:
        return {"R": self.len_r, "S": self.len_s, "T": self.len_t}


def supertile_lengths(n: int) -> tuple[int, int, int]:
    """(|R_n|, |S_n|, |T_n|) = (f_{3n+3}, 2*f_{3n+2}, f_{3n+3})."""
    if n < 1:
        raise ValueError("pair level must be >= 1")
    fib = fibonacci_numbers(3 * n + 4)
    return fib[3 * n + 2], 2 * fib[3 * n + 1], fib[3 * n + 2]


def pair_polynomials(n: int) -> SupertilePolys:
    """Pair polynomials at level n: the level-1 blocks sigma**3(ab),
    sigma**3(aa) and sigma**3(ba) carried n - 1 levels by the induced
    substitution's block recursion

        R' = R S T T,   S' = R' R,   T' = R S T R

    (`genfun._level_table`), so words are never expanded beyond level 1."""
    if n < 1:
        raise ValueError("pair level must be >= 1")
    if n > MAX_PAIR_LEVEL:
        raise TooLargeError(
            f"pair level {n} exceeds the supported range {MAX_PAIR_LEVEL}"
        )
    base = {
        block: [int(ch == "a") for ch in FIBONACCI.apply_power(pair, 3)]
        for block, pair in zip("rst", ("ab", "aa", "ba"))
    }
    lists = _level_table(induced_three_letter_substitution(), base, n - 1)
    return SupertilePolys(
        n,
        *(ExactPolynomial(lists[b]) for b in "rst"),
        *(len(lists[b]) for b in "rst"),
    )


def induced_three_letter_substitution() -> Substitution:
    """Block-level substitution induced by the pair decomposition."""
    return Substitution.from_rules({"r": "rstt", "s": "rsttr", "t": "rstr"})


def block_sequence(limit: int):
    """First `limit` pair-block labels of the fixed word, as 'R'/'S'/'T'."""
    induced = induced_three_letter_substitution()
    seed = fixed_point_seed(induced)
    return [ch.upper() for ch in islice(fixed_word(induced, seed), limit)]


def verify_decomposition(n: int, order: int) -> bool:
    """Check that the N-truncation of the letter-a series is reproduced by
    laying the level-n blocks along the induced block sequence, with every
    block offset even."""
    polys = pair_polynomials(n)
    table = polys.by_label()
    lengths = polys.lengths_by_label()
    coeffs = [0] * (order + 1)
    offset = 0
    blocks_needed = order // min(lengths.values()) + 2
    for label in block_sequence(blocks_needed):
        if offset > order:
            break
        if offset % 2:
            return False
        for e, c in enumerate(table[label].coefficients):
            if c and offset + e <= order:
                coeffs[offset + e] = 1
        offset += lengths[label]
    if offset <= order:
        return False  # ran out of blocks, scan bound too small
    target = char_series(FIBONACCI, FIBONACCI_SEED, "a", order)
    return coeffs == list(target.coefficients)


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
