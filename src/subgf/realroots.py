"""Descartes counts, real-root isolation, and positivity certificates.

Descartes' rule of signs: the number of sign variations in the coefficient
sequence of a polynomial exceeds its number of positive roots, counted with
multiplicity, by an even number.  The Moebius map x -> l + (r - l)/(1 + x)
takes (0, oo) onto the open interval (l, r), so the variations V(p; l, r) of
the integer polynomial (1 + x)^d p(l + (r - l)/(1 + x)) bound the number of
roots of p in (l, r) with the same parity.  V = 0 is therefore a proof that
(l, r) holds no root, and V = 1 that it holds exactly one (Collins & Akritas
1976).  For a square-free p, halving an interval eventually leaves only
counts of 0 and 1 (Vincent's theorem), so bisection turns the bound into an
exact count.  Each count costs at most two Taylor shifts in exact integers,
and one when it shifts from 0 (see `_descartes`).  Because roots count with
multiplicity, V = 0 and V = 1 are proofs for any p; only the splits need a
square-free p, so `RootIsolator` takes the square-free part
(`factoring._square_free`) when a V >= 2 split first needs it.

A certificate that p > 0 on (l, r) rests on two facts: p has no root in
(l, r), and p is positive at one exact sample there.  `certify_positive`
proves the first by Descartes counts on (l, r) itself.  Isolation counts
prove it as well: `isolate_max_root` on (lower, r] returns a bracket
(u, v] with no root in (v, r], so v <= l leaves none in (l, r), and a count
of 0 on (lower, r] leaves none at all (`fibonacci.positivity_bound`).
`locate_max_root` finds the bracket that `isolate_max_root` ends in from a
float estimate, and proves it with two exact signs and one count.

Sturm chains, an independent reference for the Descartes counts, live with
the tests (`tests/sturm_reference.py`).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isfinite
from operator import add

from .errors import (
    EndpointIsRootError,
    NegativeOnIntervalError,
    NoRootError,
    RootPresentError,
    ZeroPolynomialError,
)
from .factoring import _square_free
from .polynomials import (
    ExactPolynomial,
    _exact_div_int,
    _frac,
    _point_data,
    _primitive,
    _sign_at,
)


# -- Descartes' rule of signs ------------------------------------------------


def _scaled(cs: list, num, den) -> list:
    """Coefficients c_i * num**i * den**(d - i): den**d * p(num * x / den)."""
    d = len(cs) - 1
    out = list(cs)
    if num != 1:
        power = 1
        for i in range(1, d + 1):
            power *= num
            out[i] *= power
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        return [c << k * (d - i) for i, c in enumerate(out)] if k else out
    power = 1
    for i in range(d - 1, -1, -1):
        power *= den
        out[i] *= power
    return out


def _taylor_shift(cs: list, n: int) -> list:
    """Coefficients of p(x + n): each pass is one synthetic division by
    x - n, run as a prefix scan over the leading coefficients."""
    if not n:
        return cs
    step = add if n == 1 else (lambda acc, c: acc * n + c)
    high_first = cs[::-1]
    for m in range(len(high_first), 1, -1):
        high_first[:m] = accumulate(high_first[:m], step)
    return high_first[::-1]


def _descartes(cs: list, lower: Fraction, upper: Fraction) -> int:
    """Descartes' bound on the roots of p in (lower, upper): the variations
    from the endpoint with the smaller denominator, and from 0 on a tie,
    whose shift is free (on (-1, 0) the shift by 1 then runs on the
    coefficients of p up to sign, not on those of p(x - 1))."""
    if (upper.denominator, upper != 0) < (lower.denominator, lower != 0):
        return _variations_from(cs, upper, lower)
    return _variations_from(cs, lower, upper)


def _variations_from(cs: list, e: Fraction, f: Fraction) -> int:
    """Sign variations of (1 + x)^d p(e + (f - e)/(1 + x)).  Built as
    integers: scale, shift by e, scale by f - e, reverse, shift by 1.  The
    integer forms differ from the rational ones by positive factors, which
    leave the variations alone.  The transforms from e and from f are each
    other's reversals, so both count the same."""
    shifted = _taylor_shift(_scaled(cs, 1, e.denominator), e.numerator)
    width = (f - e) * e.denominator
    reversed_ = _scaled(shifted, width.numerator, width.denominator)[::-1]
    signs = [c > 0 for c in _taylor_shift(reversed_, 1) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class RootIsolator:
    """A nonzero polynomial as primitive integers, with cached exact signs,
    Descartes counts and root counts.

    It holds the polynomial as given until the first V >= 2 split, which
    needs the square-free part (Vincent's theorem), and that part from then
    on; V = 0 and V = 1 are proofs for either.  `sign_at` and `variations`
    always describe the polynomial held, and both polynomials vanish at the
    same points.  The counts are exact, so a bracket from `isolate_max_root`
    proves that no root lies above it, and one exact sign then proves
    positivity there (see the module docstring)."""

    def __init__(self, polynomial: ExactPolynomial, _part: list | None = None,
                 _is_square_free: bool = False):
        if polynomial.is_zero:
            raise ZeroPolynomialError("cannot isolate the roots of 0")
        self.polynomial = polynomial
        if _part is None:
            _part = _primitive(list(polynomial.coefficients))
        self._cs = _part
        self._is_square_free = _is_square_free
        self._signs: dict[Fraction, int] = {}
        self._variations: dict[tuple[Fraction, Fraction], int] = {}

    def _hold_square_free(self) -> None:
        """Replace the polynomial held by its square-free part, and forget
        the signs and counts of the old one if the two differ."""
        part = _square_free(self._cs)
        if part is not self._cs:
            self._cs = part
            self._signs.clear()
            self._variations.clear()
        self._is_square_free = True

    def sign_at(self, x) -> int:
        """Sign of the polynomial held at a rational point."""
        x = _frac(x)
        sign = self._signs.get(x)
        if sign is None:
            point = _point_data(x, len(self._cs) - 1)
            sign = self._signs[x] = _sign_at(self._cs, *point)
        return sign

    def variations(self, lower, upper) -> int:
        """Descartes' bound on the roots in the open interval."""
        key = (_frac(lower), _frac(upper))
        count = self._variations.get(key)
        if count is None:
            count = self._variations[key] = _descartes(self._cs, *key)
        return count

    def without_root(self, point) -> RootIsolator:
        """The same polynomial with its root at `point`, if any, divided out
        with its full multiplicity."""
        point = _frac(point)
        if self.sign_at(point):
            return self
        part = _exact_div_int(self._cs, [-point.numerator, point.denominator])
        deflated = RootIsolator(self.polynomial, part, self._is_square_free)
        return deflated.without_root(point)

    def count(self, lower, upper, limit: int | None = None) -> int:
        """Number of distinct roots in (lower, upper], counting stops at
        `limit` when one is given."""
        lower, upper = _frac(lower), _frac(upper)
        if not lower < upper:
            raise ValueError("need lower < upper")
        if self.sign_at(lower) == 0:
            raise EndpointIsRootError(f"polynomial vanishes at {lower}")
        limit = len(self._cs) if limit is None else limit
        found = int(self.sign_at(upper) == 0)
        if found < limit:
            found += self._count_open(lower, upper, limit - found)
        return found

    def _count_open(self, a: Fraction, b: Fraction, limit: int) -> int:
        """Roots in the open (a, b), counted up to `limit`: a sign change or
        V = 1 shows one, V = 0 none, and V >= 2 splits the interval (the
        Vincent-Collins-Akritas step) once the square-free part is held."""
        if limit == 1 and self.sign_at(a) * self.sign_at(b) < 0:
            return 1
        v = self.variations(a, b)
        if v < 2:
            return v
        if not self._is_square_free:
            self._hold_square_free()
            return self._count_open(a, b, limit)
        mid = (a + b) / 2
        found = int(self.sign_at(mid) == 0)
        for lo, hi in ((mid, b), (a, mid)):
            if found < limit:
                found += self._count_open(lo, hi, limit - found)
        return found


def _isolator(p) -> RootIsolator:
    return p if isinstance(p, RootIsolator) else RootIsolator(p)


def isolate_max_root(p, lower, upper, eps) -> tuple[Fraction, Fraction]:
    """Bracket (u, v) with v - u <= eps around the largest root in
    (lower, upper], by bisection with exact decisions: that root lies in
    (u, v], and no root lies in (v, upper].

    "Is there a root in (mid, hi]?" is answered by the sign of hi, a sign
    change, or Descartes counts.  Once V(lo, hi) = 1 shows the root alone
    in (lo, hi), every later step is a single sign evaluation."""
    roots = _isolator(p)
    lo, hi = _frac(lower), _frac(upper)
    eps = _frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not roots.count(lo, hi, 1):
        raise NoRootError(f"no root in ({lo}, {hi}]")
    alone = False  # (lo, hi) holds exactly one root and hi is none
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sign, sign_hi = roots.sign_at(mid), roots.sign_at(hi)
        if sign == 0:
            # mid is exactly a root; count strictly above it with that root
            # divided out
            if roots.without_root(mid).count(mid, hi, 1):
                lo = mid
                continue
            half = eps / 2
            return mid - half, min(mid + half, hi)
        if alone or sign != sign_hi:
            above = sign != sign_hi
        elif roots.sign_at(lo) == -sign and roots.variations(lo, hi) == 1:
            alone, above = True, False
        else:
            above = roots.count(mid, hi, 1) > 0
        if above:
            lo = mid
        else:
            hi = mid
    return lo, hi


def locate_max_root(p, lower, upper, eps, estimate: float):
    """The bracket that `isolate_max_root(p, lower, upper, eps)` returns,
    located from a float estimate of the largest root r, or None if that is
    not proved.

    Bisection halves (lower, upper] K times, K the least with
    (upper - lower) / 2**K <= eps, and keeps r in the current cell; unless a
    midpoint is r, it ends in the one cell of that grid that holds r.  The
    estimate only proposes the cell (u, v]; it is that cell when p changes
    sign across it (so r is inside, on no grid point) and no root lies in
    (v, upper]."""
    roots = _isolator(p)
    lo, hi, eps = _frac(lower), _frac(upper), _frac(eps)
    if not isfinite(estimate):
        return None
    k = (-(-(hi - lo) // eps) - 1).bit_length()
    step = (hi - lo) / (1 << k)
    j = (Fraction(estimate) - lo) // step
    if not 0 <= j < 1 << k:
        return None
    u = lo + j * step
    v = u + step
    if roots.sign_at(u) * roots.sign_at(v) >= 0:
        return None
    return (u, v) if v == hi or not roots.count(v, hi, 1) else None


def separate_max_root(p, lower, upper) -> tuple[Fraction, Fraction]:
    """Halve (lower, upper], keeping its largest root, until that root is
    the only one in it."""
    roots = _isolator(p)
    lo, hi = _frac(lower), _frac(upper)
    while roots.count(lo, hi, 2) > 1:
        mid = (lo + hi) / 2
        if roots.count(mid, hi, 1):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass(frozen=True)
class ExclusionCertificate:
    """Proof object: the polynomial has no root in the open interval and is
    strictly positive at the sample, hence strictly positive throughout."""

    poly_degree: int
    poly_sha256: str
    lower: Fraction
    upper: Fraction
    root_count_in_interval: int
    sample_point: Fraction
    sample_sign: str


def poly_fingerprint(p: ExactPolynomial) -> str:
    payload = ";".join(str(c) for c in p.coefficients).encode()
    return hashlib.sha256(payload).hexdigest()


def certify_positive(p, lower, upper) -> ExclusionCertificate:
    """Certify p > 0 on the open interval (lower, upper).

    Roots exactly at an endpoint are allowed: they are divided out first.
    The proof that no root is inside is V(lower, upper) = 0 for what
    remains, or, when V > 0, V = 0 on every piece of the bisection that
    finds no root; one exact sign then proves positivity
    (`_root_free_certificate`).  Where isolation counts already show the
    interval root-free, that sign suffices (`fibonacci.positivity_bound`).
    """
    roots = _isolator(p)
    lo, hi = _frac(lower), _frac(upper)
    if not lo < hi:
        raise ValueError("need lower < upper")
    counting = roots.without_root(lo).without_root(hi)
    if counting.count(lo, hi, 1):
        bracket = isolate_max_root(counting, lo, hi, Fraction(1, 2**40))
        raise RootPresentError(f"root inside ({lo}, {hi})", bracket)
    return _root_free_certificate(roots.polynomial, lo, hi)


def _root_free_certificate(
    p: ExactPolynomial, lower: Fraction, upper: Fraction
) -> ExclusionCertificate:
    """The certificate for a p already proved to have no root in the open
    (lower, upper): p keeps one sign there, so its exact sign at the
    midpoint decides positivity."""
    if not lower < upper:
        raise ValueError("need lower < upper")
    sample = (lower + upper) / 2
    sign = p.sign_at(sample)
    if sign < 0:
        raise NegativeOnIntervalError(f"polynomial is negative at {sample}")
    if sign == 0:
        raise AssertionError("zero count but vanishing sample")
    return ExclusionCertificate(
        poly_degree=p.degree,
        poly_sha256=poly_fingerprint(p),
        lower=lower,
        upper=upper,
        root_count_in_interval=0,
        sample_point=sample,
        sample_sign="+",
    )
