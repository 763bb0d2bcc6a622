"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

A value a + b*sqrt(D) is held in integer form (p + q*sqrt(D)) / c with
c > 0, gcd(p, q, c) = 1 and a square-free radicand D >= 2 (Cohen 1993,
GTM 138, ch. 4); sqrt(D) is irrational, so this form is unique.  a and b are
read as `Fraction` properties.  Arithmetic, signs and comparisons run on the
integers, and no floating point is involved.  The floor of one scaled value
is one integer square root; a column of decimals over one radicand shares
one root, and costs one multiply-add and one `divmod` a row.  The radicand
is validated where a user constructs a value; arithmetic results inherit it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .polynomials import _frac


def _square_free_split(n: int) -> tuple[int, int]:
    """n = m*m * d with d square-free; returns (m, d)."""
    m, d = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        m *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return m, d * n


def is_square_free(n: int) -> bool:
    return n >= 1 and _square_free_split(n)[0] == 1


def _make(p: int, q: int, c: int, d) -> "QuadraticReal":
    """(p + q*sqrt(d)) / c brought to c > 0 and gcd(p, q, c) = 1."""
    g = gcd(p, q, c) if c > 0 else -gcd(p, q, c)
    x = object.__new__(QuadraticReal)
    x._p, x._q, x._c, x.d = p // g, q // g, c // g, d
    return x


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d); when p and q have opposite signs, p*p and
    q*q*d differ because d is not a square."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    return sp if p * p > q * q * d else sq


class QuadraticReal:
    __slots__ = ("_p", "_q", "_c", "d")

    def __init__(self, a, b=0, d: int = 5):
        a, b = _frac(a), _frac(b)
        if b != 0 and not (isinstance(d, int) and d >= 2 and is_square_free(d)):
            raise ValueError(f"radicand must be a square-free integer >= 2, got {d}")
        # a and b are in lowest terms, so gcd(p, q, c) = 1 already
        c = lcm(a.denominator, b.denominator)
        self._p, self._q, self._c, self.d = int(a * c), int(b * c), c, d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._c)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._c)

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def _coerce(self, other) -> "tuple[int, int, int, int] | None":
        """(p, q, c, radicand of the result) of other, or None."""
        if isinstance(other, QuadraticReal):
            if other._q == 0:
                return other._p, 0, other._c, self.d
            if self._q and other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other._p, other._q, other._c, other.d
        if isinstance(other, int):
            return other, 0, 1, self.d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self.d
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, c, d = o
        sc = self._c
        return _make(self._p * c + p * sc, self._q * c + q * sc, sc * c, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, c, d = o
        sc = self._c
        return _make(self._p * c - p * sc, self._q * c - q * sc, sc * c, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, c, d = o
        return _make(
            self._p * p + self._q * q * d, self._p * q + self._q * p, self._c * c, d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, c, d = o
        norm = p * p - q * q * d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        # c / (p + q*sqrt(d)) = c*(p - q*sqrt(d)) / norm
        return self * _make(c * p, -c * q, norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(*o) / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out, base = _make(1, 0, 1, self.d), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        """Sign of (p + q*sqrt(d))/c, which is that of p + q*sqrt(d)."""
        return _sign(self._p, self._q, self.d)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticReal with {other!r}")
        p, q, c, d = o
        return _sign(self._p * c - p * self._c, self._q * c - q * self._c, d)

    def __eq__(self, other):
        # 1, sqrt(d) and sqrt(e) are independent over Q: irrationals with
        # different radicands differ, where arithmetic refuses to mix them
        if isinstance(other, QuadraticReal) and self._q and other._q:
            if other.d != self.d:
                return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o[0] and self._q == o[1] and self._c == o[2]

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self._q == 0:
            return hash(Fraction(self._p, self._c))
        return hash((self._p, self._q, self._c, self.d))

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def decimal(self, digits: int = 50) -> str:
        """Fixed-point decimal string, correctly rounded toward zero."""
        return _decimal_str(self._p, self._q, self._c, self.d, digits)

    def interval(self, digits: int = 50) -> tuple[Fraction, Fraction]:
        """Rational enclosure [lo, hi] with hi - lo <= 10**-digits."""
        p, q = self._p, self._q
        neg = _sign(p, q, self.d) < 0
        if neg:
            p, q = -p, -q
        n = _floor_scaled(p, q, self._c, self.d, digits)
        lo, hi = Fraction(n, 10**digits), Fraction(n + 1, 10**digits)
        if neg:
            lo, hi = -hi, -lo
        return lo, hi

    def __repr__(self):
        if self._q == 0:
            return f"QuadraticReal({self.a})"
        return f"QuadraticReal({self.a} + {self.b}*sqrt({self.d}))"


def _int_form(x) -> tuple[int, int, int, "int | None"]:
    """(p, q, c, d) with x = (p + q*sqrt(d)) / c, c > 0 and gcd(p, q, c) = 1;
    d is None for a rational x.  x is a QuadraticReal, int or Fraction."""
    if isinstance(x, QuadraticReal):
        return x._p, x._q, x._c, x.d if x._q else None
    x = Fraction(x)
    return x.numerator, 0, x.denominator, None


def _floor_scaled(p: int, q: int, c: int, d, digits: int) -> int:
    """floor((p + q*sqrt(d)) / c * 10**digits), exact, with one integer
    square root; d is unused when q = 0.

    With s = 10**digits, x*s = (p*s + r) / c where r = q*s*sqrt(d), whose
    square is n = q*q*d*s*s.  For q != 0, n is not a perfect square (d is
    square-free and >= 2), so r is irrational and f = floor(r) < r < f + 1,
    where f = isqrt(n) for q > 0 and f = -isqrt(n) - 1 for q < 0.  Then
    floor((p*s + r)/c) = floor((p*s + f)/c) =: k, because c > 0 and
    k*c <= p*s + f < p*s + r < p*s + f + 1 <= (k + 1)*c, the last step
    since p*s + f and (k + 1)*c are integers with p*s + f < (k + 1)*c.
    Only c > 0 is used, so the proof holds for any such c, whether or not
    gcd(p, q, c) = 1.
    """
    s = 10**digits
    root = isqrt(q * q * d * s * s) if q else 0
    f = root if q >= 0 else -root - 1
    return (p * s + f) // c


def _decimal_str(p: int, q: int, c: int, d, digits: int) -> str:
    """Fixed-point decimal string of (p + q*sqrt(d)) / c for c > 0, rounded
    toward zero; "-" marks every negative value, even one that prints as
    zero.  d is unused when q = 0."""
    neg = _sign(p, q, d) < 0
    if neg:
        p, q = -p, -q
    return _fixed_point(_floor_scaled(p, q, c, d, digits), neg, digits)


def _fixed_point(k: int, neg: bool, digits: int) -> str:
    """k = floor(|x| * 10**digits) as x's `_decimal_str`, with "-" if x < 0."""
    s = str(k).rjust(digits + 1, "0")
    out = f"{s[:-digits]}.{s[-digits:]}" if digits else s
    return "-" + out if neg else out


_GUARD = 20  # guard digits of the root that `_decimal_column` shares


def _decimal_column(ps, qs, c: int, d, digits: int):
    """`_decimal_str(p, q, c, d, digits)` for each p, q of ps, qs in turn,
    with one integer square root for the whole column.

    With t = 10**(digits + _GUARD) and S = isqrt(d*t*t), S <= sqrt(d)*t <
    S + 1, so y = p*t + q*sqrt(d)*t, which is x * 10**digits times m =
    c * 10**_GUARD for x = (p + q*sqrt(d)) / c, lies in [lo, lo + |q|]
    with lo = p*t + q*S for q >= 0 and p*t + q*(S + 1) for q < 0.  If
    lo < 0, then -y lies in [-lo - |q|, -lo], which reaches above 0.  When
    the bracket lies in one [k*m, (k + 1)*m), k = floor(|x| * 10**digits);
    otherwise, for |q| near m or more or x within |q|/m of 0, the row falls
    back to `_decimal_str`.  d is unused when every q is 0."""
    t = 10 ** (digits + _GUARD)
    root = isqrt(d * t * t) if d else 0
    m = c * 10**_GUARD
    for p, q in zip(ps, qs):
        lo, width = (p * t + q * root, q) if q >= 0 else (p * t + q * (root + 1), -q)
        neg = lo < 0
        if neg:
            lo = -lo - width
        k, r = divmod(lo, m)
        if r + width < m:
            yield _fixed_point(k, neg, digits)
        else:
            yield _decimal_str(p, q, c, d, digits)
