"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

A value is a + b*sqrt(D) with rational a, b and a fixed square-free
positive integer radicand D.  Signs and comparisons are decided with
integer arithmetic only; no floating point is involved anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .polynomials import _frac


def is_square_free(n: int) -> bool:
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 2
    return True


class QuadraticReal:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 5):
        self.a = _frac(a)
        self.b = _frac(b)
        if self.b != 0:
            if not isinstance(d, int) or d < 2 or not is_square_free(d):
                raise ValueError(f"radicand must be a square-free integer >= 2, got {d}")
        self.d = d

    @classmethod
    def rational(cls, q, d: int = 5) -> QuadraticReal:
        return cls(q, 0, d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _match(self, other) -> "QuadraticReal | None":
        if isinstance(other, QuadraticReal):
            if other.b == 0:
                return QuadraticReal(other.a, 0, self.d)
            if self.b == 0:
                return other  # adopt the other radicand below
            if other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticReal(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        d = o.d if self.b == 0 else self.d
        return QuadraticReal(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        d = o.d if self.b == 0 else self.d
        return QuadraticReal(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - o.b * o.b * (o.d if o.b else self.d)
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        inv = QuadraticReal(o.a / norm, -o.b / norm, o.d if o.b else self.d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = QuadraticReal(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        """Sign of a + b*sqrt(d) by case split on the signs of a and b and
        comparison of a**2 against b**2 * d."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            if lhs == rhs:
                return 0
            return 1 if lhs > rhs else -1
        # a < 0, b > 0
        if lhs == rhs:
            return 0
        return 1 if rhs > lhs else -1

    def _cmp(self, other) -> int:
        o = self._match(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticReal with {other!r}")
        return (self - o).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def decimal(self, digits: int = 50) -> str:
        """Fixed-point decimal string, correctly rounded toward zero, using
        integer square-root enclosures of sqrt(d)."""
        neg = self.sign() < 0
        x = -self if neg else self
        scaled = _floor_scaled(x, digits)
        s = str(scaled).rjust(digits + 1, "0")
        out = f"{s[:-digits]}.{s[-digits:]}" if digits else s
        return "-" + out if neg else out

    def interval(self, digits: int = 50) -> tuple[Fraction, Fraction]:
        """Rational enclosure [lo, hi] with hi - lo <= 10**-digits."""
        neg = self.sign() < 0
        x = -self if neg else self
        n = _floor_scaled(x, digits)
        lo, hi = Fraction(n, 10**digits), Fraction(n + 1, 10**digits)
        if neg:
            lo, hi = -hi, -lo
        return lo, hi

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticReal({self.a})"
        return f"QuadraticReal({self.a} + {self.b}*sqrt({self.d}))"


def _floor_scaled(x: QuadraticReal, digits: int) -> int:
    """floor(x * 10**digits) for x >= 0, exact."""
    scale = 10**digits
    a = x.a * scale
    b = x.b * scale
    if b == 0:
        return a.numerator // a.denominator
    guard = 10
    while True:
        g = 10**guard
        s = isqrt(x.d * g * g)
        # s/g <= sqrt(d) < (s+1)/g
        lo_s, hi_s = (s, s + 1) if b > 0 else (s + 1, s)
        lo = a + b * Fraction(lo_s, g)
        hi = a + b * Fraction(hi_s, g)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        guard *= 2
