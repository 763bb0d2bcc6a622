"""Dense univariate polynomials with integer coefficients, and the kernel of
integer coefficient lists that `factoring` and `realroots` share.

`ExactPolynomial` stores its coefficients constant-term first as `int`s;
anything that is not an integer (a `Fraction`, even an integral one, a `str`
or a `float`) is refused with TypeError.  Values at rational points are exact
rationals.  The zero polynomial has degree -1; every nonzero polynomial has a
nonzero trailing coefficient.

The kernel works on plain lists in the same order: trailing zeros stripped
(`_strip`), content divided out (`_primitive`), exact division
(`_exact_div_int`), the schoolbook product (`_convolve`), and the exact sign
at a rational point (`_sign_at`).
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs: list) -> list:
    g = gcd(*cs)
    if g > 1:
        cs = [c // g for c in cs]
    return cs


def _exact_div_int(f: list, g: list) -> list:
    """Quotient of f by g over the integers; ArithmeticError unless g divides
    f with an integer quotient."""
    out = [0] * (len(f) - len(g) + 1)
    rem = list(f)
    lg = g[-1]
    for k in range(len(out) - 1, -1, -1):
        top = rem[len(g) - 1 + k]
        if top % lg:
            raise ArithmeticError("inexact polynomial division")
        c = top // lg
        out[k] = c
        if c:
            for i in range(len(g)):
                rem[k + i] -= c * g[i]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


def _convolve(a: list, b: list) -> list:
    """The product of two coefficient lists, by the schoolbook method; zero
    coefficients are skipped."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _sign_at(cs: list, num: int, shift_exp, den_pows) -> int:
    """Sign of the homogeneous value sum(c_i * num**i * den**(d-i)), that of
    p(num/den) for integer coefficients cs of p: the one exact integer sign
    evaluator, shared with `realroots`."""
    d = len(cs) - 1
    if d < 0:
        return 0
    acc = cs[d]
    if shift_exp is not None:  # denominator is a power of two: pure shifts
        for i in range(d - 1, -1, -1):
            acc *= num
            c = cs[i]
            if c:
                acc += c << (shift_exp * (d - i))
    else:
        for i in range(d - 1, -1, -1):
            acc *= num
            c = cs[i]
            if c:
                acc += c * den_pows[d - i]
    return 1 if acc > 0 else (-1 if acc < 0 else 0)


def _point_data(x: Fraction, dmax: int):
    """The arguments after cs of `_sign_at` at x, for degrees <= dmax."""
    num, den = x.numerator, x.denominator
    if den & (den - 1) == 0:  # power of two: shifts instead of multiplies
        return num, den.bit_length() - 1, None
    dp = [1] * (dmax + 1)
    for i in range(1, dmax + 1):
        dp[i] = dp[i - 1] * den
    return num, None, dp


class ExactPolynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        self._coeffs = tuple(_strip(list(map(operator.index, coeffs))))

    @classmethod
    def zero(cls) -> ExactPolynomial:
        return cls(())

    @classmethod
    def monomial(cls, exponent: int, coefficient=1) -> ExactPolynomial:
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls([0] * exponent + [coefficient])

    @classmethod
    def from_exponents(cls, exponents) -> ExactPolynomial:
        """0/1 polynomial with a 1 at each listed exponent."""
        exps = list(exponents)
        cs = [0] * (max(exps) + 1 if exps else 0)
        for e in exps:
            cs[e] = 1
        return cls(cs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> int:
        if not self._coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self == ExactPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other) -> ExactPolynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> ExactPolynomial:
        return ExactPolynomial([-c for c in self._coeffs])

    def __sub__(self, other) -> ExactPolynomial:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> ExactPolynomial:
        return (-self) + other

    def __mul__(self, other) -> ExactPolynomial:
        if isinstance(other, int):
            return ExactPolynomial([other * x for x in self._coeffs])
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return ExactPolynomial(_convolve(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> ExactPolynomial:
        """Multiply by X**k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if not self._coeffs:
            return self
        return ExactPolynomial((0,) * k + self._coeffs)

    def __call__(self, x) -> int | Fraction:
        x = _frac(x)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x) -> int:
        """Exact sign of the value at a rational point, computed in integers."""
        return _sign_at(self._coeffs, *_point_data(_frac(x), self.degree))

    def to_string(self, var: str = "X") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = mag + (var if i == 1 else f"{var}^{i}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactPolynomial({self.to_string()})"

    def _coerce(self, other):
        if isinstance(other, ExactPolynomial):
            return other
        if isinstance(other, int):
            return ExactPolynomial((other,))
        return NotImplemented


X = ExactPolynomial((0, 1))
