"""Sturm chains: the independent reference the Descartes counts of
`subgf.realroots` are tested against.

A Sturm chain counts the distinct real roots of a polynomial in (l, r] as
V(l) - V(r), the drop in sign variations along the chain (Sturm's
theorem).  It shares only the integer helpers with the Descartes code.
"""
from __future__ import annotations

from subgf.errors import EndpointIsRootError, ZeroPolynomialError
from subgf.factoring import _neg_prem_primitive
from subgf.polynomials import (
    ExactPolynomial,
    _exact_div_int,
    _frac,
    _point_data,
    _primitive,
    _sign_at,
    _strip,
)


def _build_chain(p0: list) -> list[list]:
    chain = [p0]
    p1 = _strip([i * c for i, c in enumerate(p0)][1:])
    if not p1:
        return chain
    chain.append(_primitive(p1))
    while len(chain[-1]) > 1:
        nxt = _neg_prem_primitive(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


class SturmChain:
    """Sturm chain of the square-free part of a polynomial, with cached
    sign-variation counts at rational points."""

    def __init__(self, polynomial: ExactPolynomial):
        if polynomial.is_zero:
            raise ZeroPolynomialError("cannot build a Sturm chain of 0")
        self.polynomial = polynomial
        work = _primitive(list(polynomial.coefficients))
        while True:
            chain = _build_chain(work)
            if len(chain) == 1 or len(chain[-1]) == 1:
                # constant input, or the chain ends in a nonzero constant,
                # which is exactly the square-free case
                break
            # chain terminated early: its last member is gcd(p, p') up to a
            # constant; divide it out and rebuild
            work = _primitive(_exact_div_int(work, chain[-1]))
        self._chain = chain
        self._square_free = chain[0]
        self._vcache: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._chain)

    @property
    def members(self) -> tuple[ExactPolynomial, ...]:
        return tuple(ExactPolynomial([int(c) for c in m]) for m in self._chain)

    @property
    def square_free_part(self) -> ExactPolynomial:
        return ExactPolynomial([int(c) for c in self._square_free])

    def sign_at(self, x) -> int:
        """Sign of the square-free part at a rational point."""
        num, e, dp = _point_data(_frac(x), len(self._square_free) - 1)
        return _sign_at(self._square_free, num, e, dp)

    def variations(self, x) -> int:
        x = _frac(x)
        key = (x.numerator, x.denominator)
        cached = self._vcache.get(key)
        if cached is not None:
            return cached
        dmax = max(len(m) for m in self._chain) - 1
        num, e, dp = _point_data(x, dmax)
        signs = [s for m in self._chain if (s := _sign_at(m, num, e, dp))]
        count = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        self._vcache[key] = count
        return count

    def count(self, lower, upper) -> int:
        lower, upper = _frac(lower), _frac(upper)
        if not lower < upper:
            raise ValueError("need lower < upper")
        if self.sign_at(lower) == 0:
            raise EndpointIsRootError(f"polynomial vanishes at {lower}")
        return self.variations(lower) - self.variations(upper)


def sturm_chain(p: ExactPolynomial) -> SturmChain:
    return SturmChain(p)


def count_roots(p, lower, upper) -> int:
    """Number of distinct real roots in (lower, upper], by Sturm's theorem."""
    chain = p if isinstance(p, SturmChain) else SturmChain(p)
    return chain.count(lower, upper)
