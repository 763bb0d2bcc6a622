"""The factor structure of integer polynomials: the square-free part, and
the irreducible factors over the rationals of a monic polynomial.

Square-free part: a constant gcd of p and p' modulo a prime that does not
divide deg(p) * lc(p) proves p square-free (`_square_free`).  Only the rare
polynomial whose square-freeness that modular proof misses needs its exact
square-free part, p / gcd(p, p'), with the gcd from a primitive remainder
sequence in integers.

Factoring: Zassenhaus's algorithm on Python ints (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 14-16).  The square-free part f of degree n
is factored modulo the smallest prime p >= 3 that keeps it square-free:
distinct-degree factoring, then Cantor-Zassenhaus equal-degree splitting
with trial polynomials enumerated from a counter, so the result never
depends on random state.  When f is irreducible mod p it is irreducible
over Z.  Otherwise the modular factors are lifted by quadratic Hensel steps
to a modulus q = p**(2**k) > 2 * 2**n * |f|_2.  Every monic integer factor
of f has coefficients of absolute value at most 2**n * |f|_2 (Mignotte's
bound), so it is the symmetric residue mod q of the product of the lifted
factors it reduces to, and subsets of them, smallest first, are tested by
exact integer division.

Worst case: recombination tries subsets, so its cost is exponential in the
number of modular factors, as in every plain Zassenhaus (sympy's default
included).  x**4 - 10*x**2 + 1 is irreducible yet splits modulo every
prime; the Swinnerton-Dyer polynomials of degree 2**m split into at least
2**(m-1) factors modulo every prime.
"""
from __future__ import annotations

from itertools import combinations
from math import isqrt

from .polynomials import _convolve, _exact_div_int, _primitive, _strip

_PRIME = 2**31 - 1  # modulus of the square-freeness proof


def irreducible_factors(cs: list[int]) -> list[list[int]]:
    """The distinct monic irreducible factors over Q of a monic integer
    polynomial, as coefficient lists, constant term first."""
    f = _square_free(cs)
    n = len(f) - 1
    if n < 2:
        return [f] if n == 1 else []
    derivative = [i * c for i, c in enumerate(f)][1:]
    p = 3
    while not (_is_prime(p) and _coprime_mod(f, derivative, p)):
        p += 2
    modular = [u for g, d in _distinct_degree(f, p) for u in _equal_degree(g, d, p)]
    if len(modular) == 1:
        return [f]
    bound = 4 ** (n + 1) * sum(c * c for c in f)  # (2 * 2**n * |f|_2)**2
    q = p
    while q * q <= bound:
        q *= q
    return _recombine(f, _lift(f, modular, p, q), q)


def _is_prime(p: int) -> bool:
    return all(p % d for d in range(3, isqrt(p) + 1, 2))


# -- the square-free part -----------------------------------------------------


def _square_free(cs: list) -> list:
    """Square-free part of a primitive integer polynomial, with the same
    roots.  A constant gcd of p and p' modulo a prime not dividing
    d * lc(p) proves p square-free, because a common factor over the
    integers would survive the reduction with its degree; only when that
    proof fails is the exact square-free part p / gcd(p, p') computed, with
    a positive leading coefficient.  The gcd is primitive, so by Gauss's
    lemma the quotient is an exact, primitive integer division."""
    d = len(cs) - 1
    if d < 2:
        return cs
    derivative = [i * c for i, c in enumerate(cs)][1:]
    if d * cs[-1] % _PRIME and _coprime_mod(cs, derivative, _PRIME):
        return cs
    part = _exact_div_int(cs, _primitive_gcd(cs, _primitive(derivative)))
    return part if part[-1] > 0 else [-c for c in part]


def _primitive_gcd(f: list, g: list) -> list:
    """Primitive gcd, up to sign, of a primitive f and a nonzero primitive g
    of lower degree, by the primitive remainder sequence (Collins 1967):
    each remainder is divided by its content, so coefficients stay small."""
    while g:
        f, g = g, _neg_prem_primitive(f, g)
    return f


def _neg_prem_primitive(f: list, g: list) -> list:
    """Primitive integer polynomial equal to a positive rational multiple of
    -rem(f, g).  Empty list when g divides f."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    scalings = 0
    for k in range(len(f) - 1 - dg, -1, -1):
        top = r[dg + k]
        if not top:
            continue
        for i in range(len(r)):
            r[i] *= lg
        scalings += 1
        for i in range(dg + 1):
            r[k + i] -= top * g[i]
    del r[dg:]
    _strip(r)
    if not r:
        return []
    flipped = lg < 0 and scalings % 2 == 1
    if not flipped:
        r = [-c for c in r]
    return _primitive(r)


# -- arithmetic mod m on coefficient lists, constant term first --------------


def _add(a: list, b: list, m: int, sign: int = 1) -> list:
    """a + sign * b mod m."""
    out = [x % m for x in a] + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] + sign * y) % m
    return _strip(out)


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, b, m, -1)


def _mul(a: list, b: list, m: int) -> list:
    return _strip([c % m for c in _convolve(a, b)])


def _product(polys: list[list], m: int) -> list:
    out = [1]
    for a in polys:
        out = _mul(out, a, m)
    return out


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by a monic b, coefficients mod m."""
    db = len(b) - 1
    r = [c % m for c in a]
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        top = q[k] = r[k + db]
        if top:
            r[k:] = [(x - top * y) % m for x, y in zip(r[k:], b)]
    del r[db:]
    return q, _strip(r)


def _monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over F_p of a monic a and any b."""
    b = _strip([c % p for c in b])
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return a


def _coprime_mod(f: list, g: list, q: int) -> bool:
    """Whether f and g reduced mod the prime q have a constant gcd, for a
    prime q that does not divide lc(f)."""
    return len(_gcd(_monic(f, q), g, q)) == 1


def _pow_mod(a: list, e: int, f: list, p: int) -> list:
    """a**e mod the monic f over F_p, by square-and-multiply."""
    out, a = [1], _divmod(a, f, p)[1]
    for bit in bin(e)[2:]:
        out = _divmod(_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _divmod(_mul(out, a, p), f, p)[1]
    return out


# -- factoring mod p ----------------------------------------------------------


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """Pairs (g, d): g is the product of the monic irreducible factors of
    degree d over F_p of the monic square-free f."""
    f = [c % p for c in f]
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _pow_mod(h, p, f, p)  # x**(p**d) mod f
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list, d: int, p: int) -> list[list]:
    """The monic irreducible factors over F_p, for an odd p, of a monic
    square-free g whose irreducible factors all have degree d: the gcd of g
    and a**((p**d - 1) / 2) - 1 splits g for about half of all a, and the
    trial polynomials a are the base-p digits of p, p + 1, ... in turn."""
    if len(g) - 1 == d:
        return [g]
    e = (p**d - 1) // 2
    t = p
    while True:
        a, rest = [], t
        while rest:
            rest, digit = divmod(rest, p)
            a.append(digit)
        t += 1
        u = _gcd(g, _sub(_pow_mod(a, e, g, p), [1], p), p)
        if 1 < len(u) < len(g):
            v = _divmod(g, u, p)[0]
            return _equal_degree(u, d, p) + _equal_degree(v, d, p)


# -- lifting and recombination ------------------------------------------------


def _lift(f: list, factors: list[list], p: int, q: int) -> list[list]:
    """Monic factors of f mod q, for q = p**(2**k), that reduce to the
    pairwise coprime monic factors mod p of the monic f: f is split into
    two halves of the factors, the split is lifted by quadratic Hensel steps
    (von zur Gathen & Gerhard, Algorithm 15.10), and each half in turn."""
    if len(factors) == 1:
        return [[c % q for c in f]]
    half = len(factors) // 2
    g, h = _product(factors[:half], p), _product(factors[half:], p)
    s, t = _bezout(g, h, p)
    m = p
    while m < q:
        m *= m
        e = _sub(f, _mul(g, h, m), m)
        quo, rem = _divmod(_mul(s, e, m), h, m)
        g = _add(_add(g, _mul(t, e, m), m), _mul(quo, g, m), m)
        h = _add(h, rem, m)
        if m < q:
            b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
            c, rem = _divmod(_mul(s, b, m), h, m)
            s = _sub(s, rem, m)
            t = _sub(_sub(t, _mul(t, b, m), m), _mul(c, g, m), m)
    return _lift(g, factors[:half], p, q) + _lift(h, factors[half:], p, q)


def _bezout(g: list, h: list, p: int) -> tuple[list, list]:
    """s, t with s*g + t*h = 1 over F_p, for coprime g and h."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1, t1 = ([c * inv % p for c in x] for x in (r1, s1, t1))
        quo, rem = _divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _sub(s0, _mul(quo, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(quo, t1, p), p)
    return s0, t0


def _recombine(f: list, lifted: list[list], q: int) -> list[list]:
    """The monic irreducible factors of the monic f over Z from its monic
    factors mod q: each subset, smallest first, whose product in symmetric
    residues divides f exactly is a factor, and once fewer than twice the
    subset size remain, what is left of f is irreducible."""
    found, size, half = [], 1, q // 2
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _product([lifted[i] for i in subset], q)
            g = [c - q if c > half else c for c in g]
            try:
                f = _exact_div_int(f, g)
            except ArithmeticError:
                continue
            found.append(g)
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return found + [f]
