"""Detection of eventual periodicity in finite sequences of exact values.

The values are read as one-byte ids: `bytes` as they are, an ASCII `str`
after `encode`, anything else through one dict of ids (eight bytes each past
256 distinct values).  One `bytes.find` of the head of the checked tail
yields the candidate periods, and each candidate costs one C comparison."""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import InsufficientDataError


@dataclass(frozen=True)
class PeriodWitness:
    """c[n + period] == c[n] for every checked n >= preperiod."""

    preperiod: int
    period: int


def _ids(coeffs) -> tuple[bytes, int]:
    """(ids, width): the values as injective ids of `width` bytes each."""
    if isinstance(coeffs, str) and coeffs.isascii():
        coeffs = coeffs.encode()
    if isinstance(coeffs, bytes):
        return coeffs, 1
    seq = list(coeffs)
    index = {v: i for i, v in enumerate(dict.fromkeys(seq))}
    codes = map(index.__getitem__, seq)
    if len(index) <= 256:
        return bytes(codes), 1
    return array("q", codes).tobytes(), 8


def detect_period(coeffs, max_preperiod: int, max_period: int) -> PeriodWitness | None:
    """Smallest-period, then smallest-preperiod witness over the whole given
    sequence, or None if no witness fits the bounds.

    The sequence must be at least max_preperiod + 2 * max_period long, which
    is enough when the values from max_preperiod on are purely periodic with
    minimal period D <= max_period: the result is then D.  By Fine and Wilf
    (Proc. AMS 16, 1965), a window with periods d and D and at least
    d + D - gcd(d, D) values also has the period gcd(d, D); 2 * max_period
    values meet that bound for every d < D <= max_period and hold a whole
    period, so a smaller period d of the window would make gcd(d, D) < D a
    period of the tail.

    d is accepted iff c[n] == c[n + d] for all n >= max_preperiod.  Such a d
    <= max_period repeats the first max_period ids of that tail at offset d,
    so one `bytes.find` over the tail's first 2 * max_period ids lists every
    candidate (with 8-byte ids, only offsets that are a multiple of 8), and
    each candidate costs one `startswith`.  Only the accepted d pays one XOR
    over the first max_preperiod ids, whose top set bit marks the last
    mismatch, hence the preperiod.
    """
    if max_preperiod < 0 or max_period < 1:
        raise ValueError("bounds must satisfy max_preperiod >= 0, max_period >= 1")
    ids, width = _ids(coeffs)
    size = len(ids) // width
    if size < max_preperiod + 2 * max_period:
        raise InsufficientDataError(
            f"need at least {max_preperiod + 2 * max_period} values, got {size}"
        )
    view = memoryview(ids)
    cut = max_preperiod * width
    head = ids[cut : cut + max_period * width]
    at, end = cut, cut + 2 * max_period * width
    while (at := ids.find(head, at + 1, end)) >= 0:
        shift = at - cut
        if shift % width == 0 and ids.startswith(view[at:], cut):
            x = int.from_bytes(ids[:cut], "little") ^ int.from_bytes(
                ids[shift:at], "little"
            )
            return PeriodWitness(-(-x.bit_length() // (8 * width)), shift // width)
    return None


def verify_witness(coeffs, witness: PeriodWitness) -> bool:
    """Check c[n + d] == c[n] for all preperiod <= n <= len - d - 1."""
    seq = coeffs if isinstance(coeffs, (list, tuple, str, bytes)) else list(coeffs)
    p, d = witness.preperiod, witness.period
    # the max keeps a period longer than the sequence from slicing from the end
    return seq[p : max(p, len(seq) - d)] == seq[p + d :]
