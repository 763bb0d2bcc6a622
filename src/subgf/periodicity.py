"""Detection of eventual periodicity in finite sequences of exact values:
one C pass encodes the values as ids, then each candidate period costs one
C comparison that stops at the first difference."""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import InsufficientDataError


@dataclass(frozen=True)
class PeriodWitness:
    """c[n + period] == c[n] for every checked n >= preperiod."""

    preperiod: int
    period: int


def detect_period(coeffs, max_preperiod: int, max_period: int) -> PeriodWitness | None:
    """Smallest-period, then smallest-preperiod witness over the whole given
    sequence, or None if no witness fits the bounds.

    The sequence must be at least max_preperiod + 10 * max_period long so
    that any reported witness has been confirmed well past its preperiod.

    The ids (one byte each, eight past 256 distinct values) are encoded
    once.  d is accepted iff c[n] == c[n + d] for all n >= max_preperiod: one
    early-exit memoryview comparison, so a rejected d usually costs a few
    ids.  Only the accepted d pays one XOR over the first max_preperiod ids,
    whose top set bit marks the last mismatch, hence the preperiod.
    """
    if max_preperiod < 0 or max_period < 1:
        raise ValueError("bounds must satisfy max_preperiod >= 0, max_period >= 1")
    seq = list(coeffs)
    size = len(seq)
    if size < max_preperiod + 10 * max_period:
        raise InsufficientDataError(
            f"need at least {max_preperiod + 10 * max_period} values, got {size}"
        )
    ids = {v: i for i, v in enumerate(dict.fromkeys(seq))}
    codes = map(ids.__getitem__, seq)
    view = memoryview(bytes(codes) if len(ids) <= 256 else array("q", codes))
    cut = max_preperiod
    for d in range(1, max_period + 1):
        if view[cut : size - d] == view[cut + d :]:
            x = int.from_bytes(view[:cut], "little") ^ int.from_bytes(
                view[d : d + cut], "little"
            )
            return PeriodWitness(-(-x.bit_length() // (8 * view.itemsize)), d)
    return None


def verify_witness(coeffs, witness: PeriodWitness) -> bool:
    """Check c[n + d] == c[n] for all preperiod <= n <= len - d - 1."""
    seq = coeffs if isinstance(coeffs, (list, tuple, str, bytes)) else list(coeffs)
    p, d = witness.preperiod, witness.period
    # the max keeps a period longer than the sequence from slicing from the end
    return seq[p : max(p, len(seq) - d)] == seq[p + d :]
