"""Canonical JSON and CSV serialization.

All numeric payloads are exact rational strings (or plain JSON integers);
floats never appear.  Dict key order is fixed by construction so that
parse -> dump round-trips are byte-identical.
"""
from __future__ import annotations

import json
from math import gcd

from .genfun import RationalForm, Rational, TranscendentalByAperiodicity
from .periodicity import PeriodWitness
from .polynomials import ExactPolynomial
from .quadratic import QuadraticReal, _decimal_str, _int_form
from .realroots import ExclusionCertificate
from .substitutions import (
    AperiodicByIrrationalPF,
    EventuallyPeriodic,
    InconclusiveUpTo,
)


def _ratio_str(n: int, c: int) -> str:
    """str(Fraction(n, c)) for c > 0, reduced by one gcd."""
    g = gcd(n, c)
    return str(n // g) if g == c else f"{n // g}/{c // g}"


def exact_str(p: int, q: int, c: int, d, sep: str = " ") -> str:
    """Exact form of (p + q*sqrt(d)) / c for c > 0: "a", "b*sqrt(d)" or
    "a + b*sqrt(d)", with `sep` around the sign and each part reduced."""
    if q == 0:
        return _ratio_str(p, c)
    if p == 0:
        return f"{_ratio_str(q, c)}*sqrt({d})"
    op = "+" if q > 0 else "-"
    return f"{_ratio_str(p, c)}{sep}{op}{sep}{_ratio_str(abs(q), c)}*sqrt({d})"


def value_str(x) -> str:
    """Exact human-readable form of a rational or quadratic value."""
    return exact_str(*_int_form(x))


def value_decimal(x, digits: int = 50) -> str:
    """Fixed-point decimal of a rational or quadratic value, truncated
    toward zero."""
    return _decimal_str(*_int_form(x), digits)


def quadratic_json(x) -> dict:
    if isinstance(x, QuadraticReal):
        return {
            "a": str(x.a),
            "b": str(x.b),
            "D": x.d if not x.is_rational else None,
        }
    return {"a": str(x), "b": "0", "D": None}


def poly_json(p: ExactPolynomial) -> list[str]:
    return list(map(str, p.coefficients))


def series_json(order: int, coefficients) -> dict:
    return {"order": order, "coefficients": list(map(str, coefficients))}


def rational_form_json(form: RationalForm) -> dict:
    out = {"numerator": poly_json(form.numerator), "period_d": form.period}
    if form.summatory_power:
        out["summatory_power"] = form.summatory_power
    return out


def witness_json(w: PeriodWitness) -> dict:
    return {"preperiod": w.preperiod, "period": w.period}


def aperiodicity_json(verdict) -> dict:
    if isinstance(verdict, AperiodicByIrrationalPF):
        return {"verdict": "aperiodic-by-irrational-pf"}
    if isinstance(verdict, EventuallyPeriodic):
        return {
            "verdict": "eventually-periodic",
            "preperiod": verdict.preperiod,
            "period": verdict.period,
        }
    if isinstance(verdict, InconclusiveUpTo):
        return {
            "verdict": "inconclusive",
            "max_preperiod": verdict.preperiod_bound,
            "max_period": verdict.period_bound,
        }
    raise TypeError(f"not an aperiodicity verdict: {verdict!r}")


def series_verdict_json(verdict) -> dict:
    if isinstance(verdict, Rational):
        return {
            "kind": "rational",
            "form": rational_form_json(verdict.form),
            "witness": witness_json(verdict.witness),
        }
    if isinstance(verdict, TranscendentalByAperiodicity):
        return {"kind": "transcendental-by-aperiodicity", "reason": verdict.reason}
    if isinstance(verdict, InconclusiveUpTo):
        return {
            "kind": "inconclusive",
            "max_preperiod": verdict.preperiod_bound,
            "max_period": verdict.period_bound,
        }
    raise TypeError(f"not a series verdict: {verdict!r}")


def certificate_json(cert: ExclusionCertificate) -> dict:
    return {
        "degree": cert.poly_degree,
        "sha256": cert.poly_sha256,
        "interval": [str(cert.lower), str(cert.upper)],
        "root_count_in_interval": cert.root_count_in_interval,
        "sample_point": str(cert.sample_point),
        "sign_at_sample": cert.sample_sign,
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)
