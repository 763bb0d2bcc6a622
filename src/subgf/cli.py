"""Command line front end.

Exit codes: 0 success, 1 parse error (rule text, rule file or command line), 2
precondition violation, 3 inconclusive verdict under --strict.  A reader that
closes the output pipe early ends the run quietly, with exit 0.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, count, islice, repeat

from . import fibonacci as fib
from . import geometric
from .errors import RuleFileError, RuleSyntaxError, SubgfError
from .genfun import (
    CHARACTERISTIC,
    POSITION,
    _char_series,
    _scan_positions,
    series_verdict_of,
)
from .quadratic import _decimal_column
from .serialize import (
    aperiodicity_json,
    canonical_dumps,
    certificate_json,
    exact_str,
    poly_json,
    quadratic_json,
    rational_form_json,
    series_json,
    series_verdict_json,
    value_decimal,
    value_str,
    witness_json,
)
from .substitutions import (
    DEFAULT_BOUNDS,
    Analysis,
    InconclusiveUpTo,
    parse_substitution,
)

DEFAULT_ORDER = 2048
CSV_CHUNK_ROWS = 4096
DEFAULT_MAX_PREPERIOD, DEFAULT_MAX_PERIOD = DEFAULT_BOUNDS

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RuleFileError(exc) from None
    return parse_substitution(text)


def _write_csv(header: str, *columns) -> None:
    """Print the header and one row per index, the index column first and
    then one value of each column, each "%s"-formatted (its `str`).  Each
    chunk of CSV_CHUNK_ROWS rows is one %-format and one write: a write per
    row is slow, and one write holds the whole output in memory.  The rows
    are flattened as zip makes them, so zip reuses one row tuple and no
    chunk of row objects reaches the garbage collector."""
    rows = zip(count(), *columns)
    width = len(columns) + 1
    row_fmt = "%d" + ",%s" * len(columns) + "\n"
    sys.stdout.write(header + "\n")
    while values := tuple(chain.from_iterable(islice(rows, CSV_CHUNK_ROWS))):
        sys.stdout.write((row_fmt * (len(values) // width)) % values)


def _analyze(args) -> int:
    s = _load(args.file)
    analysis = Analysis(s, None, (args.max_preperiod, args.max_period))
    witness = analysis.primitivity_witness
    report = {
        "defaults": {
            "max_preperiod": args.max_preperiod,
            "max_period": args.max_period,
        },
        "substitution": {
            "alphabet": list(s.alphabet),
            "rules": dict(s.rules),
        },
        "matrix": [list(row) for row in analysis.matrix.rows],
        "primitivity_witness": witness,
    }
    inconclusive = False
    if witness is None:
        report["pf"] = None
        report["aperiodicity"] = None
        report["series"] = None
        report["geometric"] = None
        inconclusive = True
    else:
        data = analysis.pf
        report["pf"] = {
            "char_poly": poly_json(data.char_poly),
            "min_poly": poly_json(data.min_poly_of_pf),
            "is_rational": data.is_rational,
            "enclosure": {
                "lower": str(data.pf_lower),
                "upper": str(data.pf_upper),
            },
        }
        report["aperiodicity"] = aperiodicity_json(analysis.verdict)
        inconclusive |= isinstance(analysis.verdict, InconclusiveUpTo)
        series = {}
        for letter in s.alphabet:
            char_v = series_verdict_of(analysis, letter, CHARACTERISTIC)
            pos_v = series_verdict_of(analysis, letter, POSITION)
            inconclusive |= isinstance(char_v, InconclusiveUpTo)
            inconclusive |= isinstance(pos_v, InconclusiveUpTo)
            series[letter] = {
                "characteristic": series_verdict_json(char_v),
                "position": series_verdict_json(pos_v),
            }
        report["series"] = series
        report["geometric"] = None
        if len(s.alphabet) == 2:
            lengths = geometric.natural_lengths_of(analysis)
            cls = geometric.classify_two_letter_of(analysis, lengths)
            inconclusive |= cls.case == "inconclusive"
            report["geometric"] = {
                "lengths": {
                    a: quadratic_json(v) for a, v in lengths.by_letter.items()
                },
                "exact": lengths.exact,
                "radicand": lengths.radicand,
                "classification": _classification_json(cls),
            }
    print(canonical_dumps(report))
    if args.strict and inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _classification_json(cls) -> dict:
    out = {"case": cls.case, "verified": cls.verified}
    if cls.case == "equal-lengths":
        out["length"] = value_str(cls.shared_length)
    elif cls.case == "periodic-rational":
        out["numerator"] = poly_json(cls.numerator)
        out["period_d"] = cls.period
        out["difference"] = value_str(cls.difference)
        out["second_weight"] = value_str(cls.second_weight)
    elif cls.case == "transcendental":
        out["reason"] = cls.reason
    return out


def _expand(args) -> int:
    print(Analysis(_load(args.file)).prefix(args.n))
    return EXIT_OK


def _series(args) -> int:
    analysis = Analysis(_load(args.file))
    if args.kind == "char":
        ts = _char_series(analysis, args.letter, args.order)
    else:
        ts = _scan_positions(analysis, args.letter, args.order)
    if args.format == "json":
        payload = {
            "letter": args.letter,
            "kind": CHARACTERISTIC if args.kind == "char" else POSITION,
            **series_json(ts.order, ts.coefficients),
        }
        print(canonical_dumps(payload))
    else:
        _write_csv("index,value", ts.coefficients)
    return EXIT_OK


def _period(args) -> int:
    s = _load(args.file)
    if args.letter not in s.alphabet:
        raise SubgfError(f"letter {args.letter!r} not in alphabet")
    analysis = Analysis(s, None, (args.max_preperiod, args.max_period))
    witness = analysis.witness(args.letter)
    payload = {
        "letter": args.letter,
        "bounds": {
            "max_preperiod": args.max_preperiod,
            "max_period": args.max_period,
        },
        "witness": witness_json(witness) if witness else None,
        "rational_form": (
            rational_form_json(series_verdict_of(analysis, args.letter).form)
            if witness
            else None
        ),
    }
    print(canonical_dumps(payload))
    if args.strict and witness is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _roots(args) -> int:
    bound = fib.positivity_bound(args.level, args.tol)
    payload = {
        "level": bound.level,
        "tolerance": str(args.tol),
        "alpha_hat": str(bound.alpha_hat),
        "alpha_hat_decimal": value_decimal(bound.alpha_hat, 12),
        "binding": bound.binding,
        "bracket": [str(bound.bracket[0]), str(bound.bracket[1])],
        "certs": [
            {"polynomial": label, **certificate_json(cert)}
            for label, cert in sorted(bound.certificates.items())
        ],
    }
    print(canonical_dumps(payload))
    return EXIT_OK


def _geom(args) -> int:
    s = _load(args.file)
    analysis = Analysis(s)
    if args.lengths == "natural":
        lengths = geometric.natural_lengths_of(analysis)
        table = lengths.by_letter
        exact = lengths.exact
        radicand = lengths.radicand
    else:
        parts = args.lengths
        if len(parts) != len(s.alphabet):
            raise SubgfError(
                f"need {len(s.alphabet)} lengths, got {len(parts)}"
            )
        table = dict(zip(s.alphabet, parts))
        exact = True
        radicand = None
    prefix = analysis.prefix(args.order)
    c, d, ps, qs = geometric._endpoint_sums(s, table, prefix)
    if args.format == "csv":
        _write_csv(
            "index,exact,decimal50",
            map(exact_str, ps, qs, repeat(c), repeat(d), repeat("")),
            _decimal_column(ps, qs, c, d, 50),
        )
        return EXIT_OK
    payload = {
        "lengths": {a: quadratic_json(v) for a, v in table.items()},
        "exact": exact,
        "radicand": radicand,
        "order": args.order,
        "identity_ok": geometric._sums_ok(table, prefix, ps, qs),
        "endpoints_preview": [
            exact_str(p, q, c, d) for p, q in zip(ps[:8], qs[:8])
        ],
        "classification": None,
    }
    inconclusive = False
    if len(s.alphabet) == 2:
        cls = geometric.classify_two_letter_of(analysis, table)
        payload["classification"] = _classification_json(cls)
        inconclusive = cls.case == "inconclusive"
    print(canonical_dumps(payload))
    if args.strict and inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_EXPONENT = re.compile(r"[eE][-+]?0*(\d*)")


def _rational(text: str) -> Fraction:
    """A rational command-line literal (p/q, decimal or scientific), refused
    as a usage error when malformed, over a zero denominator, or with a
    decimal exponent of more than two digits, before any big integer is
    built."""
    exponent = _EXPONENT.search(text)
    if exponent and len(exponent[1]) > 2:
        raise argparse.ArgumentTypeError(
            f"exponent of more than two digits in {text!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _lengths(text: str):
    return text if text == "natural" else [_rational(p) for p in text.split(",")]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="subgf",
        description="Exact analysis of substitutions and their generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when any verdict is inconclusive")

    p = sub.add_parser("analyze", help="full report for a rule file")
    p.add_argument("file")
    p.add_argument("--max-preperiod", type=int, default=DEFAULT_MAX_PREPERIOD)
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    common(p)
    p.set_defaults(run=_analyze)

    p = sub.add_parser("expand", help="prefix of the fixed word")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_expand)

    p = sub.add_parser("series", help="characteristic or position series")
    p.add_argument("file")
    p.add_argument("--letter", required=True)
    p.add_argument("--kind", choices=["char", "pos"], default="char")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=_series)

    p = sub.add_parser("period", help="periodicity certificate for a letter")
    p.add_argument("file")
    p.add_argument("--letter", required=True)
    p.add_argument("--max-preperiod", type=int, default=DEFAULT_MAX_PREPERIOD)
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    common(p)
    p.set_defaults(run=_period)

    p = sub.add_parser("roots", help="certified positivity bound at a pair level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=_rational, default="1e-8",
                   help="rational or scientific tolerance, e.g. 1e-8 or 1/100000000")
    p.set_defaults(run=_roots)

    p = sub.add_parser("geom", help="geometric realisation and classification")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--lengths", type=_lengths, default="natural",
                   help="'natural' or comma-separated rationals per letter")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(run=_geom)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.run(args)
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (RuleSyntaxError, RuleFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SubgfError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
