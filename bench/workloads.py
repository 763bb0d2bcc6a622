"""The three workloads: their operations, reference outputs and checks.

analyze  `subgf analyze` on the 4 corpus files of tests/data and on
         substitutions generated from the seed (gen.py).  Many short
         prefixes, each recomputed several times per input: exercises
         substitutions, periodicity, genfun, geometric and low-degree
         realroots.  A cache of per-substitution facts shows here.
roots    `subgf roots --level 4` at the default tolerance: the paper's
         headline certificate, spent almost entirely building Sturm chains
         of degree ~750.  An analyze-only change leaves it unchanged.
stream   long single-prefix commands (expand, series CSV, geom CSV/JSON):
         streaming throughput of fixed_word_prefix, quadratic-field
         arithmetic and CSV/JSON output.  A prefix cache gains nothing here;
         a slower streaming kernel shows here first.

Every check is independent of `subgf`: corpus reports are compared with the
golden files, generated reports with numpy, roots with the certificate's
known values, and stream outputs with a brute-force expansion of the rule
table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "tests" / "data"
GOLDEN_DIR = ROOT / "tests" / "golden"
OWN_DATA = Path(__file__).resolve().parent / "data"
CORPUS = ("abab", "fib", "thue_morse", "xyz")

WORKLOADS = ("analyze", "roots", "stream")
GENERATED_PER_PASS = 24  # 6 of each alphabet size
MAX_PASSES = 4
# analyze: two passes give 56 latencies, enough for a p80 tail with at least
# 10 samples beyond it
MIN_PASSES = {"analyze": 2, "roots": 1, "stream": 1}
# A traced run pairs its traced pass with an untraced one, to compare stdout
# and wall time, except on roots: one level-4 certificate takes 60-75 s here,
# and two would not fit the 180 s a run may take.
PAIRED_TRACE = {"analyze": True, "roots": False, "stream": True}

EXPAND_N = 10**6
SERIES_ORDER = 2 * 10**5
GEOM_ORDER = 2 * 10**4

ROOTS_ALPHA = Fraction("-0.99729758")
ROOTS_ALPHA_TOL = Fraction("2e-8")
ROOTS_CERTS = {  # label -> (degree, sha256 of the coefficient list)
    "R": (608, "cf69f3a2dcf34d0c7a5c1520d21d98c43f51d0ca85a0f32006f4cb1cb5a99558"),
    "S": (753, "3e44e62c9e7c8431ca37affd7ad7030759f4e8c68a814103b30a7f3218833912"),
    "T": (609, "c11050e0ebc3572abf5232dab8b9f71c7ce0ebacdaa2cbc44d85f734717e18dc"),
}

# rule tables of the stream inputs; each fixed word starts with the first
# letter, whose image starts with itself
RULES = {
    "fib": {"a": "ab", "b": "a"},
    "tribonacci": {"a": "abc", "b": "ab", "c": "a"},
    "thue_morse": {"a": "ab", "b": "ba"},
    "xyz": {"x": "xyzy", "y": "xy", "z": "zy"},
}


@dataclass
class Op:
    label: str
    argv: list[str]
    images: list[str] | None = None  # generated analyze input
    info: dict = field(default_factory=dict)


def plan(workload: str, seed: int, work_dir: Path) -> list[list[Op]]:
    """Operations of each pass, with generated inputs written to work_dir."""
    if workload == "roots":
        return [[Op("roots-4", ["roots", "--level", "4"])]] * MAX_PASSES
    if workload == "stream":
        return [stream_ops()] * MAX_PASSES
    work_dir.mkdir(parents=True, exist_ok=True)
    generated = gen.generate(seed, GENERATED_PER_PASS * MAX_PASSES)
    passes = []
    for p in range(MAX_PASSES):
        ops = [
            Op(f"corpus-{name}", ["analyze", str(CORPUS_DIR / f"{name}.sub")])
            for name in CORPUS
        ]
        for i in range(GENERATED_PER_PASS):
            images = generated[p * GENERATED_PER_PASS + i]
            path = work_dir / f"p{p}_{i:02d}.sub"
            path.write_text(gen.rule_text(images))
            ops.append(Op(f"gen-p{p}-{i:02d}", ["analyze", str(path)], images))
        passes.append(ops)
    return passes


def stream_ops() -> list[Op]:
    fib = str(CORPUS_DIR / "fib.sub")
    return [
        Op("expand-fib", ["expand", fib, "--n", str(EXPAND_N)]),
        Op("expand-tribonacci",
           ["expand", str(OWN_DATA / "tribonacci.sub"), "--n", str(EXPAND_N)]),
        Op("series-thue_morse-char",
           ["series", str(CORPUS_DIR / "thue_morse.sub"), "--letter", "a",
            "--kind", "char", "--order", str(SERIES_ORDER), "--format", "csv"]),
        Op("series-xyz-pos",
           ["series", str(CORPUS_DIR / "xyz.sub"), "--letter", "y",
            "--kind", "pos", "--order", str(SERIES_ORDER), "--format", "csv"]),
        Op("geom-fib-csv",
           ["geom", fib, "--order", str(GEOM_ORDER), "--format", "csv"]),
        Op("geom-fib-json",
           ["geom", fib, "--order", str(GEOM_ORDER), "--format", "json"]),
    ]


# -- reference outputs --------------------------------------------------------


def expand(rules: dict[str, str], n: int, letter: str | None = None) -> str:
    """Prefix of the fixed word by brute force: apply the rule table to the
    first letter until the word has n letters (or n copies of `letter`)."""
    table = str.maketrans(rules)
    word = next(iter(rules))
    while (word.count(letter) if letter else len(word)) < n:
        word = word.translate(table)
    return word if letter else word[:n]


def char_csv(prefix: str, letter: str) -> str:
    rows = "".join(f"{i},{int(ch == letter)}\n" for i, ch in enumerate(prefix))
    return "index,value\n" + rows


def position_csv(word: str, letter: str, order: int) -> str:
    positions = [0]
    for i, ch in enumerate(word):
        if len(positions) > order:
            break
        if ch == letter:
            positions.append(i)
    return "index,value\n" + "".join(f"{i},{p}\n" for i, p in enumerate(positions))


def fib_endpoints(prefix: str) -> list[tuple[Fraction, Fraction]]:
    """Endpoints a + b*sqrt(5) of the natural Fibonacci tiling: tile a has
    length (1 + sqrt 5)/2, tile b length 1."""
    out = [(Fraction(0), Fraction(0))]
    count_a = count_b = 0
    for ch in prefix:
        count_a += ch == "a"
        count_b += ch == "b"
        out.append((Fraction(count_a, 2) + count_b, Fraction(count_a, 2)))
    return out


def _exact(a: Fraction, b: Fraction, sep: str) -> str:
    if b == 0:
        return str(a)
    return f"{a}{sep}+{sep}{b}*sqrt(5)"


def _decimal50(a: Fraction, b: Fraction) -> str:
    # a, b >= 0 with denominators dividing 2: floor(10**50 (a + b sqrt 5))
    # = floor((2a 10**50 + isqrt(20 b**2 10**100)) / 2), exact because 2a and
    # 2b are integers and an irrational part cannot cross an integer
    two_a, two_b = int(2 * a), int(2 * b)
    scaled = (two_a * 10**50 + isqrt(5 * two_b**2 * 10**100)) // 2
    s = str(scaled).rjust(51, "0")
    return f"{s[:-50]}.{s[-50:]}"


def geom_csv(prefix: str) -> str:
    rows = "".join(
        f"{i},{_exact(a, b, '')},{_decimal50(a, b)}\n"
        for i, (a, b) in enumerate(fib_endpoints(prefix))
    )
    return "index,exact,decimal50\n" + rows


def geom_json(prefix: str) -> dict:
    return {
        "lengths": {
            "a": {"a": "1/2", "b": "1/2", "D": 5},
            "b": {"a": "1", "b": "0", "D": None},
        },
        "exact": True,
        "radicand": 5,
        "order": len(prefix),
        "identity_ok": True,
        "endpoints_preview": [_exact(a, b, " ") for a, b in fib_endpoints(prefix)[:8]],
        # the Fibonacci word is aperiodic (irrational PF eigenvalue) and its
        # tiles have unequal algebraic lengths
        "classification": {
            "case": "transcendental",
            "verified": True,
            "reason": "aperiodic-word-with-unequal-algebraic-lengths",
        },
    }


def references(workload: str) -> dict:
    """Expected outputs by op label (built before timing, never timed)."""
    if workload == "analyze":
        return {
            f"corpus-{name}": (GOLDEN_DIR / f"{name}.json").read_text()
            for name in CORPUS
        }
    if workload == "roots":
        return {}
    fib = expand(RULES["fib"], EXPAND_N)
    return {
        "expand-fib": fib + "\n",
        "expand-tribonacci": expand(RULES["tribonacci"], EXPAND_N) + "\n",
        "series-thue_morse-char": char_csv(
            expand(RULES["thue_morse"], SERIES_ORDER + 1), "a"
        ),
        "series-xyz-pos": position_csv(
            expand(RULES["xyz"], SERIES_ORDER, letter="y"), "y", SERIES_ORDER
        ),
        "geom-fib-csv": geom_csv(fib[:GEOM_ORDER]),
        "geom-fib-json": geom_json(fib[:GEOM_ORDER]),
    }


# -- checks: each returns None when the output is right, else the reason ----


def check(op: Op, stdout: str, refs: dict) -> str | None:
    if op.label == "roots-4":
        return check_roots(stdout)
    if op.images is not None:
        return check_generated(stdout, op)
    expected = refs[op.label]
    if isinstance(expected, dict):
        return check_json(stdout, expected)
    return check_text(stdout, expected)


def check_text(stdout: str, expected: str) -> str | None:
    if stdout == expected:
        return None
    got, want = stdout.splitlines(), expected.splitlines()
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: got {g[:80]!r}, expected {w[:80]!r}"
    return f"got {len(got)} lines, expected {len(want)}"


def check_json(stdout: str, expected: dict) -> str | None:
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}"
    if not isinstance(got, dict):
        return "not a JSON object"
    bad = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
    return f"fields differ: {bad}" if bad else None


def check_roots(stdout: str) -> str | None:
    try:
        report = json.loads(stdout)
        alpha = Fraction(report["alpha_hat"])
        certs = {c["polynomial"]: c for c in report["certs"]}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed roots report: {exc!r}"
    if abs(alpha - ROOTS_ALPHA) > ROOTS_ALPHA_TOL:
        return f"alpha_hat {alpha} not within {ROOTS_ALPHA_TOL} of {ROOTS_ALPHA}"
    if report.get("binding") != "T":
        return f"binding block {report.get('binding')!r}, expected 'T'"
    if sorted(certs) != sorted(ROOTS_CERTS):
        return f"certificates for {sorted(certs)}, expected R, S, T"
    for label, (degree, digest) in ROOTS_CERTS.items():
        cert = certs[label]
        if cert.get("degree") != degree or cert.get("sha256") != digest:
            return f"{label}: degree/fingerprint changed"
        if cert.get("root_count_in_interval") != 0 or cert.get("sign_at_sample") != "+":
            return f"{label}: not certified root-free and positive"
        if cert.get("interval") != [report["alpha_hat"], "0"]:
            return f"{label}: interval {cert.get('interval')} is not (alpha_hat, 0)"
    return None


def check_generated(stdout: str, op: Op) -> str | None:
    """Char poly against numpy.poly, PF enclosure against numpy's largest
    real eigenvalue; records the input's properties in op.info."""
    import numpy

    rows = gen.matrix(op.images)
    k = len(rows)
    op.info = {"k": k, "sympy": k >= 4}
    try:
        report = json.loads(stdout)
        pf = report["pf"]
        char = [Fraction(c) for c in pf["char_poly"]]
        lower = Fraction(pf["enclosure"]["lower"])
        upper = Fraction(pf["enclosure"]["upper"])
        op.info["rational"] = bool(pf["is_rational"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed analyze report: {exc!r}"
    if report.get("matrix") != rows:
        return "matrix differs from the rule table's letter counts"
    want = [round(c) for c in numpy.poly(numpy.array(rows, dtype=float))]
    if char[::-1] != want:
        return f"char_poly {char[::-1]} differs from numpy {want}"
    eigs = numpy.linalg.eigvals(numpy.array(rows, dtype=float))
    lam = max(e.real for e in eigs if abs(e.imag) <= 1e-9 * max(1.0, abs(e)))
    slack = 1e-9 * max(1.0, lam)
    if not float(lower) - slack <= lam <= float(upper) + slack:
        return f"PF enclosure [{float(lower)}, {float(upper)}] misses {lam}"
    return None
