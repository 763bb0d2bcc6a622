import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from subgf import genfun, periodicity, quadratic, realroots, substitutions
from subgf.cli import main
from subgf.quadratic import QuadraticReal
from subgf.serialize import canonical_dumps
from test_substitutions import _random_primitive_rules

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_prefix(self, capsys):
        code, out, _ = run(capsys, "expand", str(DATA / "fib.sub"), "--n", "13")
        assert code == 0
        assert out.strip() == "abaababaabaab"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "expand", str(DATA / "fib.sub"), "--n", "0")
        assert code == 0
        assert out.strip() == ""


class TestSeries:
    def test_char_json(self, capsys):
        code, out, _ = run(
            capsys, "series", str(DATA / "fib.sub"),
            "--letter", "a", "--kind", "char", "--order", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "0", "1", "1", "0", "1", "0", "1"]

    def test_pos_csv(self, capsys):
        code, out, _ = run(
            capsys, "series", str(DATA / "fib.sub"),
            "--letter", "a", "--kind", "pos", "--order", "6", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,value"
        assert lines[1:] == ["0,0", "1,0", "2,2", "3,3", "4,5", "5,7", "6,8"]

    @pytest.mark.parametrize("argv", [
        ["series", "--letter", "a", "--order", "9999", "--format", "csv"],
        ["geom", "--order", "9999", "--format", "csv"],
    ])
    def test_csv_is_written_in_chunks_of_rows(self, monkeypatch, argv):
        from subgf.cli import CSV_CHUNK_ROWS

        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main([argv[0], str(DATA / "fib.sub"), *argv[1:]]) == 0
        header, *chunks = writes
        assert header.count("\n") == 1
        assert [c.count("\n") for c in chunks] == [CSV_CHUNK_ROWS, CSV_CHUNK_ROWS, 1808]
        rows = "".join(chunks).splitlines()
        assert [int(r.split(",")[0]) for r in rows] == list(range(10000))

    def test_unknown_letter_is_precondition_error(self, capsys):
        code, _, err = run(
            capsys, "series", str(DATA / "fib.sub"), "--letter", "q",
        )
        assert code == 2
        assert "q" in err

    @pytest.mark.parametrize("kind", ["char", "pos"])
    def test_negative_order_is_precondition_error(self, capsys, kind):
        code, out, err = run(
            capsys, "series", str(DATA / "fib.sub"),
            "--letter", "a", "--kind", kind, "--order", "-1",
        )
        assert code == 2
        assert out == ""
        assert ">= 0" in err


class TestPeriod:
    def test_rational_letter(self, capsys):
        code, out, _ = run(capsys, "period", str(DATA / "xyz.sub"), "--letter", "y")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"] == {"preperiod": 0, "period": 2}
        assert doc["rational_form"] == {"numerator": ["0", "1"], "period_d": 2}

    def test_aperiodic_letter_strict(self, capsys):
        code, out, _ = run(
            capsys, "period", str(DATA / "fib.sub"), "--letter", "a", "--strict",
        )
        assert code == 3
        assert json.loads(out)["witness"] is None

    # witnesses that the base prefix shows but the fixed word refutes: b
    # first occurs at position 435, past the 10-letter search at (0, 1); a
    # occurs infinitely often, but the 23-letter search at (3, 2) sees it once
    @pytest.mark.parametrize("rules, letter, bounds", [
        ("a -> decc\nb -> c\nc -> eeae\nd -> ebce\ne -> cc\n", "b", ("0", "1")),
        ("a -> b\nb -> d\nc -> ae\nd -> dc\ne -> eebe\n", "a", ("3", "2")),
    ])
    def test_unproved_witness_is_dropped(self, capsys, tmp_path, rules, letter, bounds):
        path = tmp_path / "r.sub"
        path.write_text(rules)
        opts = ["--max-preperiod", bounds[0], "--max-period", bounds[1]]
        code, out, _ = run(
            capsys, "period", str(path), "--letter", letter, *opts, "--strict"
        )
        assert code == 3
        assert json.loads(out) == {
            "letter": letter,
            "bounds": {"max_preperiod": int(bounds[0]), "max_period": int(bounds[1])},
            "witness": None,
            "rational_form": None,
        }
        code, out, _ = run(capsys, "analyze", str(path), *opts)
        assert code == 0
        verdict = json.loads(out)["series"][letter]["characteristic"]
        assert verdict["kind"] == "inconclusive"


@pytest.mark.parametrize("argv", [
    ["analyze", str(DATA / "xyz.sub")],
    ["period", str(DATA / "xyz.sub"), "--letter", "y"],
])
def test_period_search_over_the_limit_refused_up_front(capsys, argv):
    # a certificate of 3 * 10**8 letters is over substitutions.MAX_EXTENDED_LETTERS
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--max-period", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "exceeds the limit of 10000000" in err


@pytest.mark.parametrize("command", ["analyze", "period"])
def test_largest_max_period_under_the_limit(capsys, command):
    # 2 * 5000000 letters fit in the limit of 10**7: each letter's search
    # reads them and finds no period, and the span B of its position verdict,
    # about 2 * 5000000, is not searched (2 B would pass the limit); at
    # 5000001 the search at the max period alone is refused
    argv = [command, str(DATA / "thue_morse.sub"), "--max-preperiod", "2"]
    argv += ["--letter", "a"] if command == "period" else []
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--max-period", "5000000")
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    doc = json.loads(out)
    if command == "period":
        assert doc["witness"] is None
    else:
        assert doc["aperiodicity"]["verdict"] == "inconclusive"
        for verdicts in doc["series"].values():
            assert {v["kind"] for v in verdicts.values()} == {"inconclusive"}
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--max-period", "5000001")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: period search over 10000002 letters exceeds the "
                   "limit of 10000000\n")


WIDE = f"a -> {'ab' * 500}a\nb -> {'ba' * 500}b\n"  # lambda = 1001


def test_wide_period_proof_is_quick(capsys, tmp_path):
    # a period-2 witness in the 10**6-letter base prefix; the proof reads
    # sigma of the two pairs ab and ba, 4004 letters
    rules = tmp_path / "wide.sub"
    rules.write_text(WIDE)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "analyze", str(rules), "--max-preperiod", "0", "--max-period", "100000"
    )
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["aperiodicity"] == {
        "verdict": "eventually-periodic", "preperiod": 0, "period": 2
    }
    for letter in "ab":
        assert doc["series"][letter]["characteristic"]["kind"] == "rational"


def test_period_proof_limit_is_inclusive(capsys, monkeypatch, tmp_path):
    rules = tmp_path / "wide.sub"
    rules.write_text(WIDE)
    argv = ["analyze", str(rules), "--max-preperiod", "0", "--max-period", "2"]
    wide = substitutions.parse_substitution(WIDE)
    assert substitutions.Analysis(wide).pairs == {"ab", "ba"}
    monkeypatch.setattr(substitutions, "MAX_EXTENDED_LETTERS", 4004)
    assert substitutions.Analysis(wide).has_period("a", 2)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["aperiodicity"]["period"] == 2
    monkeypatch.setattr(substitutions, "MAX_EXTENDED_LETTERS", 4003)
    assert substitutions.Analysis(wide).has_period("a", 2) is None
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["aperiodicity"]["verdict"] == "inconclusive"


def test_period_whose_proof_is_too_large_stays_undecided(monkeypatch):
    # at (2, 99999) the 2 B letters of b's position search have the spurious
    # period 262144, whose proof needs 16777216 letters: it is not decided,
    # and no prefix is read to refute it
    analysis = substitutions.Analysis(substitutions.parse_substitution(S7_37), None,
                                      (2, 99999))
    calls, prefix = [], substitutions.Analysis.prefix
    monkeypatch.setattr(substitutions.Analysis, "prefix",
                        lambda self, n: calls.append(n) or prefix(self, n))
    decided = analysis.has_period("b", 262144)
    assert calls == []
    assert decided is None
    span = analysis.position("b", 100000) - analysis.position("b", 1)
    assert analysis.period("b", span) is None


S10_29 = "a -> bbbc\nb -> cbcb\nc -> aabc\n"  # input 29 of `bench/gen.py` seed 10


@pytest.mark.parametrize("pre", ["0", "2"])
def test_refused_period_proof_leaves_the_run_reporting(capsys, tmp_path, pre):
    # each letter's search over 2 * 3333333 letters finds d = 2097152, whose
    # proof would read 268435456 letters: every letter stays undecided, and
    # the run reports instead of exiting 2
    path = tmp_path / "s10_29.sub"
    path.write_text(S10_29)
    argv = [str(path), "--max-preperiod", pre, "--max-period", "3333333"]
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["aperiodicity"]["verdict"] == "inconclusive"
    for verdicts in doc["series"].values():
        assert {v["kind"] for v in verdicts.values()} == {"inconclusive"}
    code, out, err = run(capsys, "period", *argv, "--letter", "a")
    assert code == 0 and err == ""
    assert json.loads(out)["witness"] is None


@pytest.mark.parametrize("name", ["fib", "xyz", "thue_morse"])
@pytest.mark.parametrize("command", ["analyze", "period"])
@pytest.mark.parametrize("pre, per", [("-1", "200"), ("1000", "0")])
def test_invalid_bounds_refused_on_every_input(capsys, name, command, pre, per):
    # fib's letters are all irrational, so no period search sees its bounds
    path = DATA / f"{name}.sub"
    first = substitutions.parse_substitution(path.read_text()).alphabet[0]
    letter = ["--letter", first] if command == "period" else []
    code, out, err = run(capsys, command, str(path), *letter,
                         "--max-preperiod", pre, "--max-period", per)
    assert code == 2 and out == ""
    assert "bounds must satisfy max_preperiod >= 0, max_period >= 1" in err


@pytest.mark.parametrize("argv", [
    ["expand", "--n", "1000000000"],
    ["series", "--letter", "a", "--order", "100000000"],
    ["series", "--letter", "b", "--kind", "pos", "--order", "100000000"],
    ["geom", "--order", "100000000"],
    ["geom", "--lengths", "2,1", "--order", "100000000", "--format", "csv"],
])
def test_prefix_over_the_limit_refused_before_it_is_built(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(DATA / "fib.sub"), *argv[1:])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "exceeds the limit of 10000000" in err


def test_late_position_series_refusal_is_quick(capsys, monkeypatch):
    # 9 * 10**6 occurrences of b need more than 10**7 letters, which the
    # count tables show before any prefix is built
    counts = _count_facts(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "series", str(DATA / "fib.sub"),
        "--letter", "b", "--kind", "pos", "--order", "9000000",
    )
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == ("error: prefix with 9000000 occurrences of 'b' exceeds the "
                   "limit of 10000000\n")
    assert counts["prefix"] == counts["_build"] == 0


def test_prefix_limit_is_inclusive(capsys, monkeypatch):
    # 600 letters, the certificate bound of the default max period 200
    monkeypatch.setattr(substitutions, "MAX_EXTENDED_LETTERS", 600)
    fib = substitutions.parse_substitution((DATA / "fib.sub").read_text())
    code, out, _ = run(capsys, "expand", str(DATA / "fib.sub"), "--n", "600")
    assert code == 0 and out == fib.apply_power("a", 14)[:600] + "\n"
    code, out, err = run(capsys, "expand", str(DATA / "fib.sub"), "--n", "601")
    assert code == 2 and out == ""
    assert "prefix of 601 letters exceeds the limit of 600" in err


def test_periodic_word_of_rare_letters_reports(capsys, tmp_path):
    # x = (a b**49999)**inf has period 50000 > 200: the 201st a is letter
    # 10**7, so the span B of a's position verdict is past the limit, and
    # every verdict is inconclusive (exit 2 when the occurrences were scanned)
    path = tmp_path / "long.sub"
    path.write_text(f"a -> a{'b' * 49999}\nb -> a{'b' * 49999}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["aperiodicity"] == {"verdict": "inconclusive", "max_preperiod": 1000,
                                   "max_period": 200}
    for verdicts in doc["series"].values():
        assert {v["kind"] for v in verdicts.values()} == {"inconclusive"}


def test_rare_letter_with_span_within_the_limit_keeps_its_position_verdict(
    capsys, tmp_path
):
    # x = (a b**16999)**inf: the span B of a's position verdict is 200 * 17000
    # = 3.4 * 10**6 letters, whose 3 * B pass the limit but whose 2 * B
    # searched do not; D = 17000 has a 51000-letter certificate, so a keeps
    # the Rational position verdict (2, 1) with numerator 17000 X**2
    path = tmp_path / "long.sub"
    path.write_text(f"a -> a{'b' * 16999}\nb -> a{'b' * 16999}\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    a = json.loads(out)["series"]["a"]
    assert a["characteristic"]["kind"] == "inconclusive"
    assert a["position"] == {
        "kind": "rational",
        "form": {"numerator": ["0", "0", "17000"], "period_d": 1, "summatory_power": 1},
        "witness": {"preperiod": 2, "period": 1},
    }


def test_irrational_letters_are_not_scanned_at_large_bounds(capsys, tmp_path):
    # every frequency is irrational, so no letter needs the 10**6 occurrences
    # whose scan would pass the prefix limit (an exit 2 before the skip)
    path = tmp_path / "five.sub"
    path.write_text("a -> bead\nb -> dac\nc -> ba\nd -> aac\ne -> bde\n")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "analyze", str(path), "--max-preperiod", "0", "--max-period", "100000"
    )
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["aperiodicity"] == {"verdict": "aperiodic-by-irrational-pf"}


def test_faked_period_of_an_irrational_letter_is_not_searched(capsys, monkeypatch, tmp_path):
    # the word is (a**200 b)**200 a ..., so b's indicator repeats with period
    # 201 over the 2010 letters searched at these bounds, but lambda =
    # 100 + sqrt(10001) makes b's frequency irrational: no scan, no witness
    rules = "a -> " + "a" * 200 + "b\nb -> a\n"
    s = substitutions.parse_substitution(rules)
    analysis = substitutions.Analysis(s, None, (0, 201))
    assert periodicity.detect_period(analysis.indicator("b", 2010), 0, 201).period == 201
    assert analysis.irrational_letters == {"a", "b"}
    path = tmp_path / "long.sub"
    path.write_text(rules)
    counts = _count_facts(monkeypatch)
    code, out, _ = run(capsys, "analyze", str(path), "--max-preperiod", "0",
                       "--max-period", "201")
    assert code == 0 and counts["detect_period"] == 0
    for verdicts in json.loads(out)["series"].values():
        assert {v["kind"] for v in verdicts.values()} == {"transcendental-by-aperiodicity"}


def test_large_period_bound_pinned(capsys):
    # recorded with the period search that XORs both shifted copies for every
    # candidate d (43 s there); a search that is quadratic again shows as a
    # slow test, the sha256 as a changed witness
    code, out, _ = run(capsys, "analyze", str(DATA / "xyz.sub"), "--max-period", "20000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c9c23194b284a215f957b5b038338827645b3cd5d882dd26cd0a60f095bd541b"
    )


def test_gaps_over_255_pinned(capsys, tmp_path):
    # every gap between two b's is 301 or 302, past the one-byte ids of the
    # position verdict; recorded before the verdict read gaps from zero runs
    path = tmp_path / "wide.sub"
    path.write_text(f"a -> {'a' * 300}b\nb -> a\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "763bb4a7024d82c955c6a27bbcf3daa45d8bfec8bc8cb5955006ddbbd3f85ab2"
    )


# a position witness (2, 1) with no characteristic one at (3, 2): every
# letter's indicator has period 3; and a rule file whose rare letter d
# (frequency about 1/21) the position verdict once scanned for 10**6
# occurrences at --max-period 100000, past the prefix limit
CASE_III = "a -> ba\nb -> ac\nc -> cb\n"
RARE = "a -> eda\nb -> bee\nc -> ccbe\nd -> cb\ne -> ca\n"
S7_37 = "a -> ccab\nb -> cbac\nc -> aaab\n"  # input 37 of `bench/gen.py` seed 7


def test_position_witness_without_a_characteristic_one_pinned(capsys, tmp_path):
    # recorded with the position verdict searching the gaps
    path = tmp_path / "c3.sub"
    path.write_text(CASE_III)
    code, out, _ = run(capsys, "analyze", str(path), "--max-preperiod", "3",
                       "--max-period", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e9962097d1f6be24fdf5a22bf284d37fd4ec0cdff610cc14360c2d0c9a529426"
    )
    for verdicts in json.loads(out)["series"].values():
        assert verdicts["characteristic"]["kind"] == "inconclusive"
        assert verdicts["position"]["witness"] == {"preperiod": 2, "period": 1}


def test_rare_letter_needs_no_long_scan(capsys, monkeypatch, tmp_path):
    # at max preperiod 0 no position witness exists, so nothing past the
    # characteristic search over two periods of 10**5 letters is built (the
    # gap search asked for 16 * 10**6 letters and exited 2)
    path = tmp_path / "rare.sub"
    path.write_text(RARE)
    longest, prefix = [0], substitutions.Analysis.prefix

    def recorded(self, n):
        longest[0] = max(longest[0], n)
        return prefix(self, n)

    monkeypatch.setattr(substitutions.Analysis, "prefix", recorded)
    code, out, err = run(capsys, "analyze", str(path), "--max-preperiod", "0",
                         "--max-period", "100000")
    assert code == 0 and err == ""
    assert longest[0] == 2 * 10**5
    for verdicts in json.loads(out)["series"].values():
        assert {v["kind"] for v in verdicts.values()} == {"inconclusive"}


def test_verdict_searches_are_pinned(capsys, tmp_path):
    # the sha256 of every exit code and stdout of `analyze` on the corpus,
    # CASE_III and RARE at five bound sets, recorded with the position
    # verdict searching the gaps: a change to either verdict search shows
    paths = [DATA / f"{name}.sub" for name in ("abab", "fib", "thue_morse", "xyz")]
    for name, rules in (("c3", CASE_III), ("rare", RARE)):
        paths.append(tmp_path / f"{name}.sub")
        paths[-1].write_text(rules)
    digest = hashlib.sha256()
    for pre, per in (("1000", "200"), ("0", "5"), ("3", "2"), ("0", "1"), ("2", "1")):
        for path in paths:
            code, out, _ = run(capsys, "analyze", str(path), "--max-preperiod", pre,
                               "--max-period", per)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "cc09d6722c1a85c46a223bf936965cd51b29dcbf5964e458fb805f995501ad16"
    )


def test_large_bound_verdicts_pinned(capsys, tmp_path):
    # as above at two large bound pairs, recorded with the searches over 10
    # periods: a window of two periods must return the same proved periods,
    # and a certificate sized from the proved period the same forms
    paths = [DATA / f"{name}.sub" for name in ("abab", "fib", "thue_morse", "xyz")]
    for name, rules in (("c3", CASE_III), ("rare", RARE), ("s7_37", S7_37)):
        paths.append(tmp_path / f"{name}.sub")
        paths[-1].write_text(rules)
    digest = hashlib.sha256()
    for pre, per in (("0", "100000"), ("2", "99999")):
        for path in paths:
            code, out, _ = run(capsys, "analyze", str(path), "--max-preperiod", pre,
                               "--max-period", per)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "c317dd699ca3a121cce52513abf022cd5c5e071a09fa10e7cd11d44b5b82f1aa"
    )


def test_generated_inputs_pinned(capsys, tmp_path):
    # the sha256 of every exit code and stdout of `analyze` on 300 generated
    # primitive rules at three bound pairs, recorded before the period proof
    # left an undecided letter in place of its refusal
    digest = hashlib.sha256()
    paths = []
    for i, rules in enumerate(_random_primitive_rules(random.Random(40), 300)):
        paths.append(tmp_path / f"r{i}.sub")
        paths[-1].write_text("".join(f"{a} -> {w}\n" for a, w in rules.items()))
    for pre, per in (("1000", "200"), ("0", "100000"), ("2", "99999")):
        for path in paths:
            code, out, _ = run(capsys, "analyze", str(path), "--max-preperiod", pre,
                               "--max-period", per)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "fa880cef4f3b8c548ce8a2c3ac3e6088faa2a4ad4e8c22af664de3a61530429d"
    )


def test_period_of_an_irrational_letter_streams_no_word(capsys, monkeypatch):
    counts = _count_facts(monkeypatch)
    code, out, _ = run(capsys, "period", str(DATA / "fib.sub"), "--letter", "a")
    assert code == 0 and json.loads(out)["witness"] is None
    assert counts["prefix"] == counts["_build"] == 0


class TestRoots:
    def test_level_one(self, capsys):
        code, out, _ = run(capsys, "roots", "--level", "1", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["binding"] == "R"
        assert doc["alpha_hat_decimal"].startswith("-0.90159")
        assert len(doc["certs"]) == 3
        assert all(c["root_count_in_interval"] == 0 for c in doc["certs"])

    def test_level_five_pinned(self, capsys):
        # recorded with the certificates proved by `certify_positive` on
        # (alpha_hat, 0) itself, independently of the isolation counts
        code, out, _ = run(capsys, "roots", "--level", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3ff48c630bb261360388aaa63fd642d1c16c5d96a3426db001c9279104677a1b"
        )
        doc = json.loads(out)
        assert doc["binding"] == "R"
        assert doc["alpha_hat"] == "-134175499/134217728"  # -134175499 / 2**27
        assert doc["bracket"] == ["-33543875/33554432", "-134175499/134217728"]
        degrees = {c["polynomial"]: c["degree"] for c in doc["certs"]}
        assert degrees == {"R": 2583, "S": 3192, "T": 2582}

    def test_level_six_refused_up_front(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "roots", "--level", "6")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "exceeds the supported range 5" in err


@pytest.mark.parametrize("argv, code", [
    (["roots", "--level", "2", "--tol", "1"], 2),
    (["roots", "--level", "2", "--tol", "2"], 2),
    (["roots", "--level", "5", "--tol", "1e-99"], 2),
    (["roots", "--level", "5", "--tol", "1/" + "1" + "0" * 31], 2),
    (["roots", "--level", "2", "--tol", "1/0"], 1),
    (["roots", "--level", "2", "--tol", "x"], 1),
    (["roots", "--level", "2", "--tol", "1e999999999"], 1),
    (["roots", "--level", "4", "--tol", "1e-300"], 1),
    (["geom", str(DATA / "fib.sub"), "--lengths", "1/0,1"], 1),
    (["geom", str(DATA / "fib.sub"), "--lengths", "1e999999999,1"], 1),
])
def test_bad_rational_literal_refused_up_front(capsys, argv, code):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (got, out) == (code, "")
    assert "error" in err and "Traceback" not in err


class TestGeom:
    def test_natural_json(self, capsys):
        code, out, _ = run(capsys, "geom", str(DATA / "fib.sub"), "--order", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity_ok"] is True
        assert doc["lengths"]["a"] == {"a": "1/2", "b": "1/2", "D": 5}
        assert doc["classification"]["case"] == "transcendental"
        assert doc["endpoints_preview"][1] == "1/2 + 1/2*sqrt(5)"

    def test_explicit_lengths_csv(self, capsys):
        code, out, _ = run(
            capsys, "geom", str(DATA / "abab.sub"),
            "--order", "4", "--lengths", "2,1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,exact,decimal50"
        assert lines[1].startswith("0,0,0.0")
        assert lines[2].split(",")[1] == "2"

    def test_wrong_length_count(self, capsys):
        code, _, err = run(
            capsys, "geom", str(DATA / "fib.sub"), "--lengths", "1,2,3",
        )
        assert code == 2


class TestAnalyze:
    @pytest.mark.parametrize("name", ["fib", "xyz", "abab", "thue_morse"])
    def test_matches_golden_file(self, capsys, name):
        code, out, _ = run(capsys, "analyze", str(DATA / f"{name}.sub"))
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", ["fib", "xyz", "abab", "thue_morse"])
    def test_json_round_trip_is_byte_identical(self, capsys, name):
        code, out, _ = run(capsys, "analyze", str(DATA / f"{name}.sub"))
        assert code == 0
        body = out[:-1] if out.endswith("\n") else out
        assert canonical_dumps(json.loads(body)) == body

    def test_strict_inconclusive(self, capsys):
        code, _, _ = run(
            capsys, "analyze", str(DATA / "thue_morse.sub"), "--strict",
        )
        assert code == 3

    def test_strict_conclusive(self, capsys):
        code, _, _ = run(capsys, "analyze", str(DATA / "fib.sub"), "--strict")
        assert code == 0

    def test_order_option_removed(self, capsys):
        code, _, err = run(capsys, "analyze", str(DATA / "fib.sub"), "--order", "5")
        assert code == 1
        assert "--order" in err

    @pytest.mark.parametrize("name", ["fib", "xyz", "abab", "thue_morse"])
    def test_each_fact_computed_once(self, capsys, monkeypatch, name):
        irrational = IRRATIONAL[name]
        counts = _count_facts(monkeypatch)
        code, out, _ = run(capsys, "analyze", str(DATA / f"{name}.sub"))
        assert out == (GOLDEN / f"{name}.json").read_text()
        k = len(json.loads(out)["substitution"]["alphabet"])
        scanned = len(irrational) < k
        assert counts["pf_data"] == 1
        assert counts["characteristic_polynomial"] == 1
        assert counts["is_primitive"] == 1
        # the PF enclosure from the located cell, with no bisection
        assert counts["isolate_max_root"] == 0
        # one scan per letter whose frequency is rational, and one more for
        # each such letter without a characteristic witness (its position
        # verdict's one search); none for the word
        unwitnessed = _unwitnessed(name, json.loads(out)["series"])
        assert counts["detect_period"] == k - len(irrational) + unwitnessed
        # fixed-word blocks are built, each (letter, level) once, and sigma**p
        # (one rule table) once, only if some letter is scanned; no length
        # recurrence runs (positions come from the count tables)
        assert (counts["_build"] > 0) == scanned
        assert len(set(counts["built"])) == len(counts["built"])
        assert counts["image_lengths"] == 0
        assert counts["MappingProxyType"] == 1
        s = substitutions.parse_substitution((DATA / f"{name}.sub").read_text())
        assert substitutions.Analysis(s).irrational_letters == set(irrational)

    @pytest.mark.parametrize("name", ["fib", "xyz", "abab", "thue_morse"])
    def test_positions_built_only_for_witnesses(self, capsys, monkeypatch, name):
        # positions are read once per rational position verdict, to re-check
        # its certificate; a rational-frequency letter without a
        # characteristic witness reads the span of its period search off two
        # positions of the count tables
        counts = _count_facts(monkeypatch)
        code, out, _ = run(capsys, "analyze", str(DATA / f"{name}.sub"))
        assert out == (GOLDEN / f"{name}.json").read_text()
        series = json.loads(out)["series"]
        rational = sum(v["position"]["kind"] == "rational" for v in series.values())
        assert counts["_scan_positions"] == rational
        assert counts["position"] == 2 * _unwitnessed(name, series)


IRRATIONAL = {"fib": "ab", "xyz": "xz", "abab": "", "thue_morse": ""}  # per corpus file


def _unwitnessed(name: str, series: dict) -> int:
    """The corpus file's letters of rational frequency without a
    characteristic witness, whose position verdicts search."""
    return sum(series[a]["characteristic"]["kind"] != "rational"
               for a in series if a not in IRRATIONAL[name])


def _count_facts(monkeypatch) -> dict:
    """Counters rebound around the fact-deriving functions, in every module
    alias made by `from .x import y` as well; `_build` counts the fixed-word
    blocks joined, and "built" lists their (letter, level)s; `prefix` counts
    fixed-word prefixes, `position` occurrence positions and
    `MappingProxyType` rule tables."""
    counts = {"built": []}
    for owner, attr in ((substitutions, "pf_data"),
                        (substitutions, "characteristic_polynomial"),
                        (substitutions, "is_primitive"),
                        (substitutions.Analysis, "_build"),
                        (substitutions.Analysis, "prefix"),
                        (substitutions.Analysis, "position"),
                        (substitutions, "MappingProxyType"),
                        (substitutions.Substitution, "image_lengths"),
                        (realroots, "isolate_max_root"),
                        (periodicity, "detect_period"),
                        (genfun, "_scan_positions")):
        counts[attr] = 0
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            if _attr == "_build":
                counts["built"].append(args[1:])
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "subgf":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts


@pytest.mark.parametrize("argv", [
    ["geom", "fib", "--order", "2000"],
    ["geom", "fib", "--order", "2000", "--format", "csv"],
    ["geom", "xyz", "--order", "2000"],
    ["geom", "abab", "--order", "300", "--lengths", "2,1"],
    ["series", "xyz", "--letter", "z", "--order", "2000"],
    ["series", "xyz", "--letter", "z", "--kind", "pos", "--order", "2000"],
    ["series", "fib", "--letter", "b", "--kind", "pos", "--format", "csv"],
    ["expand", "thue_morse", "--n", "5000"],
    ["period", "xyz", "--letter", "y"],
], ids=" ".join)
def test_each_subcommand_reads_one_analysis(capsys, monkeypatch, argv):
    verb, name, *rest = argv
    counts = _count_facts(monkeypatch)
    code, _, _ = run(capsys, verb, str(DATA / f"{name}.sub"), *rest)
    assert code == 0
    assert counts["pf_data"] <= 1
    assert counts["characteristic_polynomial"] <= 1
    assert counts["is_primitive"] == 1
    # the word from blocks joined each once
    assert counts["_build"] > 0
    assert len(set(counts["built"])) == len(counts["built"])


# stdout sha256 of each command on the corpus at order (or n) 5000, and of
# three at large orders, every one exiting 0: any change to these bytes is a
# change of output
STDOUT_SHA256 = {
    "expand fib --n 1000000":
        "f3f82705dd588c8a6073b9918c88c15aeca9733c9e30fb562ffef28a95e4c356",
    "geom fib --order 200000 --format csv":
        "9f0125ab2b6a95054945a7f91fa18f833a53b25f795ae3307f77b1797f770ff7",
    "geom xyz --order 200000 --format csv":
        "20a6defd780467a5aef8cc1efb4494a23d49a785e5ecc9685de40efa720a9298",
    "expand fib --n 5000":
        "5bd69b6f25d798547d6d3eeab146a82455ebdb3e76b1dabb7746c142e34d3be9",
    "series fib --letter a --kind char --order 5000 --format json":
        "5766b093c51e0dbb3f15dd90dd1c5e02607591060952658b71e9f028459c07c5",
    "series fib --letter a --kind char --order 5000 --format csv":
        "8c0e307187bbf2718149cb244c2c93cc774e7ee565735e5d7e290a03ba784670",
    "series fib --letter a --kind pos --order 5000 --format json":
        "c2b6eb0dfb2f2732d5c8f1a92b6edaa9f5401d7a929c156f538739d99bc16b43",
    "series fib --letter a --kind pos --order 5000 --format csv":
        "1006267c1ece77b56c31ed44461edb976f0bd60d0b62c91d1c59e2e84933e52e",
    "period fib --letter a":
        "132197ac7a4fe239fb575101d474581f7a8aa3bba52651d65549302fff738b2e",
    "series fib --letter b --kind char --order 5000 --format json":
        "5d3b6fa3526fc11f97815e2b5154a5a9968da1cacbe5563a8714c7651b281581",
    "series fib --letter b --kind char --order 5000 --format csv":
        "1ee5a4f98f52a89e1aa8ec8ee9754fd64b8290e7c1d25ffa106af3393552affc",
    "series fib --letter b --kind pos --order 5000 --format json":
        "03d54b84b3da0285eca934231cf5e46c6b839bb76f633a9a423f31428f50d38c",
    "series fib --letter b --kind pos --order 5000 --format csv":
        "d2ea2c87ed6b0e9732dbbbdfd0487586c4983c2129e6e66377817da4afdf8d2f",
    "period fib --letter b":
        "a26eb0c7f1a460ca94cad68f551a44c76c98e6d292c35cb17ec421919302f149",
    "geom fib --order 5000 --format json":
        "3b9663e4d6efbf8a9263b8621fd0cf19511df7fcc4938ca4836fe51af787615b",
    "geom fib --order 5000 --format csv":
        "8702905021eb2558b0c88f3247734d2766b81febab0c814b9c8c72b1e93ab130",
    "expand xyz --n 5000":
        "9c38ce022718cf341c6e3bbc031057aaf2b6a875c4f65108c204dfc364c8109c",
    "series xyz --letter x --kind char --order 5000 --format json":
        "0e312a630655349d70547626538b5cd109d0b2360f5ad93712dc1092094485b5",
    "series xyz --letter x --kind char --order 5000 --format csv":
        "2f7288faf4a5b8b6fa932ed1cb4c08a865e8154c5464c210f59cba6c0cfffa93",
    "series xyz --letter x --kind pos --order 5000 --format json":
        "f74eb5a0d5598963528bf0f63defcc5b7fc8cb6ee2a16c497e1286298ca3b32a",
    "series xyz --letter x --kind pos --order 5000 --format csv":
        "f83b227811a1ef8f7931bd10f53bdddd44a3884dedf5164199c2c67634e925b3",
    "period xyz --letter x":
        "a3124703dd1abbc5f92ab4cfb9694ae592e8a584d86aa5538872e5c57533ac19",
    "series xyz --letter y --kind char --order 5000 --format json":
        "e8e47868423e1fdb9918cff874aa66d072ccacecb8f5901f3d60331ff2e90b52",
    "series xyz --letter y --kind char --order 5000 --format csv":
        "bb45f91348351e8d63bdeaa7985fd10f2c7d971e8fb7309f6896e4fcef72e522",
    "series xyz --letter y --kind pos --order 5000 --format json":
        "3c6e93fa0ccb0d09532d22b54e92dfdc28ad73121b1edf559d5cc90969ef190d",
    "series xyz --letter y --kind pos --order 5000 --format csv":
        "49d7baa8fa0e163eda441285de1f3a7c6d9cd5bcef26d611e04b15c1f4009e85",
    "period xyz --letter y":
        "bc9c436b3c1972d6c496d2cc627075108891784d58cac90af0a3cfcce4dea1c4",
    "series xyz --letter z --kind char --order 5000 --format json":
        "9c27b6d5e0a38297d2d9d5bc2c54992ac607e57a9c531e613a08fba6e617f47c",
    "series xyz --letter z --kind char --order 5000 --format csv":
        "08db9139036b7929defee628299626ce161f317dea0bfc48eab9e2563c488fa9",
    "series xyz --letter z --kind pos --order 5000 --format json":
        "bc3210d59a964ea8cc54a286e50d5bf0be30034361449a079b66716831662463",
    "series xyz --letter z --kind pos --order 5000 --format csv":
        "2f35ada86c59c61cce9dc78fa1788d5f48714dd29e641c8673d7084ca015292a",
    "period xyz --letter z":
        "656eba38c1009a2da99aa287c0dbe8866bbfeef9b589933868b8bac4079e60e2",
    "geom xyz --order 5000 --format json":
        "76df68a07087ffd6a181116c095c775d1979267aea997f9ff09dca5b90e55515",
    "geom xyz --order 5000 --format csv":
        "a279ad0b17b6a9aeffd56dcf338bf298abd4f9d296c6bc722478a8bb38d4fc04",
    "expand abab --n 5000":
        "25ef6516d655e19fe5b6276eb3b18ccf61e4b8d1bda09fae6767736e24191084",
    "series abab --letter a --kind char --order 5000 --format json":
        "c8bd810e3bb2c386dcb190f76c88db55d8237b4a9baeed7670a90e492915f3ac",
    "series abab --letter a --kind char --order 5000 --format csv":
        "cb146fed530a0ab6e6287cb3df26c3ba2aba893502a5061645a87dd155491e28",
    "series abab --letter a --kind pos --order 5000 --format json":
        "eea6940ec5fb012faf2a8c23d2b7042b47f4774fa25f882cc5c3b4a9b5793e39",
    "series abab --letter a --kind pos --order 5000 --format csv":
        "61d60d0d0b3304dc56485e755bc09c5be4f70d78912c48f5d57ca0da51ac3b55",
    "period abab --letter a":
        "b545e706937c0db1106d29e426e2ec5f6d21241d2db720bdbcaadf616c6b3897",
    "series abab --letter b --kind char --order 5000 --format json":
        "a331c3678f7eb8304c3b8674168231ce15154226d40baf5ab7156a096585812c",
    "series abab --letter b --kind char --order 5000 --format csv":
        "bb45f91348351e8d63bdeaa7985fd10f2c7d971e8fb7309f6896e4fcef72e522",
    "series abab --letter b --kind pos --order 5000 --format json":
        "b12f31ab08b393cf5f6a1f1bda731cfaa0732decda1e46d45bda04ff8beffcfb",
    "series abab --letter b --kind pos --order 5000 --format csv":
        "49d7baa8fa0e163eda441285de1f3a7c6d9cd5bcef26d611e04b15c1f4009e85",
    "period abab --letter b":
        "5dedd96df567f740566826fd7d54e0fac57a60a4247f00ec682e17197c34fc88",
    "geom abab --order 5000 --format json":
        "d19f7b538606eb5f7f706c8a4e95de82409d9bf9b931cc08e59cf5c72363b997",
    "geom abab --order 5000 --format csv":
        "29fcba2d2d73b3cc603a19799fedf220bc7260fd95b433d4d200165132dff2d3",
    "expand thue_morse --n 5000":
        "4a905707e7d4a7a7250e423cda0203acbd9dab76b181786931e4821dda5eef9e",
    "series thue_morse --letter a --kind char --order 5000 --format json":
        "4e1ebc12339c6b216cf08951a97739b361503098ad1dfd9d4f68156ed9fe8e42",
    "series thue_morse --letter a --kind char --order 5000 --format csv":
        "d70b0c02d0af3ef1956a7b74e2d60fc364251aec1c752a7dd2f75131fb05b28a",
    "series thue_morse --letter a --kind pos --order 5000 --format json":
        "ea2dfdb51d9e16b226fe6bd2e93fbd77d5f63dc320ec323489054a6b0726a24e",
    "series thue_morse --letter a --kind pos --order 5000 --format csv":
        "8ba5574ed5ee2b3acb4f98daf6964c197e4694eaaac52149ec3675c843fc6d97",
    "period thue_morse --letter a":
        "132197ac7a4fe239fb575101d474581f7a8aa3bba52651d65549302fff738b2e",
    "series thue_morse --letter b --kind char --order 5000 --format json":
        "2a804a904962846e441bf6d9af826ee36d647b0d0e18451fc4ca1296043d7c4c",
    "series thue_morse --letter b --kind char --order 5000 --format csv":
        "db2a98c3767a69c583b11e249a6a46fdc623f033022bea7b57031535a27d960e",
    "series thue_morse --letter b --kind pos --order 5000 --format json":
        "e82afe3210535c12004c5f545407a3d2dafa06fb2d8f97b43f89610e127c2fee",
    "series thue_morse --letter b --kind pos --order 5000 --format csv":
        "54aaebc8b5c0700d158b893c31d599279abcca05ad6eb115406ccc7b40d8e9b1",
    "period thue_morse --letter b":
        "a26eb0c7f1a460ca94cad68f551a44c76c98e6d292c35cb17ec421919302f149",
    "geom thue_morse --order 5000 --format json":
        "d19f7b538606eb5f7f706c8a4e95de82409d9bf9b931cc08e59cf5c72363b997",
    "geom thue_morse --order 5000 --format csv":
        "29fcba2d2d73b3cc603a19799fedf220bc7260fd95b433d4d200165132dff2d3",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_is_pinned(capsys, command):
    verb, name, *rest = command.split()
    code, out, _ = run(capsys, verb, str(DATA / f"{name}.sub"), *rest)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def _random_rules(rng: random.Random, k: int, same_images: bool) -> str:
    """Rule text on the first k of "abcde" with images of 1-4 letters; with
    same_images every letter maps to one word ending in the last letter, so
    the fixed word is periodic."""
    letters = "abcde"[:k]
    words = ["".join(rng.choices(letters, k=rng.randint(1, 4))) for _ in letters]
    if same_images:
        words = [words[0] + letters[-1]] * k
    return "".join(f"{a} -> {w}\n" for a, w in zip(letters, words))


def test_analyze_on_random_substitutions_is_pinned(capsys, tmp_path):
    # 200 primitive 2-5 letter substitutions (every draw, primitive or not,
    # is hashed), a third of them at --max-period 50; the sha256 of every
    # exit code and stdout was recorded before the per-letter scans moved
    # into bytes operations
    rng = random.Random(16)
    digest = hashlib.sha256()
    kinds, cases = set(), set()
    kept = drawn = 0
    while kept < 200:
        rules = tmp_path / f"r{drawn}.sub"
        rules.write_text(_random_rules(rng, 2 + drawn % 4, drawn % 5 == 4))
        bounds = ["--max-period", "50"] if drawn % 3 == 0 else []
        drawn += 1
        code, out, _ = run(capsys, "analyze", str(rules), *bounds)
        digest.update(f"{code}\n{out}".encode())
        doc = json.loads(out)
        if doc["series"] is None:
            continue
        kept += 1
        for verdicts in doc["series"].values():
            kinds.update((kind, v["kind"]) for kind, v in verdicts.items())
        if doc["geometric"]:
            cases.add(doc["geometric"]["classification"]["case"])
    assert ("characteristic", "rational") in kinds
    assert ("position", "rational") in kinds
    assert "periodic-rational" in cases
    assert digest.hexdigest() == (
        "ac5e9281413137b13920315af881f7cfb2b7dbdbfbb75d646332536fcdb4a99a"
    )


def _self_similar(rules: dict, d: int) -> bool:
    """Whether the fixed word of `fixed_point_seed` is u u u ... for its
    first d letters u, by sigma**p(u) == u**j: sigma**p fixes u**infinity,
    which starts with the seed letter a, and the one such fixed point is the
    word.  Written apart from subgf: seed search and expansion are here."""
    def image(word, m):
        for _ in range(m):
            word = "".join(rules[ch] for ch in word)
        return word

    p, a = next(
        (p, a) for p in range(1, 100) for a in rules
        if image(a, p)[0] == a and len(image(a, p)) >= 2
    )
    word = a
    while len(word) < d:
        word = image(word, p)
    u = word[:d]
    v = image(u, p)
    return len(v) % d == 0 and v == u * (len(v) // d)


def test_periodic_verdicts_recheck_by_self_similarity(capsys, tmp_path):
    # the corpus, 100 drawn rules, and 60 with one image for every letter
    # that holds all letters, whose word is periodic; every third run has
    # bounds too small for some periods
    rng = random.Random(26)
    texts = [(DATA / f"{n}.sub").read_text() for n in ("fib", "xyz", "abab", "thue_morse")]
    texts += [_random_rules(rng, 2 + i % 4, False) for i in range(100)]
    for i in range(60):
        letters = "abcde"[: 2 + i % 4]
        image = "".join(rng.sample(letters, len(letters)) + rng.choices(letters, k=i % 3))
        texts.append("".join(f"{a} -> {image}\n" for a in letters))
    periodic = 0
    for i, text in enumerate(texts):
        path = tmp_path / f"r{i}.sub"
        path.write_text(text)
        bounds = ["--max-preperiod", "0", "--max-period", "3"] if i % 3 == 2 else []
        code, out, _ = run(capsys, "analyze", str(path), *bounds)
        doc = json.loads(out)
        verdict = (doc.get("aperiodicity") or {}).get("verdict")
        if verdict == "eventually-periodic":
            periodic += 1
            period = doc["aperiodicity"]["period"]
            assert doc["aperiodicity"]["preperiod"] == 0
            rules = doc["substitution"]["rules"]
            # the least period, which divides every other
            assert [e for e in range(1, period + 1) if _self_similar(rules, e)
                    and period % e == 0] == [period]
    assert periodic >= 40


def test_module_entry_point():
    import subprocess
    import sys

    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "subgf", "expand", str(DATA / "fib.sub"), "--n", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "abaababa"


def test_closed_pipe_ends_quietly():
    import subprocess
    import sys

    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "subgf", "expand", str(DATA / "fib.sub"),
         "--n", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    head = proc.stdout.read(5)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (head, err, proc.wait()) == (b"abaab", b"", 0)


def test_cli_never_imports_sympy(tmp_path):
    # characteristic polynomials are factored in Python ints; sympy is only
    # a test oracle.  x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1)
    import subprocess
    import sys

    five, four = tmp_path / "five.sub", tmp_path / "four.sub"
    five.write_text("a->ab\nb->c\nc->d\nd->e\ne->a\n")
    four.write_text("a->ab\nb->c\nc->d\nd->a\n")
    script = (
        "import sys\n"
        "from subgf import cli\n"
        f"assert cli.main(['analyze', {str(five)!r}]) == 0\n"
        f"assert cli.main(['geom', {str(four)!r}]) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report, _ = json.JSONDecoder().raw_decode(proc.stdout)
    assert report["pf"]["min_poly"] == ["-1", "-1", "0", "1"]


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.sub")
        assert code == 1

    def test_bad_rules(self, capsys, tmp_path):
        bad = tmp_path / "bad.sub"
        bad.write_text("a->\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 1" in err

    def test_directory_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sub"
        bad.write_bytes(b"a -> \xff\n")
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_letter_message_has_no_quotes(self, capsys):
        code, _, err = run(capsys, "series", str(DATA / "fib.sub"), "--letter", "c")
        assert code == 2
        assert err == "error: letter 'c' not in alphabet\n"

    def test_bad_cli_usage(self, capsys):
        code, _, _ = run(capsys, "series", str(DATA / "fib.sub"))
        assert code == 1  # --letter is required

    def test_non_primitive_preconditions(self, capsys, tmp_path):
        rules = tmp_path / "np.sub"
        rules.write_text("a->ab\nb->b\n")
        code, _, _ = run(capsys, "series", str(rules), "--letter", "a")
        assert code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_geom_builds_no_value_per_endpoint(capsys, monkeypatch, fmt):
    """`geom` formats its endpoints from integer sums: the quadratic values
    it builds (`_make`) and formats (`QuadraticReal.decimal`) do not grow
    with the order."""
    counts = {"_make": 0, "decimal": 0}
    original_make, original_decimal = quadratic._make, QuadraticReal.decimal

    def make(*args):
        counts["_make"] += 1
        return original_make(*args)

    def decimal(self, *args):
        counts["decimal"] += 1
        return original_decimal(self, *args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "subgf":
            for key, value in list(vars(mod).items()):
                if value is original_make:
                    monkeypatch.setattr(mod, key, make)
    monkeypatch.setattr(QuadraticReal, "decimal", decimal)
    seen = []
    for order in ("200", "20000"):
        counts.update(_make=0, decimal=0)
        code, _, _ = run(capsys, "geom", str(DATA / "fib.sub"),
                         "--order", order, "--format", fmt)
        assert code == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1]


# stdout sha256 of `geom` on a cubic PF eigenvalue, whose natural lengths are
# approximate Fractions with large denominators
APPROXIMATE_GEOM_SHA256 = {
    "csv": "bde2696f4c10879655da9ca3b239108987abf387d4bee17b5dee1aac0181d63a",
    "json": "a3b288572b19dc6a30cf6ba3c16f866b36b7455aebdaadbc136890556eca7ebc",
}


@pytest.mark.parametrize("fmt", list(APPROXIMATE_GEOM_SHA256))
def test_approximate_lengths_output_is_pinned(capsys, tmp_path, fmt):
    rules = tmp_path / "cubic.sub"
    rules.write_text("a -> abc\nb -> ab\nc -> a\n")
    code, out, _ = run(capsys, "geom", str(rules), "--order", "2000", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == APPROXIMATE_GEOM_SHA256[fmt]
