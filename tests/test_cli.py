import json
import sys
from pathlib import Path

import pytest

from subgf import periodicity, substitutions
from subgf.cli import main
from subgf.serialize import canonical_dumps

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

    def test_unknown_letter_is_precondition_error(self, capsys):
        code, _, err = run(
            capsys, "series", str(DATA / "fib.sub"), "--letter", "q",
        )
        assert code == 2
        assert "q" in err


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


class TestRoots:
    def test_level_one(self, capsys):
        code, out, _ = run(capsys, "roots", "--level", "1", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["binding"] == "R"
        assert doc["alpha_hat_decimal"].startswith("-0.90159")
        assert len(doc["certs"]) == 3
        assert all(c["root_count_in_interval"] == 0 for c in doc["certs"])


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
        counts = {}
        for module, attr in ((substitutions, "pf_data"),
                             (substitutions, "characteristic_polynomial"),
                             (substitutions, "fixed_word"),
                             (periodicity, "detect_period")):
            counts[attr] = 0
            original = getattr(module, attr)

            def counted(*args, _original=original, _attr=attr, **kwargs):
                counts[_attr] += 1
                return _original(*args, **kwargs)

            # rebind every alias made by `from .x import y` as well
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "subgf":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, counted)
        code, out, _ = run(capsys, "analyze", str(DATA / f"{name}.sub"))
        assert out == (GOLDEN / f"{name}.json").read_text()
        k = len(json.loads(out)["substitution"]["alphabet"])
        assert counts["pf_data"] == 1
        assert counts["characteristic_polynomial"] == 1
        assert counts["fixed_word"] <= 1
        assert counts["detect_period"] <= 2 * k + 1


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "subgf", "expand", str(DATA / "fib.sub"), "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "abaababa"


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

    def test_bad_cli_usage(self, capsys):
        code, _, _ = run(capsys, "series", str(DATA / "fib.sub"))
        assert code == 1  # --letter is required

    def test_non_primitive_preconditions(self, capsys, tmp_path):
        rules = tmp_path / "np.sub"
        rules.write_text("a->ab\nb->b\n")
        code, _, _ = run(capsys, "series", str(rules), "--letter", "a")
        assert code == 2
