"""Self-tests of the benchmark's own code (not of subgf).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import gen
import tracer
import workloads
from workloads import Op

sys.path.insert(0, str(workloads.ROOT / "src"))
import subgf  # noqa: E402
from subgf import cli  # noqa: E402

FIB = str(workloads.CORPUS_DIR / "fib.sub")


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def corrupt(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


# -- generator ---------------------------------------------------------------


def test_same_seed_gives_byte_identical_rule_files(tmp_path):
    first = workloads.plan("analyze", 7, tmp_path / "one")
    second = workloads.plan("analyze", 7, tmp_path / "two")
    files = [op.argv[1] for ops in first + second for op in ops if op.images]
    assert len(files) == 2 * workloads.MAX_PASSES * workloads.GENERATED_PER_PASS
    for one in (tmp_path / "one").iterdir():
        assert one.read_bytes() == (tmp_path / "two" / one.name).read_bytes()
    assert gen.generate(7, 40) == gen.generate(7, 40)
    assert gen.generate(7, 40) != gen.generate(8, 40)


def test_generated_inputs_meet_analyze_preconditions():
    inputs = gen.generate(3, 80)
    for i, images in enumerate(inputs):
        assert len(images) == gen.SIZES[i % 4]
        assert all(1 <= len(img) <= 4 for img in images)
        s = subgf.parse_substitution(gen.rule_text(images))
        assert subgf.is_primitive(subgf.substitution_matrix(s)) is not None
        subgf.fixed_point_seed(s)  # raises without a growing fixed point


def test_generator_rejects_only_by_preconditions():
    assert not gen.is_primitive([[0, 1], [1, 0]])  # a permutation
    assert gen.is_primitive([[1, 1], [1, 0]])
    assert not gen.is_primitive([[1, 1], [0, 1]])  # reducible
    assert gen.has_growing_fixed_point(["ab", "a"])
    assert not gen.has_growing_fixed_point(["b", "a"])


# -- tracer ------------------------------------------------------------------


def test_self_and_total_time_of_a_synthetic_nest():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["substitutions.pf_data", 1.0, 4.0, 0, 0],
        ["realroots.SturmChain", 2.0, 3.0, 1, 0],
        ["substitutions.pf_data", 5.0, 9.0, 0, 0],
        ["substitutions.fixed_word_prefix", 6.0, 8.0, 3, 0],
        ["substitutions.pf_data", 6.5, 7.5, 4, 0],  # nested in pf_data
    ]
    m = tracer.summarise(spans)
    assert m["cli.main.self_s"] == 3.0
    assert m["substitutions.pf_data.calls"] == 3
    assert m["substitutions.pf_data.self_s"] == 2.0 + 2.0 + 1.0
    assert m["substitutions.pf_data.total_s"] == 3.0 + 4.0
    assert m["substitutions.fixed_word_prefix.self_s"] == 1.0
    assert m["substitutions.fixed_word_prefix.total_s"] == 2.0
    assert m["layer.substitutions.total_s"] == 7.0
    assert m["layer.substitutions.self_s"] == 6.0
    assert m["layer.realroots.total_s"] == m["layer.realroots.self_s"] == 1.0
    assert m["layer.cli.total_s"] == 10.0
    assert m["fibonacci.positivity_bound.calls"] == 0


def test_tracer_rebinds_every_alias_and_restores_them():
    originals = {
        name: getattr(sys.modules[f"subgf.{module}"], name)
        for module, name in tracer.TARGETS if name[0].islower() and "." not in name
    }
    aliases = [
        (module, key) for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".")[0] == "subgf"
        for key, value in vars(module).items()
        if any(value is f for f in originals.values())
    ]
    assert {"subgf.cli", "subgf.geometric", "subgf.substitutions", "subgf"} <= {
        m.__name__ for m, key in aliases if key == "pf_data"
    }
    init = vars(subgf.SturmChain)["__init__"]
    t = tracer.Tracer()
    t.install()
    try:
        for module, key in aliases:
            wrapped = getattr(module, key)
            assert wrapped.__wrapped__ is originals[key], (module.__name__, key)
        out = run_cli(["analyze", FIB])
    finally:
        t.uninstall()
    for module, key in aliases:
        assert getattr(module, key) is originals[key]
    assert vars(subgf.SturmChain)["__init__"] is init
    assert out == (workloads.GOLDEN_DIR / "fib.json").read_text()
    m = t.summary()
    assert m["cli.main.calls"] == 1
    assert m["substitutions.pf_data.calls"] >= 1
    assert m["realroots.SturmChain.calls"] >= 1
    assert m["realroots.sturm.members"] >= 2
    assert m["substitutions.fixed_word_prefix.letters"] > 0


# -- output checks -----------------------------------------------------------


def test_corpus_check_rejects_a_changed_byte():
    refs = workloads.references("analyze")
    op = Op("corpus-fib", ["analyze", FIB])
    good = run_cli(op.argv)
    assert workloads.check(op, good, refs) is None
    assert workloads.check(op, corrupt(good, '"is_rational": false', '"is_rational": true'), refs)
    assert workloads.check(op, good + "\n", refs)


def test_generated_check_rejects_wrong_char_poly_and_enclosure(tmp_path):
    images = ["abc", "a", "cb"]
    path = tmp_path / "g.sub"
    path.write_text(gen.rule_text(images))
    op = Op("gen", ["analyze", str(path)], images)
    good = run_cli(op.argv)
    assert workloads.check(op, good, {}) is None
    assert op.info["k"] == 3 and op.info["sympy"] is False
    report = json.loads(good)
    bad_poly = json.loads(good)
    bad_poly["pf"]["char_poly"][0] = str(int(report["pf"]["char_poly"][0]) + 1)
    assert "char_poly" in workloads.check(op, json.dumps(bad_poly), {})
    bad_pf = json.loads(good)
    bad_pf["pf"]["enclosure"] = {"lower": "1", "upper": "1001/1000"}
    assert "enclosure" in workloads.check(op, json.dumps(bad_pf), {})
    assert workloads.check(op, "not json", {})


ROOTS_GOOD = (workloads.OWN_DATA / "roots_level4.json").read_text()


@pytest.mark.parametrize("old,new", [
    ('"alpha_hat": "-133855015/134217728"', '"alpha_hat": "-133855019/134217728"'),
    ('"binding": "T"', '"binding": "R"'),
    ('"root_count_in_interval": 0', '"root_count_in_interval": 1'),
    ('"sign_at_sample": "+"', '"sign_at_sample": "-"'),
    ('"degree": 753', '"degree": 752'),
    ('"sha256": "3e44', '"sha256": "3e45'),
    ('"0"\n', '"1/2"\n'),
])
def test_roots_check_rejects_each_corruption(old, new):
    assert workloads.check_roots(ROOTS_GOOD) is None
    assert workloads.check_roots(corrupt(ROOTS_GOOD, old, new))


def small_stream_cases():
    fib = workloads.expand(workloads.RULES["fib"], 1000)
    return [
        (["expand", FIB, "--n", "1000"], fib + "\n"),
        (["expand", str(workloads.OWN_DATA / "tribonacci.sub"), "--n", "700"],
         workloads.expand(workloads.RULES["tribonacci"], 700) + "\n"),
        (["series", str(workloads.CORPUS_DIR / "thue_morse.sub"), "--letter", "a",
          "--kind", "char", "--order", "300", "--format", "csv"],
         workloads.char_csv(workloads.expand(workloads.RULES["thue_morse"], 301), "a")),
        (["series", str(workloads.CORPUS_DIR / "xyz.sub"), "--letter", "y",
          "--kind", "pos", "--order", "300", "--format", "csv"],
         workloads.position_csv(workloads.expand(workloads.RULES["xyz"], 300, "y"), "y", 300)),
        (["geom", FIB, "--order", "200", "--format", "csv"], workloads.geom_csv(fib[:200])),
        (["geom", FIB, "--order", "200", "--format", "json"], workloads.geom_json(fib[:200])),
    ]


@pytest.mark.parametrize("argv,expected", small_stream_cases())
def test_stream_checks_accept_subgf_and_reject_a_changed_value(argv, expected):
    op = Op("stream", argv)
    good = run_cli(argv)
    assert workloads.check(op, good, {"stream": expected}) is None
    bad = corrupt(good, "1", "2") if argv[0] != "expand" else corrupt(good, "ab", "ba")
    assert workloads.check(op, bad, {"stream": expected})


# -- BENCHMARK.json ----------------------------------------------------------


class FakeRunner:
    """Hands run.py canned worker reports instead of starting processes."""

    def __init__(self, workload: str):
        self.args = type("Args", (), {"workload": workload, "seconds": 5})()

    def worker(self, mode: str, **extra) -> dict:
        ops = [{"label": "op", "latency_s": 0.1, "error": None, "stdout_sha256": "0"}]
        report = {"setup_s": 0.5, "pass_s": [1.0, 1.2], "ops": ops, "peak_rss_mb": 60.0}
        if mode == "traced":
            report.update(layers=tracer.Tracer().summary(), overhead_s=0.01, spans_file="-")
        return report


@pytest.mark.parametrize("section,build", [("end_to_end", "end_to_end"), ("per_layer", "per_layer")])
def test_run_reports_exactly_the_metrics_benchmark_json_declares(section, build):
    import run

    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())[section]
    for workload in workloads.WORKLOADS:
        metrics, _, _ = getattr(run, build)(FakeRunner(workload))
        assert {name: unit for name, (_, unit) in metrics.items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_tail_is_p80_only_with_ten_samples_beyond_it():
    import run

    assert run.tail([float(i) for i in range(56)]) == pytest.approx(44.0)  # 11 beyond
    assert run.tail([float(i) for i in range(6)]) == pytest.approx(2.5)  # median
    assert run.tail([7.0]) == 7.0
