"""subgf benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze|roots|stream --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ (pure-Python ints: gmpy2 is recorded, never required).  Each
phase runs in a fresh interpreter (worker.py), one at a time, single
threaded.

--trace 0  SETUPS set-up processes (setup_s is their median), the last of
           which goes on to the timed closed loop; prints the end-to-end
           metrics of BENCHMARK.json.
--trace 1  one traced process running exactly one pass, so every count
           repeats exactly, preceded (except on roots) by an untraced one
           whose stdout every traced op must match; prints the per-layer
           metrics.

The last line of stdout is the result object; the line before it carries
provenance and per-run details, and both are also written to .bench_out/.
Exits non-zero, printing no result, if the run cannot be made.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
TAIL_Q = 0.8
DEADLINE_S = 170  # whole run, under the 180 s every run must end within
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default), which
    moves smoothly when ops of different kinds swap places."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(latencies: list[float]) -> float:
    """The 80th percentile when at least 10 samples lie beyond it (analyze:
    56 samples, 11 beyond), else the median: roots (1 op) and stream (6
    different ops) have too few samples to support a tail."""
    q = TAIL_Q if (1 - TAIL_Q) * len(latencies) >= 10 else 0.5
    return percentile(latencies, q)


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        # realroots uses gmpy2 when importable; absent means the pure-Python
        # int path was measured
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else "absent",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside git or
    when the branch ref is packed."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}

    def worker(self, mode: str, **extra) -> dict:
        self.count += 1
        report = OUT / f"{self.tag}-{self.count}-{mode}.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--work-dir", str(OUT / f"inputs-{self.tag}"),
               "--report", str(report)]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed before the next phase")
        t0 = time.monotonic()
        subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, check=True,
                       timeout=remaining, stdin=subprocess.DEVNULL)
        return json.loads(report.read_text())


def end_to_end(runner: Runner) -> tuple[dict, dict, list]:
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUPS - 1)]
    run = runner.worker("run", seconds=runner.args.seconds)
    setups.append(run["setup_s"])
    latencies = [op["latency_s"] for op in run["ops"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run["pass_s"]), "s"),
        "op_p50_s": (percentile(latencies, 0.5), "s"),
        "op_tail_s": (tail(latencies), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    details = {
        "setup_s_samples": setups,
        "pass_s": run["pass_s"],
        "op_samples": len(latencies),
        "op_tail_samples_beyond": sum(x > metrics["op_tail_s"][0] for x in latencies),
        **input_shares(run["ops"]),
    }
    return metrics, details, run["ops"]


def per_layer(runner: Runner) -> tuple[dict, dict, list]:
    paired = workloads.PAIRED_TRACE[runner.args.workload]
    plain = runner.worker("run", passes=1) if paired else {"ops": [], "pass_s": []}
    traced = runner.worker("traced", passes=1)
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["stdout_sha256"] != b["stdout_sha256"] and not b["error"]:
            b["error"] = "traced stdout differs from untraced stdout"
    layers = {**traced["layers"], "trace.overhead_s": traced["overhead_s"]}
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    details = {
        "traced_wall_s": sum(traced["pass_s"]),
        "traced_minus_untraced_wall_s": (
            sum(traced["pass_s"]) - sum(plain["pass_s"]) if paired else None
        ),
        "spans": sum(v for k, v in layers.items() if k.endswith(".calls")),
        "spans_file": traced["spans_file"],
    }
    return metrics, details, plain["ops"] + traced["ops"]


def unit_of(name: str) -> str:
    if name.endswith("letters_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith(".max_coeff_bits"):
        return "bits"
    return "count"


def input_shares(ops: list[dict]) -> dict:
    """Measured shares of the generated analyze inputs' properties."""
    generated = [op for op in ops if "k" in op]
    if not generated:
        return {}
    n = len(generated)
    shares = {f"share_k{k}": sum(op["k"] == k for op in generated) / n for k in (2, 3, 4, 5)}
    shares["share_rational_pf"] = sum(op.get("rational", False) for op in generated) / n
    shares["share_sympy"] = sum(op["sympy"] for op in generated) / n
    return {"generated_inputs": n, **shares}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    missing = [p for p in ("src/subgf/cli.py", "tests/data", "tests/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a subgf checkout, missing: {missing}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        metrics, details, ops = (per_layer if args.trace else end_to_end)(runner)
    except (subprocess.SubprocessError, OSError, TimeoutError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    failures = [{"label": op["label"], "error": op["error"]} for op in ops if op["error"]]
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(args.seed), **details, "failures": failures[:20]}
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{runner.tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
