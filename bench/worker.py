"""One benchmark process: set up, then optionally run the timed phase.

    python3 bench/worker.py --workload analyze --seed 1 --t0 T --mode run \
        --seconds 10 --report FILE

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import subgf`, warming sympy (imported
lazily by subgf on first use) and writing the generated inputs.  Modes:

  setup   stop after set-up
  run     closed loop: one op at a time, whole passes, until --seconds have
          been measured (at least the workload's minimum number of passes);
          --passes N runs exactly N passes instead
  traced  like run, with the outside-in tracer installed

Outputs are checked after each pass, outside the timed region.  The report
is one JSON object written to --report.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

sys.path.insert(0, str(workloads.ROOT / "src"))
import subgf  # noqa: E402
from subgf import cli  # noqa: E402

if Path(subgf.__file__).resolve().parent != workloads.ROOT / "src" / "subgf":
    sys.exit(f"subgf imported from {subgf.__file__}, not from this checkout")


def warm() -> None:
    """Run the one lazily imported path: sympy factors a quartic char poly."""
    s = subgf.parse_substitution("a -> ab\nb -> c\nc -> d\nd -> a\n")
    subgf.pf_data(subgf.substitution_matrix(s))


def run_op(op: workloads.Op) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)  # looked up per call: the tracer rebinds it
        except Exception:  # an op that crashes counts as failed; keep going
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args()

    warm()
    passes = workloads.plan(args.workload, args.seed, args.work_dir)
    report = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        report.update(measure(args, passes))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.report.write_text(json.dumps(report))


def measure(args, passes: list[list[workloads.Op]]) -> dict:
    refs = workloads.references(args.workload)
    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()
    pass_s, ops = [], []
    for ops_of_pass in passes:
        if args.passes:
            if len(pass_s) == args.passes:
                break
        elif len(pass_s) >= workloads.MIN_PASSES[args.workload] and sum(pass_s) >= args.seconds:
            break
        results = []
        start = time.perf_counter()
        for op in ops_of_pass:
            if tracer:
                tracer.op = len(ops) + len(results)
            results.append(run_op(op))
        pass_s.append(time.perf_counter() - start)
        for op, (code, out, err, latency) in zip(ops_of_pass, results):
            error = f"exit code {code}: {err[-2000:]}" if code != 0 else workloads.check(op, out, refs)
            ops.append({
                "label": op.label,
                "latency_s": latency,
                "error": error,
                "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                **op.info,
            })
    out = {"pass_s": pass_s, "ops": ops}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["overhead_s"] = tracer.overhead_s
        spans_path = args.report.with_suffix(".spans.jsonl")
        with spans_path.open("w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        out["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    return out


if __name__ == "__main__":
    main()
