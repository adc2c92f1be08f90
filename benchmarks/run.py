"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload study_mmnl --seed 0 --seconds 30 --trace 0

Run from anywhere; it benchmarks the ``dce`` sources in ``src/`` next to
this directory. Set-up is timed ``SETUP_REPEATS`` times in fresh processes
(the last one goes on to run the workload) and reported as the median. The
workload process then runs passes back to back, at least two and until
``--seconds`` have gone by, and checks every pass's outputs. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced pass with ``--trace 1``). A full record, with
provenance, goes to ``.bench_build/results/``; with ``--trace 1`` the spans
go to ``.bench_build/traces/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study_mmnl", "survey_files", "recovery_sweep")
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mmnl.estimate_s": "s", "mmnl.estimate_self_s": "s", "mmnl.objective_calls": "count",
    "mmnl.objective_s": "s", "mmnl.objective_cpu_s": "s", "mmnl.objective_ms_per_call": "ms",
    "mmnl.cells_per_s": "1/s", "mmnl.threads": "count", "mmnl.loglik_ms": "ms",
    "mmnl.loglik_grad_ms": "ms", "mmnl.loglik_grad_nproc_ms": "ms",
    "numerics.normal_draws_s": "s", "numerics.bfgs_s": "s", "numerics.bfgs_self_s": "s",
    "numerics.bfgs_iterations": "count", "numerics.bfgs_evals": "count",
    "numerics.line_search_accept_ratio": "ratio", "numerics.hessian_s": "s",
    "numerics.hessian_grad_calls": "count", "numerics.hessian_share": "ratio",
    "mnl.estimate_s": "s", "mnl.iterations": "count", "mnl.evals": "count",
    "dataset.write_csv_s": "s", "dataset.ingest_s": "s", "dataset.ingest_rows_per_s": "1/s",
    "dataset.code_s": "s", "dataset.rows": "count",
    "design.select_fraction_s": "s", "design.block_design_s": "s",
    "simulate.simulate_s": "s", "simulate.tasks_per_s": "1/s",
    "results.save_load_s": "s", "postest.report_s": "s",
    "fail_ratio": "ratio", "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(cmd: list[str], env: dict, deadline: float):
    """Start the workload process; return (seconds until READY, RESULT dict)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise BenchError(f"workload process exited with code {rc}")
    return ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy runs the same code path at tiny sizes (for tests)")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="reference outputs checked by the correctness gate")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs in the reference file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dce" / "__init__.py").is_file():
        print(f"error: no dce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # One MMNL thread: with two, CPU steal from neighbours on a 2-core host
    # made wall_s spread by a third across seeds (see README.md).
    env = dict(os.environ, DCE_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--reference", str(args.reference.resolve())]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        setups = [spawn(cmd + ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        ready, res = spawn(cmd, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    passes = res["passes"]
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fail_ratio = failed / attempted
    end_to_end = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        values = dict(res["per_layer"], fail_ratio=fail_ratio)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    provenance = dict(res["provenance"], git_commit=git_commit(),
                      steal_s_per_pass=[p["steal_s"] for p in passes])
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "setup_s_runs": setups,
              "end_to_end": dict(end_to_end, fail_ratio=fail_ratio),
              "per_layer": res["per_layer"], "layer_self_s": res["layer_self_s"],
              "passes": passes, "reference": res["reference"], "provenance": provenance}
    out = ROOT / ".bench_build" / "results" / \
        f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} ({args.size}): {len(passes)} passes, "
          f"{attempted} operations, {failed} failed; record {out.relative_to(ROOT)}")
    for p in passes:
        for key, reason in p["failures"].items():
            print(f"  FAIL {p['id']} {key}: {reason}")
    for name, value in dict(end_to_end, fail_ratio=fail_ratio).items():
        unit = END_TO_END.get(name, "ratio")
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            if name != "fail_ratio":
                print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        for layer, t in sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer:<26} {t:>14.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
