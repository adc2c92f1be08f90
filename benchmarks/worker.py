"""The workload process: set up, run passes back to back, check, report.

Started by ``run.py``; not meant to be run by hand. It prints ``READY`` once
set-up (imports, shipped schema and fixtures, inputs, a toy warm-up pass) is
done, and at the end one line ``RESULT <json>``. With ``--setup-only`` it
exits right after ``READY``; ``run.py`` uses that to time set-up repeatedly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dce  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, layer_self_times, wrap_layers  # noqa: E402

DIRECT_REPEATS = 5


def provenance(seed: int, threads_used) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dce").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "mmnl_threads": threads_used,
        "DCE_THREADS": os.environ.get("DCE_THREADS"),
    }


def direct_timings(tracer: Tracer, probe) -> dict:
    """Median ms of msl_loglik and msl_gradient at a fit's point, draws given:
    with the workload's thread count, and the gradient with one thread per core."""
    cases = (("mmnl.loglik_ms", dce.msl_loglik, None),
             ("mmnl.loglik_grad_ms", dce.msl_gradient, None),
             ("mmnl.loglik_grad_nproc_ms", dce.msl_gradient, os.cpu_count() or 1))
    if probe is None:
        return {metric: 0.0 for metric, _, _ in cases}
    params, panel, mixing = probe()
    draws = dce.make_draws(mixing, panel.n_respondents)
    out = {}
    for metric, fn, threads in cases:
        times = []
        for _ in range(DIRECT_REPEATS):
            with tracer.span(f"mmnl.{fn.__name__}", threads=threads) as span:
                fn(params, panel, mixing, draws=draws, n_threads=threads)
            times.append(span.wall)
        out[metric] = 1000.0 * statistics.median(times)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    build = ROOT / ".bench_build"
    workdir = build / f"work-{os.getpid()}"
    inputs = workloads.prepare(ROOT, args.workload, args.seed, args.size)
    warm, _ = workloads.run_pass(args.workload, inputs, "toy", Tracer(False), workdir)
    for key, reason in warm.failures.items():
        print(f"warm-up: {key}: {reason}", file=sys.stderr)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ref_key = gate.reference_key(args.workload, args.size, args.seed)
    reference = gate.load_reference(args.reference, ref_key)
    tracer = Tracer(True)
    passes, first, probe, threads = [], None, None, None
    t_begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, untraced first
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_id = f"p{len(passes)}"
        tracer.pass_id = pass_id
        tracer.enabled = traced
        with wrap_layers(tracer) if traced else contextlib.nullcontext():
            p, probe = workloads.run_pass(args.workload, inputs, args.size, tracer, workdir)
        threads = p.threads or threads

        if first is None:
            first = p.outputs
        for key, reason in gate.against_first_pass(p.outputs, first).items():
            p.fail(key, reason)
        if reference is not None:
            for key, reason in gate.against_reference(p.outputs, reference).items():
                p.fail(key, reason)
        passes.append({"id": pass_id, "traced": traced, "wall_s": p.wall_s,
                       "cpu_s": p.cpu_s, "steal_s": p.steal_s,
                       "attempted": len(p.ops), "failed": len(p.failures),
                       "failures": p.failures})
        if len(passes) >= 2 and time.perf_counter() - t_begin >= args.seconds:
            break

    if args.write_reference:
        gate.save_reference(args.reference, ref_key, first)

    per_layer, self_times = {}, {}
    traced_ids = [p["id"] for p in passes if p["traced"]]
    if traced_ids:
        tracer.enabled = True
        by_pass = [layer_metrics(tracer.spans, pid) for pid in traced_ids]
        per_layer = {name: statistics.median(m[name] for m in by_pass) for name in by_pass[0]}
        tracer.pass_id = "direct"
        per_layer.update(direct_timings(tracer, probe))
        self_times = layer_self_times(tracer.spans, traced_ids[-1])
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        traced_wall = [p["wall_s"] for p in passes if p["traced"]]
        per_layer["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced)
        trace_path = build / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "size": args.size,
                                  "seed": args.seed})

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": per_layer,
        "layer_self_s": self_times,
        "provenance": provenance(args.seed, threads),
        "reference": ref_key if reference is not None else None,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
