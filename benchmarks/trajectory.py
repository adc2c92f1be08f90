"""Summarize the run records in ``.bench_build/results/`` into one trajectory
point, ``benchmarks/results/BENCH_<n>.json``.

    python3 benchmarks/trajectory.py 0 --note "baseline"

For each workload it keeps, over the full-size runs found: the seeds, the
median and quartiles of each end-to-end metric from the untraced runs, the
median of each per-layer metric and layer self time from the traced runs,
the operation counts, and the provenance of one run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_build" / "results"


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and their distance as a share of the median (the
    spread the benchmark's bounds are set against)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "n": len(values)}


def summarize(records: list[dict]) -> dict:
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    out = {"seeds": sorted({r["seed"] for r in records}),
           "attempted": sum(sum(p["attempted"] for p in r["passes"]) for r in records),
           "failed": sum(sum(p["failed"] for p in r["passes"]) for r in records)}
    if untraced:
        out["end_to_end"] = {k: quartiles([r["end_to_end"][k] for r in untraced])
                             for k in untraced[0]["end_to_end"]}
    if traced:
        out["per_layer"] = {k: statistics.median(r["per_layer"][k] for r in traced)
                            for k in traced[0]["per_layer"]}
        layers = sorted({k for r in traced for k in r["layer_self_s"]})
        out["layer_self_s"] = {k: statistics.median(r["layer_self_s"].get(k, 0.0)
                                                    for r in traced) for k in layers}
    out["provenance"] = records[0]["provenance"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="trajectory point number")
    ap.add_argument("--note", default="", help="what this point measures")
    args = ap.parse_args(argv)

    by_workload: dict[str, list[dict]] = {}
    for path in sorted(RESULTS.glob("*-full-seed*-trace*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(rec["workload"], []).append(rec)
    if not by_workload:
        raise SystemExit(f"no full-size run records in {RESULTS}")
    point = {"point": args.n, "note": args.note,
             "workloads": {w: summarize(recs) for w, recs in sorted(by_workload.items())}}
    out = HERE / "results" / f"BENCH_{args.n}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
