"""The benchmark's workloads: inputs made from a seed, and one pass each.

A pass is a chain of public ``dce`` calls. Each call is one operation: it is
timed as a span and its output is reduced to a record (a digest, or a fit's
log likelihood, parameters, standard errors and convergence) that the
correctness gate compares across passes and against the reference. Records
and checks are computed after the pass's clock stops, so hashing outputs is
not counted as the program's time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dce import (EstimationResult, ExperimentSchema, HaltonConfig, MixingSpec,
                 SimConfig, block_design, code_dataset, estimate_mmnl,
                 estimate_mnl, fit_stats, ingest_choices, lr_test,
                 own_cost_elasticity, read_design_csv, recovery_experiment,
                 screen_responses, select_fraction, simulate_dataset,
                 write_choices_csv, write_design_csv, wtp_report)

from spans import Tracer, annotate

RANDOM_PARAMS = ("asc_drone", "asc_truck")

# Sizes per workload. "full" is what the benchmark measures; "toy" keeps the
# same code path small enough for the benchmark's own tests and the warm-up.
SIZES = {
    "study_mmnl": {
        "full": {"runs": 32, "blocks": 4, "iters": 1000, "respondents": 264, "draws": 128},
        "toy": {"runs": 32, "blocks": 4, "iters": 50, "respondents": 60, "draws": 16},
    },
    "survey_files": {
        "full": {"runs": 64, "blocks": 8, "iters": 1000, "respondents": 5000},
        "toy": {"runs": 32, "blocks": 4, "iters": 50, "respondents": 40},
    },
    "recovery_sweep": {
        "full": {"runs": 32, "blocks": 4, "iters": 300, "fits": 12, "respondents": 40,
                 "draws": 100},
        "toy": {"runs": 32, "blocks": 4, "iters": 50, "fits": 2, "respondents": 40,
                "draws": 16},
    },
}

@dataclass
class Inputs:
    """What set-up builds once per process from the workload seed."""

    seed: int
    schema: ExperimentSchema
    truth_mnl: np.ndarray
    truth_mmnl: np.ndarray
    design: object | None = None  # recovery_sweep's fixed design
    demographic_weights: dict | None = None  # None: the published proportions


def prepare(root: Path, workload: str, seed: int, size: str) -> Inputs:
    """Load the shipped schema and Table 4 fixtures; build fixed inputs."""
    schema = ExperimentSchema.load(root / "schemas" / "drone_delivery_japan_table4_labels.json")
    mnl = EstimationResult.load(root / "fixtures" / "table4_mnl.json", schema)
    mmnl = EstimationResult.load(root / "fixtures" / "table4_mmnl.json", schema)
    inputs = Inputs(seed, schema, mnl.params.copy(), mmnl.params.copy())
    if workload == "recovery_sweep":
        sz = SIZES[workload][size]
        design = select_fraction(schema, sz["runs"], seed=seed, iters=sz["iters"], restarts=2)
        inputs.design = block_design(design, sz["blocks"], seed=seed)
        # Uniform demographics: at the published 5.9% share, one 40-person
        # sample in eleven has nobody aged 75+, which leaves that coefficient
        # unidentified and the fit without standard errors.
        inputs.demographic_weights = {
            a.name: {label: 1.0 / a.n_levels for label in a.level_labels()}
            for a in schema.demographic_attributes()}
    return inputs


# ---------------------------------------------------------------------------
# Output records
# ---------------------------------------------------------------------------

def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def design_record(design) -> dict:
    runs = [[run.alt_levels, run.context] for run in design.runs]
    return {"digest": _digest([runs, [list(b) for b in design.blocks]])}


def dataset_record(dataset) -> dict:
    rows = [[r.respondent_id, r.demographics, r.extra,
             [[o.task_id, o.block_id, o.task_values, o.alt_values, o.chosen]
              for o in r.observations]]
            for r in dataset.respondents]
    return {"digest": _digest(rows)}


def panel_record(panel) -> dict:
    h = hashlib.sha256()
    for a in (panel.X, panel.task_ptr, panel.chosen_row, panel.task_respondent):
        h.update(np.ascontiguousarray(a).tobytes())
    return {"digest": h.hexdigest()}


def file_record(path: Path) -> dict:
    return {"digest": hashlib.sha256(path.read_bytes()).hexdigest()}


def fit_record(result) -> dict:
    se = None if result.std_errors is None else [float(v) for v in result.std_errors]
    return {"ll_final": float(result.ll_final),
            "params": [float(v) for v in result.params],
            "std_errors": se,
            "converged": bool(result.converged)}


def value_record(value) -> dict:
    return {"value": value}


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

class OpFailed(Exception):
    """An operation raised; the rest of the pass cannot run."""


class Pass:
    """Runs one pass's operations and keeps their output records."""

    def __init__(self, tracer: Tracer, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.ops: list[str] = []
        self.outputs: dict[str, dict] = {}
        self.failures: dict[str, str] = {}
        self.threads: int | None = None  # from the last MMNL fit's trace
        self._deferred: list = []  # run by finish(), after the clock stops
        self.wall_s = self.cpu_s = self.steal_s = None

    def call(self, name: str, fn, *args, **kwargs):
        """Time one public call as a span; returns (operation key, output)."""
        n = sum(1 for k in self.ops if k.split("#")[0] == name)
        key = name if n == 0 else f"{name}#{n}"
        self.ops.append(key)
        with self.tracer.span(name) as span:
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # a failing call is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                self.failures[key] = f"raised {type(exc).__name__}: {exc}"
                raise OpFailed(key) from exc
            annotate(span, out, args)
        return key, out

    def record(self, key: str, make_record, *args) -> None:
        """Store ``make_record(*args)`` as the output of ``key``, later."""
        self._deferred.append(lambda: self.outputs.__setitem__(key, make_record(*args)))

    def check(self, key: str, reason: str, same, *pairs) -> None:
        """Fail ``key`` with ``reason`` unless ``same(a) == same(b)`` for every
        (a, b) in ``pairs``; evaluated later."""
        def run():
            if any(same(a) != same(b) for a, b in pairs):
                self.fail(key, reason)
        self._deferred.append(run)

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, reason)

    def fit(self, key: str, result) -> None:
        """Record a fit; it fails unless it converged with finite std errors."""
        if result.trace is not None:
            self.threads = int(result.trace.config["threads"])

        def run():
            rec = fit_record(result)
            self.outputs[key] = rec
            if not rec["converged"]:
                self.fail(key, "did not converge")
            elif rec["std_errors"] is None or not all(map(math.isfinite, rec["std_errors"])):
                self.fail(key, "no finite standard errors")
        self._deferred.append(run)

    def finish(self) -> None:
        for run in self._deferred:
            run()
        self._deferred.clear()


def _mixing(draws: int) -> MixingSpec:
    return MixingSpec(random_params=RANDOM_PARAMS, halton=HaltonConfig(n_draws=draws))


def _design(p: Pass, inp: Inputs, sz: dict):
    key, design = p.call("design.select_fraction", select_fraction, inp.schema,
                         sz["runs"], seed=inp.seed, iters=sz["iters"])
    p.record(key, design_record, design)
    key, design = p.call("design.block_design", block_design, design, sz["blocks"],
                         seed=inp.seed)
    p.record(key, design_record, design)
    return design


def study_mmnl(p: Pass, inp: Inputs, sz: dict):
    """Design -> simulate -> code -> MNL -> MMNL -> post-estimation."""
    schema = inp.schema
    design = _design(p, inp, sz)
    mixing = _mixing(sz["draws"])
    cfg = SimConfig(schema=schema, design=design, true_params=inp.truth_mmnl,
                    mixing=mixing, n_respondents=sz["respondents"], seed=inp.seed)
    key, dataset = p.call("simulate.simulate_dataset", simulate_dataset, cfg)
    p.record(key, dataset_record, dataset)
    key, panel = p.call("dataset.code_dataset", code_dataset, dataset)
    p.record(key, panel_record, panel)
    key, mnl = p.call("mnl.estimate_mnl", estimate_mnl, panel)
    p.fit(key, mnl)
    key, mmnl = p.call("mmnl.estimate_mmnl", estimate_mmnl, panel, mixing)
    p.fit(key, mmnl)
    if not mmnl.ll_final >= mnl.ll_final:
        p.fail(key, f"ll_mmnl {mmnl.ll_final!r} < ll_mnl {mnl.ll_final!r}")
    _postest(p, mmnl, schema)
    key, lr = p.call("postest.lr_test", lr_test, mnl.ll_final, mmnl.ll_final,
                     mixing.n_random)
    p.record(key, value_record, list(lr))
    return lambda: (mmnl.params, panel, mixing)


def survey_files(p: Pass, inp: Inputs, sz: dict):
    """The CLI's file chain at a large survey, MNL only."""
    schema = inp.schema
    design = _design(p, inp, sz)
    design_csv = p.workdir / "design.csv"
    key, _ = p.call("design.write_design_csv", write_design_csv, design, design_csv)
    p.record(key, file_record, design_csv)
    key, design_back = p.call("design.read_design_csv", read_design_csv, design_csv, schema)
    p.record(key, design_record, design_back)
    p.check(key, "design read back differs from the design written", design_record,
            (design_back, design))

    cfg = SimConfig(schema=schema, design=design_back, true_params=inp.truth_mnl,
                    n_respondents=sz["respondents"], seed=inp.seed)
    key, dataset = p.call("simulate.simulate_dataset", simulate_dataset, cfg)
    p.record(key, dataset_record, dataset)
    choices_csv = p.workdir / "choices.csv"
    key, _ = p.call("dataset.write_choices_csv", write_choices_csv, dataset, choices_csv)
    p.record(key, file_record, choices_csv)
    key, ingested = p.call("dataset.ingest_choices", ingest_choices, choices_csv, schema)
    p.record(key, dataset_record, ingested)
    p.check(key, "ingested choices differ from the choices written", dataset_record,
            (ingested, dataset))
    key, (kept, report) = p.call("dataset.screen_responses", screen_responses, ingested)
    p.record(key, value_record, [report.n_input, report.n_kept, report.counts])
    key, panel = p.call("dataset.code_dataset", code_dataset, kept)
    p.record(key, panel_record, panel)
    key, mnl = p.call("mnl.estimate_mnl", estimate_mnl, panel)
    p.fit(key, mnl)

    result_json = p.workdir / "mnl.json"
    key, _ = p.call("results.save", mnl.save, result_json)
    # the file's bytes hold every digit of the fit, so they are compared
    # across passes only; the reference checks the loaded fit by tolerance
    p.record(key, lambda: value_record(file_record(result_json)))
    key, loaded = p.call("results.load", EstimationResult.load, result_json, schema)
    p.record(key, fit_record, loaded)
    p.check(key, "result loaded back differs from the result saved", fit_record,
            (loaded, mnl))
    _postest(p, loaded, schema)
    return None


def recovery_sweep(p: Pass, inp: Inputs, sz: dict):
    """Consecutive-seed MMNL recovery fits on a small panel."""
    mixing = _mixing(sz["draws"])
    first = sz["fits"] * inp.seed
    cfg = None
    for i in range(sz["fits"]):
        cfg = SimConfig(schema=inp.schema, design=inp.design, true_params=inp.truth_mmnl,
                        mixing=mixing, n_respondents=sz["respondents"], seed=first + i,
                        demographic_weights=inp.demographic_weights)
        key, rep = p.call("simulate.recovery_experiment", recovery_experiment, cfg, "mmnl")
        p.fit(key, rep.result)
    # the last fit's point and panel, rebuilt after the pass on request
    return lambda: (rep.result.params, code_dataset(simulate_dataset(cfg)), mixing)


def _postest(p: Pass, result, schema) -> None:
    key, report = p.call("postest.wtp_report", wtp_report, result, schema)
    p.record(key, value_record, report.to_dict())
    key, stats = p.call("postest.fit_stats", fit_stats, result.ll_final, result.ll_null,
                        result.k_params)
    p.record(key, value_record, list(stats))
    key, entry = p.call("postest.own_cost_elasticity", own_cost_elasticity, result,
                        schema, "drone", 680.0, 1.0 / 3.0)
    p.record(key, value_record, entry.elasticity)


WORKLOADS = {"study_mmnl": study_mmnl, "survey_files": survey_files,
             "recovery_sweep": recovery_sweep}


def run_pass(workload: str, inp: Inputs, size: str, tracer: Tracer, workdir: Path):
    """One timed pass in a fresh work directory; returns (Pass, likelihood probe).

    The Pass carries the pass's wall, process CPU and host steal seconds.
    The probe, called after the timed passes, returns (params, panel,
    mixing) of the pass's last MMNL fit for the direct likelihood timings.
    It is None when the workload fits no MMNL or the pass stopped early.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    p = Pass(tracer, workdir)
    probe = None
    try:
        steal0, cpu0, t0 = steal_seconds(), time.process_time(), time.perf_counter()
        try:
            probe = WORKLOADS[workload](p, inp, SIZES[workload][size])
        except OpFailed:
            pass
        t1, cpu1, steal1 = time.perf_counter(), time.process_time(), steal_seconds()
        p.wall_s, p.cpu_s = t1 - t0, cpu1 - cpu0
        p.steal_s = None if steal0 is None or steal1 is None else steal1 - steal0
        p.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return p, probe


def steal_seconds() -> float | None:
    """Host CPU steal so far, summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
