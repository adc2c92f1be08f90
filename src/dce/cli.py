"""Command-line entry point: design -> simulate -> estimate -> postest.

``design``, ``simulate``, ``estimate``, ``postest wtp -o`` and ``postest
elasticity --emit-grid`` write a sidecar manifest (<output>.manifest.json)
recording the run id, arguments, input/output digests, timing and the build
(Python, numpy, numpy's SIMD targets and BLAS; not part of the run id);
``postest fit`` writes none. The run id is a digest of the command, its
arguments, the tool version, and the input file digests, deterministic, so
rerunning with identical inputs yields byte-identical primary outputs. Exit
codes: 0 success, 2 invalid input (an invalid schema with its first fault's
code), 3 estimation did not converge (the result file is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import code_dataset, ingest_choices, write_choices_csv
from .design import (block_design, read_design_csv, select_fraction,
                     within_block_deviation, write_design_csv)
from .errors import DceError, PostestError
from .fixtures import builtin_fixture, builtin_schema
from .mmnl import MixingSpec, estimate_mmnl
from .mnl import estimate_mnl
from .numerics import HaltonConfig
from .postest import (cost_slope, elasticity_grid, fit_stats,
                      own_cost_elasticity, render_wtp_table, wtp_report)
from .results import EstimationResult, render_table
from .schema import ExperimentSchema
from .simulate import SimConfig, simulate_dataset

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _build() -> dict:
    """What can move a fit's last bits between hosts: the Python and numpy
    versions, numpy's SIMD targets and its BLAS, these four null where
    numpy's show_config takes no mode."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd_baseline": simd.get("baseline"), "simd_found": simd.get("found"),
            "blas_name": blas.get("name"), "blas_version": blas.get("version")}


class _Manifest:
    """Collects one run's provenance; written next to the first output."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.argv = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.extra: dict = {}
        self.t0 = time.monotonic()

    def add_input(self, path: str | Path):
        p = Path(path)
        if p.exists():
            self.inputs[str(p)] = _sha256(p)

    def add_output(self, path: str | Path):
        self.outputs[str(Path(path))] = _sha256(Path(path))

    @property
    def run_id(self) -> str:
        basis = json.dumps({
            "command": self.command,
            "argv": {k: str(v) for k, v in self.argv.items()},
            "version": __version__,
            "inputs": self.inputs,
        }, sort_keys=True)
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def write(self, anchor_output: str | Path) -> Path:
        doc = {
            "run_id": self.run_id,
            "command": self.command,
            "version": __version__,
            "arguments": self.argv,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "elapsed_seconds": round(time.monotonic() - self.t0, 3),
            "build": _build(),
        }
        doc.update(self.extra)
        path = Path(str(anchor_output) + ".manifest.json")
        path.write_text(json.dumps(doc, indent=2, ensure_ascii=False,
                                   default=str) + "\n", encoding="utf-8")
        return path


def _load_schema(value: str) -> ExperimentSchema:
    p = Path(value)
    if p.exists():
        return ExperimentSchema.load(p)
    try:
        return builtin_schema(value)
    except KeyError:
        raise DceError("unknown_schema", f"no schema file or builtin named {value!r}")


def _load_result(args) -> EstimationResult:
    if getattr(args, "result", None):
        res = EstimationResult.load(args.result)
    else:
        try:
            res = builtin_fixture(args.fixture)
        except KeyError as e:
            raise DceError("unknown_fixture", str(e))
    return res


def _schema_for_result(args, result: EstimationResult) -> ExperimentSchema:
    if getattr(args, "schema", None):
        return _load_schema(args.schema)
    try:
        return builtin_schema(result.index.schema_name)
    except KeyError:
        raise DceError(
            "unknown_schema",
            f"result references schema {result.index.schema_name!r}; "
            f"pass --schema with its definition file")


def _cmd_design(args) -> int:
    manifest = _Manifest("design", args)
    manifest.add_input(args.schema)
    schema = _load_schema(args.schema)
    if args.blocks < 1 or args.runs % args.blocks != 0:
        raise DceError("bad_blocking", "blocks must divide runs")
    design = select_fraction(schema, args.runs, seed=args.seed, iters=args.iters)
    design = block_design(design, args.blocks, seed=args.seed)
    write_design_csv(design, args.output)
    manifest.add_output(args.output)
    diag = design.diagnostics
    deviation = within_block_deviation(design)
    manifest.extra["seeds"] = {"design": args.seed}
    manifest.extra["diagnostics"] = {
        "d_efficiency": diag.d_efficiency,
        "max_abs_column_correlation": diag.max_abs_column_correlation,
        "max_level_imbalance": diag.max_level_imbalance,
        "within_block_deviation": deviation,
        "singular": diag.singular,
    }
    mpath = manifest.write(args.output)
    print(f"design: {design.n_runs} runs, {design.n_blocks} blocks -> {args.output}")
    print(f"d-efficiency {diag.d_efficiency:.4f}, "
          f"max |column correlation| {diag.max_abs_column_correlation:.4f}, "
          f"level imbalance {diag.max_level_imbalance}, "
          f"within-block deviation {deviation:.1f}")
    print(f"manifest: {mpath}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    manifest = _Manifest("simulate", args)
    for p in (args.design, args.params, getattr(args, "schema", None)):
        if p:
            manifest.add_input(p)
    # read once for the schema it names, then against that schema, so that
    # a mismatch names the missing and unexpected parameters
    schema = _schema_for_result(args, EstimationResult.load(args.params))
    result = EstimationResult.load(args.params, schema)
    design = read_design_csv(args.design, schema)

    cfg = SimConfig(schema=schema, design=design, true_params=result.params,
                    mixing=result.mixing, n_respondents=args.n, seed=args.seed,
                    block_assignment=args.assignment)
    dataset = simulate_dataset(cfg)
    write_choices_csv(dataset, args.output)
    manifest.add_output(args.output)
    manifest.extra["seeds"] = {"simulation": args.seed}
    manifest.extra["block_assignment"] = args.assignment
    mpath = manifest.write(args.output)
    print(f"simulated {dataset.n_respondents} respondents, "
          f"{dataset.n_tasks} tasks -> {args.output}")
    print(f"manifest: {mpath}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    manifest = _Manifest(f"estimate {args.estimator}", args)
    manifest.add_input(args.data)
    manifest.add_input(args.schema)
    if args.respondents:
        manifest.add_input(args.respondents)
    schema = _load_schema(args.schema)
    dataset = ingest_choices(args.data, schema, respondents_path=args.respondents)
    panel = code_dataset(dataset)
    if args.estimator == "mnl":
        result = estimate_mnl(panel)
    else:
        random_params = tuple(s for s in (args.random or "").split(",") if s)
        mixing = MixingSpec(random_params=random_params,
                            halton=HaltonConfig(n_draws=args.draws, drop=args.drop),
                            antithetic=args.antithetic)
        result = estimate_mmnl(panel, mixing)
    result.run_id = manifest.run_id
    result.save(args.output)
    manifest.add_output(args.output)
    mpath = manifest.write(args.output)
    print(render_table(result))
    print(f"result: {args.output}")
    print(f"manifest: {mpath}")
    if not result.converged:
        print("estimation did not converge; result written anyway",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_postest_wtp(args) -> int:
    manifest = _Manifest("postest wtp", args)
    if args.result:
        manifest.add_input(args.result)
    result = _load_result(args)
    schema = _schema_for_result(args, result)
    report = wtp_report(result, schema)
    print(render_wtp_table(report), end="")
    if args.output:
        payload = report.to_dict()
        payload["run_id"] = manifest.run_id
        Path(args.output).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8")
        manifest.add_output(args.output)
        print(f"report: {args.output}")
        print(f"manifest: {manifest.write(args.output)}")
    return EXIT_OK


def _cmd_postest_fit(args) -> int:
    result = _load_result(args)
    stats = fit_stats(result.ll_final, result.ll_null, result.k_params)
    print(f"ll_null {result.ll_null:.3f}  ll_final {result.ll_final:.3f}  "
          f"k {result.k_params}")
    print(f"rho2 {stats.rho2:.3f}")
    print(f"rho2_adj {stats.rho2_adj:.3f}")
    return EXIT_OK


def _cmd_postest_elasticity(args) -> int:
    manifest = _Manifest("postest elasticity", args)
    if args.result:
        manifest.add_input(args.result)
    result = _load_result(args)
    schema = _schema_for_result(args, result)
    entry = own_cost_elasticity(result, schema, args.slope_mode,
                                args.price, args.prob)
    if args.emit_grid and not (0.0 < 0.5 * args.price and np.isfinite(1.5 * args.price)):
        raise PostestError("bad_price", f"grid prices from 0.5 to 1.5 x {args.price} "
                                        "must be finite and positive")
    print(f"own-cost elasticity, {entry.mode} at price {entry.price:g} "
          f"and P {entry.probability:.4f}: {entry.elasticity:.3f}")
    print(f"({entry.note})")
    if args.emit_grid:
        slope = cost_slope(result, schema, args.slope_mode)
        prices = np.linspace(0.5 * args.price, 1.5 * args.price, 21)
        rows = elasticity_grid(slope.slope, args.price, args.prob, prices)
        with open(args.emit_grid, "w", encoding="utf-8", newline="") as fh:
            fh.write("price,probability\n")
            for p, q in rows:
                fh.write(f"{p:.6g},{q:.10g}\n")
        manifest.add_output(args.emit_grid)
        print(f"grid: {args.emit_grid}")
        print(f"manifest: {manifest.write(args.emit_grid)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dce",
        description="Stated-choice toolkit: experimental designs, synthetic "
                    "choices, MNL/MMNL estimation, and post-estimation reports.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build a blocked fractional design")
    d.add_argument("--schema", required=True, help="schema JSON path or builtin name")
    d.add_argument("--runs", type=int, required=True)
    d.add_argument("--blocks", type=int, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--iters", type=int, default=5000,
                   help="swap-search iterations per restart")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_cmd_design)

    s = sub.add_parser("simulate", help="generate synthetic choices from a result file")
    s.add_argument("--design", required=True, help="design CSV")
    s.add_argument("--params", required=True,
                   help="EstimationResult JSON holding the true parameters")
    s.add_argument("--schema", help="schema JSON (default: builtin named by the result)")
    s.add_argument("--n", type=int, required=True, help="respondent count")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--assignment", choices=("balanced", "uniform"),
                   default="balanced", help="block assignment rule")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("estimate", help="fit a choice model")
    esub = e.add_subparsers(dest="estimator", required=True)
    for name in ("mnl", "mmnl"):
        p = esub.add_parser(name)
        p.add_argument("--data", required=True, help="long-format choices CSV")
        p.add_argument("--schema", required=True)
        p.add_argument("--respondents", help="companion respondent-level CSV")
        p.add_argument("-o", "--output", required=True)
        if name == "mmnl":
            p.add_argument("--draws", type=int, default=500)
            p.add_argument("--random", required=True,
                           help="comma-separated random parameter names")
            p.add_argument("--drop", type=int, default=10)
            p.add_argument("--antithetic", action="store_true")
        p.set_defaults(func=_cmd_estimate)

    pe = sub.add_parser("postest", help="reports from an estimation result")
    psub = pe.add_subparsers(dest="report", required=True)

    w = psub.add_parser("wtp", help="willingness-to-pay table")
    w.add_argument("--result", help="EstimationResult JSON")
    w.add_argument("--fixture", default="table4",
                   help="builtin result name when --result is absent")
    w.add_argument("--schema", help="schema JSON (default: builtin named by the result)")
    w.add_argument("-o", "--output", help="also write the report as JSON")
    w.set_defaults(func=_cmd_postest_wtp)

    f = psub.add_parser("fit", help="fit statistics of a result")
    f.add_argument("--result", help="EstimationResult JSON")
    f.add_argument("--fixture", default="table4",
                   help="builtin result name when --result is absent")
    f.set_defaults(func=_cmd_postest_fit)

    el = psub.add_parser("elasticity", help="own-cost point elasticity")
    el.add_argument("--price", type=float, required=True)
    el.add_argument("--prob", type=float, required=True,
                    help="baseline choice probability")
    el.add_argument("--slope-mode", dest="slope_mode", required=True)
    el.add_argument("--result", help="EstimationResult JSON")
    el.add_argument("--fixture", default="table4",
                    help="builtin result name when --result is absent")
    el.add_argument("--schema", help="schema JSON (default: builtin named by the result)")
    el.add_argument("--emit-grid", dest="emit_grid",
                    help="write a price,probability CSV grid")
    el.set_defaults(func=_cmd_postest_elasticity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
