"""Correctness gate: outputs against the committed reference and across passes.

The reference holds, per (workload, size, seed), the digest records (designs,
simulated and ingested choices, coded panels, written files) and the fit
records of one run. Digests must match exactly. A fit matches when its log
likelihood is within 1e-6, every parameter within 1e-5 (absolute) and every
standard error within 1e-3 (relative), and its convergence flag is the same.
The standard-error tolerance leaves room for an analytic Hessian.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

LL_ABS = 1e-6
PARAM_ABS = 1e-5
SE_REL = 1e-3


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/seed{seed}"


def load_reference(path: Path, key: str) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get("records", {}).get(key)


def save_reference(path: Path, key: str, outputs: dict) -> None:
    """Store this run's digest and fit records under ``key``."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["tolerances"] = {"ll_final_abs": LL_ABS, "params_abs": PARAM_ABS,
                         "std_errors_rel": SE_REL}
    records = doc.setdefault("records", {})
    records[key] = {k: v for k, v in outputs.items() if "digest" in v or "ll_final" in v}
    doc["records"] = dict(sorted(records.items()))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _close(got, want, abs_tol=0.0, rel_tol=0.0) -> bool:
    return math.isclose(got, want, abs_tol=abs_tol, rel_tol=rel_tol)


def fit_mismatch(got: dict, want: dict) -> str | None:
    if got["converged"] != want["converged"]:
        return f"converged {got['converged']} != reference {want['converged']}"
    if not _close(got["ll_final"], want["ll_final"], abs_tol=LL_ABS):
        return f"ll_final {got['ll_final']!r} != reference {want['ll_final']!r}"
    if len(got["params"]) != len(want["params"]):
        return "parameter count differs from the reference"
    for i, (g, w) in enumerate(zip(got["params"], want["params"])):
        if not _close(g, w, abs_tol=PARAM_ABS):
            return f"param[{i}] {g!r} != reference {w!r}"
    if (got["std_errors"] is None) != (want["std_errors"] is None):
        return "standard errors present in only one of output and reference"
    for i, (g, w) in enumerate(zip(got["std_errors"] or (), want["std_errors"] or ())):
        if not _close(g, w, rel_tol=SE_REL):
            return f"std_error[{i}] {g!r} != reference {w!r}"
    return None


def against_reference(outputs: dict, reference: dict) -> dict[str, str]:
    """Operation key -> reason, for every output that breaches the reference."""
    bad = {}
    for key, want in reference.items():
        got = outputs.get(key)
        if got is None:
            continue  # the operation did not run; it is counted as failed already
        if "digest" in want:
            if got.get("digest") != want["digest"]:
                bad[key] = "digest differs from the reference"
        else:
            reason = fit_mismatch(got, want)
            if reason:
                bad[key] = reason
    return bad


def against_first_pass(outputs: dict, first: dict) -> dict[str, str]:
    """Operation key -> reason, for every output not bit-identical to pass 1."""
    return {key: "output differs from the first pass of this run"
            for key, rec in outputs.items()
            if key in first and json.dumps(rec, sort_keys=True) != json.dumps(first[key], sort_keys=True)}
