"""Estimation result container, JSON serialization, and table rendering.

The JSON layout is shared by both estimators and by the shipped coefficient
fixtures, so every downstream consumer (post-estimation, the simulator, the
CLI) reads one format. Keys are emitted in a fixed order: parameters follow
the parameter-index layout, which mirrors the reporting order of the source
estimates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import EstimationError, SchemaError, read_json
from .numerics import HaltonConfig, MixingSpec
from .schema import (ExperimentSchema, ParameterIndex, ParamInfo, _checked,
                     build_parameter_index)

__all__ = ["EstimationResult", "two_sided_p", "implied_base_levels", "render_table"]


def two_sided_p(estimate: float, std_error: float) -> float:
    """Two-sided p-value against a standard normal reference."""
    if std_error <= 0 or not np.isfinite(std_error):
        return float("nan")
    return math.erfc(abs(estimate / std_error) / math.sqrt(2.0))


_field = partial(_checked, "result_json")


def implied_base_levels(schema: ExperimentSchema, index: ParameterIndex,
                        params: np.ndarray) -> dict[str, float]:
    """Base-level coefficients implied by effects coding: the negated sum of
    each block's estimated coefficients, keyed like parameter names."""
    groups: dict[tuple, list[int]] = {}
    for i, e in enumerate(index.entries[:index.n_fixed]):
        if e.kind in ("context", "attribute", "demographic") and e.level is not None:
            groups.setdefault((e.kind, e.attribute, e.alternative), []).append(i)
    out: dict[str, float] = {}
    for (_, attr_name, _), cols in groups.items():
        attr = schema.attribute(attr_name)
        if attr.coding != "effects":
            continue
        prefix = index.entries[cols[0]].name.rsplit(":", 1)[0]
        out[f"{prefix}:{attr.base_level.label}"] = float(-np.sum(params[cols]))
    return out


@dataclass
class EstimationResult:
    """Coefficients plus fit for one estimated (or transcribed) model.

    ``params`` aligns with ``index``; sd entries, when present, sit at the
    tail. ``std_errors``/``p_values`` are None when the Hessian was singular
    (flagged unavailable rather than fabricated). ``base_levels`` carries the
    implied base-level coefficients of effects-coded blocks, keyed like
    parameter names; for estimated models they equal the negated block sums,
    for transcribed fixtures they hold the source's printed values.
    ``mixing`` is the spec a mixed logit was fitted with, or transcribed
    under; a loaded record is validated like any other spec.
    """

    index: ParameterIndex
    params: np.ndarray
    ll_final: float
    ll_null: float
    converged: bool
    iterations: int
    model: str  # "mnl" | "mmnl"
    status: str | None = None  # optimizer's stopping reason; None when transcribed
    std_errors: np.ndarray | None = None
    p_values: np.ndarray | None = None
    mixing: MixingSpec | None = None
    base_levels: dict[str, float] = field(default_factory=dict)
    n_respondents: int | None = None
    n_tasks: int | None = None
    run_id: str | None = None
    trace: object | None = None  # optimizer trace; runtime-only, never serialized

    @property
    def k_params(self) -> int:
        return int(self.params.size)

    @property
    def rho2(self) -> float:
        return 1.0 - self.ll_final / self.ll_null

    @property
    def rho2_adj(self) -> float:
        return 1.0 - (self.ll_final - self.k_params) / self.ll_null

    def estimate(self, name: str) -> float:
        return float(self.params[self.index.position(name)])

    def std_error(self, name: str) -> float | None:
        if self.std_errors is None:
            return None
        return float(self.std_errors[self.index.position(name)])

    def coefficient(self, name: str) -> float:
        """Estimate for a free parameter or a recorded implied base level."""
        if name in self.base_levels:
            return self.base_levels[name]
        return self.estimate(name)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def _num(v):
            return None if v is None or not np.isfinite(v) else float(v)

        parameters = {}
        for i, e in enumerate(self.index.entries):
            parameters[e.name] = {
                "estimate": float(self.params[i]),
                "std_error": _num(self.std_errors[i]) if self.std_errors is not None else None,
                "p_value": _num(self.p_values[i]) if self.p_values is not None else None,
            }
        d = {
            "model": self.model,
            "schema": self.index.schema_name,
            "parameters": parameters,
            "base_levels": {k: float(v) for k, v in self.base_levels.items()},
            "fit": {
                "ll_null": float(self.ll_null),
                "ll_final": float(self.ll_final),
                "k": self.k_params,
                "rho2": float(self.rho2),
                "rho2_adj": float(self.rho2_adj),
                "converged": bool(self.converged),
                "status": self.status,
                "iterations": int(self.iterations),
            },
            "mixing": None,
            "n_respondents": self.n_respondents,
            "n_tasks": self.n_tasks,
        }
        if self.mixing is not None:
            halton = self.mixing.halton
            sds = {rp: float(self.params[self.index.sd_position(rp)])
                   for rp in self.mixing.random_params}
            d["mixing"] = {
                "random_params": list(self.mixing.random_params),
                "sds": sds,
                "n_draws": halton.n_draws,
                "primes": list(self.mixing.primes),
                "drop": halton.drop,
                "antithetic": self.mixing.antithetic,
            }
        if self.run_id is not None:
            d["run_id"] = self.run_id
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8", newline="\n")

    @classmethod
    def from_dict(cls, d: dict, schema: ExperimentSchema | None = None) -> "EstimationResult":
        """Rebuild a result from its JSON dict.

        With ``schema`` given, the parameter index is rebuilt from the schema.
        Without it, a bare index (enough for post-estimation) holds the
        file's parameters up to its first ``sd:`` entry, then ``sd:<name>``
        for each of the mixing record's random parameters. Either way the
        index is checked name-by-name against the file, and a mismatch names
        the missing and unexpected parameters. Every other field must hold
        its own JSON type, or raise SchemaError "result_json": nothing is
        coerced, so ``"false"`` is not a boolean nor 500.7 a draw count.
        """
        try:
            pnames = list(d["parameters"].keys())
            model = _field(d.get("model", "mnl"), "string", "model")
            mix = d.get("mixing")
            if model not in ("mnl", "mmnl") or (mix is None) != (model == "mnl"):
                raise SchemaError("result_json",
                                  f"model {model!r} with mixing {mix!r}: an mmnl record "
                                  "has a mixing record and an mnl record has none")
            rps = () if mix is None else tuple(
                _field(rp, "string", "random parameter")
                for rp in _field(mix["random_params"], "array", "random_params"))
            if schema is not None:
                index = build_parameter_index(schema, rps)
                target = f"schema {schema.name!r}"
            else:
                n_fixed = next((i for i, n in enumerate(pnames) if n.startswith("sd:")),
                                len(pnames))
                entries = tuple(ParamInfo(n, "loaded") for n in pnames[:n_fixed])
                entries += tuple(ParamInfo(f"sd:{rp}", "sd") for rp in rps)
                index = ParameterIndex(d.get("schema", "loaded"), entries, rps)
                target = "its mixing record"
            if list(index.names()) != pnames:
                missing = sorted(set(index.names()) - set(pnames))
                extra = sorted(set(pnames) - set(index.names()))
                parts = [f"{what} parameters: {', '.join(names)}"
                         for what, names in (("missing", missing), ("unexpected", extra))
                         if names]
                raise SchemaError(
                    "parameter_mismatch",
                    f"result parameters do not match {target}; "
                    + ("; ".join(parts) or "order differs"),
                )
            params = np.array([_field(d["parameters"][n]["estimate"], "number", n)
                               for n in pnames], dtype=np.float64)
            ses = [_field(d["parameters"][n].get("std_error"), "number", n, True)
                   for n in pnames]
            pvs = [_field(d["parameters"][n].get("p_value"), "number", n, True)
                   for n in pnames]
            std_errors = (np.array([np.nan if s is None else s for s in ses], dtype=np.float64)
                          if any(s is not None for s in ses) else None)
            p_values = (np.array([np.nan if p is None else p for p in pvs], dtype=np.float64)
                        if any(p is not None for p in pvs) else None)
            fit = d["fit"]
            mixing = None
            if mix is not None:
                mixing = MixingSpec(
                    random_params=rps,
                    halton=HaltonConfig(
                        drop=_field(mix["drop"], "integer", "drop"),
                        n_draws=_field(mix["n_draws"], "integer", "n_draws")),
                    antithetic=_field(mix.get("antithetic", False), "boolean", "antithetic"),
                )
                primes = _field(mix["primes"], "array", "primes")
                if [_field(p, "integer", "prime") for p in primes] != list(mixing.primes):
                    raise SchemaError("result_json", f"Halton bases {primes} are not the "
                                                     f"first {mixing.n_random} primes")
            return cls(
                index=index,
                params=params,
                std_errors=std_errors,
                p_values=p_values,
                ll_final=float(_field(fit["ll_final"], "number", "ll_final")),
                ll_null=float(_field(fit["ll_null"], "number", "ll_null")),
                converged=_field(fit["converged"], "boolean", "converged"),
                iterations=_field(fit["iterations"], "integer", "iterations"),
                status=_field(fit.get("status"), "string", "status", True),
                model=model,
                mixing=mixing,
                base_levels={k: float(_field(v, "number", k))
                             for k, v in d.get("base_levels", {}).items()},
                n_respondents=_field(d.get("n_respondents"), "integer", "n_respondents", True),
                n_tasks=_field(d.get("n_tasks"), "integer", "n_tasks", True),
                run_id=_field(d.get("run_id"), "string", "run_id", True),
            )
        except (AttributeError, EstimationError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError("result_json", f"malformed result JSON: {exc!r}") from exc

    @classmethod
    def load(cls, path: str | Path, schema: ExperimentSchema | None = None) -> "EstimationResult":
        return cls.from_dict(read_json(path, "result_json"), schema)


def _fmt(v, width=10, prec=4):
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return " " * (width - 1) + "-"
    return f"{v:>{width}.{prec}f}"


def render_table(result: EstimationResult) -> str:
    """Aligned-column text report: coefficient blocks with implied base rows,
    sd block, then fit statistics."""
    lines = []
    head = f"{'parameter':<40}{'coef':>10}{'std err':>10}{'p':>8}"
    lines.append(head)
    lines.append("-" * len(head))
    printed_base_for: set = set()
    for i, e in enumerate(result.index.entries):
        se = result.std_errors[i] if result.std_errors is not None else None
        p = result.p_values[i] if result.p_values is not None else None
        lines.append(f"{e.name:<40}{_fmt(result.params[i])}{_fmt(se)}{_fmt(p, 8)}")
        # implied base row directly after the last level of its block
        if e.kind != "sd" and e.level is not None:
            nxt = result.index.entries[i + 1] if i + 1 < len(result.index.entries) else None
            block_key = (e.kind, e.attribute, e.alternative)
            ends_block = nxt is None or (nxt.kind, nxt.attribute, nxt.alternative) != block_key
            if ends_block and block_key not in printed_base_for:
                prefix = e.name.rsplit(":", 1)[0]
                base_name = next((n for n in result.base_levels
                                  if n.rsplit(":", 1)[0] == prefix), None)
                if base_name is not None:
                    lines.append(f"{base_name + ' (base)':<40}"
                                 f"{_fmt(result.base_levels[base_name])}"
                                 f"{_fmt(None)}{_fmt(None, 8)}")
                    printed_base_for.add(block_key)
    lines.append("-" * len(head))
    lines.append(f"{'LL(null)':<40}{_fmt(result.ll_null, 12, 3)}")
    lines.append(f"{'LL(final)':<40}{_fmt(result.ll_final, 12, 3)}")
    lines.append(f"{'k':<40}{result.k_params:>10d}")
    lines.append(f"{'rho2':<40}{_fmt(result.rho2, 10, 4)}")
    lines.append(f"{'rho2 adjusted':<40}{_fmt(result.rho2_adj, 10, 4)}")
    lines.append(f"{'converged':<40}{str(result.converged):>10}")
    if result.status is not None:
        lines.append(f"{'optimizer status':<40}{result.status:>10}")
    lines.append(f"{'iterations':<40}{result.iterations:>10d}")
    return "\n".join(lines) + "\n"
