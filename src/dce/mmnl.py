"""Panel mixed logit estimated by maximum simulated likelihood.

Random coefficients are normal with a mean taken from the fixed-part entry
and a standard deviation carried in a trailing ``sd:<name>`` column. For each
respondent and draw, the probabilities of the respondent's tasks multiply
before averaging over draws; draws come from a shared Halton matrix that is
held fixed across optimizer iterations. The likelihood and its score are
evaluated by the panel logit kernel in ``mnl.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .mnl import _fit, _MslWork, estimate_mnl, mnl_probabilities
# hessian_from_grad is unused here but stays importable: benchmarks/spans.py
# looks the name up in this module when it traces a run
from .numerics import (HaltonConfig, OptimizerOptions,  # noqa: F401
                       hessian_from_grad, normal_draws)
from .results import EstimationResult, MixingInfo
from .schema import ParameterIndex, build_parameter_index

__all__ = ["MixingSpec", "SimulatedLikelihoodTrace", "make_draws",
           "msl_loglik", "msl_gradient", "estimate_mmnl", "mmnl_predict"]

# benchmarks/spans.py patches this name when it traces a run; nothing calls it
bfgs_minimize = None


@dataclass(frozen=True)
class MixingSpec:
    """Which coefficients are random, and how their draws are generated."""

    random_params: tuple[str, ...] = ("asc_drone", "asc_truck")
    halton: HaltonConfig = field(default_factory=HaltonConfig)
    antithetic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "random_params", tuple(self.random_params))
        if len(set(self.random_params)) != len(self.random_params):
            raise EstimationError("duplicate_random_param",
                                  "random_params contains duplicates")
        if len(self.random_params) > len(self.halton.primes):
            raise EstimationError(
                "too_few_primes",
                f"{len(self.random_params)} random parameters need "
                f"{len(self.random_params)} Halton bases, got {len(self.halton.primes)}")
        if self.antithetic and self.halton.n_draws % 2:
            raise EstimationError("odd_draw_count",
                                  "antithetic pairing needs an even n_draws")

    @property
    def n_random(self) -> int:
        return len(self.random_params)


@dataclass(frozen=True)
class SimulatedLikelihoodTrace:
    """Per-iteration simulated log likelihood plus the draw configuration."""

    ll: tuple[float, ...]
    n_draws: int
    config: dict

    def __post_init__(self):
        if not all(np.isfinite(v) for v in self.ll):
            raise EstimationError("non_finite_trace", "trace contains non-finite ll")


def make_draws(mixing: MixingSpec, n_individuals: int) -> np.ndarray:
    """Standard-normal draw matrix shaped (individuals, draws, random dims).

    Individual ``i`` always receives the same contiguous slice of the global
    Halton sequence, so adding respondents never perturbs existing draws.
    With ``antithetic``, draws come in adjacent ``(z, -z)`` pairs built from
    half as many Halton points.
    """
    m = mixing.n_random
    cfg = replace(mixing.halton, primes=mixing.halton.primes[:max(m, 1)])
    if m == 0:
        return np.zeros((n_individuals, cfg.n_draws, 0))
    if mixing.antithetic:
        half = replace(cfg, n_draws=cfg.n_draws // 2)
        z = normal_draws(half, n_individuals)
        out = np.empty((n_individuals, cfg.n_draws, m))
        out[:, 0::2, :] = z
        out[:, 1::2, :] = -z
        return out
    return normal_draws(cfg, n_individuals)


def _work(panel: CodedPanel, mixing: MixingSpec, draws: np.ndarray | None) -> _MslWork:
    if draws is None:
        draws = make_draws(mixing, panel.n_respondents)
    return _MslWork(panel, panel.index.positions(mixing.random_params),
                    mixing.antithetic, draws)


# msl_loglik and msl_gradient ignore n_threads but still accept it:
# benchmarks/worker.py passes it when it times them
def msl_loglik(params_with_sds, panel: CodedPanel, mixing: MixingSpec,
               draws: np.ndarray | None = None, n_threads=None) -> float:
    """Simulated log likelihood: sum over respondents of the log of the
    draw-averaged product of task probabilities."""
    return _work(panel, mixing, draws).loglik(params_with_sds)


def msl_gradient(params_with_sds, panel: CodedPanel, mixing: MixingSpec,
                 draws: np.ndarray | None = None, n_threads=None) -> np.ndarray:
    """Analytic simulated-likelihood gradient, sd columns via the chain rule
    through sd*z."""
    return _work(panel, mixing, draws).loglik_and_gradient(params_with_sds)[1]


def estimate_mmnl(panel: CodedPanel, mixing: MixingSpec,
                  options: OptimizerOptions | None = None,
                  start: np.ndarray | None = None) -> EstimationResult:
    """Maximize the simulated log likelihood over means and sds.

    The Halton draw matrix is built once and held fixed across iterations.
    Unless ``start`` is given, means warm-start at the plain MNL solution and
    sds at 0.5. The fit, sd signs and standard errors are those of
    ``mnl._fit``: trust-region Newton on the analytic Hessian, sds reported
    as absolute values, and standard errors from the observed information
    at the reported point, None when it is singular. A mixing with no random
    parameters is the MNL, so it raises EstimationError "no_random_params".
    """
    if mixing.n_random == 0:
        raise EstimationError("no_random_params",
                              "a mixed logit needs at least one random parameter")
    index = build_parameter_index(panel.schema, mixing.random_params)
    if index.names()[:panel.X.shape[1]] != panel.index.names():
        raise EstimationError("parameter_mismatch",
                              "panel was coded against a different index")

    work = _work(panel, mixing, None)
    if start is None:
        mnl = estimate_mnl(panel, options)
        start = np.concatenate([mnl.params, np.full(mixing.n_random, 0.5)])
    result, trace_ll = _fit(panel, work, index, start, options)
    halton = mixing.halton
    primes = halton.primes[:mixing.n_random]
    trace = SimulatedLikelihoodTrace(
        ll=trace_ll, n_draws=work.n_draws,
        config={"random_params": list(mixing.random_params),
                "primes": list(primes),
                "drop": halton.drop, "antithetic": mixing.antithetic,
                # always 1, but kept: benchmarks/workloads.py and spans.py read it
                "threads": 1})
    return replace(result, model="mmnl", trace=trace,
                   mixing=MixingInfo(random_params=mixing.random_params,
                                     n_draws=work.n_draws,
                                     primes=tuple(primes),
                                     drop=halton.drop,
                                     antithetic=mixing.antithetic))


def mmnl_predict(params_with_sds, task_rows, mixing: MixingSpec,
                 n_draws: int, index: ParameterIndex | None = None) -> np.ndarray:
    """Draw-averaged choice probabilities for one task's coded rows.

    ``index`` locates the random parameters' columns; it may be omitted only
    when the mixing has no random parameters.
    """
    rows = np.atleast_2d(np.asarray(task_rows, dtype=np.float64))
    params = np.asarray(params_with_sds, dtype=np.float64).reshape(-1)
    k = rows.shape[1]
    m = mixing.n_random
    if params.shape[0] != k + m:
        raise EstimationError(
            "parameter_mismatch",
            f"expected {k} fixed + {m} sd parameters, got {params.shape[0]}")
    if m == 0:
        return mnl_probabilities(params[:k], rows)
    if index is None:
        raise EstimationError("missing_index",
                              "a parameter index is needed to place random parameters")
    rp = index.positions(mixing.random_params)
    spec = replace(mixing, halton=replace(mixing.halton, n_draws=n_draws))
    z = make_draws(spec, 1)[0]  # (n_draws, m)
    dev = z * params[k:]  # (n_draws, m)
    u = (rows @ params[:k])[:, None] + rows[:, rp] @ dev.T  # (J, n_draws)
    u -= u.max(axis=0)
    e = np.exp(u)
    probs = e / e.sum(axis=0)
    return probs.mean(axis=1)
