"""Panel mixed logit estimated by maximum simulated likelihood.

Random coefficients are normal with a mean taken from the fixed-part entry
and a standard deviation carried in a trailing ``sd:<name>`` column. For each
respondent and draw, the probabilities of the respondent's tasks multiply
before averaging over draws; draws come from a shared Halton matrix that is
held fixed across optimizer iterations. The likelihood, its score and its
Hessian are evaluated by the panel logit kernel in ``mnl.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .mnl import _fit, _MslWork, _softmax, estimate_mnl, mnl_probabilities
from .numerics import MixingSpec, OptimizerOptions, normal_draws
from .results import EstimationResult
from .schema import ParameterIndex, build_parameter_index

__all__ = ["MixingSpec", "SimulatedLikelihoodTrace", "make_draws",
           "msl_loglik", "msl_gradient", "estimate_mmnl", "mmnl_predict"]

# benchmarks/spans.py patches these names when it traces a run; nothing calls them
bfgs_minimize = hessian_from_grad = None


@dataclass(frozen=True)
class SimulatedLikelihoodTrace:
    """Per-iteration simulated log likelihood. ``config`` holds only
    ``{"threads": 1}``: benchmarks/workloads.py and spans.py read it."""

    ll: tuple[float, ...]
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
    cfg = mixing.halton
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
    through sd*z: a Hessian pass's score, raising whatever
    ``_MslWork.hessian`` raises."""
    return _work(panel, mixing, draws).hessian(params_with_sds)[1]


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
    The result's ``mixing`` is ``mixing`` itself.
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
    trace = SimulatedLikelihoodTrace(ll=trace_ll, config={"threads": 1})
    return replace(result, model="mmnl", trace=trace, mixing=mixing)


def mmnl_predict(params_with_sds, task_rows, mixing: MixingSpec,
                 index: ParameterIndex | None = None) -> np.ndarray:
    """Choice probabilities for one task's coded rows, averaged over the
    mixing's draws for one individual. A non-finite utility under any draw
    raises EstimationError "non_finite_utility", as in ``mnl_probabilities``.

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
    z = make_draws(mixing, 1)[0]  # (n_draws, m)
    dev = z * params[k:]  # (n_draws, m)
    u = (rows @ params[:k])[:, None] + rows[:, rp] @ dev.T  # (J, n_draws)
    return _softmax(u).mean(axis=1)
