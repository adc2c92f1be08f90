"""Panel mixed logit estimated by maximum simulated likelihood.

Random coefficients are normal with a mean taken from the fixed-part entry
and a standard deviation carried in a trailing ``sd:<name>`` column. For each
respondent and draw, the probabilities of the respondent's tasks multiply
before averaging over draws; draws come from a shared Halton matrix that is
held fixed across optimizer iterations. The likelihood and its score are
evaluated by the panel logit kernel in ``mnl.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .mnl import _inference, _MslWork, estimate_mnl, mnl_probabilities
# bfgs_minimize and hessian_from_grad are unused here but stay importable:
# benchmarks/spans.py looks the names up in this module when it traces a run
from .numerics import (HaltonConfig, OptimizerOptions, bfgs_minimize,  # noqa: F401
                       hessian_from_grad, normal_draws, trust_newton_minimize)
from .results import EstimationResult, MixingInfo, implied_base_levels
from .schema import ParameterIndex, build_parameter_index

__all__ = ["MixingSpec", "SimulatedLikelihoodTrace", "make_draws",
           "msl_loglik", "msl_gradient", "estimate_mmnl", "mmnl_predict"]


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


def _thread_count(n_threads: int | None) -> int:
    """``n_threads`` if given, else DCE_THREADS if set, else the core count;
    a count below 1 is an error wherever it comes from."""
    if n_threads is None:
        env = os.environ.get("DCE_THREADS", "").strip()
        if not env:
            return os.cpu_count() or 1
        try:
            n_threads = int(env)
        except ValueError:
            raise EstimationError("bad_thread_count",
                                  f"DCE_THREADS={env!r} is not an integer")
    if n_threads < 1:
        raise EstimationError("bad_thread_count",
                              f"the thread count must be >= 1, got {n_threads}")
    return n_threads


def _work(panel: CodedPanel, mixing: MixingSpec, draws: np.ndarray | None,
          n_threads: int) -> _MslWork:
    if draws is None:
        draws = make_draws(mixing, panel.n_respondents)
    return _MslWork(panel, panel.index.positions(mixing.random_params),
                    mixing.antithetic, draws, n_threads)


def msl_loglik(params_with_sds, panel: CodedPanel, mixing: MixingSpec,
               draws: np.ndarray | None = None, n_threads: int | None = None) -> float:
    """Simulated log likelihood: sum over respondents of the log of the
    draw-averaged product of task probabilities."""
    work = _work(panel, mixing, draws, _thread_count(n_threads))
    return work.loglik(params_with_sds)


def msl_gradient(params_with_sds, panel: CodedPanel, mixing: MixingSpec,
                 draws: np.ndarray | None = None,
                 n_threads: int | None = None) -> np.ndarray:
    """Analytic simulated-likelihood gradient, sd columns via the chain rule
    through sd*z."""
    work = _work(panel, mixing, draws, _thread_count(n_threads))
    return work.loglik_and_gradient(params_with_sds)[1]


def estimate_mmnl(panel: CodedPanel, mixing: MixingSpec,
                  options: OptimizerOptions | None = None,
                  n_threads: int | None = None,
                  start: np.ndarray | None = None) -> EstimationResult:
    """Maximize the simulated log likelihood over means and sds.

    The Halton draw matrix is built once and held fixed across iterations.
    Unless ``start`` is given, means warm-start at the plain MNL solution and
    sds at 0.5. The optimizer is trust-region Newton on the analytic Hessian
    (``trust_newton_minimize``), one kernel pass per iteration. Sd estimates
    are reported as absolute values (their sign is not identified).
    Standard errors come from the inverse of the analytic Hessian of the
    negative simulated log likelihood at the reported point (the observed
    information): the optimizer's last one, recomputed only when an sd's
    sign was flipped. They are None when that matrix is singular.
    ``n_threads`` defaults to DCE_THREADS or the core count; a count below
    1 raises ``bad_thread_count``.
    """
    opts = options or OptimizerOptions()
    threads = _thread_count(n_threads)
    index = build_parameter_index(panel.schema, mixing.random_params)
    k = panel.X.shape[1]
    if index.names()[:k] != panel.index.names():
        raise EstimationError("parameter_mismatch",
                              "panel was coded against a different index")

    work = _work(panel, mixing, None, threads)

    if start is not None:
        x0 = np.asarray(start, dtype=np.float64).reshape(-1).copy()
        if x0.shape[0] != index.n_params:
            raise EstimationError("parameter_mismatch",
                                  f"start needs {index.n_params} values")
    else:
        mnl = estimate_mnl(panel, opts)
        x0 = np.concatenate([mnl.params, np.full(mixing.n_random, 0.5)])

    trace_ll: list[float] = []

    def fun(x):
        ll, grad, hess = work.hessian(x)
        return -ll, -grad, hess

    res = trust_newton_minimize(fun, x0, opts,
                                callback=lambda it, x, f: trace_ll.append(-f))

    x_hat = res.x.copy()
    x_hat[k:] = np.abs(x_hat[k:])
    if np.any(res.x[k:] < 0):
        ll_final, _, hessian = work.hessian(x_hat)
    else:
        ll_final, hessian = -res.fun, res.hess
    se, pvals = _inference(hessian, x_hat)
    halton = mixing.halton
    trace = SimulatedLikelihoodTrace(
        ll=tuple(trace_ll), n_draws=work.n_draws,
        config={"random_params": list(mixing.random_params),
                "primes": list(halton.primes[:max(mixing.n_random, 1)]),
                "drop": halton.drop, "scramble": halton.scramble,
                "seed": halton.seed, "antithetic": mixing.antithetic,
                "threads": threads})
    return EstimationResult(
        index=index,
        params=x_hat,
        ll_final=ll_final,
        ll_null=panel.null_loglik(),
        converged=res.converged,
        iterations=res.iterations,
        status=res.status,
        model="mmnl",
        std_errors=se,
        p_values=pvals,
        mixing=MixingInfo(random_params=mixing.random_params,
                          n_draws=work.n_draws,
                          primes=tuple(halton.primes[:max(mixing.n_random, 1)]),
                          drop=halton.drop,
                          antithetic=mixing.antithetic),
        base_levels=implied_base_levels(panel.schema, index, x_hat),
        n_respondents=panel.n_respondents,
        n_tasks=panel.n_tasks,
        trace=trace,
    )


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
