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
from .mnl import _fit, _mnl_start, _MslWork, estimate_mnl  # noqa: F401
from .numerics import MixingSpec, normal_draws
from .results import EstimationResult
from .schema import build_parameter_index

__all__ = ["MixingSpec", "SimulatedLikelihoodTrace", "make_draws",
           "msl_loglik", "msl_gradient", "estimate_mmnl"]

# benchmarks/spans.py patches these names, and estimate_mnl, when it traces a
# run; nothing here calls them: the warm start fits on the MMNL's own layout
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
    half as many Halton points. The matrix is the transposed view of a
    C-contiguous (individuals, random dims, draws) array, the kernel's
    layout, so ``_MslWork.mix`` uses it without a copy; its values and
    ``tobytes()`` are those of the (individuals, draws, dims) matrix.
    ``normal_draws`` builds it in slices of whole individuals, so the call
    peaks at about the result's size (1.5 times it with ``antithetic``).
    EstimationError "bad_respondent_count" unless ``n_individuals`` is an
    integer >= 0, and "bad_drop" if a Halton index would pass int64's range
    or a draw would round out of (0, 1).
    """
    m = mixing.n_random
    cfg = mixing.halton
    if mixing.antithetic:
        half = replace(cfg, n_draws=cfg.n_draws // 2)
        z = normal_draws(half, n_individuals, m).transpose(0, 2, 1)
        out = np.empty((n_individuals, m, cfg.n_draws))
        out[:, :, 0::2] = z
        np.negative(z, out=out[:, :, 1::2])
        return out.transpose(0, 2, 1)
    return normal_draws(cfg, n_individuals, m)


def _work(panel: CodedPanel, mixing: MixingSpec, draws: np.ndarray | None) -> _MslWork:
    if draws is None:
        draws = make_draws(mixing, panel.n_respondents)
    return _MslWork(panel).mix(panel.index.positions(mixing.random_params),
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


def estimate_mmnl(panel: CodedPanel, mixing: MixingSpec) -> EstimationResult:
    """Maximize the simulated log likelihood over means and sds.

    Means warm-start at the panel's MNL optimum (``_mnl_start``: the one
    ``estimate_mnl`` recorded, else one fitted on the kernel's layout before
    any draws are made) and sds at 0.5. The layout is built once; the mixed
    kernel adds the Halton draws and the random columns to it. The fit, sd
    signs and standard errors are those of ``mnl._fit``: trust-region Newton
    on the analytic Hessian, sds reported as absolute values, and standard
    errors from the observed information at the reported point, None when
    it is singular. A mixing with no random parameters is the MNL, so it
    raises EstimationError "no_random_params". The result's ``mixing`` is
    ``mixing`` itself.
    """
    if mixing.n_random == 0:
        raise EstimationError("no_random_params",
                              "a mixed logit needs at least one random parameter")
    index = build_parameter_index(panel.schema, mixing.random_params)
    work = _MslWork(panel)
    start = np.concatenate([_mnl_start(panel, work), np.full(mixing.n_random, 0.5)])
    work.mix(panel.index.positions(mixing.random_params), mixing.antithetic,
             make_draws(mixing, panel.n_respondents))
    result, trace_ll = _fit(panel, work, index, start)
    trace = SimulatedLikelihoodTrace(ll=trace_ll, config={"threads": 1})
    return replace(result, model="mmnl", trace=trace, mixing=mixing)
