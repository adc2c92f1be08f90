"""Panel logit kernel; multinomial logit probabilities, likelihood, score and
estimation.

Utilities are linear in the coded columns; probabilities are max-subtracted
softmaxes within each task. ``_MslWork`` is the one panel likelihood for both
models: the mixed logit adds normal deviations ``sd*z`` on its random columns,
and MNL is the case with no random columns and a single draw. Each task's
chosen log probability is floored at -700 in both models. Where the floor
binds, the objective is flat rather than concave and no longer matches the
gradient, which stays the unfloored score. BFGS's first line-search trial
on a large panel (a step of the full score, which runs to the thousands)
can reach such points. Elsewhere the MNL log likelihood is concave, so
estimation starts from zeros and a converged optimum is the optimum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .numerics import OptimizerOptions, bfgs_minimize, hessian_from_grad
from .results import EstimationResult, implied_base_levels, two_sided_p

__all__ = [
    "mnl_probabilities",
    "mnl_loglik",
    "mnl_gradient",
    "estimate_mnl",
]

# fixed chunk width so the reduction order never depends on the thread count
_CHUNK = 64

# per-task log-probability floor; exp(-700) stays normal in float64
_LOG_FLOOR = -700.0


def mnl_probabilities(params: np.ndarray, task_rows: np.ndarray) -> np.ndarray:
    """Choice probabilities for one task: softmax of row utilities."""
    rows = np.atleast_2d(np.asarray(task_rows, dtype=np.float64))
    u = rows @ np.asarray(params, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise EstimationError("non_finite_utility", "non-finite utility in task")
    e = np.exp(u - np.max(u))
    return e / e.sum()


class _MslWork:
    """Shared buffers for one (panel, draws) pair, reused across evaluations.

    ``rp`` holds the positions of the random columns and ``draws`` is shaped
    (n_respondents, n_draws, len(rp)); parameters are the fixed part followed
    by one sd per random column.
    """

    def __init__(self, panel: CodedPanel, rp, antithetic: bool, draws: np.ndarray,
                 n_threads: int = 1):
        self.rp = np.asarray(rp, dtype=np.intp)
        draws = np.asarray(draws, dtype=np.float64)
        if draws.ndim != 3 or draws.shape[0] != panel.n_respondents \
                or draws.shape[2] != len(self.rp):
            raise EstimationError(
                "draw_shape_mismatch",
                f"draws must be (n_respondents, n_draws, {len(self.rp)}), "
                f"got {draws.shape}")
        self.panel = panel
        self.antithetic = antithetic
        self.z = draws
        self.n_threads = max(1, n_threads)
        self.n_draws = draws.shape[1]
        self.sizes = panel.task_sizes
        self.row_resp = np.repeat(panel.task_respondent, self.sizes)
        self.resp_ptr = np.searchsorted(
            panel.task_respondent, np.arange(panel.n_respondents + 1))
        self.chunks = [(c0, min(c0 + _CHUNK, self.n_draws))
                       for c0 in range(0, self.n_draws, _CHUNK)]
        # per-draw row probabilities, filled on gradient evaluations
        self._sp = None

    @cached_property
    def _chosen(self):
        """Chosen rows' coded values: summed over all tasks, and summed per
        respondent over the random columns; built on the first gradient."""
        chosen_X = self.panel.X[self.panel.chosen_row]
        a_resp = np.add.reduceat(chosen_X[:, self.rp], self.resp_ptr[:-1], axis=0)
        return chosen_X.sum(axis=0), a_resp

    def _split(self, params):
        params = np.asarray(params, dtype=np.float64).reshape(-1)
        k = self.panel.X.shape[1]
        m = len(self.rp)
        if params.shape[0] != k + m:
            raise EstimationError(
                "parameter_mismatch",
                f"expected {k} fixed + {m} sd parameters, got {params.shape[0]}")
        return params[:k], params[k:]

    def _chunk_logprobs(self, base, sds, c0, c1, store):
        """Per-respondent log simulated-product for draw columns [c0, c1)."""
        panel = self.panel
        if len(self.rp) == 0:
            u = np.repeat(base[:, None], c1 - c0, axis=1)
        else:
            dev = self.z[:, c0:c1, :] * sds
            u = base[:, None] + np.einsum("nm,ncm->nc", panel.X[:, self.rp],
                                          dev[self.row_resp])
        finite = np.isfinite(u)
        if not np.all(finite):
            bad_row = int(np.flatnonzero(~finite.all(axis=1))[0])
            task = int(np.searchsorted(panel.task_ptr, bad_row, side="right") - 1)
            raise EstimationError("non_finite_utility",
                                  f"non-finite utility at task index {task}")
        m = np.maximum.reduceat(u, panel.task_ptr[:-1], axis=0)
        np.subtract(u, np.repeat(m, self.sizes, axis=0), out=u)
        e = np.exp(u)
        denom = np.add.reduceat(e, panel.task_ptr[:-1], axis=0)
        logp_task = u[panel.chosen_row] - np.log(denom)
        np.maximum(logp_task, _LOG_FLOOR, out=logp_task)
        if store is not None:
            store[:, c0:c1] = e / np.repeat(denom, self.sizes, axis=0)
        return np.add.reduceat(logp_task, self.resp_ptr[:-1], axis=0)

    def _map_chunks(self, worker):
        if self.n_threads == 1 or len(self.chunks) == 1:
            return [worker(c0, c1) for c0, c1 in self.chunks]
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            futs = [pool.submit(worker, c0, c1) for c0, c1 in self.chunks]
            return [f.result() for f in futs]

    def loglik_parts(self, params, need_probs: bool):
        """Per-respondent-by-draw log products; optionally keep row probs."""
        mean, sds = self._split(params)
        base = self.panel.X @ mean
        store = None
        if need_probs:
            if self._sp is None:
                self._sp = np.empty((self.panel.n_rows, self.n_draws))
            store = self._sp
        log_pr = np.empty((self.panel.n_respondents, self.n_draws))
        parts = self._map_chunks(
            lambda c0, c1: self._chunk_logprobs(base, sds, c0, c1, store))
        for (c0, c1), part in zip(self.chunks, parts):
            log_pr[:, c0:c1] = part
        return log_pr

    def respondent_ll(self, log_pr):
        """log mean over draws, pairing antithetic columns first for exact
        invariance under sd sign flips."""
        if self.antithetic and self.n_draws % 2 == 0:
            log_pr = np.logaddexp(log_pr[:, 0::2], log_pr[:, 1::2])
        top = log_pr.max(axis=1)
        ll_i = top + np.log(np.exp(log_pr - top[:, None]).sum(axis=1)) \
            - np.log(self.n_draws)
        if not np.all(np.isfinite(ll_i)):
            raise EstimationError("simulated_underflow",
                                  "simulated likelihood underflowed for a respondent")
        return ll_i

    def loglik(self, params) -> float:
        log_pr = self.loglik_parts(params, need_probs=False)
        return float(self.respondent_ll(log_pr).sum())

    def loglik_and_gradient(self, params):
        panel = self.panel
        rp = self.rp
        log_pr = self.loglik_parts(params, need_probs=True)
        ll_i = self.respondent_ll(log_pr)
        # each respondent's draw weights: softmax of log_pr over draws
        w = np.exp(log_pr - log_pr.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        sp = self._sp
        m_dims = len(rp)

        def accumulate(c0, c1):
            wc = w[:, c0:c1]
            wc_rows = wc[self.row_resp]
            s_rows = np.einsum("nc,nc->n", sp[:, c0:c1], wc_rows)
            if m_dims:
                zc = self.z[:, c0:c1, :]
                wz = np.einsum("rc,rcm->rm", wc, zc)
                sz_rows = np.einsum("nc,ncm->nm", sp[:, c0:c1] * wc_rows,
                                    zc[self.row_resp])
            else:
                wz = np.zeros((panel.n_respondents, 0))
                sz_rows = np.zeros((panel.n_rows, 0))
            return s_rows, wz, sz_rows

        s_rows = np.zeros(panel.n_rows)
        wz_resp = np.zeros((panel.n_respondents, m_dims))
        sz_rows = np.zeros((panel.n_rows, m_dims))
        for part in self._map_chunks(accumulate):
            s_rows += part[0]
            wz_resp += part[1]
            sz_rows += part[2]

        chosen_sum, a_resp = self._chosen
        grad_fixed = chosen_sum - panel.X.T @ s_rows
        if m_dims:
            grad_sd = np.einsum("rm,rm->m", a_resp, wz_resp) \
                - np.einsum("nm,nm->m", panel.X[:, rp], sz_rows)
        else:
            grad_sd = np.zeros(0)
        return float(ll_i.sum()), np.concatenate([grad_fixed, grad_sd])


def _mnl_work(panel: CodedPanel) -> _MslWork:
    """The kernel with no random columns and one draw."""
    return _MslWork(panel, (), False, np.zeros((panel.n_respondents, 1, 0)))


def mnl_loglik(params: np.ndarray, panel: CodedPanel) -> float:
    return _mnl_work(panel).loglik(params)


def mnl_gradient(params: np.ndarray, panel: CodedPanel) -> np.ndarray:
    """Score of the log likelihood: sum over tasks of x_chosen - E[x]."""
    return _mnl_work(panel).loglik_and_gradient(params)[1]


def check_identification(panel: CodedPanel) -> None:
    """Every coded column must vary within at least one task; a column
    constant within every task cancels out of all probabilities."""
    starts = panel.task_ptr[:-1]
    sizes = panel.task_sizes
    means = np.add.reduceat(panel.X, starts, axis=0) / sizes[:, None]
    centered = panel.X - np.repeat(means, sizes, axis=0)
    dead = np.max(np.abs(centered), axis=0) == 0.0
    if np.any(dead):
        names = [panel.index.entries[i].name for i in np.flatnonzero(dead)]
        raise EstimationError("degenerate_column",
                              "no within-task variation for parameter(s): "
                              + ", ".join(names))


def _inference(hessian_of_negll: np.ndarray, params: np.ndarray):
    """Standard errors and p-values from the observed information matrix;
    (None, None) when it is singular or not positive definite."""
    try:
        cov = np.linalg.inv(hessian_of_negll)
    except np.linalg.LinAlgError:
        return None, None
    diag = np.diag(cov)
    if np.any(~np.isfinite(diag)) or np.any(diag <= 0):
        return None, None
    se = np.sqrt(diag)
    p = np.array([two_sided_p(b, s) for b, s in zip(params, se)])
    return se, p


def estimate_mnl(panel: CodedPanel,
                 options: OptimizerOptions | None = None) -> EstimationResult:
    """Maximize the MNL log likelihood from a zero start.

    Standard errors come from the inverse of the finite-difference Hessian of
    the negative log likelihood (observed information) built on the analytic
    gradient; they are flagged unavailable (None) when that matrix is
    singular. Non-convergence is reported through ``converged``, not raised.
    """
    check_identification(panel)
    options = options or OptimizerOptions()
    work = _mnl_work(panel)

    def objective(x):
        ll, grad = work.loglik_and_gradient(x)
        return -ll, -grad

    k = panel.X.shape[1]
    res = bfgs_minimize(objective, np.zeros(k), options)

    hess = hessian_from_grad(lambda x: -work.loglik_and_gradient(x)[1], res.x)
    se, p = _inference(hess, res.x)

    return EstimationResult(
        index=panel.index,
        params=res.x,
        std_errors=se,
        p_values=p,
        ll_final=float(-res.fun),
        ll_null=panel.null_loglik(),
        converged=res.converged,
        iterations=res.iterations,
        model="mnl",
        base_levels=implied_base_levels(panel.schema, panel.index, res.x),
        n_respondents=panel.n_respondents,
        n_tasks=panel.n_tasks,
    )
