"""Panel logit kernel; multinomial logit probabilities, likelihood, score and
estimation.

Utilities are linear in the coded columns; probabilities are max-subtracted
softmaxes within each task. ``_MslWork`` is the one panel likelihood for both
models: the mixed logit adds normal deviations ``sd*z`` on its random columns,
and MNL is the case with no random columns and a single draw. The kernel
returns the log likelihood, its score and, for standard errors, its Hessian
in closed form. The MNL log likelihood is concave, so estimation starts from
zeros and a converged optimum is the optimum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
# hessian_from_grad is unused here but stays importable: benchmarks/spans.py
# looks the name up in this module when it traces a run
from .numerics import OptimizerOptions, bfgs_minimize, hessian_from_grad  # noqa: F401
from .results import EstimationResult, implied_base_levels, two_sided_p

__all__ = [
    "mnl_probabilities",
    "mnl_loglik",
    "mnl_gradient",
    "estimate_mnl",
]

# fixed chunk width so the reduction order never depends on the thread count
_CHUNK = 64

# respondents per Hessian block: with one draw chunk, the block's temporaries
# stay near 1 MB whatever the panel size, below the likelihood pass's own
_BLOCK = 8


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
        self.blocks = [(n0, min(n0 + _BLOCK, panel.n_respondents))
                       for n0 in range(0, panel.n_respondents, _BLOCK)]
        # per-draw row probabilities, filled on gradient evaluations
        self._sp = None

    @cached_property
    def _chosen(self):
        """Chosen rows' coded values: summed over all tasks, and summed per
        respondent; built on the first gradient."""
        chosen_X = self.panel.X[self.panel.chosen_row]
        a_resp = np.add.reduceat(chosen_X, self.resp_ptr[:-1], axis=0)
        return chosen_X.sum(axis=0), a_resp

    @cached_property
    def _padded(self):
        """Row index of every (respondent, task, alternative) cell of the
        panel padded to its longest respondent and largest task, and a 0/1
        mask of the cells that hold a row; padded cells point at row 0."""
        panel = self.panel
        task_pos = np.arange(panel.n_tasks) - self.resp_ptr[panel.task_respondent]
        row_task = np.repeat(np.arange(panel.n_tasks), self.sizes)
        cell = (self.row_resp, task_pos[row_task],
                np.arange(panel.n_rows) - panel.task_ptr[row_task])
        shape = (panel.n_respondents, int(task_pos.max()) + 1, int(self.sizes.max()))
        idx = np.zeros(shape, dtype=np.intp)
        live = np.zeros(shape)
        idx[cell] = np.arange(panel.n_rows)
        live[cell] = 1.0
        return idx, live

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
        if store is not None:
            store[:, c0:c1] = e / np.repeat(denom, self.sizes, axis=0)
        return np.add.reduceat(logp_task, self.resp_ptr[:-1], axis=0)

    def _map(self, worker, spans):
        """``worker(lo, hi)`` over ``spans``, results in ``spans`` order."""
        if self.n_threads == 1 or len(spans) == 1:
            return [worker(lo, hi) for lo, hi in spans]
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            futs = [pool.submit(worker, lo, hi) for lo, hi in spans]
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
        parts = self._map(
            lambda c0, c1: self._chunk_logprobs(base, sds, c0, c1, store), self.chunks)
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

    @staticmethod
    def _draw_weights(log_pr):
        """Each respondent's draw weights: softmax of log_pr over draws."""
        w = np.exp(log_pr - log_pr.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return w

    def loglik_and_gradient(self, params):
        panel = self.panel
        rp = self.rp
        log_pr = self.loglik_parts(params, need_probs=True)
        ll_i = self.respondent_ll(log_pr)
        w = self._draw_weights(log_pr)
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
        for part in self._map(accumulate, self.chunks):
            s_rows += part[0]
            wz_resp += part[1]
            sz_rows += part[2]

        chosen_sum, a_resp = self._chosen
        grad_fixed = chosen_sum - panel.X.T @ s_rows
        if m_dims:
            grad_sd = np.einsum("rm,rm->m", a_resp[:, rp], wz_resp) \
                - np.einsum("nm,nm->m", panel.X[:, rp], sz_rows)
        else:
            grad_sd = np.zeros(0)
        return float(ll_i.sum()), np.concatenate([grad_fixed, grad_sd])

    def hessian(self, params) -> np.ndarray:
        """Hessian of the negative simulated log likelihood, in closed form.

        Utilities are linear in the parameters. Let x~ be a row's derivative
        of utility: the coded row, with ``x_rp*z_r`` in the sd columns. Under
        draw r, respondent n's score is S_nr = sum_t (x~_chosen - xbar_ntr),
        where xbar_ntr = sum_j p_ntjr x~ is the task's expected x~. With draw
        weights w_nr and score g_n = sum_r w_nr S_nr, the Hessian of n's log
        likelihood is

            sum_r w_nr (S_nr S_nr' - sum_tj p_ntjr (x~ - xbar)(x~ - xbar)')
            - g_n g_n'

        (Train, Discrete Choice Methods with Simulation, 2nd ed., ch. 8 and
        10). The within-task term is summed over draws before it meets the
        design, as X_t'(diag(q_t) - M_t)X_t with q_t = sum_r w_r p_tr and
        M_t = sum_r w_r p_tr p_tr' weighted by the draw moments 1, z_d and
        z_d z_e, so no array is (task, draw, parameter) shaped. Respondent
        blocks and draw chunks are summed in a fixed order, so the result
        does not depend on the thread count.
        """
        w = self._draw_weights(self.loglik_parts(params, need_probs=True))
        parts = self._map(lambda n0, n1: self._hessian_block(w, n0, n1), self.blocks)
        h = sum(parts)
        if not np.all(np.isfinite(h)):
            raise EstimationError("hessian_non_finite",
                                  "analytic Hessian contains non-finite entries")
        return 0.5 * (h + h.T)

    def _hessian_block(self, w, n0, n1):
        """Respondents [n0, n1)'s share of the Hessian of the negative log
        likelihood. Padded cells get probability 0 and so add nothing."""
        rp = self.rp
        k, m = self.panel.X.shape[1], len(rp)
        n_par = k + m
        pairs = [(d, e) for d in range(m) for e in range(d, m)]
        idx, live = (a[n0:n1] for a in self._padded)
        nb, n_t, n_j = idx.shape
        X = self.panel.X[idx]  # (nb, n_t, n_j, k)
        X_resp = X.reshape(nb, n_t * n_j, k)
        a = self._chosen[1][n0:n1]
        diag = np.arange(n_j)

        # Products are taken one respondent at a time: each BLAS call then
        # stays below OpenBLAS's threading threshold, whereas one product
        # over the whole block wakes its worker threads, which go on
        # spinning through the estimator's later single-threaded work.
        outer = np.zeros((n_par, n_par))
        score = np.zeros((nb, n_par))
        # per task, diag(q) - M for each draw moment (last axis)
        cov = np.zeros((nb, n_t, n_j, n_j, 1 + m + len(pairs)))
        for c0, c1 in self.chunks:
            p = self._sp[idx, c0:c1] * live[..., None]  # (nb, n_t, n_j, c)
            p_resp = p.reshape(nb, n_t * n_j, -1)
            wc = w[n0:n1, c0:c1]
            z = self.z[n0:n1, c0:c1, :]
            f = a[:, None, :] - p_resp.transpose(0, 2, 1) @ X_resp
            s = np.concatenate([f, f[:, :, rp] * z], axis=2)  # S_nr, (nb, c, n_par)
            ws = s * wc[..., None]
            outer += (ws.transpose(0, 2, 1) @ s).sum(axis=0)
            score += ws.sum(axis=1)
            moments = np.stack([wc] + [wc * z[..., d] for d in range(m)]
                               + [wc * z[..., d] * z[..., e] for d, e in pairs], axis=2)
            pp = p[:, :, :, None, :] * p[:, :, None, :, :]
            cov -= (pp.reshape(nb, n_t * n_j * n_j, -1) @ moments).reshape(cov.shape)
            cov[:, :, diag, diag, :] += (p_resp @ moments).reshape(nb, n_t, n_j, -1)

        X_task = X.reshape(nb * n_t, n_j, k)
        X_rp = X_task[:, :, rp]
        D = np.moveaxis(cov.reshape(nb * n_t, n_j, n_j, -1), -1, 0)

        def quad(d, left, right):
            """sum over tasks of left_t' d_t right_t"""
            right = (d @ right).reshape(nb, n_t * n_j, -1)
            return (left.reshape(nb, n_t * n_j, -1).transpose(0, 2, 1) @ right).sum(axis=0)

        within = np.empty((n_par, n_par))
        within[:k, :k] = quad(D[0], X_task, X_task)
        for d in range(m):
            within[:k, k + d] = within[k + d, :k] = quad(D[1 + d], X_task, X_rp)[:, d]
        for i, (d, e) in enumerate(pairs):
            within[k + d, k + e] = within[k + e, k + d] = \
                quad(D[1 + m + i], X_rp, X_rp)[d, e]
        return within + score.T @ score - outer


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
    (None, None) when it is singular to working precision (its 1-norm
    condition number reaches 1 / (n eps)) or not positive definite."""
    try:
        cov = np.linalg.inv(hessian_of_negll)
    except np.linalg.LinAlgError:
        return None, None
    cond = np.linalg.norm(hessian_of_negll, 1) * np.linalg.norm(cov, 1)
    if cond * len(params) * np.finfo(np.float64).eps >= 1.0:
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

    Standard errors come from the inverse of the analytic Hessian of the
    negative log likelihood (the observed information); they are flagged
    unavailable (None) when that matrix is singular. Non-convergence is
    reported through ``converged`` and ``status``, not raised.
    """
    check_identification(panel)
    options = options or OptimizerOptions()
    work = _mnl_work(panel)

    def objective(x):
        ll, grad = work.loglik_and_gradient(x)
        return -ll, -grad

    k = panel.X.shape[1]
    res = bfgs_minimize(objective, np.zeros(k), options)

    se, p = _inference(work.hessian(res.x), res.x)

    return EstimationResult(
        index=panel.index,
        params=res.x,
        std_errors=se,
        p_values=p,
        ll_final=float(-res.fun),
        ll_null=panel.null_loglik(),
        converged=res.converged,
        iterations=res.iterations,
        status=res.status,
        model="mnl",
        base_levels=implied_base_levels(panel.schema, panel.index, res.x),
        n_respondents=panel.n_respondents,
        n_tasks=panel.n_tasks,
    )
