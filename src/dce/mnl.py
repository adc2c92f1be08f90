"""Panel logit kernel; multinomial logit probabilities, likelihood, score and
estimation.

Utilities are linear in the coded columns; probabilities are max-subtracted
softmaxes within each task. ``_MslWork`` is the one panel likelihood for both
models: the mixed logit adds normal deviations ``sd*z`` on its random columns,
and MNL is the case with no random columns and a single draw. The kernel
holds the panel in one layout, padded to (respondent, task, alternative)
cells, so that ragged panels need no special case and each 64-draw chunk's
utilities come from one batched product. It returns the log likelihood, its
score and, for standard errors, its Hessian in closed form. The MNL log
likelihood is concave, so estimation starts from zeros and a converged
optimum is the optimum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
# bfgs_minimize and hessian_from_grad are unused here but stay importable:
# benchmarks/spans.py looks the names up in this module when it traces a run
from .numerics import (OptimizerOptions, bfgs_minimize,  # noqa: F401
                       hessian_from_grad, trust_newton_minimize)
from .results import EstimationResult, implied_base_levels, two_sided_p

__all__ = [
    "mnl_probabilities",
    "mnl_loglik",
    "mnl_gradient",
    "estimate_mnl",
]

# fixed chunk width so the reduction order never depends on the thread count
_CHUNK = 64

# respondent x draw cells per Hessian block and draw chunk: 8 respondents x
# 64 draws, or 512 respondents with one draw (MNL), which would otherwise pay
# Python overhead per 8. Blocks of 4-32 respondents time alike with draws,
# and their temporaries peak near 0.5 MB; a one-draw block's peak near 9 MB
# at 264 respondents and 18 MB at 512, as a mixed pass does at 264 x 128
# and 528 x 500 draws
_BLOCK_CELLS = 512


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

    The panel is padded to ``shape``, (respondent, task, alternative) cells:
    as many tasks as the longest respondent has and as many alternatives as
    the largest task. ``cell`` is each coded row's flat cell and
    ``chosen_cell`` each (respondent, task)'s. ``offset`` is the utility of
    an empty cell, -inf so that it has probability 0, except in the first
    cell of a padded task, which is 0 so that the task adds log 1 = 0. Of
    the design only the random columns are held padded (``Xrp``, zero in
    empty cells); the Hessian pads the rest one block of respondents at a
    time.
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
        self.z = np.ascontiguousarray(draws.transpose(0, 2, 1))  # (n, rp, draw)
        self.n_threads = n_threads
        self.n_draws = draws.shape[1]
        self.chunks = [(c0, min(c0 + _CHUNK, self.n_draws))
                       for c0 in range(0, self.n_draws, _CHUNK)]
        block = max(1, _BLOCK_CELLS // min(self.n_draws, _CHUNK))
        self.blocks = [(n0, min(n0 + block, panel.n_respondents))
                       for n0 in range(0, panel.n_respondents, block)]

        # tasks are grouped by respondent, so searching the respondent column
        # for itself finds each respondent's first task
        task_pos = np.arange(panel.n_tasks) \
            - np.searchsorted(panel.task_respondent, panel.task_respondent)
        self.shape = (panel.n_respondents, int(task_pos.max()) + 1,
                      int(panel.task_sizes.max()))
        n_r, n_t, n_j = self.shape
        self.cell = (panel.task_respondent * n_t + task_pos)[panel.row_task] * n_j \
            + np.arange(panel.n_rows) - panel.task_ptr[panel.row_task]
        self.chosen_cell = np.arange(0, n_r * n_t * n_j, n_j)
        self.chosen_cell[self.cell[panel.chosen_row] // n_j] = self.cell[panel.chosen_row]
        self.offset = np.full((n_r * n_t * n_j, 1), -np.inf)
        self.offset[self.cell] = 0.0
        self.offset[::n_j] = 0.0
        Xrp = np.zeros((n_r * n_t * n_j, len(self.rp)))
        Xrp[self.cell] = panel.X[:, self.rp]
        self.Xrp = Xrp.reshape(n_r, n_t * n_j, -1)
        # chosen rows' coded values summed over the panel, and their random
        # columns summed per respondent
        self.chosen_X = panel.X[panel.chosen_row].sum(axis=0)
        self.chosen_rp = Xrp[self.chosen_cell].reshape(n_r, n_t, -1).sum(axis=1)
        # per-draw cell probabilities, shaped (*shape, n_draws); filled on
        # gradient and Hessian evaluations
        self._sp = None

    def _split(self, params):
        params = np.asarray(params, dtype=np.float64).reshape(-1)
        k = self.panel.X.shape[1]
        m = len(self.rp)
        if params.shape[0] != k + m:
            raise EstimationError(
                "parameter_mismatch",
                f"expected {k} fixed + {m} sd parameters, got {params.shape[0]}")
        return params[:k], params[k:]

    def _non_finite(self, row_finite):
        """Raise for the first coded row whose utility is not finite."""
        task = self.panel.row_task[np.flatnonzero(~row_finite)[0]]
        raise EstimationError("non_finite_utility", f"non-finite utility at task index {task}")

    def _map(self, worker, spans):
        """``worker(lo, hi)`` over ``spans``, results in ``spans`` order."""
        if self.n_threads == 1 or len(spans) == 1:
            return [worker(lo, hi) for lo, hi in spans]
        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            futs = [pool.submit(worker, lo, hi) for lo, hi in spans]
            return [f.result() for f in futs]

    def loglik_parts(self, params, need_probs: bool):
        """Per-respondent-by-draw log products; optionally keep the cells'
        per-draw probabilities."""
        mean, sds = self._split(params)
        # einsum, not BLAS: OpenBLAS runs this product on two threads from
        # ~10,000 rows, which buys no time and burns a second core
        base = np.einsum("rk,k->r", self.panel.X, mean)
        if not np.isfinite(base).all():
            self._non_finite(np.isfinite(base))
        u_base = self.offset.copy()
        u_base[self.cell, 0] = base
        if need_probs and self._sp is None:
            self._sp = np.empty((*self.shape, self.n_draws))
        store = self._sp if need_probs else None

        def chunk(c0, c1):
            """Draws [c0, c1): every cell's utility from one batched product,
            then a log-softmax over each task's alternatives, summed over
            tasks."""
            cells = (self.Xrp @ (self.z[:, :, c0:c1] * sds[:, None])).reshape(-1, c1 - c0)
            cells += u_base
            u = cells.reshape(*self.shape, c1 - c0)
            # a loop over the few alternatives is faster than u.max(axis=2)
            top = u[:, :, 0].copy()
            for j in range(1, self.shape[2]):
                np.maximum(top, u[:, :, j], out=top)
            if not np.isfinite(top).all():
                self._non_finite(np.isfinite(cells[self.cell]).all(axis=1))
            u -= top[:, :, None]
            logp = cells[self.chosen_cell].reshape(top.shape)
            e = np.exp(u, out=u)
            denom = e.sum(axis=2)
            if store is not None:
                np.divide(e, denom[:, :, None], out=store[..., c0:c1])
            return (logp - np.log(denom)).sum(axis=1)

        return np.concatenate(self._map(chunk, self.chunks), axis=1)

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

    def _loglik_and_weights(self, params):
        """Log likelihood, keeping the cells' probabilities, and each
        respondent's draw weights: the softmax of its log products."""
        log_pr = self.loglik_parts(params, need_probs=True)
        w = np.exp(log_pr - log_pr.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        return float(self.respondent_ll(log_pr).sum()), w

    def loglik_and_gradient(self, params):
        ll, w = self._loglik_and_weights(params)
        n_r, n_t, n_j = self.shape
        sp = self._sp.reshape(n_r, n_t * n_j, self.n_draws)

        def moments(c0, c1):
            """each cell's probability summed over draws [c0, c1) with the
            draw moments w and w*z"""
            wc = w[:, None, c0:c1]
            wz = np.concatenate([wc, wc * self.z[:, :, c0:c1]], axis=1)
            return sp[:, :, c0:c1] @ wz.transpose(0, 2, 1)

        s = sum(self._map(moments, self.chunks))
        # einsum for one core, as in loglik_parts
        grad_fixed = self.chosen_X \
            - np.einsum("rk,r->k", self.panel.X, s[:, :, 0].reshape(-1)[self.cell])
        grad_sd = np.einsum("rm,rm->m", self.chosen_rp, np.einsum("rc,rmc->rm", w, self.z)) \
            - np.einsum("rjm,rjm->m", self.Xrp, s[:, :, 1:])
        return ll, np.concatenate([grad_fixed, grad_sd])

    def hessian(self, params):
        """Log likelihood, its score and the Hessian of the negative
        simulated log likelihood, the latter in closed form.

        Utilities are linear in the parameters. Let x~ be a row's derivative
        of utility: the coded row, with ``x_rp*z_r`` in the sd columns. Under
        draw r, respondent n's score is S_nr = sum_t (x~_chosen - xbar_ntr),
        where xbar_ntr = sum_j p_ntjr x~ is the task's expected x~. With draw
        weights w_nr and score g_n = sum_r w_nr S_nr, the Hessian of n's log
        likelihood is sum_r w_nr (S_nr S_nr' - sum_tj p_ntjr (x~ - xbar)
        (x~ - xbar)') - g_n g_n' (Train, Discrete Choice Methods with
        Simulation, 2nd ed., ch. 8 and 10). Let P be n's (cell x draw)
        probabilities, X its padded design, a its chosen rows' sum, q = P w
        and G = P diag(w) P', the (T*J)^2 cell Gram matrix. The fixed score
        is a - X'q and the fixed x fixed block is X'MX with

            M = G - q q' + blockdiag_t(G) - diag(q),

        the MNL Hessian when there is one draw (G = q q'). For a random
        column x_d with draws z_d, let y_d be each (task, draw)'s expected
        x_d, f_d = a_d - P'x_d and v_d = w z_d f_d, all vectors over draws.
        The sd score is g_d = sum_r v_d, the fixed x sd column is
        X'[q g_d - P v_d - x_d P(w z_d) + (P y_d)(w z_d)], with y_d repeated
        over each task's alternatives, and the sd x sd entry is
        sum_r w z_d z_e (f_d f_e - sum_c p x_d x_e + sum_t y_d y_e) - g_d g_e.
        Respondent blocks and draw chunks are summed in a fixed order, so
        the result does not depend on the thread count.
        """
        ll, w = self._loglik_and_weights(params)
        parts = self._map(lambda n0, n1: self._hessian_block(w, n0, n1), self.blocks)
        grad = sum(score for score, _ in parts)
        h = sum(block for _, block in parts)
        if not np.all(np.isfinite(h)):
            raise EstimationError("hessian_non_finite",
                                  "analytic Hessian contains non-finite entries")
        return ll, grad, 0.5 * (h + h.T)

    def _hessian_block(self, w, n0, n1):
        """Respondents [n0, n1)'s share of the score and of the Hessian of
        the negative log likelihood; empty cells hold a zero design row.
        Every product is batched per respondent and summed afterwards: one
        product over the block would be large enough to wake OpenBLAS's
        threads, which then spin through the estimator's serial work."""
        k, m = self.panel.X.shape[1], len(self.rp)
        _, n_t, n_j = self.shape
        nb, n_c = n1 - n0, n_t * n_j
        lo, hi = np.searchsorted(self.cell, (n0 * n_c, n1 * n_c))
        X = np.zeros((nb * n_c, k))
        X[self.cell[lo:hi] - n0 * n_c] = self.panel.X[lo:hi]
        a = X[self.chosen_cell[n0 * n_t:n1 * n_t] - n0 * n_c].sum(axis=0)
        X, x = X.reshape(nb, n_c, k), self.Xrp[n0:n1]
        x_task = x.reshape(nb, n_t, n_j, m).transpose(0, 1, 3, 2)
        G = np.zeros((nb, n_c, n_c))
        Pm = np.zeros((nb, n_c, 1 + 2 * m + m * m))  # P [w, v_d, w z_d, w z_d z_e]
        Py, g = np.zeros((nb, n_c, m)), np.zeros((nb, m))  # (P y_d)(w z_d); g_d
        sd = np.zeros((nb, m, m))  # sum_r w z_d z_e (f_d f_e + sum_t y_d y_e)
        for c0, c1 in self.chunks:
            p = self._sp[n0:n1, :, :, c0:c1].reshape(nb, n_c, -1)
            p_task = p.reshape(nb, n_t, n_j, -1)
            wc, z = w[n0:n1, None, c0:c1], self.z[n0:n1, :, c0:c1]
            G += (p * wc) @ p.transpose(0, 2, 1)
            y = x_task @ p_task  # (respondent, task, sd, draw)
            f = self.chosen_rp[n0:n1, :, None] - y.sum(axis=1)
            wz = wc * z
            v, yw = wz * f, y * wz[:, None]
            g += v.sum(axis=2)
            wzz = (wz[:, :, None] * z[:, None]).reshape(nb, m * m, c1 - c0)
            Pm += p @ np.concatenate([wc, v, wz, wzz], axis=1).transpose(0, 2, 1)
            Py += (p_task @ yw.transpose(0, 1, 3, 2)).reshape(nb, n_c, m)
            sd += v @ (z * f).transpose(0, 2, 1) \
                + (yw @ (y * z[:, None]).transpose(0, 1, 3, 2)).sum(axis=1)
        xx = (x[:, :, :, None] * x[:, :, None, :]).reshape(nb, n_c, m * m)
        sd -= (xx * Pm[:, :, 1 + 2 * m:]).sum(axis=1).reshape(nb, m, m)  # sum_c p x_d x_e
        q = Pm[:, :, 0]
        M = q[:, :, None] * q[:, None, :] - G  # -M from here on
        M_task, t = M.reshape(nb, n_t, n_j, n_t, n_j), np.arange(n_t)
        M_task[:, t, :, t] -= G.reshape(M_task.shape)[:, t, :, t]
        M.reshape(nb, -1)[:, ::n_c + 1] += q
        # X'q, then the negated fixed x sd columns
        Xt = X.transpose(0, 2, 1)
        Xc = (Xt @ np.concatenate([Pm[:, :, :1], Pm[:, :, 1:1 + m] - Py - q[:, :, None] * g[:, None]
                                   + x * Pm[:, :, 1 + m:1 + 2 * m]], axis=2)).sum(axis=0)
        h = np.block([[(Xt @ (M @ X)).sum(axis=0), Xc[:, 1:]],
                      [Xc[:, 1:].T, g.T @ g - sd.sum(axis=0)]])
        return np.concatenate([a - Xc[:, 0], g.sum(axis=0)]), h


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
    dead = np.all(panel.X == panel.X[panel.task_ptr[panel.row_task]], axis=0)
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

    The optimizer is trust-region Newton on the analytic Hessian
    (``trust_newton_minimize``); each iteration is one pass of the kernel.
    Standard errors come from the inverse of that Hessian at the estimate
    (the observed information), taken from the optimizer's last accepted
    point; they are flagged unavailable (None) when that matrix is
    singular. Non-convergence is reported through ``converged`` and
    ``status``, not raised.
    """
    check_identification(panel)
    options = options or OptimizerOptions()
    work = _mnl_work(panel)

    def objective(x):
        ll, grad, hess = work.hessian(x)
        return -ll, -grad, hess

    k = panel.X.shape[1]
    res = trust_newton_minimize(objective, np.zeros(k), options)

    se, p = _inference(res.hess, res.x)

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
