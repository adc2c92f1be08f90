"""Panel logit kernel; multinomial logit probabilities, likelihood, score and
estimation.

Utilities are linear in the coded columns; probabilities are max-subtracted
softmaxes within each task. ``_MslWork`` is the one panel likelihood for both
models: the mixed logit adds normal deviations ``sd*z`` on its random columns,
and MNL is the case with no random columns and a single draw. The kernel
holds the panel in one layout: each task's alternatives after its first,
differenced from the first, padded to (respondent, task, cell) so that
ragged panels need no special case and each 64-draw chunk's utilities come
from one batched product. This is exact because logit probabilities depend
only on utility differences within a task. The kernel has two evaluations,
``loglik`` (the log likelihood) and ``hessian`` (it, its score, which the
gradient functions return, and its Hessian in closed form), each one block
of respondents at a time: a block's per-draw probabilities are formed, used
and dropped before the next block's. The MNL log likelihood is concave, so
estimation starts from zeros and a converged optimum is the optimum.
"""

from __future__ import annotations

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .numerics import OptimizerOptions, trust_newton_minimize
from .results import EstimationResult, implied_base_levels, two_sided_p
from .schema import ParameterIndex

__all__ = [
    "mnl_probabilities",
    "mnl_loglik",
    "mnl_gradient",
    "estimate_mnl",
]

# benchmarks/spans.py patches these names when it traces a run; nothing calls them
bfgs_minimize = hessian_from_grad = None

# draws per chunk: bounds each pass's temporaries, and a fixed width fixes
# the summation order
_CHUNK = 64

# respondent x draw cells per respondent block and draw chunk: 16 respondents
# x 64 draws, or 1,024 respondents with one draw (MNL). Each evaluation runs
# block by block, so this also bounds the per-draw probabilities it holds. In
# a sweep of 256-3,072 cells (one thread), made before the likelihood pass ran
# per block, mixed blocks were fastest at 1,024-2,048: a Hessian's blocks
# took 15.7 ms at 264 x 128 draws against 19.1 at 512 cells, and
# 2.2 against 2.7 ms at 40 x 100. One-draw blocks of 128-256 respondents
# would be faster from ~1,000 respondents (48 ms against 71 at 5,000), but
# no benchmark workload fits an MNL that large
_BLOCK_CELLS = 1024


def _softmax(u: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over a task's alternatives (axis 0); a
    non-finite utility raises EstimationError "non_finite_utility"."""
    if not np.all(np.isfinite(u)):
        raise EstimationError("non_finite_utility", "non-finite utility in task")
    e = np.exp(u - u.max(axis=0))
    return e / e.sum(axis=0)


def mnl_probabilities(params: np.ndarray, task_rows: np.ndarray) -> np.ndarray:
    """Choice probabilities for one task: softmax of row utilities."""
    rows = np.atleast_2d(np.asarray(task_rows, dtype=np.float64))
    return _softmax(rows @ np.asarray(params, dtype=np.float64))


class _MslWork:
    """The panel's layout and draws for one (panel, draws) pair, reused
    across evaluations.

    ``rp`` holds the positions of the random columns and ``draws`` is shaped
    (n_respondents, n_draws, len(rp)); parameters are the fixed part followed
    by one sd per random column.

    The panel is held differenced from each task's first (positional, hence
    always real) row, the task's reference, whose utility is 0 and is left
    implicit. ``shape`` is (respondent, task, cell): as many tasks as the
    longest respondent has and one cell per alternative after the first in
    the largest task. ``D`` holds each cell's row minus its task's first,
    shaped (respondent, task * cell, column) and zero in empty cells, and
    ``Drp`` its random columns. ``cell_row`` is each flat cell's coded row,
    -1 if empty. ``offset`` is -inf in an empty cell, so that it has
    probability 0, and 0 in a real one; a padded task has only empty cells
    and so adds log 1 = 0. ``A`` holds each respondent's chosen rows minus
    their tasks' first rows, summed over tasks, and ``Arp`` its random
    columns: the chosen cells' utilities summed over tasks are
    A mean + Arp (sd z).

    Both evaluations, ``loglik`` and ``hessian``, run over ``blocks`` of
    respondents in order. Draw weights are per respondent, so a block's
    likelihood, weights, score and Hessian all come from its own tile of
    per-draw probabilities (``_tile``); no evaluation holds the panel's.
    """

    def __init__(self, panel: CodedPanel, rp, antithetic: bool, draws: np.ndarray):
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
        self.n_draws = draws.shape[1]
        self.chunks = [(c0, min(c0 + _CHUNK, self.n_draws))
                       for c0 in range(0, self.n_draws, _CHUNK)]
        block = _BLOCK_CELLS // min(self.n_draws, _CHUNK)
        self.blocks = [(n0, min(n0 + block, panel.n_respondents))
                       for n0 in range(0, panel.n_respondents, block)]

        # tasks are grouped by respondent, so searching the respondent column
        # for itself finds each respondent's first task
        task_pos = np.arange(panel.n_tasks) \
            - np.searchsorted(panel.task_respondent, panel.task_respondent)
        # at least one cell per task: when every task has one alternative,
        # all cells are empty and each task adds log 1 = 0
        self.shape = (panel.n_respondents, int(task_pos.max()) + 1,
                      max(int(panel.task_sizes.max()) - 1, 1))
        n_r, n_t, n_d = self.shape
        task = panel.task_respondent * n_t + task_pos
        first = panel.task_ptr[:-1]
        ref = first[panel.row_task]
        rows = np.flatnonzero(np.arange(panel.n_rows) != ref)
        cell = task[panel.row_task[rows]] * n_d + rows - ref[rows] - 1
        # each flat cell's coded row and its task's first row; -1 in an empty
        # cell picks the zero row appended to the design
        self.cell_row, cell_ref = np.full((2, n_r * n_t * n_d), -1)
        self.cell_row[cell], cell_ref[cell] = rows, ref[rows]
        self.offset = np.where(self.cell_row < 0, -np.inf, 0.0)[:, None]
        k = panel.X.shape[1]
        X = np.concatenate([panel.X, np.zeros((1, k))])
        self.D = (X[self.cell_row] - X[cell_ref]).reshape(n_r, n_t * n_d, k)
        self.Drp = np.ascontiguousarray(self.D[:, :, self.rp])
        A = np.zeros((n_r * n_t, k))
        A[task] = X[panel.chosen_row] - X[first]
        self.A = A.reshape(n_r, n_t, k).sum(axis=1)
        self.Arp = self.A[:, self.rp]

    def _split(self, params):
        params = np.asarray(params, dtype=np.float64).reshape(-1)
        k = self.panel.X.shape[1]
        m = len(self.rp)
        if params.shape[0] != k + m:
            raise EstimationError(
                "parameter_mismatch",
                f"expected {k} fixed + {m} sd parameters, got {params.shape[0]}")
        return params[:k], params[k:]

    def _non_finite(self, cell_finite, n0):
        """Raise for the first coded row, from respondent n0 on, whose
        differenced cell is not finite."""
        rows = self.cell_row[n0 * self.shape[1] * self.shape[2]:][:cell_finite.size]
        rows = rows[~cell_finite & (rows >= 0)]
        raise EstimationError("non_finite_utility",
                              f"non-finite utility at task index {self.panel.row_task[rows[0]]}")

    def _tile(self, mean, sds, n0, n1):
        """Respondents [n0, n1)'s (respondent, draw) log products and, per
        draw chunk, their cells' probabilities shaped (respondent,
        task * cell, chunk draws). Per chunk, every cell's utility comes from
        one batched product, then a log-softmax over each task's cells and
        its reference's 0 is summed over tasks, each sum in a fixed order."""
        _, n_t, n_d = self.shape
        nb = n1 - n0
        Drp, z = self.Drp[n0:n1], self.z[n0:n1]
        # einsum, not BLAS: OpenBLAS runs this product on two threads from
        # ~10,000 rows, which buys no time and burns a second core
        u_base = self.offset[n0 * n_t * n_d:n1 * n_t * n_d] \
            + np.einsum("rk,k->r", self.D[n0:n1].reshape(-1, mean.size), mean)[:, None]
        # each respondent's chosen cells' utilities summed over tasks, per draw
        chosen = np.einsum("rk,k->r", self.A[n0:n1], mean)[:, None] \
            + np.einsum("rm,rmc->rc", self.Arp[n0:n1] * sds, z)
        log_pr, probs = np.empty((nb, self.n_draws)), []
        for c0, c1 in self.chunks:
            cells = (Drp @ (z[:, :, c0:c1] * sds[:, None])).reshape(-1, c1 - c0)
            cells += u_base
            u = cells.reshape(nb, n_t, n_d, c1 - c0)
            # loops over the few cells are faster than max and sum over axis 2
            top = np.maximum(u[:, :, 0], 0.0)
            for j in range(1, n_d):
                np.maximum(top, u[:, :, j], out=top)
            if not np.isfinite(top).all():
                self._non_finite(np.isfinite(cells).all(axis=1), n0)
            u -= top[:, :, None]
            e = np.exp(u, out=u)
            denom = e[:, :, 0].copy()
            for j in range(1, n_d):
                denom += e[:, :, j]
            denom += np.exp(-top)
            probs.append(np.divide(e, denom[:, :, None], out=e).reshape(nb, -1, c1 - c0))
            top += np.log(denom)
            log_pr[:, c0:c1] = chosen[:, c0:c1] - top.sum(axis=1)
        return log_pr, probs

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
        mean, sds = self._split(params)
        ll_i = np.empty(self.shape[0])
        for n0, n1 in self.blocks:
            ll_i[n0:n1] = self.respondent_ll(self._tile(mean, sds, n0, n1)[0])
        return float(ll_i.sum())

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

        The blocks apply these formulas to the kernel's one layout: X and x
        are ``D`` and ``Drp``, a is ``A`` and P holds the probabilities of
        each task's cells after its first. This is exact because every
        within-task term is a deviation from the task's expectation, which is
        unmoved by subtracting a row constant within the task, and each of
        M's rows sums to 0 within each task, so X'MX = (X - E)'M(X - E) for
        any E constant within tasks; with E each task's first row, the
        reference cell's row is zero and drops out. Each respondent block's
        tile feeds its likelihood, weights, score and Hessian in one pass;
        blocks and draw chunks are summed in a fixed order.
        """
        mean, sds = self._split(params)
        ll_i = np.empty(self.shape[0])
        grad = h = 0
        for n0, n1 in self.blocks:
            score, block = self._hessian_block(mean, sds, n0, n1, ll_i)
            grad += score
            h += block
        if not np.all(np.isfinite(h)):
            raise EstimationError("hessian_non_finite",
                                  "analytic Hessian contains non-finite entries")
        return float(ll_i.sum()), grad, 0.5 * (h + h.T)

    def _hessian_block(self, mean, sds, n0, n1, ll_i):
        """Respondents [n0, n1)'s share of the score and of the Hessian of
        the negative log likelihood; fills their ``ll_i``. Their tile and
        draw weights are locals, so one block's tile is alive at a time.
        Every product is batched per respondent and summed afterwards: one
        product over the block would be large enough to wake OpenBLAS's
        threads, which then spin through the estimator's serial work."""
        log_pr, probs = self._tile(mean, sds, n0, n1)
        ll_i[n0:n1] = self.respondent_ll(log_pr)
        w = np.exp(log_pr - log_pr.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        k, m = self.panel.X.shape[1], len(self.rp)
        _, n_t, n_d = self.shape
        nb, n_c = n1 - n0, n_t * n_d
        X, x, a, a_rp = self.D[n0:n1], self.Drp[n0:n1], self.A[n0:n1].sum(axis=0), self.Arp[n0:n1]
        x_task = x.reshape(nb, n_t, n_d, m).transpose(0, 1, 3, 2)
        G = np.zeros((nb, n_c, n_c))
        Pm = np.zeros((nb, n_c, 1 + 2 * m + m * m))  # P [w, v_d, w z_d, w z_d z_e]
        Py, g = np.zeros((nb, n_c, m)), np.zeros((nb, m))  # (P y_d)(w z_d); g_d
        sd = np.zeros((nb, m, m))  # sum_r w z_d z_e (f_d f_e + sum_t y_d y_e)
        for (c0, c1), p in zip(self.chunks, probs):
            p_task = p.reshape(nb, n_t, n_d, c1 - c0)
            wc, z = w[:, None, c0:c1], self.z[n0:n1, :, c0:c1]
            G += (p * wc) @ p.transpose(0, 2, 1)
            y = x_task @ p_task  # (respondent, task, sd, draw)
            f = a_rp[:, :, None] - y.sum(axis=1)
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
        M_task, t = M.reshape(nb, n_t, n_d, n_t, n_d), np.arange(n_t)
        M_task[:, t, :, t] -= G.reshape(M_task.shape)[:, t, :, t]
        M.reshape(nb, -1)[:, ::n_c + 1] += q
        # X'q, then the negated fixed x sd columns
        Xt = X.transpose(0, 2, 1)
        Xc = (Xt @ np.concatenate([Pm[:, :, :1], Pm[:, :, 1:1 + m] - Py - q[:, :, None] * g[:, None]
                                   + x * Pm[:, :, 1 + m:1 + 2 * m]], axis=2)).sum(axis=0)
        h = np.empty((k + m, k + m))
        h[:k, :k] = (Xt @ (M @ X)).sum(axis=0)
        h[:k, k:] = Xc[:, 1:]
        h[k:, :k] = Xc[:, 1:].T
        h[k:, k:] = g.T @ g - sd.sum(axis=0)
        return np.concatenate([a - Xc[:, 0], g.sum(axis=0)]), h


def _mnl_work(panel: CodedPanel) -> _MslWork:
    """The kernel with no random columns and one draw."""
    return _MslWork(panel, (), False, np.zeros((panel.n_respondents, 1, 0)))


def mnl_loglik(params: np.ndarray, panel: CodedPanel) -> float:
    return _mnl_work(panel).loglik(params)


def mnl_gradient(params: np.ndarray, panel: CodedPanel) -> np.ndarray:
    """Score of the log likelihood, sum over tasks of x_chosen - E[x]: a
    Hessian pass's score, raising whatever ``_MslWork.hessian`` raises."""
    return _mnl_work(panel).hessian(params)[1]


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


def _fit(panel: CodedPanel, work: _MslWork, index: ParameterIndex, start,
         options: OptimizerOptions | None):
    """Maximize ``work``'s log likelihood from ``start``; the one fit behind
    both estimators.

    The optimizer is trust-region Newton on the analytic Hessian
    (``trust_newton_minimize``); each iteration is one pass of the kernel.
    Sd estimates are reported as absolute values (their sign is not
    identified). Standard errors come from the inverse of the Hessian of the
    negative log likelihood at the reported point (the observed
    information): the optimizer's last one, recomputed only when an sd's
    sign was flipped. They are None when that matrix is singular.
    Non-convergence is reported through ``converged`` and ``status``, not
    raised. Returns the result, as an MNL one with no trace, and the log
    likelihood at the start and after each accepted step.
    """
    check_identification(panel)
    x0 = np.asarray(start, dtype=np.float64).reshape(-1)
    if x0.shape[0] != index.n_params:
        raise EstimationError("parameter_mismatch",
                              f"start needs {index.n_params} values")
    path: list[float] = []

    def objective(x):
        ll, grad, hess = work.hessian(x)
        return -ll, -grad, hess

    res = trust_newton_minimize(objective, x0, options or OptimizerOptions(),
                                callback=lambda it, x, f: path.append(-f))
    k = panel.X.shape[1]
    x_hat = res.x.copy()
    x_hat[k:] = np.abs(x_hat[k:])
    if np.any(res.x[k:] < 0):
        ll_final, _, hessian = work.hessian(x_hat)
    else:
        ll_final, hessian = -res.fun, res.hess
    se, p = _inference(hessian, x_hat)
    return EstimationResult(
        index=index,
        params=x_hat,
        std_errors=se,
        p_values=p,
        ll_final=ll_final,
        ll_null=panel.null_loglik(),
        converged=res.converged,
        iterations=res.iterations,
        status=res.status,
        model="mnl",
        base_levels=implied_base_levels(panel.schema, index, x_hat),
        n_respondents=panel.n_respondents,
        n_tasks=panel.n_tasks,
    ), tuple(path)


def estimate_mnl(panel: CodedPanel,
                 options: OptimizerOptions | None = None) -> EstimationResult:
    """Maximize the MNL log likelihood from a zero start by trust-region
    Newton (``_fit``). Standard errors come from the observed information
    and are None when it is singular."""
    return _fit(panel, _mnl_work(panel), panel.index, np.zeros(panel.X.shape[1]),
                options)[0]
