"""Panel logit kernel; multinomial logit probabilities, likelihood and
estimation.

Utilities are linear in the coded columns; probabilities are max-subtracted
softmaxes within each task. ``_MslWork`` is the one panel likelihood for
both models: the mixed logit adds normal deviations ``sd*z`` on its random
columns, and MNL is the case with no random columns and a single draw. The
kernel holds the panel in one layout: each task's alternatives after its
first, differenced from the first, padded to (respondent, task, cell) so
that ragged panels need no special case and a block of respondents' cell
utilities under all of their draws come from one batched product. This is
exact because logit probabilities depend only on utility differences within
a task. The layout is built once per fit, in place, a block of respondents
at a time, so no copy of the coded design is made; the same pass records
which columns vary within some task, the only ones a fit can identify. The
MMNL warm-starts at the panel's MNL optimum and then adds its random columns
and its draws, which the kernel holds without a copy: ``make_draws`` builds
them in the kernel's layout. The kernel has two evaluations, ``loglik`` (the
log likelihood) and ``hessian`` (it, its score and its Hessian in closed
form), each one block of respondents at a time: a block's per-draw
probabilities are formed, used and dropped before the next block's. With one
draw (the MNL) a block is a fixed number of cells and its Hessian is
sum p x x' - sum_t m_t m_t', so no call holds more than one block's products
whatever the panel's size. Every block-sized array lives in a workspace that
the kernel allocates once: per-call arrays of 128 KiB or more, glibc's
default mmap threshold, would be served fresh pages on each call. Both
estimators fit through ``_fit`` with the optimizer's fixed settings. The MNL
log likelihood is concave, so estimation starts from zeros and a converged
optimum is the optimum.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import CodedPanel
from .errors import EstimationError
from .numerics import trust_newton_minimize
from .results import EstimationResult, implied_base_levels, two_sided_p
from .schema import ParameterIndex

__all__ = [
    "mnl_loglik",
    "estimate_mnl",
]

# benchmarks/spans.py patches these names when it traces a run; nothing calls them
bfgs_minimize = hessian_from_grad = None

# respondent x draw cells per mixed respondent block, whose respondents
# carry all their draws: 20 respondents at 100 draws, 16 at 128, 4 at 500
# and 1 from 2,048 up. Each evaluation runs block by block, so this also
# bounds the per-draw probabilities it holds. A small fit's Hessian call is
# mostly per-block overhead, so wider blocks win until cache misses take
# over. In an interleaved sweep of Hessian calls (one thread, min of 31),
# 2,048 cells took 1.74 ms at 40 respondents x 100 draws, 11.6 at 264 x 128
# and 71 at 528 x 500, against 1.81, 13.0 and 86 with 1,024 cells and 1.86,
# 11.4 and 68 with 4,096
_BLOCK_CELLS = 2048

# cells (rows of the differenced layout) per one-draw (MNL) block, in whole
# respondents: 64 of the study's 8 tasks x 2 cells. Wider blocks make fewer
# calls per pass but a larger workspace, whose (respondent, k, k) stack is
# 0.74 MB at 64 respondents and 38 columns. Hessian calls (one thread, min of
# 31) took 0.25 ms at 40 respondents, 1.2 at 264 and 26 at 5,000 with 1,024
# cells, against 0.42, 2.2 and 27 with 512
_ONE_DRAW_CELLS = 1024



def _finite(params: np.ndarray, where: str = "") -> np.ndarray:
    """``params`` unchanged if every entry is finite. Otherwise every utility
    is non-finite, so EstimationError "non_finite_utility" is raised naming
    the first bad entry, before any arithmetic could warn."""
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise EstimationError("non_finite_utility", f"non-finite utility{where}: "
                                                    f"parameter {bad[0]} is {float(params[bad[0]])!r}")
    return params


class _MslWork:
    """The panel's layout, its draws and a workspace, reused across
    evaluations. ``_MslWork(panel)`` is the MNL: no random columns and one
    draw. ``mix`` turns it into the mixed logit's kernel on the same layout.

    ``rp`` holds the positions of the random columns and ``z`` the draws,
    shaped (n_respondents, len(rp), n_draws); parameters are the fixed part
    followed by one sd per random column.

    The panel is held differenced from each task's first (positional, hence
    always real) row, the task's reference, whose utility is 0 and is left
    implicit. ``shape`` is (respondent, task, cell): as many tasks as the
    longest respondent has and one cell per alternative after the first in
    the largest task. ``D`` holds each cell's row minus its task's first,
    shaped (respondent, task * cell, column) and zero in empty cells, and
    ``Drp`` its random columns. ``offset`` is -inf in an empty cell, so
    that it has probability 0, and 0 in a real one; a padded task has only
    empty cells and so adds log 1 = 0. ``A`` holds each respondent's chosen
    rows minus their tasks' first rows, summed over tasks, and ``Arp`` its
    random columns: the chosen cells' utilities summed over tasks are
    A mean + Arp (sd z). The layout is built once and ``mix`` keeps it. It
    is filled in place from ``panel.X``, one MNL block of whole respondents
    at a time (``_ONE_DRAW_CELLS``), so the block's gathered rows are its
    only temporaries, and ``A`` sums each respondent's tasks in order. The
    same pass sets ``varies``: per column, whether some row differs from
    its task's first (``!=``, so a nan differs even from itself). A column
    that does not cancels out of every probability; ``mix`` keeps it too,
    so the MMNL's warm start and mixed fit read one record. ``z`` is the
    draws given to ``mix`` themselves, not a copy, when they are the
    transposed view that ``make_draws`` returns.

    Both evaluations, ``loglik`` and ``hessian``, run over ``blocks`` of
    respondents in order, each respondent with all of its draws
    (``_BLOCK_CELLS``). Draw weights are per respondent, so a block's
    likelihood, weights, score and Hessian all come from its own tile of
    per-draw probabilities (``_tile``); no evaluation holds the panel's. With
    one draw and no random columns a block holds ``_ONE_DRAW_CELLS`` cells
    and its Hessian is the MNL's closed form (``_one_draw_block``).

    Every array of a block's size (the tile, its maxima and denominators,
    the Hessian's products p w, y, y w z, y z and Pm's operand, and the
    per-respondent stacks) is a view into a workspace that ``mix``
    allocates once, one buffer per role. A call then allocates only arrays
    of a few kilobytes. glibc serves an allocation of 128 KiB or more, its
    default mmap threshold, with fresh pages unless earlier large frees have
    raised that threshold, so per-call block arrays would be page-faulted on
    every call and a small fit's time would depend on what the process had
    run before.
    """

    def __init__(self, panel: CodedPanel):
        self.panel = panel
        # tasks are grouped by respondent, so searching the respondent column
        # finds each respondent's first task
        n_r = panel.n_respondents
        self.respondent_tasks = respondent_tasks = np.searchsorted(
            panel.task_respondent, np.arange(n_r + 1))
        # at least one cell per task: when every task has one alternative,
        # all cells are empty and each task adds log 1 = 0
        self.shape = (n_r, int(np.diff(respondent_tasks).max()),
                      max(int(panel.task_sizes.max()) - 1, 1))
        _, n_t, n_d = self.shape
        k = panel.X.shape[1]
        first = panel.task_ptr[:-1]
        self.D = np.zeros((n_r, n_t * n_d, k))
        D = self.D.reshape(-1, k)
        self.offset = np.full((n_r * n_t * n_d, 1), -np.inf)
        self.A = np.empty((n_r, k))
        self.varies = np.zeros(k, dtype=bool)
        # filled one MNL block of whole respondents at a time, so that the
        # block's gathered rows are the only temporaries; A sums each
        # respondent's tasks in order
        block = max(_ONE_DRAW_CELLS // (n_t * n_d), 1)
        for n0 in range(0, n_r, block):
            n1 = min(n0 + block, n_r)
            t0, t1 = respondent_tasks[n0], respondent_tasks[n1]
            # each task's (respondent, task) slot, counted from the block's first
            respondent = panel.task_respondent[t0:t1]
            slot = (respondent - n0) * n_t + np.arange(t0, t1) - respondent_tasks[respondent]
            r0, r1 = panel.task_ptr[t0], panel.task_ptr[t1]
            ref = first[panel.row_task[r0:r1]]
            rows = r0 + np.flatnonzero(np.arange(r0, r1) != ref)
            ref = ref[rows - r0]
            cell = (n0 * n_t + slot[panel.row_task[rows] - t0]) * n_d + rows - ref - 1
            self.offset[cell] = 0.0
            x, x_ref = panel.X[rows], panel.X[ref]
            self.varies |= (x != x_ref).any(axis=0)
            D[cell] = np.subtract(x, x_ref, out=x)
            # a task's first row differs from itself where it is nan
            x_first = panel.X[first[t0:t1]]
            self.varies |= (x_first != x_first).any(axis=0)
            chosen = np.zeros(((n1 - n0) * n_t, k))
            chosen[slot] = panel.X[panel.chosen_row[t0:t1]] - x_first
            self.A[n0:n1] = chosen.reshape(n1 - n0, n_t, k).sum(axis=1)
        self.mix((), False, np.zeros((n_r, 1, 0)))

    def mix(self, rp, antithetic: bool, draws: np.ndarray) -> _MslWork:
        """Put random columns ``rp`` and their draws, shaped (n_respondents,
        n_draws, len(rp)), on this kernel's layout, in place of the ones it
        had; set the blocks and allocate the workspace. Returns the kernel.
        Draws that are the transposed view of a C-contiguous (respondent,
        dim, draw) array, as ``make_draws`` returns them, are held as they
        are; others are copied into that layout."""
        self.rp = np.asarray(rp, dtype=np.intp)
        draws = np.asarray(draws, dtype=np.float64)
        n_r, n_t, n_d = self.shape
        m, k = len(self.rp), self.D.shape[2]
        if draws.ndim != 3 or draws.shape[0] != n_r or draws.shape[2] != m:
            raise EstimationError(
                "draw_shape_mismatch",
                f"draws must be (n_respondents, n_draws, {m}), got {draws.shape}")
        self.antithetic = antithetic
        # (n, rp, draw): a view, not a copy, of make_draws' draws
        self.z = np.ascontiguousarray(draws.transpose(0, 2, 1))
        self.n_draws = n_z = draws.shape[1]
        self.Drp = np.ascontiguousarray(self.D[:, :, self.rp])
        self.Arp = self.A[:, self.rp]
        self.one_draw = self.n_draws == 1 and m == 0
        n_c = n_t * n_d
        block = max(_ONE_DRAW_CELLS // n_c if self.one_draw else _BLOCK_CELLS // n_z, 1)
        self.blocks = [(n0, min(n0 + block, n_r)) for n0 in range(0, n_r, block)]
        # each role's buffer size per respondent. "tmp" holds a value only
        # until the statement that fills it has used it
        roles = {"p": n_c * n_z, "top": n_t * n_z, "denom": n_t * n_z,
                 "tmp": max(n_c, n_t * m) * n_z, "y": n_t * m * n_z,
                 "yw": n_t * m * n_z, "ops": (1 + 2 * m + m * m) * n_z,
                 "xbar": n_t * k, "XV": n_c * k, "stack": k * k}
        self._buffers = {}  # the previous workspace goes before this one is made
        for role, size in roles.items():
            self._buffers[role] = np.empty(min(block, n_r) * size)
        return self

    def _view(self, role, shape):
        """A C-contiguous ``shape`` from the start of ``role``'s workspace buffer."""
        return self._buffers[role][:math.prod(shape)].reshape(shape)

    def _split(self, params):
        params = np.asarray(params, dtype=np.float64).reshape(-1)
        k = self.panel.X.shape[1]
        m = len(self.rp)
        if params.shape[0] != k + m:
            raise EstimationError(
                "parameter_mismatch",
                f"expected {k} fixed + {m} sd parameters, got {params.shape[0]}")
        _finite(params, " at task index 0")
        return params[:k], params[k:]

    def _non_finite(self, cell_finite, n0):
        """Raise for the first real cell, from respondent n0 on, that is not
        finite, naming its task: the respondent's first task plus the
        cell's task slot."""
        _, n_t, n_d = self.shape
        c0 = n0 * n_t * n_d
        real = np.isfinite(self.offset[c0:c0 + cell_finite.size, 0])
        cell = np.flatnonzero(~cell_finite & real)[0]
        respondent, slot = divmod(n0 * n_t + cell // n_d, n_t)
        raise EstimationError("non_finite_utility", f"non-finite utility at task index "
                                                    f"{self.respondent_tasks[respondent] + slot}")

    def _tile(self, mean, sds, n0, n1):
        """Respondents [n0, n1)'s (respondent, draw) log products and their
        cells' probabilities shaped (respondent, task * cell, draw), a view
        into the workspace that the next block's tile overwrites. Every
        cell's utility comes from one batched product, then a log-softmax
        over each task's cells and its reference's 0 is summed over tasks,
        each sum in a fixed order."""
        _, n_t, n_d = self.shape
        nb, n_c, n_z = n1 - n0, n_t * n_d, self.n_draws
        z = self.z[n0:n1]
        # einsum, not BLAS: OpenBLAS runs this product on two threads from
        # ~10,000 rows, which buys no time and burns a second core
        u_base = self.offset[n0 * n_c:n1 * n_c] \
            + np.einsum("rk,k->r", self.D[n0:n1].reshape(-1, mean.size), mean)[:, None]
        # each respondent's chosen cells' utilities summed over tasks, per draw
        log_pr = np.einsum("rk,k->r", self.A[n0:n1], mean)[:, None] \
            + np.einsum("rm,rmc->rc", self.Arp[n0:n1] * sds, z)
        p = np.matmul(self.Drp[n0:n1], z * sds[:, None], out=self._view("p", (nb, n_c, n_z)))
        cells = p.reshape(-1, n_z)
        cells += u_base
        u = cells.reshape(nb, n_t, n_d, n_z)
        # loops over the few cells are faster than max and sum over axis 2
        top = np.maximum(u[:, :, 0], 0.0, out=self._view("top", (nb, n_t, n_z)))
        for j in range(1, n_d):
            np.maximum(top, u[:, :, j], out=top)
        if not np.isfinite(top).all():
            self._non_finite(np.isfinite(cells).all(axis=1), n0)
        u -= top[:, :, None]
        e = np.exp(u, out=u)
        denom = self._view("denom", (nb, n_t, n_z))
        np.copyto(denom, e[:, :, 0])
        for j in range(1, n_d):
            denom += e[:, :, j]
        tmp = self._view("tmp", (nb, n_t, n_z))
        denom += np.exp(np.negative(top, out=tmp), out=tmp)
        np.divide(e, denom[:, :, None], out=e)
        top += np.log(denom, out=tmp)
        log_pr -= top.sum(axis=1)
        return log_pr, p

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
        blocks are summed in a fixed order.
        """
        mean, sds = self._split(params)
        ll_i = np.empty(self.shape[0])
        grad = h = 0
        evaluate = self._one_draw_block if self.one_draw else self._hessian_block
        for n0, n1 in self.blocks:
            score, block = evaluate(mean, sds, n0, n1, ll_i)
            grad += score
            h += block
        if not np.all(np.isfinite(h)):
            raise EstimationError("hessian_non_finite",
                                  "analytic Hessian contains non-finite entries")
        return float(ll_i.sum()), grad, 0.5 * (h + h.T)

    def _one_draw_block(self, mean, sds, n0, n1, ll_i):
        """``_hessian_block`` with one draw and no random columns, in closed
        form: with m_t = sum_j p_j x_j each task's expected row, the score is
        a - sum_t m_t and the Hessian of the negative log likelihood
        sum_tj p_j x_j x_j' - sum_t m_t m_t' = sum_tj x_j (p_j (x_j - m_t))',
        over the differenced cells (the reference's row is zero). Its
        per-respondent products are batched, as in ``_hessian_block``."""
        log_pr, p = self._tile(mean, sds, n0, n1)
        ll_i[n0:n1] = self.respondent_ll(log_pr)
        _, n_t, n_d = self.shape
        nb, k = n1 - n0, mean.size
        X = self.D[n0:n1]
        X_task = X.reshape(nb * n_t, n_d, k)
        p = p.reshape(nb * n_t, n_d)
        xbar = np.einsum("tj,tjk->tk", p, X_task, out=self._view("xbar", (nb * n_t, k)))
        V = np.subtract(X_task, xbar[:, None], out=self._view("XV", (nb * n_t, n_d, k)))
        V *= p[:, :, None]
        stack = np.matmul(X.transpose(0, 2, 1), V.reshape(nb, n_t * n_d, k),
                          out=self._view("stack", (nb, k, k)))
        return self.A[n0:n1].sum(axis=0) - xbar.sum(axis=0), stack.sum(axis=0)

    def _hessian_block(self, mean, sds, n0, n1, ll_i):
        """Respondents [n0, n1)'s share of the score and of the Hessian of
        the negative log likelihood; fills their ``ll_i``. Their tile, draw
        weights and products live until the next block's.
        Every product is batched per respondent and summed afterwards: one
        product over the block would be large enough to wake OpenBLAS's
        threads, which then spin through the estimator's serial work."""
        log_pr, p = self._tile(mean, sds, n0, n1)
        ll_i[n0:n1] = self.respondent_ll(log_pr)
        w = np.exp(log_pr - log_pr.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        k, m = self.panel.X.shape[1], len(self.rp)
        _, n_t, n_d = self.shape
        nb, n_c, n_z = n1 - n0, n_t * n_d, self.n_draws
        X, x, a, a_rp = self.D[n0:n1], self.Drp[n0:n1], self.A[n0:n1].sum(axis=0), self.Arp[n0:n1]
        x_task = x.reshape(nb, n_t, n_d, m).transpose(0, 1, 3, 2)
        p_task = p.reshape(nb, n_t, n_d, n_z)
        w, z = w[:, None], self.z[n0:n1]
        G = np.multiply(p, w, out=self._view("tmp", p.shape)) @ p.transpose(0, 2, 1)
        y = np.matmul(x_task, p_task, out=self._view("y", (nb, n_t, m, n_z)))
        f = a_rp[:, :, None] - y.sum(axis=1)
        # Pm's operand [w, v_d, w z_d, w z_d z_e], written in place
        ops = self._view("ops", (nb, 1 + 2 * m + m * m, n_z))
        ops[:, :1] = w
        wz = np.multiply(w, z, out=ops[:, 1 + m:1 + 2 * m])
        v = np.multiply(wz, f, out=ops[:, 1:1 + m])
        yw = np.multiply(y, wz[:, None], out=self._view("yw", y.shape))
        g = v.sum(axis=2)  # g_d
        np.multiply(wz[:, :, None], z[:, None], out=ops[:, 1 + 2 * m:].reshape(nb, m, m, n_z))
        Pm = p @ ops.transpose(0, 2, 1)  # P [w, v_d, w z_d, w z_d z_e]
        Py = (p_task @ yw.transpose(0, 1, 3, 2)).reshape(nb, n_c, m)  # (P y_d)(w z_d)
        yz = np.multiply(y, z[:, None], out=self._view("tmp", y.shape))
        # sum_r w z_d z_e (f_d f_e + sum_t y_d y_e)
        sd = v @ (z * f).transpose(0, 2, 1) + (yw @ yz.transpose(0, 1, 3, 2)).sum(axis=1)
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
        MX = np.matmul(M, X, out=self._view("XV", X.shape))
        h = np.empty((k + m, k + m))
        h[:k, :k] = np.matmul(Xt, MX, out=self._view("stack", (nb, k, k))).sum(axis=0)
        h[:k, k:] = Xc[:, 1:]
        h[k:, :k] = Xc[:, 1:].T
        h[k:, k:] = g.T @ g - sd.sum(axis=0)
        return np.concatenate([a - Xc[:, 0], g.sum(axis=0)]), h


def mnl_loglik(params: np.ndarray, panel: CodedPanel) -> float:
    return _MslWork(panel).loglik(params)


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


def _fit(panel: CodedPanel, work: _MslWork, index: ParameterIndex, start):
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
    likelihood at the start and after each accepted step. EstimationError
    "degenerate_column" names the columns that vary within no task
    (``_MslWork.varies``): they cancel out of every probability.
    """
    dead = np.flatnonzero(~work.varies)
    if dead.size:
        raise EstimationError("degenerate_column", "no within-task variation for parameter(s): "
                              + ", ".join(panel.index.entries[i].name for i in dead))
    x0 = np.asarray(start, dtype=np.float64).reshape(-1)
    if x0.shape[0] != index.n_params:
        raise EstimationError("parameter_mismatch",
                              f"start needs {index.n_params} values")
    path: list[float] = []

    def objective(x):
        ll, grad, hess = work.hessian(x)
        return -ll, -grad, hess

    res = trust_newton_minimize(objective, x0, callback=lambda it, x, f: path.append(-f))
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


def _mnl_start(panel: CodedPanel, work: _MslWork | None, result=None) -> np.ndarray:
    """The panel's MNL optimum, recorded once, read-only like its arrays:
    ``result``'s params, else those of the fit from zeros on ``work``."""
    if panel._mnl_params is None:
        result = result or _fit(panel, work, panel.index, np.zeros(panel.X.shape[1]))[0]
        object.__setattr__(panel, "_mnl_params", result.params.copy())
        panel._mnl_params.setflags(write=False)
    return panel._mnl_params


def estimate_mnl(panel: CodedPanel) -> EstimationResult:
    """Maximize the MNL log likelihood from a zero start by trust-region
    Newton (``_fit``) and record its optimum on the panel (``_mnl_start``).
    Standard errors come from the observed information, None if singular."""
    result = _fit(panel, _MslWork(panel), panel.index, np.zeros(panel.X.shape[1]))[0]
    _mnl_start(panel, None, result)
    return result
