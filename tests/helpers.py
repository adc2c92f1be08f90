"""Shared builders for the test suite."""

import tracemalloc

import numpy as np

from dce import (
    AlternativeDef,
    AttributeDef,
    ChoiceDataset,
    EstimationError,
    ExperimentSchema,
    Level,
    MixingSpec,
    Observation,
    RespondentRecord,
    SimConfig,
    build_parameter_index,
    code_dataset,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mmnl,
)


def binary_asc_schema() -> ExperimentSchema:
    """Two alternatives, no attributes: the only parameter is one ASC."""
    return ExperimentSchema(
        name="binary_asc",
        alternatives=(
            AlternativeDef("b", label="B"),
            AlternativeDef("a", label="A", is_reference=True),
        ),
        attributes=(),
    )


def linear_schema() -> ExperimentSchema:
    """Alternative a carries a linear price; a linear wait is shared by a and b."""
    return ExperimentSchema(
        name="linear",
        alternatives=(AlternativeDef("a"), AlternativeDef("b", is_reference=True)),
        attributes=(
            AttributeDef("price", "alternative_specific",
                         (Level("lo", 1.5), Level("mid", 2.5), Level("hi", 4.0)),
                         applies_to=("a",), coding="linear"),
            AttributeDef("wait", "shared", (Level("short", 10.0), Level("long", 25.0)),
                         coding="linear"),
        ),
    )


def binary_asc_dataset(n_b: int = 75, n_a: int = 25,
                       n_respondents: int = 4) -> ChoiceDataset:
    """Dataset whose ASC-only MLE is ln(n_b / n_a) in closed form.

    Tasks are spread over respondents round-robin so no respondent is
    dropped by completeness screens and the panel has > 1 individual.
    """
    schema = binary_asc_schema()
    choices = ["b"] * n_b + ["a"] * n_a
    per = [[] for _ in range(n_respondents)]
    for t, chosen in enumerate(choices):
        per[t % n_respondents].append(
            Observation(task_id=f"t{t + 1}", block_id="1",
                        task_values={}, alt_values={"b": {}, "a": {}},
                        chosen=chosen))
    respondents = tuple(
        RespondentRecord(respondent_id=f"r{i + 1}", demographics={},
                         observations=tuple(obs))
        for i, obs in enumerate(per))
    return ChoiceDataset(schema=schema, respondents=respondents)


def select_fraction_oracle(schema, n_runs: int, seed: int, iters: int = 5000,
                           restarts: int = 5):
    """select_fraction by the per-proposal search: each proposal draws its
    (slot, run, run) in turn, swaps, and keeps the swap only if d-efficiency
    computed from the whole coded matrix rises."""
    from dce.design import (BlockedDesign, _balanced_levels, _coded_matrix, _d_efficiency,
                            _oa_init, _profiles_from_assignment, _slots)

    slots = _slots(schema)
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        A = _oa_init(slots, n_runs, rng) if restart == 0 else None
        if A is None:
            A = np.column_stack([_balanced_levels(n_runs, attr.n_levels, rng)
                                 for _, attr in slots])
        X, ranges = _coded_matrix(A, slots)
        d_cur, _ = _d_efficiency(X)

        for _ in range(iters):
            s = int(rng.integers(len(slots)))
            i, j = rng.integers(n_runs, size=2)
            if A[i, s] == A[j, s]:
                continue
            a, b = ranges[s]
            old_i, old_j = X[i, a:b].copy(), X[j, a:b].copy()
            X[i, a:b], X[j, a:b] = old_j, old_i
            d_new, _ = _d_efficiency(X)
            if d_new > d_cur:
                d_cur = d_new
                A[i, s], A[j, s] = A[j, s], A[i, s]
            else:
                X[i, a:b], X[j, a:b] = old_i, old_j

        if best is None or d_cur > best[0]:
            best = (d_cur, restart, A.copy())

    return BlockedDesign(schema=schema, runs=_profiles_from_assignment(best[2], slots),
                         blocks=(tuple(range(n_runs)),), seed=seed)


def block_design_oracle(design, n_blocks: int, seed: int):
    """block_design's blocks by the (block, slot, level) count search: each
    restart places runs greedily on the counts C, then takes cross-block pair
    swaps in (i, j) order while one lowers sum(C^2), each scored on the
    counts left by the last one (a window of j at a time)."""
    from dce.design import _BLOCK_RESTARTS

    A = design._assignment
    n, n_slots = A.shape
    s = np.arange(n_slots)
    best = None
    for restart in range(_BLOCK_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        C = np.zeros((n_blocks, n_slots, A.max(initial=0) + 1), dtype=np.int64)
        room = np.full(n_blocks, n // n_blocks)
        assign = np.empty(n, dtype=np.intp)
        for i in rng.permutation(n):
            free = np.flatnonzero(room)
            b = free[np.argmin(C[free[:, None], s, A[i]].sum(axis=1))]
            assign[i] = b
            room[b] -= 1
            C[b, s, A[i]] += 1
        for _ in range(60):
            improved = False
            for i in range(n - 1):
                j0 = i + 1
                while j0 < n:
                    li, lj = A[i], A[j0:]
                    bi, bj = assign[i], assign[j0:, None]
                    gain = C[bi, s, lj] - C[bi, s, li] + C[bj, s, li] - C[bj, s, lj]
                    better = np.flatnonzero(((2 * gain + 4) * (li != lj)).sum(axis=1) < 0)
                    if not better.size:
                        break
                    j = j0 + better[0]
                    bj = assign[j]
                    C[bi, s, li] -= 1
                    C[bi, s, A[j]] += 1
                    C[bj, s, A[j]] -= 1
                    C[bj, s, li] += 1
                    assign[i], assign[j] = bj, bi
                    improved = True
                    j0 = j + 1
            if not improved:
                break
        objective = int(np.sum(C * C))
        if best is None or objective < best[0]:
            best = (objective, assign)
    return tuple(tuple(int(i) for i in np.flatnonzero(best[1] == b)) for b in range(n_blocks))


def small_labels_design(n_runs: int = 32, n_blocks: int = 4, seed: int = 3):
    """Quick fractional blocked design on the full schema."""
    from dce import block_design

    design = select_fraction(table4_labels_schema(), n_runs, seed=seed,
                             iters=300, restarts=2)
    return block_design(design, n_blocks, seed=seed)


def simulated_panel(design, n_respondents: int, seed: int,
                    sds=None, random_params=("asc_drone", "asc_truck")):
    """Simulate a dataset from published truth and code it.

    With sds=None the fixed part of the published mixed-model truth is
    used without mixing; otherwise the two ASC deviations get the given
    standard deviations. Returns (cfg, dataset, panel, truth).
    """
    schema = table4_labels_schema()
    fixture = table4_mmnl()
    k = len(build_parameter_index(schema).entries)
    if sds is None:
        mixing = None
        truth = np.asarray(fixture.params[:k], dtype=float)
    else:
        mixing = MixingSpec(random_params=tuple(random_params))
        truth = np.concatenate([fixture.params[:k], np.asarray(sds, float)])
    cfg = SimConfig(schema=schema, design=design, true_params=truth,
                    mixing=mixing, n_respondents=n_respondents, seed=seed)
    dataset = simulate_dataset(cfg)
    panel = code_dataset(dataset)
    return cfg, dataset, panel, truth


def effects_code(attribute, label):
    """One level's code from the coding's definition, not from
    ``AttributeDef.codes``: an L-level effects-coded attribute gives level
    i < L - 1 the unit vector e_i and its base (last listed) level -1 in
    each of its L - 1 columns; a linear attribute gives the level's value."""
    labels = [l.label for l in attribute.levels]
    i = labels.index(label)
    if attribute.coding == "linear":
        return np.array([attribute.levels[i].value])
    code = np.zeros(len(labels) - 1)
    if i == len(labels) - 1:
        code -= 1.0
    else:
        code[i] = 1.0
    return code


def mnl_probabilities(params, task_rows):
    """One task's choice probabilities, the max-subtracted softmax of its
    rows' utilities: the per-task oracle for the panel kernel."""
    rows = np.atleast_2d(np.asarray(task_rows, dtype=np.float64))
    u = rows @ np.asarray(params, dtype=np.float64)
    e = np.exp(u - u.max())
    return e / e.sum()


def halton_matrix(config, n_individuals, n_dims):
    """Uniform Halton draws shaped (n_individuals, n_draws, n_dims): the
    points that ``normal_draws`` takes the quantiles of, by ``_halton``
    with the identity transform."""
    from dce.numerics import _halton

    return _halton(config, n_individuals, n_dims, lambda u: u)


def inv_normal_cdf(u):
    """Standard normal quantiles of a scalar or an array, every element in
    the open interval (0, 1), by ``normal_draws``' AS 241 (``_quantile``);
    ValueError outside it."""
    from dce.numerics import _quantile

    arr = np.asarray(u, dtype=np.float64)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("inv_normal_cdf requires u in the open interval (0, 1)")
    x = _quantile(arr.reshape(-1))
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)


def mnl_score(params, panel):
    """The MNL log likelihood's score, sum over tasks of x_chosen - E[x]:
    the kernel's Hessian pass's score."""
    from dce.mnl import _MslWork

    return _MslWork(panel).hessian(params)[1]


def finite_diff_grad(fun, x, step=None):
    """Central-difference gradient of a scalar function.

    Per-coordinate step is ``step`` when given, else 1e-5 * (|x_i| + 1).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        h = step if step is not None else 1e-5 * (abs(x[i]) + 1.0)
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def hessian_from_grad(grad_fun, x, step=1e-5):
    """Hessian by central finite differences of an analytic gradient.

    Column i uses step 1e-5 * (|x_i| + 1) by default; the result is
    symmetrized. Non-finite entries raise EstimationError.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    H = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        h = step * (abs(x[i]) + 1.0)
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (grad_fun(x + e) - grad_fun(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(H)):
        raise EstimationError("hessian_non_finite",
                              "finite-difference Hessian contains non-finite entries")
    return 0.5 * (H + H.T)


def hessian_oracle(work, params):
    """``work.hessian(params)`` by the per-draw score form on the full padded
    cells: each task's alternatives get their own probabilities, computed
    here from ``panel.X``, every draw's score S_nr is formed as a
    (draws x parameters) array and the within-task covariances as per-task
    p p' products under each draw moment (1, z_d and z_d z_e), summed one
    respondent at a time, whatever the kernel's blocks. The per-draw log
    products, the log likelihood and the draw weights come from the same
    cells; only the layout's ``shape``, ``rp`` and the draws ``z`` are read
    from the kernel. Returns the log likelihood, its score and the Hessian
    of the negative log likelihood."""
    panel, rp = work.panel, work.rp
    k, m = panel.X.shape[1], len(rp)
    mean, sds = params[:k], params[k:]
    n_par = k + m
    pairs = [(d, e) for d in range(m) for e in range(d, m)]
    n_r, n_t, _ = work.shape
    n_j = int(panel.task_sizes.max())
    # each coded row's (respondent, task, alternative) cell; a padded task's
    # first cell is real, with a zero row, so that it has probability 1
    task_pos = np.arange(panel.n_tasks) \
        - np.searchsorted(panel.task_respondent, panel.task_respondent)
    task = panel.task_respondent * n_t + task_pos
    cell = task[panel.row_task] * n_j + np.arange(panel.n_rows) - panel.task_ptr[panel.row_task]
    X_all = np.zeros((n_r * n_t * n_j, k))
    X_all[cell] = panel.X
    real = np.zeros(n_r * n_t * n_j, dtype=bool)
    real[cell] = real[::n_j] = True
    chosen = np.arange(0, n_r * n_t * n_j, n_j)
    chosen[task] = cell[panel.chosen_row]
    a_all = X_all[chosen].reshape(n_r, n_t, k).sum(axis=1)
    # each (respondent, task)'s chosen cell, counted within its respondent
    chosen = chosen.reshape(n_r, n_t) - n_t * n_j * np.arange(n_r)[:, None]
    X_all, real = X_all.reshape(n_r, n_t * n_j, k), real.reshape(n_r, n_t * n_j, 1)
    diag = np.arange(n_j)
    ll = 0.0
    grad = np.zeros(n_par)
    h = np.zeros((n_par, n_par))
    for n0 in range(n_r):
        n1, nb = n0 + 1, 1
        X_resp, a = X_all[n0:n1], a_all[n0:n1]

        # every cell's probability under each draw and each draw's log
        # product of the chosen cells' probabilities
        u = X_resp @ mean[:, None] + X_resp[:, :, rp] @ (work.z[n0:n1] * sds[:, None])
        u = np.where(real[n0:n1], u, -np.inf).reshape(nb, n_t, n_j, -1)
        u = u - u.max(axis=2, keepdims=True)
        e = np.exp(u)
        denom = e.sum(axis=2, keepdims=True)
        p = e / denom
        log_p = (u - np.log(denom)).reshape(nb, n_t * n_j, -1)
        log_pr = np.take_along_axis(log_p, chosen[n0:n1, :, None], axis=1).sum(axis=1)
        top = log_pr.max(axis=1, keepdims=True)
        w = np.exp(log_pr - top)
        ll += (top[:, 0] + np.log(w.sum(axis=1)) - np.log(work.z.shape[2])).sum()
        w /= w.sum(axis=1, keepdims=True)

        p_resp = p.reshape(nb, n_t * n_j, -1)
        z = work.z[n0:n1].transpose(0, 2, 1)
        f = a[:, None, :] - p_resp.transpose(0, 2, 1) @ X_resp
        s = np.concatenate([f, f[:, :, rp] * z], axis=2)  # S_nr, (nb, draw, n_par)
        ws = s * w[..., None]
        outer = (ws.transpose(0, 2, 1) @ s).sum(axis=0)
        score = ws.sum(axis=1)
        # per task, diag(q) - M for each draw moment (last axis)
        moments = np.stack([w] + [w * z[..., d] for d in range(m)]
                           + [w * z[..., d] * z[..., e] for d, e in pairs], axis=2)
        pp = p[:, :, :, None, :] * p[:, :, None, :, :]
        cov = -(pp.reshape(nb, n_t * n_j * n_j, -1) @ moments).reshape(nb, n_t, n_j, n_j, -1)
        cov[:, :, diag, diag, :] += (p_resp @ moments).reshape(nb, n_t, n_j, -1)

        X_task = X_resp.reshape(nb * n_t, n_j, k)
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
        grad += score.sum(axis=0)
        h += within + score.T @ score - outer
    return float(ll), grad, 0.5 * (h + h.T)


def traced_peak(call):
    """``call()``'s result and the peak bytes that tracemalloc saw while it
    ran; what was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
