"""Blocked fractional-factorial choice designs with balance/orthogonality search.

A run (choice task) jointly assigns one level to every design slot. Slots are
the per-alternative design attributes plus the task-level context attributes,
in schema order. The fraction is found by a balanced start followed by
pairwise level-swap hill climbing on d-efficiency: swapping one slot's levels
between two runs preserves level counts exactly, so exact balance set up at
initialization survives the whole search. When the run count and level counts
admit a strength-2 linear orthogonal array, the first restart starts from it
(already optimal: exactly balanced and cross-slot orthogonal); random starts
cover every other geometry.

The search makes the same decisions as comparing the d-efficiency of the
whole design before and after every proposed swap, but does not compute
that for most of them. A swap is a rank-2 change to X'X, so the matrix
determinant lemma gives the determinant ratio r from (X'X)^-1 in O(k^2);
windows of upcoming proposals are screened in one array expression, and only
proposals with r within a fixed margin _DELTA of 1, or all of them while X'X
is singular or ill-conditioned, fall back to the full comparison. The margin
exceeds the rounding error of both computations (see _DELTA), so the designs
and d-efficiencies are bit-identical to the per-proposal search.

d_efficiency = det(X'X/n)^(1/k) over the effects-coded run matrix. Values
compare designs of the same schema only; effects coding correlates columns
within a slot, so 1.0 is not attainable. Cross-slot correlation is the
interpretable orthogonality diagnostic.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DesignError, _integer, read_csv
from .schema import AttributeDef, ExperimentSchema, _check_level

__all__ = [
    "Profile",
    "DesignDiagnostics",
    "BlockedDesign",
    "select_fraction",
    "block_design",
    "within_block_deviation",
    "write_design_csv",
    "read_design_csv",
]

@dataclass(frozen=True)
class Profile:
    """One run: per-alternative design levels plus task-level context levels."""

    alt_levels: dict[str, dict[str, str]]
    context: dict[str, str]


@dataclass(frozen=True)
class DesignDiagnostics:
    level_balance: dict[str, float]
    max_abs_column_correlation: float
    d_efficiency: float
    singular: bool = False

    @property
    def max_level_imbalance(self) -> float:
        return max(self.level_balance.values()) if self.level_balance else 0.0


@dataclass(frozen=True)
class BlockedDesign:
    schema: ExperimentSchema
    runs: tuple[Profile, ...]
    blocks: tuple[tuple[int, ...], ...]
    seed: int | None
    # the runs' (run, slot) level indices, resolved once
    _assignment: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """DesignError "bad_blocks" unless the blocks partition the runs, and
        "unknown_level" naming the first run and slot whose label is missing
        or not one of the slot's levels."""
        seen = [i for b in self.blocks for i in b]
        if sorted(seen) != list(range(len(self.runs))):
            raise DesignError("bad_blocks", "blocks must partition the runs exactly")
        slots = _slots(self.schema)
        A = np.empty((len(self.runs), len(slots)), dtype=np.intp)
        for r, run in enumerate(self.runs):
            for s, (alt_id, attr) in enumerate(slots):
                labels = run.context if alt_id is None else run.alt_levels.get(alt_id, {})
                label = labels.get(attr.csv_column)
                if label not in attr.level_index:
                    raise DesignError("unknown_level",
                                      f"run {r + 1}, slot {_slot_name(alt_id, attr)!r}: "
                                      f"{label!r} is not a level of {attr.name}")
                A[r, s] = attr.level_index[label]
        object.__setattr__(self, "_assignment", A)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def diagnostics(self) -> DesignDiagnostics:
        """Balance, orthogonality and d-efficiency of the runs, computed once."""
        if not self.runs:
            raise DesignError("empty_design", "design has no runs")
        return _diagnostics(self._assignment, _slots(self.schema))


# ---------------------------------------------------------------------------
# Slots: the unit the search permutes
# ---------------------------------------------------------------------------

def _slots(schema: ExperimentSchema) -> list[tuple[str | None, AttributeDef]]:
    out: list[tuple[str | None, AttributeDef]] = []
    for alt in schema.alternatives:
        for attr in schema.design_attributes(alt.id):
            out.append((alt.id, attr))
    for attr in schema.context_attributes():
        out.append((None, attr))
    return out


def _slot_name(alt_id: str | None, attr: AttributeDef) -> str:
    return attr.csv_column if alt_id is None else f"{alt_id}:{attr.csv_column}"


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _coded_matrix(A: np.ndarray, slots) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Coded run matrix and each slot's column range."""
    parts, ranges, start = [], [], 0
    for s, (_, attr) in enumerate(slots):
        parts.append(attr.codes[A[:, s]])
        ranges.append((start, start + attr.n_columns))
        start += attr.n_columns
    return np.hstack(parts), ranges


def _d_efficiency(X: np.ndarray) -> tuple[float, bool]:
    """d-efficiency, and whether X'X is singular: always with fewer runs than
    columns, where slogdet can round to a tiny positive determinant."""
    n, k = X.shape
    sign, logdet = np.linalg.slogdet(X.T @ X / n)
    if n < k or sign <= 0 or not np.isfinite(logdet):
        return 0.0, True
    return float(np.exp(logdet / k)), False


def _max_cross_correlation(X: np.ndarray, ranges) -> float:
    """Largest |corr| between coded columns of different slots. Pairs within
    one slot are excluded: effects coding correlates them by construction.
    A zero-variance column counts as 1 (it cannot be decorrelated)."""
    sd = X.std(axis=0)
    if np.any(sd == 0):
        return 1.0
    C = np.corrcoef(X, rowvar=False)
    mask = np.ones_like(C, dtype=bool)
    for a, b in ranges:
        mask[a:b, a:b] = False
    return float(np.max(np.abs(C[mask]))) if mask.any() else 0.0


def _level_imbalance(rows: list[list[int]], slots) -> list[float]:
    """Per slot, max over its L levels of |count - len(rows)/L|, counting the
    levels of the runs whose level indices are rows."""
    counts = [[0] * attr.n_levels for _, attr in slots]
    for row in rows:
        for slot, level in zip(counts, row):
            slot[level] += 1
    return [max(abs(c - len(rows) / len(slot)) for c in slot) for slot in counts]


def _diagnostics(A: np.ndarray, slots) -> DesignDiagnostics:
    """Diagnostics of the runs whose level indices are A (runs x slots)."""
    X, ranges = _coded_matrix(A, slots)
    d_eff, singular = _d_efficiency(X)
    return DesignDiagnostics(
        level_balance=dict(zip((_slot_name(alt_id, attr) for alt_id, attr in slots),
                               _level_imbalance(A.tolist(), slots))),
        max_abs_column_correlation=_max_cross_correlation(X, ranges),
        d_efficiency=d_eff,
        singular=singular,
    )


def within_block_deviation(design: BlockedDesign) -> float:
    """Max over blocks, slots, levels of |count - block_size/L|, each block
    against its own size (a design read from CSV may have unequal blocks)."""
    slots = _slots(design.schema)
    rows = design._assignment.tolist()
    return max((d for members in design.blocks
                for d in _level_imbalance([rows[r] for r in members], slots)), default=0.0)


# ---------------------------------------------------------------------------
# Fraction selection
# ---------------------------------------------------------------------------

_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_GF2_MUL = ((0, 0), (0, 1))


def _linear_oa(q: int, m: int) -> np.ndarray:
    """Strength-2 orthogonal array with q^m rows and (q^m - 1)/(q - 1)
    q-level columns: rows are GF(q)^m vectors, columns are linear forms
    indexed by projective representatives (first nonzero coordinate = 1).
    Any two columns have a uniform joint distribution, so effects-coded
    cross-slot correlations vanish exactly."""
    mul = _GF4_MUL if q == 4 else _GF2_MUL
    reps = []
    for v in itertools.product(range(q), repeat=m):
        nz = [x for x in v if x]
        if nz and nz[0] == 1:
            reps.append(v)
    rows = list(itertools.product(range(q), repeat=m))
    A = np.zeros((len(rows), len(reps)), dtype=np.intp)
    for r, x in enumerate(rows):
        for c, v in enumerate(reps):
            acc = 0
            for xi, vi in zip(x, v):
                acc ^= mul[xi][vi]  # addition in GF(2^k) is XOR
            A[r, c] = acc
    return A


def _oa_init(slots, n_runs: int, rng) -> np.ndarray | None:
    """Orthogonal-array start when the geometry admits one: n_runs = q^m,
    every slot has q or 2 levels (2 by collapsing {0,1}/{2,3}), and there
    are enough array columns. Returns a level-index assignment or None."""
    n_levels = [attr.n_levels for _, attr in slots]
    q = 4 if any(L == 4 for L in n_levels) else 2
    if any(L not in (2, q) for L in n_levels):
        return None
    m, size = 1, q
    while size < n_runs:
        size *= q
        m += 1
    if size != n_runs:
        return None
    n_cols = (q ** m - 1) // (q - 1)
    if len(slots) > n_cols:
        return None
    oa = _linear_oa(q, m)
    A = np.empty((n_runs, len(slots)), dtype=np.intp)
    for s, L in enumerate(n_levels):
        col = oa[:, s]
        if L != q:
            col = col // (q // L)
        # seeded relabeling keeps balance and pairwise uniformity
        A[:, s] = rng.permutation(L)[col]
    return A


def _balanced_levels(n_runs: int, n_levels: int, rng) -> np.ndarray:
    base, rem = divmod(n_runs, n_levels)
    counts = [base + (1 if i < rem else 0) for i in range(n_levels)]
    col = np.repeat(np.arange(n_levels, dtype=np.intp), counts)
    return rng.permutation(col)


def _profiles_from_assignment(A: np.ndarray, slots) -> tuple[Profile, ...]:
    runs = []
    for r in range(A.shape[0]):
        alt_levels: dict[str, dict[str, str]] = {}
        context: dict[str, str] = {}
        for s, (alt_id, attr) in enumerate(slots):
            label = attr.levels[A[r, s]].label
            if alt_id is None:
                context[attr.csv_column] = label
            else:
                alt_levels.setdefault(alt_id, {})[attr.csv_column] = label
        runs.append(Profile(alt_levels=alt_levels, context=context))
    return tuple(runs)


# Swap screen. Swapping slot s between runs i and j changes M = X'X by the
# rank-2 term W C W', W = [d u], C = [[2, 1], [1, 0]], with u = x_i - x_j and
# d = -u on the slot's columns (0 elsewhere). By the matrix determinant lemma
# det(M') / det(M) = r = det(I2 + C G) with G = W' M^-1 W; writing a = d'M^-1 d,
# b = d'M^-1 u, c = u'M^-1 u, r = (1 + b)^2 - a (c - 2). The exact search
# accepts a swap when det(M'/n)^(1/k) > det(M/n)^(1/k) in floating point,
# i.e. when r > 1 in exact arithmetic unless rounding flips the comparison.
#
# Rounding, to first order. Let kappa = cond2(M), bounded above by
# trace(M) trace(M^-1), and eps the unit roundoff. The exact path's LU
# perturbs M by about k eps |M|, so log det(M/n) is off by up to
# k^2 kappa eps and each d-efficiency, exp(log det / k), by about k kappa eps
# relative: its comparison of two of them follows the sign of log r once
# |log r| > 2 k^2 kappa eps. The screen's M^-1 is the inverse of a matrix
# within about k eps |M| of M, so each entry of G is off by about k kappa eps
# relative; with c <= 2 (M >= x_i x_i' + x_j x_j') and |a|, |b| < 6 on every
# geometry the tests search, r is off by under 100 k kappa eps. While
# kappa k^2 eps <= _DELTA / 256 the two errors are below _DELTA / 128 and
# _DELTA / 2.5, so a screened r > 1 + _DELTA is an exact-path accept and
# r < 1 - _DELTA an exact-path reject. Swaps within _DELTA of 1, and every
# swap while M is singular or worse conditioned, are decided by the exact
# comparison itself. Measured on the pinned searches: r is within 4e-14 of
# the exact-path ratio; at most one of 5,000 proposals on the table4-labels
# schema falls within _DELTA of 1, while on the 3-column linear schema most
# swaps within it leave M unchanged (r = 1) and go to the exact comparison.
_DELTA = 1e-5
_EPS = float(np.finfo(float).eps)
_WINDOW = (16, 128)  # first and largest number of proposals screened at once


def _screenable(M: np.ndarray, N: np.ndarray) -> np.ndarray | None:
    """N = M^-1 if M is conditioned well enough to screen with margin _DELTA."""
    k = M.shape[0]
    return N if M.trace() * N.trace() * k * k * _EPS <= _DELTA / 256 else None


def _inverse(X: np.ndarray) -> np.ndarray | None:
    """(X'X)^-1, or None when X'X is singular or too ill-conditioned."""
    M = X.T @ X
    try:
        return _screenable(M, np.linalg.inv(M))
    except np.linalg.LinAlgError:
        return None


def _exact_swap(A, X, ranges, s, i, j, d_cur: float) -> float | None:
    """The per-proposal step: swap slot s of runs i and j if d-efficiency
    rises. Returns the new d-efficiency, or None with A and X unchanged."""
    a, b = ranges[s]
    old_i, old_j = X[i, a:b].copy(), X[j, a:b].copy()
    X[i, a:b], X[j, a:b] = old_j, old_i
    d_new, _ = _d_efficiency(X)
    if d_new > d_cur:
        A[i, s], A[j, s] = A[j, s], A[i, s]
        return d_new
    X[i, a:b], X[j, a:b] = old_i, old_j
    return None


def _climb(A: np.ndarray, X: np.ndarray, ranges, proposals: np.ndarray) -> None:
    """Hill-climb A and its coded matrix X in place through the (slot, run,
    run) proposals, making the per-proposal search's decisions: windows of
    upcoming proposals are screened by r (see _DELTA); the first one not
    surely rejected is accepted outright or, near r = 1, decided exactly.

    After an accepted swap, N = (X'X)^-1 takes the Woodbury update and then
    one Newton step N(2I - X'X N) against the exact new X'X, so rounding is
    not carried from one swap to the next."""
    mask = np.zeros((A.shape[1], X.shape[1]))
    for s, (lo, hi) in enumerate(ranges):
        mask[s, lo:hi] = 1.0
    S, I, J = proposals.T
    d_cur = None  # d-efficiency of X, computed only when a comparison needs it
    N = _inverse(X)
    t, w = 0, _WINDOW[0]
    while t < len(proposals):
        s, i, j = S[t:t + w], I[t:t + w], J[t:t + w]
        hit = A[i, s] != A[j, s]  # the proposals that move a level
        if N is not None:  # else X'X is singular or ill-conditioned: no screen
            u = X[i] - X[j]
            du = u * mask[s]  # -d
            U, D = u @ N, du @ N
            a = (D * du).sum(axis=1)
            b = (U * du).sum(axis=1)  # -b
            c = (U * u).sum(axis=1)
            r = (1.0 - b) ** 2 - a * (c - 2.0)
            hit &= r >= 1.0 - _DELTA
        hit = np.flatnonzero(hit)
        if not hit.size:
            t += w
            w = min(2 * w, _WINDOW[1])
            continue
        f = hit[0]
        s, i, j = s[f], i[f], j[f]
        t += f + 1
        if N is None or r[f] <= 1.0 + _DELTA:
            if d_cur is None:
                d_cur = _d_efficiency(X)[0]
            d_new = _exact_swap(A, X, ranges, s, i, j, d_cur)
            if d_new is None:
                continue
            d_cur = d_new
        else:
            lo, hi = ranges[s]
            X[[i, j], lo:hi] = X[[j, i], lo:hi]
            A[i, s], A[j, s] = A[j, s], A[i, s]
            d_cur = None
        if N is None:
            N = _inverse(X)
        else:
            # N' = N - N W (C^-1 + G)^-1 W'N with W = [d u] and
            # det(C^-1 + G) = -r, in terms of the rows D = -(Nd)', U = (Nu)'
            V = np.stack([D[f], U[f]])
            Q = np.array([[c[f] - 2.0, 1.0 - b[f]], [1.0 - b[f], a[f]]]) / r[f]
            N = N + V.T @ Q @ V
            M = X.T @ X
            N = _screenable(M, 2.0 * N - N @ (M @ N))
        w = _WINDOW[0]


def select_fraction(schema: ExperimentSchema, n_runs: int, seed: int,
                    iters: int = 5000, restarts: int = 5) -> BlockedDesign:
    """Pick n_runs joint profiles by balanced init + level-swap hill climbing.

    Exact per-slot level balance holds whenever each slot's level count
    divides n_runs (warned otherwise) and is preserved by every accepted
    step. d-efficiency never decreases across accepted steps. Restarts use
    independent seeded streams and the best restart wins, ties to the lowest
    restart index, so the result is reproducible from (seed, iters, restarts).

    Each restart draws its iters (slot, run, run) proposals up front and
    takes them in order, accepting a swap exactly when it raises the
    d-efficiency as computed from the whole coded matrix. The proposals are
    screened in windows by the rank-2 determinant ratio r from (X'X)^-1,
    which is updated after every accepted swap and corrected against the
    exact X'X (see _climb). Swaps with r within _DELTA of 1, and all swaps
    while X'X is singular or ill-conditioned, are decided by that full
    comparison; elsewhere the screen's error is far below _DELTA, so every
    decision, and hence the design and its d-efficiency, is the same as
    comparing every proposal.
    """
    _integer(DesignError, "bad_number", "n_runs", n_runs, 1)
    _integer(DesignError, "bad_seed", "seed", seed, 0)
    _integer(DesignError, "bad_iteration_count", "iters", iters, 0)
    _integer(DesignError, "bad_restart_count", "restarts", restarts, 1)
    slots = _slots(schema)
    if not slots:
        raise DesignError("empty_design", "schema has no design attributes")
    k_cols = sum(attr.n_columns for _, attr in slots)
    if n_runs < k_cols + 1:
        raise DesignError("infeasible",
                          f"n_runs={n_runs} cannot identify {k_cols} coded columns; "
                          f"minimum feasible size is {k_cols + 1}")
    for alt_id, attr in slots:
        if n_runs % attr.n_levels:
            warnings.warn(f"n_runs={n_runs} not divisible by {attr.n_levels} levels of "
                          f"{_slot_name(alt_id, attr)}; balance will be approximate",
                          stacklevel=2)

    best: tuple[float, int, np.ndarray] | None = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        A = _oa_init(slots, n_runs, rng) if restart == 0 else None
        if A is None:
            A = np.column_stack([_balanced_levels(n_runs, attr.n_levels, rng)
                                 for _, attr in slots])
        X, ranges = _coded_matrix(A, slots)
        # drawn as (slot, run, run) per proposal: the same stream as
        # drawing each proposal in turn
        proposals = rng.integers(0, np.tile([len(slots), n_runs, n_runs], iters))
        _climb(A, X, ranges, proposals.reshape(iters, 3))
        d_cur, _ = _d_efficiency(X)
        if best is None or d_cur > best[0]:
            best = (d_cur, restart, A.copy())

    return BlockedDesign(schema=schema, runs=_profiles_from_assignment(best[2], slots),
                         blocks=(tuple(range(n_runs)),), seed=seed)


# ---------------------------------------------------------------------------
# Blocking
# ---------------------------------------------------------------------------

_BLOCK_RESTARTS = 8


def block_design(design: BlockedDesign, n_blocks: int, seed: int) -> BlockedDesign:
    """Partition runs into equal blocks minimizing within-block level
    imbalance, the sum over blocks, slots, levels of (count - block_size/L)^2
    (quadratic, so one badly overfull cell costs more than several
    near-misses). With equal blocks every (block, slot) count row sums to the
    block size, so this equals the sum of squared counts less a constant, and
    the search compares exact integers: no tolerances. Each restart runs
    seeded greedy sequential placement (ties to the lowest block), then a
    plain scan of cross-block pair swaps to a local minimum, on a run-by-run
    match table of Python ints; the lowest-objective restart wins, ties to
    the lowest restart index. Deterministic given seed."""
    n = design.n_runs
    _integer(DesignError, "bad_block_count", "n_blocks", n_blocks, 1)
    _integer(DesignError, "bad_seed", "seed", seed, 0)
    if n % n_blocks:
        raise DesignError("non_divisible", f"{n_blocks} blocks must divide {n} runs")
    A = design._assignment
    match = (A[:, None] == A).sum(axis=2).tolist()  # slots where runs i and j share a level

    assign = min((_block_once(match, n_blocks, n // n_blocks, np.random.default_rng([seed, r]))
                  for r in range(_BLOCK_RESTARTS)), key=lambda once: once[1])[0]
    blocks = tuple(tuple(r for r in range(n) if assign[r] == b) for b in range(n_blocks))
    return BlockedDesign(schema=design.schema, runs=design.runs, blocks=blocks, seed=seed)


def _block_once(match: list[list[int]], n_blocks: int, size: int, rng) -> tuple[list[int], int]:
    """One restart: block of each run and the sum of squared level counts.

    With C[b][s][l] the runs of block b at level l in slot s, K[b][j], the
    sum of match[r][j] over the runs r in b, is C[b][s][A[j][s]] summed over
    s, so sum(C^2) is the sum over runs r of K[block of r][r]. Moving runs
    i and j between their blocks' rows Ki and Kj changes sum(C^2) by 2*gain,
    gain = Ki[j] - Ki[i] + Kj[i] - Kj[j], plus 4 per slot where their levels
    differ, 4 * (match[i][i] - match[i][j]); a same-block pair has gain 0,
    so it needs no test. Pairs are scanned in (i, j) order, each scored on
    the counts left by the last swap, and a swap updates its two K rows."""
    n = len(match)
    K = [[0] * n for _ in range(n_blocks)]
    room = [size] * n_blocks
    assign = [0] * n
    # place runs in seeded order where they add least imbalance, ties to the
    # lowest block (min returns the first least)
    for i in rng.permutation(n).tolist():
        assign[i] = b = min((b for b in range(n_blocks) if room[b]), key=lambda b: K[b][i])
        room[b] -= 1
        K[b] = [k + m for k, m in zip(K[b], match[i])]

    for _ in range(60):  # bounded improvement passes
        improved = False
        for i in range(n - 1):
            mi, Ki = match[i], K[assign[i]]
            for j in range(i + 1, n):
                Kj = K[assign[j]]
                if Ki[j] - Ki[i] + Kj[i] - Kj[j] + 2 * (mi[i] - mi[j]) < 0:
                    for r, (x, y) in enumerate(zip(mi, match[j])):
                        Ki[r] += y - x
                        Kj[r] += x - y
                    assign[i], assign[j] = assign[j], assign[i]
                    Ki = Kj  # run i's block is now j's old one
                    improved = True
        if not improved:
            break
    return assign, sum(K[b][r] for r, b in enumerate(assign))


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def write_design_csv(design: BlockedDesign, path: str | Path) -> None:
    slots = _slots(design.schema)
    header = ["run_id", "block_id"] + [_slot_name(alt_id, attr) for alt_id, attr in slots]
    run_block = {}
    for b, members in enumerate(design.blocks, start=1):
        for r in members:
            run_block[r] = b
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r, levels in enumerate(design._assignment):
            writer.writerow([str(r + 1), str(run_block[r])]
                            + [attr.levels[i].label for (_, attr), i in zip(slots, levels)])


def read_design_csv(path: str | Path, schema: ExperimentSchema) -> BlockedDesign:
    """Read a design CSV (UTF-8; a leading byte-order mark is dropped)."""
    slots = _slots(schema)
    names = [_slot_name(alt_id, attr) for alt_id, attr in slots]
    rows = read_csv(path, DesignError, "empty_design", ("run_id", "block_id", *names))
    if not rows:
        raise DesignError("empty_design", f"{path}: no runs")
    assignment, block_keys = [], []
    for n, row in enumerate(rows, start=2):
        assignment.append([_check_level(attr, col, row[col], n, DesignError)
                           for (_, attr), col in zip(slots, names)])
        if not row["block_id"]:
            raise DesignError("bad_block", f"{path}: blank block_id", row=n)
        block_keys.append(row["block_id"])
    A = np.array(assignment, dtype=np.intp)
    unique = list(dict.fromkeys(block_keys))
    try:
        unique.sort(key=int)
    except ValueError:
        unique.sort()
    blocks = tuple(tuple(i for i, k in enumerate(block_keys) if k == key)
                   for key in unique)
    return BlockedDesign(schema=schema, runs=_profiles_from_assignment(A, slots),
                         blocks=blocks, seed=None)
