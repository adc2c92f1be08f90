"""Numerical kernels: the mixing and its Halton draws, inverse normal CDF,
the optimizer.

``MixingSpec`` is the one record of a mixing: the fit draws from it, a
result stores it and the result JSON round-trips it.
``trust_newton_minimize`` is trust-region Newton on an exact Hessian, with
the subproblem solved by Moré–Sorensen; both estimators use it.

Everything in this module is deterministic given its inputs; nothing reads
global RNG state. It needs only numpy and the standard library.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EstimationError, _integer

__all__ = [
    "HaltonConfig",
    "MixingSpec",
    "OptimResult",
    "halton_matrix",
    "normal_draws",
    "inv_normal_cdf",
    "trust_newton_minimize",
]


# ---------------------------------------------------------------------------
# Halton sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HaltonConfig:
    """Low-discrepancy draw settings.

    drop: leading sequence points discarded once, ahead of every individual's slice.
    n_draws: points per individual per dimension.
    """

    drop: int = 10
    n_draws: int = 500

    def __post_init__(self):
        for name, code, least in (("drop", "bad_drop", 0), ("n_draws", "bad_draw_count", 1)):
            object.__setattr__(self, name, _integer(EstimationError, code, name,
                                                    getattr(self, name), least))


def _first_primes(n: int) -> tuple[int, ...]:
    """The first ``n`` primes: dimension d of the draws has the d-th prime
    as its base (Train, Discrete Choice Methods with Simulation,
    2nd ed., 9.3.3), so no two dimensions' sequences correlate."""
    return tuple(itertools.islice(
        (k for k in itertools.count(2) if all(k % d for d in range(2, k))), n))


@dataclass(frozen=True)
class MixingSpec:
    """Which coefficients are random, and how their draws are generated:
    random parameter d draws in the d-th prime base, ``primes[d - 1]``."""

    random_params: tuple[str, ...] = ("asc_drone", "asc_truck")
    halton: HaltonConfig = field(default_factory=HaltonConfig)
    antithetic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "random_params", tuple(self.random_params))
        if len(set(self.random_params)) != len(self.random_params):
            raise EstimationError("duplicate_random_param",
                                  "random_params contains duplicates")
        if self.antithetic and self.halton.n_draws % 2:
            raise EstimationError("odd_draw_count",
                                  "antithetic pairing needs an even n_draws")

    @property
    def n_random(self) -> int:
        return len(self.random_params)

    @property
    def n_draws(self) -> int:
        return self.halton.n_draws

    @property
    def primes(self) -> tuple[int, ...]:
        return _first_primes(self.n_random)


# bound on a radical-inverse table's entries (a base above it gets b). A table
# is made once per base (the last 16 bases' are kept) and, at 32 KB, is read
# from the CPU cache; a 65,536-entry one would cost a small fit's draws more
# to make than it saves them
_TABLE = 4096


@functools.lru_cache(maxsize=16)
def _digit_table(base: int):
    """The radical inverses of 0 .. b^k - 1, each correctly rounded (the
    index's k digits reversed, as an integer, over b^k), and b^k: the
    largest power of b within ``_TABLE``, and at least b."""
    rev = np.zeros(1, dtype=np.int64)  # 0 .. b^j - 1's j digits reversed, as integers
    while rev.size == 1 or rev.size * base <= _TABLE:
        rev = (rev[:, None] + rev.size * np.arange(base)).ravel()
    table = rev / rev.size
    table.flags.writeable = False
    return table, rev.size


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Base-b radical inverse of non-negative integer indices (vectorized):
    for index high * b^k + low, the table's inverse of low plus high's own
    inverse over b^k. Each value is within about an ulp of the exact one."""
    table, size = _digit_table(base)
    high, low = np.divmod(np.asarray(indices, dtype=np.int64), size)
    out = table[low]
    if high.any():
        out += _radical_inverse(high, base) / size
    return out


# sequence points per slice: draws are built a slice of whole individuals at
# a time, so their temporaries stay this size unless one individual's draws
# are more. Every step is elementwise, so the slicing leaves each value's
# bits as they were
_SLICE = 4096


def _halton(config: HaltonConfig, n_individuals: int, n_dims: int, transform) -> np.ndarray:
    """``transform`` of the uniform draws, shaped (n_individuals, n_draws,
    n_dims): the transposed view of a C-contiguous (n_individuals, n_dims,
    n_draws) array, filled a slice of whole individuals at a time.
    EstimationError "bad_drop" if a sequence index would pass int64's range,
    or if a uniform is not inside (0, 1): far into the sequence, an index
    whose low digits are all b - 1 rounds to 1.0 once its exact inverse is
    within about an ulp of 1 (in base 2 from index 2**54 - 1, base 3 from
    3**35 - 1, base 5 from 5**24 - 1)."""
    if n_individuals < 0:
        raise ValueError("n_individuals must be >= 0")
    n_draws = config.n_draws
    if config.drop + n_individuals * n_draws > np.iinfo(np.int64).max:
        raise EstimationError(
            "bad_drop", f"drop {config.drop} with {n_individuals} x {n_draws} draws "
                        f"passes the largest Halton index, 2**63 - 1")
    out = np.empty((n_individuals, n_dims, n_draws))
    per_slice = max(_SLICE // n_draws, 1)
    primes = _first_primes(n_dims)
    for i0 in range(0, n_individuals, per_slice):
        i1 = min(i0 + per_slice, n_individuals)
        idx = np.arange((i1 - i0) * n_draws) + (config.drop + 1 + i0 * n_draws)
        for d, p in enumerate(primes):
            u = _radical_inverse(idx, p)
            if not (u.min() > 0.0 and u.max() < 1.0):
                raise EstimationError(
                    "bad_drop", f"drop {config.drop} reaches Halton indices whose base-{p} "
                                f"draws round out of (0, 1)")
            out[i0:i1, d] = transform(u).reshape(i1 - i0, n_draws)
    return out.transpose(0, 2, 1)


def halton_matrix(config: HaltonConfig, n_individuals: int, n_dims: int) -> np.ndarray:
    """Uniform draws shaped (n_individuals, n_draws, n_dims).

    A single global sequence per dimension, dimension d in the d-th prime
    base; individual ``i`` takes the contiguous index slice
    ``[drop + i*n_draws + 1, drop + (i+1)*n_draws]``.
    Growing the individual count therefore never changes earlier
    individuals' draws. The matrix is the transposed view of a C-contiguous
    (n_individuals, n_dims, n_draws) array, built a slice of about
    ``_SLICE`` points, whole individuals, at a time. EstimationError
    "bad_drop" if an index would pass int64's range or a draw would round
    out of (0, 1).
    """
    return _halton(config, n_individuals, n_dims, lambda u: u)


def normal_draws(config: HaltonConfig, n_individuals: int, n_dims: int) -> np.ndarray:
    """Standard-normal draws (n_individuals, n_draws, n_dims): the inverse CDF
    of ``halton_matrix``'s draws, taken one slice of whole individuals at a
    time, so that no uniform matrix is held beside the result. Like
    ``halton_matrix``'s, the matrix is the transposed view of a C-contiguous
    (n_individuals, n_dims, n_draws) array. The values are byte-identical to
    ``inv_normal_cdf(halton_matrix(...))``."""
    return _halton(config, n_individuals, n_dims, _quantile)


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------

# Wichura's AS 241 (PPND16), Appl. Stat. 37:477-484, 1988, good to about
# 1e-16 relative: each fit's numerator and denominator, lowest power first
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3))
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9))
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15))


def _rational(r: np.ndarray, fit) -> np.ndarray:
    """One AS 241 fit at r: numerator over denominator, each by Horner's rule."""
    num, den = fit
    p, q = np.full_like(r, num[-1]), np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p = p * r + a
        q = q * r + b
    return p / q


def _quantile(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of a 1-D array in (0, 1), unchecked: AS 241,
    each region's fit evaluated on its own points. 1 - u is exact for
    u >= 0.5, so the upper tail is as accurate as the lower."""
    q = u - 0.5
    x = np.empty_like(u)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(0.180625 - qc * qc, _AS241_CENTRAL)
    ut = u[~central]
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    near = r <= 5.0
    r[near] = _rational(r[near] - 1.6, _AS241_NEAR)
    r[~near] = _rational(r[~near] - 5.0, _AS241_FAR)
    x[~central] = np.copysign(r, q[~central])
    return x


def inv_normal_cdf(u):
    """Standard normal quantile function.

    Accepts a scalar or array with every element in the open interval (0, 1);
    absolute error is a few ulp over (1e-12, 1 - 1e-12), far inside the 1e-9
    contract. Values outside (0, 1) raise ValueError.
    """
    arr = np.asarray(u, dtype=np.float64)
    if arr.size and (np.any(arr <= 0.0) | np.any(arr >= 1.0) | np.any(~np.isfinite(arr))):
        raise ValueError("inv_normal_cdf requires u in the open interval (0, 1)")
    x = _quantile(arr.reshape(-1))
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(x[0])
    return x.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Trust-region Newton
# ---------------------------------------------------------------------------

@dataclass
class OptimResult:
    """What trust_newton_minimize returns: the last accepted point and the
    objective's value, gradient and Hessian there."""

    x: np.ndarray
    fun: float
    grad: np.ndarray
    # gradient_converged | step_converged | max_iterations | non_finite
    status: str
    iterations: int
    n_evals: int
    hess: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status == "gradient_converged"


def _norm_inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


# This many ulps of |f| bound the rounding noise of a likelihood summed over
# a panel: a predicted reduction below it is one the ratio test cannot judge,
# and the trial's f may read a few ulps high for that noise alone.
_NOISE_ULPS = 8
_SUBPROBLEM_ITERATIONS = 50

# trust_newton_minimize's stopping rules, the same for every fit
_GRADIENT_TOLERANCE = 1e-5
_STEP_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200

# EstimationError codes that trust_newton_minimize treats as a rejected trial
# point: the objective's value or its Hessian overflowed there
_NON_FINITE_CODES = ("non_finite_utility", "hessian_non_finite")


def _all_finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L')^-1 b for a lower-triangular Cholesky factor L."""
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _trust_region_step(g: np.ndarray, H: np.ndarray, radius: float) -> np.ndarray:
    """Minimize m(p) = g'p + p'Hp/2 subject to ||p|| <= radius (Moré–Sorensen).

    Nocedal & Wright, Numerical Optimization, 2nd ed., Alg. 4.3: Newton's
    method on 1/||p(lam)|| = 1/radius for the lam >= 0 that makes H + lam*I
    positive definite, with p(lam) = -(H + lam*I)^-1 g from its Cholesky
    factor; lam is kept inside safeguarding bounds (Moré & Sorensen, 1983).
    In the hard case, where ||p(lam)|| stays short of the radius however
    close lam comes to -lambda_min, the step is completed along the
    near-null direction of H + lam*I found by inverse iteration. Only
    Cholesky factors and solves with them are used: an eigen-decomposition
    wakes OpenBLAS's worker threads, which keep spinning afterwards. The
    factors and solves are ``np.linalg``'s, the package's only linear algebra.
    """
    n = g.size
    eye = np.eye(n)
    g_norm = float(np.linalg.norm(g))
    h_norm = float(np.abs(H).sum(axis=0).max())
    lo = max(0.0, -float(np.min(np.diag(H))), g_norm / radius - h_norm)
    hi = g_norm / radius + h_norm
    lam = 0.0
    p = None
    best = None  # the step inside the radius with the smallest lam, and its factor
    for _ in range(_SUBPROBLEM_ITERATIONS):
        try:
            L = np.linalg.cholesky(H + lam * eye)
        except np.linalg.LinAlgError:
            lo = max(lo, lam)  # H + lam*I is not positive definite: lam* lies above
            lam = max(np.sqrt(lo * hi), lo + 0.01 * (hi - lo))
            continue
        p = -_cho_solve(L, g)
        p_norm = float(np.linalg.norm(p))
        if p_norm <= radius and (lam == 0.0 or p_norm >= 0.9 * radius):
            return p
        if p_norm > radius:
            if p_norm <= 1.1 * radius:
                return p * (radius / p_norm)
            lo = max(lo, lam)
        else:
            hi = min(hi, lam)
            best = (p, L)
        q = np.linalg.solve(L, p)
        lam_next = lam + (p_norm / float(np.linalg.norm(q))) ** 2 * (p_norm - radius) / radius
        lam = lam_next if lo < lam_next < hi else max(np.sqrt(lo * hi), lo + 0.01 * (hi - lo))
        if hi - lo <= 1e-12 * hi:
            break
    if best is None:
        if p is None:  # no factor found: fall back to steepest descent
            return -g * (radius / g_norm)
        return p * min(1.0, radius / p_norm)
    # hard case: z is the direction in which H + lam*I is nearly singular
    p, L = best
    z = eye[int(np.argmin(np.diag(L)))]
    for _ in range(3):
        z = _cho_solve(L, z)
        z /= np.linalg.norm(z)
    pz = float(p @ z)
    tau = np.sqrt(pz * pz + radius * radius - float(p @ p)) - abs(pz)
    return p + np.copysign(tau, pz) * z


def trust_newton_minimize(fun: Callable, x0, callback: Callable | None = None) -> OptimResult:
    """Minimize fun(x) -> (value, gradient, Hessian) by trust-region Newton.

    Each iteration solves the trust-region subproblem on the exact Hessian
    (``_trust_region_step``) and evaluates ``fun`` once at the trial point
    (Nocedal & Wright, Numerical Optimization, 2nd ed., Alg. 4.1). A trial
    is accepted when the actual reduction is at least a tenth of the
    predicted one; the radius shrinks to a quarter of the step below a
    ratio of 1/4 and doubles when a step on the boundary scores above 3/4.
    A predicted reduction within ``_NOISE_ULPS`` ulps of |f| is below the
    value's rounding noise, so such a step counts as a good one unless f
    rose by more than that noise; an accepted f can therefore exceed the
    previous one by at most ``_NOISE_ULPS`` ulps. Trial points that are
    non-finite, or where ``fun`` raises EstimationError "non_finite_utility"
    or "hessian_non_finite", are rejected like a bad ratio; every other
    error propagates.

    It stops when the gradient's infinity norm is at most
    ``_GRADIENT_TOLERANCE``, when the trust radius falls to
    ``_STEP_TOLERANCE`` after a rejected step, or after ``_MAX_ITERATIONS``
    trial steps, accepted or not. ``callback(iteration, x, f)`` fires once
    for the start point and once per accepted step. The result's ``hess`` is
    the Hessian at ``x``.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g, H = fun(x)
    f = float(f)
    g = np.asarray(g, dtype=np.float64)
    n_evals = 1
    if not _all_finite(f, g, H):
        return OptimResult(x, f, g, "non_finite", 0, n_evals, H)
    if callback is not None:
        callback(0, x, f)

    radius = 1.0
    for it in range(1, _MAX_ITERATIONS + 1):
        if _norm_inf(g) <= _GRADIENT_TOLERANCE:
            return OptimResult(x, f, g, "gradient_converged", it - 1, n_evals, H)
        p = _trust_region_step(g, H, radius)
        p_norm = float(np.linalg.norm(p))
        predicted = -float(g @ p + 0.5 * (p @ H @ p))
        n_evals += 1
        try:
            f_new, g_new, H_new = fun(x + p)
            f_new = float(f_new)
            finite = _all_finite(f_new, g_new, H_new)
        except EstimationError as exc:
            if exc.code not in _NON_FINITE_CODES:
                raise
            finite = False
        noise = _NOISE_ULPS * np.spacing(abs(f))
        if not finite:
            rho = -np.inf
        elif predicted <= noise:
            rho = 1.0 if f_new <= f + noise else -np.inf
        else:
            rho = (f - f_new) / predicted
        if rho < 0.25:
            radius = 0.25 * p_norm
        elif rho > 0.75 and p_norm >= 0.9 * radius:
            radius = 2.0 * radius
        if rho > 0.1:
            x, f, g, H = x + p, f_new, np.asarray(g_new, dtype=np.float64), H_new
            if callback is not None:
                callback(it, x, f)
        elif radius <= _STEP_TOLERANCE:
            return OptimResult(x, f, g, "step_converged", it, n_evals, H)

    status = ("gradient_converged" if _norm_inf(g) <= _GRADIENT_TOLERANCE
              else "max_iterations")
    return OptimResult(x, f, g, status, _MAX_ITERATIONS, n_evals, H)
