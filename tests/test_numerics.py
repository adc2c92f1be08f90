"""Halton sequences, inverse normal CDF, trust-region Newton, and the
finite-difference oracles in ``helpers``."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (
    EstimationError,
    HaltonConfig,
    halton_matrix,
    inv_normal_cdf,
    normal_draws,
    trust_newton_minimize,
)
from dce.numerics import _radical_inverse, _trust_region_step

from helpers import finite_diff_grad, hessian_from_grad

# Reference quantiles frozen from a 50-digit arbitrary-precision evaluation
# of the inverse error function at the exact double closest to each label.
INV_CDF_ORACLE = {
    "1e-12": -7.03448382530113192981,
    "1e-9": -5.99780701500768687156,
    "1e-6": -4.75342430882289894819,
    "0.00001": -4.2648907939228246285,
    "0.001": -3.09023230616781354154,
    "0.02425": -1.97296105131188485027,
    "0.025": -1.95996398454005423552,
    "0.1": -1.28155156554460046697,
    "0.2": -0.841621233572914205179,
    "0.3": -0.524400512708040784038,
    "0.4": -0.253347103135799798798,
    "0.5": 0.0,
    "0.6827": 0.475262337515298526663,
    "0.7": 0.524400512708040784038,
    "0.9": 1.28155156554460046697,
    "0.95": 1.64485362695147271486,
    "0.975": 1.95996398454005423552,
    "0.99865": 2.99997699270339312756,
    "0.999999": 4.75342430882289894819,
    "0.9999999999": 6.3613409024040562047,
}

UNIT = st.floats(min_value=1e-12, max_value=1 - 1e-12)
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def halton(n_points, base, drop=0):
    """One individual's draws in one base: the sequence from index drop + 1,
    read from the dimension whose base it is."""
    d = PRIMES.index(base)
    return halton_matrix(HaltonConfig(drop=drop, n_draws=n_points), 1, d + 1)[0, :, d]


def radical_inverse(i, base):
    """Exact base-b radical inverse of the integer i."""
    out, scale = Fraction(0), Fraction(1)
    while i:
        i, digit = divmod(i, base)
        scale /= base
        out += digit * scale
    return out


class TestHalton:
    def test_base2_prefix(self):
        np.testing.assert_allclose(
            halton(4, 2), [0.5, 0.25, 0.75, 0.125], rtol=0, atol=0)

    def test_base3_prefix(self):
        np.testing.assert_allclose(
            halton(4, 3), [1 / 3, 2 / 3, 1 / 9, 4 / 9], rtol=0, atol=1e-15)

    def test_start_offset(self):
        # drop=k yields the same values as skipping k from the head
        full = halton(10, 5)
        np.testing.assert_array_equal(halton(6, 5, drop=4), full[4:])

    def test_values_in_open_unit_interval(self):
        for base in (2, 3, 5, 7):
            u = halton(200, base)
            assert np.all(u > 0) and np.all(u < 1)

    @pytest.mark.parametrize("kwargs, code", [
        ({"n_draws": 0}, "bad_draw_count"),
        ({"drop": -1}, "bad_drop"),
        # integers only, and not bool
        ({"drop": 1.5}, "bad_drop"),
        ({"drop": True}, "bad_drop"),
        ({"drop": "3"}, "bad_drop"),
        ({"n_draws": 10.0}, "bad_draw_count"),
        ({"n_draws": True}, "bad_draw_count"),
    ])
    def test_config_errors_are_typed(self, kwargs, code):
        with pytest.raises(EstimationError) as err:
            HaltonConfig(**kwargs)
        assert err.value.code == code

    def test_numpy_integers_are_held_as_ints(self):
        cfg = HaltonConfig(drop=np.int64(3), n_draws=np.int32(7))
        assert cfg == HaltonConfig(drop=3, n_draws=7)
        assert type(cfg.drop) is int and type(cfg.n_draws) is int

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_indices_past_int64_are_typed(self, spare):
        # 40 individuals x 20 draws use indices drop + 1 .. drop + 800, which
        # must stay within int64; past it they would wrap negative
        drop = np.iinfo(np.int64).max - 800 - spare
        cfg = HaltonConfig(drop=drop, n_draws=20)
        if spare < 0:
            for build in (halton_matrix, normal_draws):
                with pytest.raises(EstimationError) as err:
                    build(cfg, 40, 2)
                assert err.value.code == "bad_drop"
        else:
            u = halton_matrix(cfg, 40, 2)
            for d, base in enumerate((2, 3)):
                assert u[0, 0, d] == pytest.approx(float(radical_inverse(drop + 1, base)),
                                                   rel=0, abs=1e-15)
                assert u[-1, -1, d] == pytest.approx(
                    float(radical_inverse(2 ** 63 - 1, base)), rel=0, abs=1e-15)

    @pytest.mark.parametrize("build", [halton_matrix, normal_draws])
    def test_draws_are_a_transposed_view(self, build):
        # (individual, draw, dim) over an (individual, dim, draw) array
        u = build(HaltonConfig(drop=10, n_draws=30), 5, 3)
        assert u.shape == (5, 30, 3)
        assert u.transpose(0, 2, 1).flags.c_contiguous

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(base=st.one_of(st.sampled_from([2, 3, 4, 16, 64, 4096, 4097]),
                          st.integers(2, 10_000)),
           start=st.one_of(st.integers(0, 10_000), st.integers(0, 2 ** 63 - 5_000)),
           n=st.integers(1, 5_000))
    def test_radical_inverse_table_is_the_digit_loop(self, base, start, n):
        # the low digits' partial sums come from a table, the high digits are
        # added after them: each value has the loop's bits
        indices = np.arange(n, dtype=np.int64) + start
        rem, want = indices.copy(), np.zeros(n)
        scale = np.float64(1.0)
        while np.any(rem > 0):
            scale /= base
            want += rem % base * scale
            rem //= base
        assert _radical_inverse(indices, base).tobytes() == want.tobytes()

    def test_matrix_slices_one_stream_per_individual(self):
        # individual i takes global indices drop + [i*D+1 .. (i+1)*D]
        cfg = HaltonConfig(drop=0, n_draws=2)
        u = halton_matrix(cfg, 2, 1)
        assert u.shape == (2, 2, 1)
        np.testing.assert_array_equal(u[0, :, 0], [0.5, 0.25])
        np.testing.assert_array_equal(u[1, :, 0], [0.75, 0.125])

    def test_matrix_drop_shifts_indices(self):
        cfg = HaltonConfig(drop=10, n_draws=3)
        u = halton_matrix(cfg, 1, 1)
        np.testing.assert_array_equal(u[0, :, 0], halton(13, 2)[10:])

    def test_matrix_dimensions_follow_primes(self):
        # dimension d is the sequence in the d-th prime, whatever the count
        u = halton_matrix(HaltonConfig(drop=4, n_draws=5), 3, len(PRIMES))
        assert u.shape == (3, 5, len(PRIMES))
        for d, base in enumerate(PRIMES):
            want = [radical_inverse(i, base) for i in range(5, 20)]
            np.testing.assert_allclose(u[:, :, d].ravel(), [float(w) for w in want],
                                       rtol=0, atol=1e-15)
        # a dimension's draws do not depend on how many dimensions follow
        np.testing.assert_array_equal(halton_matrix(HaltonConfig(drop=4, n_draws=5), 3, 2),
                                      u[:, :, :2])

    @pytest.mark.parametrize("n_dims, digest", [(1, "dce061104cb11be9"),
                                                (2, "b2a67d37fbde1da1")])
    def test_one_and_two_dimensions_keep_their_bits(self, n_dims, digest):
        # frozen from the draws in bases (2,) and (2, 3) before the bases
        # were derived from the dimension count
        z = normal_draws(HaltonConfig(drop=10, n_draws=500), 20, n_dims)
        assert hashlib.sha256(z.tobytes()).hexdigest()[:16] == digest


class TestInverseNormalCdf:
    def test_against_frozen_oracle(self):
        for label, want in INV_CDF_ORACLE.items():
            got = inv_normal_cdf(float(label))
            # the upper tail pays an unavoidable eps/2 rounding of 1 - u,
            # which maps to ~eps / (2 pdf(z)) in quantile space
            pdf = np.exp(-0.5 * want * want) / np.sqrt(2 * np.pi)
            tol = 1e-12 if float(label) <= 0.5 else max(1e-12, 2e-16 / pdf)
            assert got == pytest.approx(want, abs=tol), label

    def test_symmetry(self):
        for u in (0.001, 0.02425, 0.1, 0.31, 0.49):
            assert inv_normal_cdf(1 - u) == pytest.approx(
                -inv_normal_cdf(u), abs=1e-13)

    @PROPERTY
    @given(u=st.lists(UNIT, min_size=2, max_size=40))
    def test_monotone(self, u):
        # non-decreasing up to the few-ulp accuracy of each quantile: adjacent
        # doubles can step back by up to 2 ulp of max(|z|, 1)
        z = inv_normal_cdf(np.sort(u))
        assert np.all(np.diff(z) >= -4 * np.spacing(np.maximum(np.abs(z[1:]), 1.0)))

    @PROPERTY
    @given(u=UNIT)
    def test_symmetry_property(self, u):
        # 1 - (1 - u) is u rounded to a double whose complement is exact
        v = 1.0 - u
        assert inv_normal_cdf(v) == pytest.approx(-inv_normal_cdf(1.0 - v), abs=1e-13)

    @PROPERTY
    @given(u=st.floats(min_value=1e-12, max_value=0.5))
    def test_round_trips_through_erfc(self, u):
        z = inv_normal_cdf(u)
        assert 0.5 * math.erfc(-z / math.sqrt(2.0)) == pytest.approx(u, rel=1e-12, abs=0)

    def test_vectorized_matches_scalar(self):
        # three points, then 2 x 500 Halton points on both sides of 0.5
        for u in (np.array([0.1, 0.5, 0.9]),
                  halton_matrix(HaltonConfig(n_draws=500), 2, 1)[:, :, 0]):
            z = inv_normal_cdf(u)
            assert z.shape == u.shape
            np.testing.assert_array_equal(z.ravel(), [inv_normal_cdf(v) for v in u.ravel()])

    def test_normal_draws_are_the_quantiles_of_the_uniform_draws(self):
        # built slice by slice, bit for bit the quantiles of the whole matrix
        cfg = HaltonConfig(n_draws=3000)
        np.testing.assert_array_equal(normal_draws(cfg, 3, 2),
                                      inv_normal_cdf(halton_matrix(cfg, 3, 2)))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inv_normal_cdf(bad)

    def test_normal_draws_single_is_median(self):
        cfg = HaltonConfig(drop=0, n_draws=1)
        z = normal_draws(cfg, 1, 1)
        assert z.shape == (1, 1, 1)
        assert z[0, 0, 0] == 0.0


def rosenbrock(x):
    """Value, gradient and Hessian of the Rosenbrock function."""
    f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                  200 * (x[1] - x[0] ** 2)])
    H = np.array([[2 - 400 * (x[1] - x[0] ** 2) + 800 * x[0] ** 2, -400 * x[0]],
                  [-400 * x[0], 200.0]])
    return f, g, H


class TestTrustNewton:
    def test_quadratic(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])

        def f(x):
            return 0.5 * x @ A @ x - b @ x, A @ x - b, A

        res = trust_newton_minimize(f, np.zeros(2))
        assert res.status == "gradient_converged"
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), atol=1e-12)
        np.testing.assert_array_equal(res.hess, A)

    def test_rosenbrock(self):
        seen = []
        res = trust_newton_minimize(rosenbrock, np.array([-1.2, 1.0]),
                                    callback=lambda it, x, val: seen.append(val))
        assert res.status == "gradient_converged"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
        np.testing.assert_array_equal(res.hess, rosenbrock(res.x)[2])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_indefinite_start(self):
        # a double well: at the start the Hessian has a negative eigenvalue,
        # so the full Newton step would head for the saddle at x0 = 0
        def f(x):
            return (x[0] ** 4 / 4 - x[0] ** 2 / 2 + x[1] ** 2,
                    np.array([x[0] ** 3 - x[0], 2 * x[1]]),
                    np.array([[3 * x[0] ** 2 - 1, 0.0], [0.0, 2.0]]))

        x0 = np.array([0.1, 1.0])
        assert f(x0)[2][0, 0] < 0
        res = trust_newton_minimize(f, x0)
        assert res.status == "gradient_converged"
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-6)
        assert res.fun == pytest.approx(-0.25)

    def test_hard_case_step_reaches_the_boundary(self):
        # g is orthogonal to H's negative-curvature direction e0: no lam
        # with H + lam*I positive definite gives a step on the boundary, so
        # the step is completed along e0
        p = _trust_region_step(np.array([0.0, 2.0]), np.diag([-1.0, 2.0]), 1.0)
        assert np.linalg.norm(p) == pytest.approx(1.0)
        np.testing.assert_allclose(p, [np.sqrt(5.0) / 3.0, -2.0 / 3.0])

    def test_iteration_cap_reported(self):
        # a linear objective has no minimum: every step reaches the trust
        # boundary and is accepted, and the radius doubles, until the cap
        c = np.array([1.0, -2.0])
        res = trust_newton_minimize(lambda x: (c @ x, c, np.zeros((2, 2))), np.zeros(2))
        assert res.status == "max_iterations"
        assert res.iterations == 200

    @staticmethod
    def _well_raising_beyond(limit, code):
        # sqrt(1 + (x - 1)^2), minimum at 1, flattens away from it, so from
        # 0.5 the Newton step, 0.625, lies inside the unit trust radius but
        # overshoots to 1.125, past the limit where the function raises
        def f(x):
            if x[0] > limit:
                raise EstimationError(code, "trial point out of range")
            r = np.sqrt(1.0 + (x - 1.0) ** 2)
            return float(r[0]), (x - 1.0) / r, np.diag(r ** -3)
        return f

    @pytest.mark.parametrize("code", ["non_finite_utility", "hessian_non_finite"])
    def test_non_finite_trial_shrinks_the_radius(self, code):
        seen = []
        res = trust_newton_minimize(
            self._well_raising_beyond(1.1, code), np.array([0.5]),
            callback=lambda it, x, val: seen.append((it, x[0])))
        assert res.status == "gradient_converged"
        np.testing.assert_allclose(res.x, [1.0], atol=1e-5)  # |g| ~ |x - 1| here
        # iteration 1 was rejected; iteration 2 stepped at most a quarter of
        # its length (the subproblem stops within 10% of the radius)
        assert seen[1][0] == 2
        assert 0.9 * 0.25 * 0.625 <= seen[1][1] - 0.5 <= 0.25 * 0.625

    def test_other_trial_errors_still_raise(self):
        with pytest.raises(EstimationError) as err:
            trust_newton_minimize(self._well_raising_beyond(1.1, "simulated_underflow"),
                                  np.array([0.5]))
        assert err.value.code == "simulated_underflow"

    @pytest.mark.parametrize("ulps_high", [0, 1])
    def test_reduction_below_rounding_noise_still_converges(self, ulps_high):
        # the constant dwarfs the reductions near the minimum: there the
        # predicted reduction is below an ulp of f, so f_new - f is rounding
        # noise and a plain ratio test rejects good steps until the radius
        # collapses, with |g| still above the tolerance. With ulps_high the
        # value also reads an ulp high wherever |g| is within the tolerance,
        # as a panel sum's rounding can make it.
        a = 1e4

        def f(x):
            g = a * (np.exp(x) - 1)
            value = 1e6 + a * np.sum(np.exp(x) - x)
            if np.max(np.abs(g)) <= 1e-5:
                value += ulps_high * np.spacing(value)
            return value, g, np.diag(a * np.exp(x))

        res = trust_newton_minimize(f, np.full(3, 0.2))
        assert res.status == "gradient_converged"
        np.testing.assert_allclose(res.x, np.zeros(3), atol=1e-9)

    def test_non_finite_start(self):
        res = trust_newton_minimize(lambda x: (np.nan, x, np.eye(1)), np.zeros(1))
        assert res.status == "non_finite"


class TestFiniteDiff:
    def test_gradient_of_quadratic(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return 0.5 * x @ A @ x

        x = np.array([0.3, -1.2])
        np.testing.assert_allclose(finite_diff_grad(f, x), A @ x, atol=1e-7)

    def test_hessian_of_quadratic(self):
        A = np.array([[2.0, 0.5, 0.0],
                      [0.5, 1.0, -0.3],
                      [0.0, -0.3, 4.0]])

        def grad(x):
            return A @ x

        H = hessian_from_grad(grad, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(H, A, atol=1e-6)
        np.testing.assert_allclose(H, H.T, atol=0)

    def test_hessian_rejects_non_finite(self):
        def grad(x):
            return np.array([np.nan])

        with pytest.raises(EstimationError) as err:
            hessian_from_grad(grad, np.zeros(1))
        assert err.value.code == "hessian_non_finite"
