"""Mixed logit: simulated likelihood, gradients, estimation."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (
    EstimationError,
    HaltonConfig,
    MixingSpec,
    SimConfig,
    block_design,
    build_parameter_index,
    code_dataset,
    estimate_mmnl,
    estimate_mnl,
    lr_test,
    make_draws,
    mmnl_predict,
    mnl_gradient,
    mnl_loglik,
    mnl_probabilities,
    msl_gradient,
    msl_loglik,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mmnl,
)

from dce.mmnl import _work
from dce.mnl import _inference
from helpers import finite_diff_grad, simulated_panel

ASC_MIX = ("asc_drone", "asc_truck")


def small_mixing(n_draws=100, drop=10, antithetic=False):
    return MixingSpec(random_params=ASC_MIX,
                      halton=HaltonConfig(n_draws=n_draws, drop=drop),
                      antithetic=antithetic)


@pytest.fixture(scope="module")
def oracle_toy(design32):
    """8-respondent panel whose Halton-vs-Monte-Carlo gap is frozen small."""
    cfg, dataset, panel, truth = simulated_panel(
        design32, 8, seed=5, sds=(1.5, 1.241))
    return {"panel": panel, "truth": truth}


class TestMixingSpec:
    def test_validation_codes(self):
        with pytest.raises(EstimationError) as err:
            MixingSpec(random_params=("asc_drone", "asc_drone"))
        assert err.value.code == "duplicate_random_param"

        with pytest.raises(EstimationError) as err:
            MixingSpec(random_params=("a", "b", "c"),
                       halton=HaltonConfig(primes=(2, 3)))
        assert err.value.code == "too_few_primes"

        with pytest.raises(EstimationError) as err:
            MixingSpec(antithetic=True,
                       halton=HaltonConfig(n_draws=501))
        assert err.value.code == "odd_draw_count"

    def test_keeps_one_base_per_random_param(self):
        spec = MixingSpec(random_params=("asc_drone",), halton=HaltonConfig(primes=(2, 3, 5)))
        assert spec == MixingSpec(random_params=("asc_drone",),
                                  halton=HaltonConfig(primes=(2,)))
        assert MixingSpec(random_params=()).halton.primes == (2, 3)

    def test_make_draws_shape(self):
        z = make_draws(small_mixing(n_draws=40), 7)
        assert z.shape == (7, 40, 2)

    def test_antithetic_pairs(self):
        z = make_draws(small_mixing(n_draws=40, antithetic=True), 3)
        np.testing.assert_array_equal(z[:, 0::2, :], -z[:, 1::2, :])


class TestDegeneracyOracle:
    @pytest.mark.parametrize("n_draws", [1, 7, 200])
    def test_zero_sd_equals_mnl(self, panel50, n_draws):
        panel = panel50["panel"]
        truth = panel50["truth"]
        params = np.concatenate([truth, [0.0, 0.0]])
        got = msl_loglik(params, panel, small_mixing(n_draws=n_draws))
        want = mnl_loglik(truth, panel)
        assert got == pytest.approx(want, abs=1e-10)

    def test_zero_sd_fixed_gradient_equals_mnl(self, panel50):
        panel = panel50["panel"]
        truth = panel50["truth"]
        params = np.concatenate([truth, [0.0, 0.0]])
        g = msl_gradient(params, panel, small_mixing(n_draws=50))
        np.testing.assert_allclose(g[:38], mnl_gradient(truth, panel),
                                   atol=1e-8)

    def test_single_draw_sits_at_the_median(self, design32):
        # one respondent, drop=0, one draw, one random parameter: Halton
        # index 1 in base 2 is u=0.5, whose normal quantile is exactly
        # zero, so any sd leaves the likelihood at its no-mixing value
        cfg, dataset, panel, truth = simulated_panel(design32, 1, seed=2)
        mixing = MixingSpec(random_params=("asc_drone",),
                            halton=HaltonConfig(primes=(2,), n_draws=1,
                                                drop=0))
        params = np.concatenate([truth, [2.0]])
        assert msl_loglik(params, panel, mixing) == pytest.approx(
            mnl_loglik(truth, panel), abs=1e-12)

    @pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
    def test_matches_per_respondent_loop(self, panel_fixture, request, rng):
        # independent oracle: for each respondent and draw, the product of
        # per-task mnl_probabilities with the random columns' coefficients
        # shifted by sd*z, averaged over draws
        panel = request.getfixturevalue(panel_fixture)["panel"]
        mixing = small_mixing(n_draws=20)
        rp = panel.index.positions(ASC_MIX)
        z = make_draws(mixing, panel.n_respondents)
        x = np.concatenate([rng.normal(scale=0.5, size=38), [1.3, 0.7]])
        want = 0.0
        for n in range(panel.n_respondents):
            prod = np.ones(mixing.halton.n_draws)
            for r, z_nr in enumerate(z[n]):
                beta = x[:38].copy()
                beta[rp] += x[38:] * z_nr
                for t in np.flatnonzero(panel.task_respondent == n):
                    rows = panel.X[panel.task_ptr[t]:panel.task_ptr[t + 1]]
                    prod[r] *= mnl_probabilities(beta, rows)[
                        panel.chosen_row[t] - panel.task_ptr[t]]
            want += np.log(prod.mean())
        assert msl_loglik(x, panel, mixing) == pytest.approx(want, rel=1e-10, abs=0)

    def test_monte_carlo_oracle(self, oracle_toy):
        panel, truth = oracle_toy["panel"], oracle_toy["truth"]
        mixing = MixingSpec(random_params=ASC_MIX,
                            halton=HaltonConfig(n_draws=500, drop=10))
        ll_halton = msl_loglik(truth, panel, mixing)
        mc = np.random.default_rng(123).standard_normal((8, 100000, 2))
        ll_mc = msl_loglik(truth, panel, mixing, draws=mc)
        assert abs(ll_halton - ll_mc) < 0.05


class TestInvariances:
    def test_antithetic_sign_invariance_is_exact(self, mixed_panel40):
        panel = mixed_panel40["panel"]
        truth = mixed_panel40["truth"]
        mixing = small_mixing(n_draws=100, antithetic=True)
        plus = msl_loglik(truth, panel, mixing)
        flipped = truth.copy()
        flipped[-2:] = -flipped[-2:]
        minus = msl_loglik(flipped, panel, mixing)
        assert plus == minus  # bitwise, not approximately

    def test_draws_are_fixed_across_calls(self, mixed_panel40):
        panel = mixed_panel40["panel"]
        truth = mixed_panel40["truth"]
        a = msl_loglik(truth, panel, small_mixing())
        b = msl_loglik(truth, panel, small_mixing())
        assert a == b

    def test_thread_count_does_not_change_bits(self, mixed_panel40):
        panel = mixed_panel40["panel"]
        truth = mixed_panel40["truth"]
        one = msl_loglik(truth, panel, small_mixing(), n_threads=1)
        four = msl_loglik(truth, panel, small_mixing(), n_threads=4)
        assert one == four
        g1 = msl_gradient(truth, panel, small_mixing(), n_threads=1)
        g4 = msl_gradient(truth, panel, small_mixing(), n_threads=4)
        np.testing.assert_array_equal(g1, g4)

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(order=st.permutations(range(50)))
    def test_respondent_order_does_not_matter(self, ragged_panel, order):
        # re-coding the respondents in another order, with their draws
        # permuted alike, moves the short respondent's padded tasks
        dataset, panel = ragged_panel["dataset"], ragged_panel["panel"]
        mixing = small_mixing(n_draws=20)
        z = make_draws(mixing, panel.n_respondents)
        x = np.concatenate([ragged_panel["truth"], [1.2, 0.8]])
        shuffled = code_dataset(
            replace(dataset, respondents=tuple(dataset.respondents[i] for i in order)),
            panel.index)
        assert msl_loglik(x, shuffled, mixing, draws=z[order]) == pytest.approx(
            msl_loglik(x, panel, mixing, draws=z), rel=1e-12, abs=0)

    def test_thread_env_is_not_read(self, mixed_panel40, monkeypatch):
        panel, truth = mixed_panel40["panel"], mixed_panel40["truth"]
        unset_ll = msl_loglik(truth, panel, small_mixing())
        unset_fit = estimate_mmnl(panel, small_mixing(), start=truth)
        monkeypatch.setenv("DCE_THREADS", "zero")
        assert msl_loglik(truth, panel, small_mixing()) == unset_ll
        fit = estimate_mmnl(panel, small_mixing(), start=truth)
        np.testing.assert_array_equal(fit.params, unset_fit.params)
        assert fit.ll_final == unset_fit.ll_final


class TestGradient:
    @pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
    def test_matches_finite_differences(self, panel_fixture, request, rng):
        panel = request.getfixturevalue(panel_fixture)["panel"]
        mixing = small_mixing(n_draws=16)
        for _ in range(10):
            x = np.concatenate([rng.normal(scale=0.4, size=38),
                                rng.uniform(0.2, 1.5, size=2)])
            g = msl_gradient(x, panel, mixing)
            fd = finite_diff_grad(lambda v: msl_loglik(v, panel, mixing), x)
            denom = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) / denom < 1e-5

    def test_nan_parameter_names_the_task(self, panel50, ragged_panel):
        for fixture in (panel50, ragged_panel):
            panel = fixture["panel"]
            params = np.concatenate([fixture["truth"], [np.nan, 0.5]])
            with pytest.raises(EstimationError) as err:
                msl_loglik(params, panel, small_mixing(n_draws=10))
            assert err.value.code == "non_finite_utility"
            assert "task index 0" in str(err.value)
            # a non-finite cell later in the panel (in ragged_panel, after
            # the respondent with 6 tasks) is located to its own task, and
            # one in row 0 to task 0, never to a padded (respondent, task)
            for row, task in ((panel.task_ptr[13] + 1, 13), (0, 0)):
                X = panel.X.copy()
                X[row, 0] = np.nan
                with pytest.raises(EstimationError) as err:
                    msl_loglik(np.concatenate([fixture["truth"], [0.8, 0.5]]),
                               replace(panel, X=X), small_mixing(n_draws=10))
                assert err.value.code == "non_finite_utility"
                assert f"task index {task}" in str(err.value)

    def test_nan_in_a_later_block_names_its_own_task(self, panel50):
        # at 64 draws a kernel block holds 16 respondents, so respondents 20
        # and 37 sit in the second and third blocks
        panel = panel50["panel"]
        mixing = small_mixing(n_draws=64)
        params = np.concatenate([panel50["truth"], [0.8, 0.5]])
        assert _work(panel, mixing, None).blocks[1] == (16, 32)
        for respondent, pos, offset in ((20, 2, 1), (37, 5, 0)):
            task = int(np.flatnonzero(panel.task_respondent == respondent)[pos])
            X = panel.X.copy()
            X[panel.task_ptr[task] + offset, 0] = np.nan
            bad = replace(panel, X=X)
            for evaluate in (lambda: msl_loglik(params, bad, mixing),
                             lambda: _work(bad, mixing, None).hessian(params)):
                with pytest.raises(EstimationError) as err:
                    evaluate()
                assert err.value.code == "non_finite_utility"
                assert str(err.value).endswith(f"task index {task}")

    def test_parameter_count_checked(self, panel50):
        with pytest.raises(EstimationError) as err:
            msl_loglik(np.zeros(39), panel50["panel"], small_mixing())
        assert err.value.code == "parameter_mismatch"

    def test_draw_shape_checked(self, panel50):
        bad = np.zeros((50, 10, 3))
        with pytest.raises(EstimationError) as err:
            msl_loglik(np.zeros(40), panel50["panel"], small_mixing(),
                       draws=bad)
        assert err.value.code == "draw_shape_mismatch"


@pytest.fixture(scope="module")
def fitted(mixed_panel40):
    return estimate_mmnl(mixed_panel40["panel"], small_mixing(n_draws=100))


class TestEstimation:
    def test_converges_with_positive_sds(self, fitted):
        assert fitted.converged
        assert fitted.model == "mmnl"
        assert np.all(fitted.params[-2:] > 0)
        assert fitted.mixing == small_mixing(n_draws=100)
        assert fitted.mixing.n_draws == 100

    def test_heterogeneity_detected_by_lr(self, fitted, mixed_panel40):
        mnl = estimate_mnl(mixed_panel40["panel"])
        test = lr_test(mnl.ll_final, fitted.ll_final, df=2)
        assert test.statistic > 5.99
        assert test.p_value < 0.05

    def test_trace_is_non_decreasing(self, fitted):
        ll = fitted.trace.ll
        assert len(ll) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))
        assert ll[-1] == pytest.approx(fitted.ll_final, abs=1e-6)

    def test_sds_near_truth(self, fitted, mixed_panel40):
        truth = mixed_panel40["truth"]
        sd_hat = fitted.params[-2:]
        se = fitted.std_errors[-2:]
        assert np.all(np.abs(sd_hat - truth[-2:]) <= 3.5 * se)

    def test_negative_sd_estimate_is_reported_at_its_absolute_value(
            self, fitted, mixed_panel40):
        # from negative sds the optimizer ends at negative sds; without
        # antithetic draws the likelihood there differs from the one at the
        # reported absolute values, so the fit's log likelihood and standard
        # errors must be recomputed at the reported point
        panel = mixed_panel40["panel"]
        mixing = small_mixing(n_draws=100)
        start = fitted.params.copy()
        start[-2:] = -start[-2:]
        flipped = estimate_mmnl(panel, mixing, start=start)
        assert flipped.converged
        assert np.all(flipped.params[-2:] > 0)
        assert flipped.trace.ll[-1] != flipped.ll_final
        assert flipped.ll_final == msl_loglik(flipped.params, panel, mixing)
        work = _work(panel, mixing, None)
        se, _ = _inference(work.hessian(flipped.params)[2], flipped.params)
        np.testing.assert_array_equal(flipped.std_errors, se)

    def test_reaches_the_higher_of_two_maxima(self):
        # This 40-respondent, 16-draw simulated likelihood has two local
        # maxima, and the negative Hessian is positive definite at both.
        # From the MNL warm start, BFGS with a strong Wolfe line search
        # stopped at the lower one, whose log likelihood is pinned here; the
        # Newton fit must reach the higher one (ll -219.05).
        lower_maximum_ll = -219.1044559443694
        schema = table4_labels_schema()
        design = block_design(select_fraction(schema, 32, seed=0, iters=50, restarts=2),
                              4, seed=0)
        uniform = {a.name: {label: 1.0 / a.n_levels for label in a.level_labels()}
                   for a in schema.demographic_attributes()}
        mixing = small_mixing(n_draws=16)
        panel = code_dataset(simulate_dataset(SimConfig(
            schema=schema, design=design, true_params=table4_mmnl().params,
            mixing=mixing, n_respondents=40, seed=1, demographic_weights=uniform)))
        newton = estimate_mmnl(panel, mixing)
        assert newton.converged
        assert newton.ll_final > lower_maximum_ll + 0.05
        np.linalg.cholesky(_work(panel, mixing, None).hessian(newton.params)[2])

    def test_no_random_params(self, panel50):
        with pytest.raises(EstimationError) as err:
            estimate_mmnl(panel50["panel"], MixingSpec(random_params=()))
        assert err.value.code == "no_random_params"

    def test_start_does_not_skip_the_identification_check(self, mixed_panel40):
        # with nobody aged 35-54 (the effects base) or 75+, the 75+ columns
        # are zero in every row; the fit must refuse with or without a start
        cfg = mixed_panel40["cfg"]
        ages = {"age_18_34": 0.5, "age_55_74": 0.5, "age_75_plus": 0.0, "age_35_54": 0.0}
        panel = code_dataset(simulate_dataset(
            replace(cfg, demographic_weights={"age_group": ages})))
        for start in (None, mixed_panel40["truth"]):
            with pytest.raises(EstimationError) as err:
                estimate_mmnl(panel, small_mixing(n_draws=16), start=start)
            assert err.value.code == "degenerate_column"
            assert "age_75_plus" in err.value.message

    def test_index_names_panel_mismatch(self, panel50):
        panel = panel50["panel"]
        other = small_mixing()
        # the panel's index has no sd entries; estimate_mmnl builds its own
        # and cross-checks the fixed part, so a doctored panel index fails
        res_index = build_parameter_index(panel.schema, ASC_MIX)
        assert list(res_index.names()[:38]) == list(panel.index.names())


class TestPredict:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_agrees_with_the_kernel(self, mixed_panel40, antithetic):
        # on one respondent's one task, the log of the predicted share of
        # the chosen alternative is the simulated log likelihood
        panel = mixed_panel40["panel"]
        params = mixed_panel40["truth"]
        mixing = small_mixing(n_draws=50, antithetic=antithetic)
        n_j = int(panel.task_sizes[0])
        rows = panel.X[:n_j]
        one = replace(panel, X=rows, task_ptr=np.array([0, n_j]),
                      row_task=np.zeros(n_j, dtype=np.intp),
                      task_respondent=np.zeros(1, dtype=np.intp),
                      respondent_ids=panel.respondent_ids[:1],
                      row_alternative=panel.row_alternative[:n_j])
        p = mmnl_predict(params, rows, mixing, index=panel.index)
        for j in range(n_j):
            ll = msl_loglik(params, replace(one, chosen_row=np.array([j])), mixing)
            assert abs(np.log(p[j]) - ll) <= 1e-12

    def test_rows_on_simplex(self, panel50):
        panel = panel50["panel"]
        truth = panel50["truth"]
        rows = panel.X[:3]
        params = np.concatenate([truth, [0.8, 0.6]])
        p = mmnl_predict(params, rows, small_mixing(n_draws=200), index=panel.index)
        assert p.shape == (3,)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_random_params_is_mnl(self, panel50):
        panel = panel50["panel"]
        truth = panel50["truth"]
        rows = panel.X[:3]
        mixing = MixingSpec(random_params=(), halton=HaltonConfig(n_draws=50))
        p = mmnl_predict(truth, rows, mixing)
        np.testing.assert_allclose(p, mnl_probabilities(truth, rows),
                                   atol=1e-12)

    def test_missing_index(self, panel50):
        truth = panel50["truth"]
        params = np.concatenate([truth, [0.8, 0.6]])
        with pytest.raises(EstimationError) as err:
            mmnl_predict(params, panel50["panel"].X[:3], small_mixing(n_draws=50))
        assert err.value.code == "missing_index"

    @pytest.mark.parametrize("bad", ["sd", "mean"])
    def test_non_finite_utility_raises(self, panel50, bad):
        # NaN, not inf: 0 * inf in the utility product would warn first
        panel = panel50["panel"]
        params = np.concatenate([panel50["truth"], [0.8, 0.6]])
        params[-1 if bad == "sd" else 0] = np.nan
        with pytest.raises(EstimationError) as err:
            mmnl_predict(params, panel.X[:3], small_mixing(n_draws=50), index=panel.index)
        assert err.value.code == "non_finite_utility"
        if bad == "mean":
            with pytest.raises(EstimationError) as err:
                mnl_probabilities(params[:panel.X.shape[1]], panel.X[:3])
            assert err.value.code == "non_finite_utility"
