"""Mixed logit: simulated likelihood, gradients, estimation."""

import hashlib
import os
from dataclasses import fields, replace

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
    mnl_loglik,
    msl_gradient,
    msl_loglik,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mmnl,
)

from dce import mnl
from dce.mmnl import _work
from dce.mnl import _fit, _inference
from helpers import (finite_diff_grad, inv_normal_cdf, mnl_probabilities, mnl_score, simulated_panel,
                     traced_peak)

ASC_MIX = ("asc_drone", "asc_truck")


def small_mixing(n_draws=100, drop=10, antithetic=False):
    return MixingSpec(random_params=ASC_MIX,
                      halton=HaltonConfig(n_draws=n_draws, drop=drop),
                      antithetic=antithetic)


def fit_from(panel, mixing, start):
    """estimate_mmnl's fit started at ``start`` in place of the MNL warm
    start: the result (as an MNL one) and the log likelihood path."""
    index = build_parameter_index(panel.schema, mixing.random_params)
    return _fit(panel, _work(panel, mixing, None), index, start)


@pytest.fixture(scope="module")
def oracle_toy(design32):
    """8-respondent panel whose Halton-vs-Monte-Carlo gap is frozen small."""
    cfg, dataset, panel, truth = simulated_panel(
        design32, 8, seed=5, sds=(1.5, 1.241))
    return {"panel": panel, "truth": truth}


def blocked_outputs(dataset, mixing, x):
    """The bytes of ``loglik``'s and ``hessian``'s outputs at ``x`` and of
    a fit's params, SEs and ll, for the MNL when ``mixing`` is None, each
    from a freshly coded panel under the kernel's current block sizes."""
    panel = code_dataset(dataset)
    if mixing is None:
        work, fit = mnl._MslWork(panel), estimate_mnl(code_dataset(dataset))
    else:
        work, fit = _work(panel, mixing, None), estimate_mmnl(code_dataset(dataset), mixing)
    return [np.asarray(v).tobytes() for v in (work.loglik(x), *work.hessian(x), fit.params,
                                              fit.std_errors, fit.ll_final)]


@pytest.fixture(scope="module")
def blocking_cases(panel50, mixed_panel40, ragged_panel):
    """Case -> (dataset, mixing, parameters, ``blocked_outputs`` at the
    default block sizes). Each mixed case spans two default blocks."""
    cases = {"mnl": (panel50, None, panel50["truth"]),
             "mmnl": (mixed_panel40, small_mixing(n_draws=100), mixed_panel40["truth"]),
             "antithetic": (mixed_panel40, small_mixing(n_draws=100, antithetic=True),
                            mixed_panel40["truth"]),
             "ragged": (ragged_panel, small_mixing(n_draws=64),
                        np.concatenate([ragged_panel["truth"], [1.2, 0.8]]))}
    return {case: (fixture["dataset"], mixing, x, blocked_outputs(fixture["dataset"], mixing, x))
            for case, (fixture, mixing, x) in cases.items()}


class TestMixingSpec:
    def test_validation_codes(self):
        with pytest.raises(EstimationError) as err:
            MixingSpec(random_params=("asc_drone", "asc_drone"))
        assert err.value.code == "duplicate_random_param"

        with pytest.raises(EstimationError) as err:
            MixingSpec(antithetic=True,
                       halton=HaltonConfig(n_draws=501))
        assert err.value.code == "odd_draw_count"

    @pytest.mark.parametrize("kwargs, code", [
        # a fit would run and save, and then its result file would not load
        ({"antithetic": "yes"}, "bad_antithetic"),
        ({"antithetic": 1}, "bad_antithetic"),
        # the result would not save
        ({"antithetic": np.bool_(True)}, "bad_antithetic"),
        ({"halton": None}, "bad_halton"),
        ({"halton": {"n_draws": 10}}, "bad_halton"),
        # a bare string would be read as one-letter names
        ({"random_params": "asc_drone"}, "bad_random_params"),
        ({"random_params": ("asc_drone", 2)}, "bad_random_params"),
        ({"random_params": None}, "bad_random_params"),
    ])
    def test_fields_of_the_wrong_type_are_typed(self, kwargs, code):
        with pytest.raises(EstimationError) as err:
            MixingSpec(**kwargs)
        assert err.value.code == code

    def test_a_list_of_names_is_held_as_a_tuple(self):
        assert MixingSpec(random_params=list(ASC_MIX)) == MixingSpec(random_params=ASC_MIX)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n", [-1, 2.5, "3"])
    def test_make_draws_refuses_a_bad_respondent_count(self, n, antithetic):
        with pytest.raises(EstimationError) as err:
            make_draws(small_mixing(n_draws=4, antithetic=antithetic), n)
        assert err.value.code == "bad_respondent_count"

    def test_make_draws_of_no_respondents(self):
        assert make_draws(small_mixing(n_draws=4), np.int64(0)).shape == (0, 4, 2)

    def test_make_draws_shape(self):
        z = make_draws(small_mixing(n_draws=40), 7)
        assert z.shape == (7, 40, 2)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_a_third_random_param_draws_in_base_5(self, antithetic):
        three = MixingSpec(random_params=(*ASC_MIX, "social_influence:neighbor_30"),
                           halton=HaltonConfig(n_draws=40), antithetic=antithetic)
        assert three.primes == (2, 3, 5)
        z = make_draws(three, 7)
        assert z.shape == (7, 40, 3)
        # the first two columns are the two-parameter draws, bit for bit
        np.testing.assert_array_equal(z[:, :, :2],
                                      make_draws(small_mixing(40, 10, antithetic), 7))
        # past drop=10 the first point is index 11, "21" in base 5: 1/5 + 2/25
        assert z[0, 0, 2] == pytest.approx(inv_normal_cdf(7 / 25), abs=1e-15)

    def test_antithetic_pairs(self):
        z = make_draws(small_mixing(n_draws=40, antithetic=True), 3)
        np.testing.assert_array_equal(z[:, 0::2, :], -z[:, 1::2, :])

    # SHA-256 of the draws' bytes, frozen from the AS 241 quantiles of the
    # correctly rounded digit table: (respondents, draws, antithetic) -> digest
    DIGESTS = {
        (40, 100, False): "ec60461b996ae4fda2c74d17c871970f7043ba919077e17410527fcbc952efbe",
        (264, 128, False): "a2e40b980c956e77e44cd116d5aedc628ac99807328f9411da314d65711af03f",
        (528, 500, True): "9611db2e36d84ad3cca47f79b85784a27e3bcf88c751707e725044c214abc3f4",
    }

    @pytest.mark.parametrize("case", DIGESTS)
    def test_draws_keep_their_bits(self, case):
        n, n_draws, antithetic = case
        z = make_draws(MixingSpec(halton=HaltonConfig(n_draws=n_draws), antithetic=antithetic), n)
        assert hashlib.sha256(z.tobytes()).hexdigest() == self.DIGESTS[case]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_draws_are_the_kernels_layout(self, mixed_panel40, antithetic):
        # (respondent, draw, dim) over an (respondent, dim, draw) array: the
        # kernel's draws are that array, not a copy
        mixing = small_mixing(n_draws=16, antithetic=antithetic)
        z = make_draws(mixing, mixed_panel40["panel"].n_respondents)
        assert z.transpose(0, 2, 1).flags.c_contiguous
        assert np.shares_memory(_work(mixed_panel40["panel"], mixing, z).z, z)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_paper_scale_draws_peak_at_twice_their_size(self, antithetic):
        # built a slice at a time: no full-size uniform matrix, list of
        # floats or intermediate is held beside the result
        mixing = MixingSpec(halton=HaltonConfig(n_draws=500), antithetic=antithetic)
        z, peak = traced_peak(lambda: make_draws(mixing, 528))
        assert peak <= 2 * z.nbytes


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
        np.testing.assert_allclose(g[:38], mnl_score(truth, panel),
                                   atol=1e-8)

    def test_single_draw_sits_at_the_median(self, design32):
        # one respondent, drop=0, one draw, one random parameter: Halton
        # index 1 in base 2 is u=0.5, whose normal quantile is exactly
        # zero, so any sd leaves the likelihood at its no-mixing value
        cfg, dataset, panel, truth = simulated_panel(design32, 1, seed=2)
        mixing = MixingSpec(random_params=("asc_drone",),
                            halton=HaltonConfig(n_draws=1, drop=0))
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
            replace(dataset, respondents=tuple(dataset.respondents[i] for i in order)))
        assert msl_loglik(x, shuffled, mixing, draws=z[order]) == pytest.approx(
            msl_loglik(x, panel, mixing, draws=z), rel=1e-12, abs=0)

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(n=st.integers(1, 49))
    def test_respondents_added_later_leave_earlier_terms_unchanged(self, ragged_panel, n):
        # a respondent's draws are its own slice of the Halton sequence, so
        # the first n respondents, fitted alone, get the draws they get among
        # all 50; at 128 draws a kernel block holds 16 respondents, so the
        # split falls inside or between blocks
        dataset, panel = ragged_panel["dataset"], ragged_panel["panel"]
        mixing = small_mixing(n_draws=128)
        x = np.concatenate([ragged_panel["truth"], [1.2, 0.8]])
        head, tail = (code_dataset(replace(dataset, respondents=part))
                      for part in (dataset.respondents[:n], dataset.respondents[n:]))
        later = make_draws(mixing, panel.n_respondents)[n:]
        assert msl_loglik(x, head, mixing) + msl_loglik(x, tail, mixing, draws=later) \
            == pytest.approx(msl_loglik(x, panel, mixing), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["mnl", "mmnl", "antithetic", "ragged"])
    @settings(derandomize=True, max_examples=10, deadline=None, database=None)
    @given(data=st.data())
    def test_block_sizes_do_not_move_bits(self, blocking_cases, case, data):
        # the score and Hessian are one sum over respondents in order, so
        # any blocking, from one respondent per block to the whole panel in
        # one, gives the default sizes' bytes
        dataset, mixing, x, want = blocking_cases[case]
        n_r, n_z = len(dataset.respondents), 1 if mixing is None else mixing.halton.n_draws
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mnl, "_BLOCK_CELLS", data.draw(st.integers(1, n_r * n_z)))
            # every panel here has 8 tasks x 2 cells per respondent
            patch.setattr(mnl, "_ONE_DRAW_CELLS", data.draw(st.integers(1, n_r * 16)))
            assert blocked_outputs(dataset, mixing, x) == want

    def test_thread_env_is_not_read(self, mixed_panel40, monkeypatch):
        panel, truth = mixed_panel40["panel"], mixed_panel40["truth"]
        unset_ll = msl_loglik(truth, panel, small_mixing())
        unset_fit = estimate_mmnl(panel, small_mixing())
        monkeypatch.setenv("DCE_THREADS", "zero")
        assert msl_loglik(truth, panel, small_mixing()) == unset_ll
        fit = estimate_mmnl(panel, small_mixing())
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
        # at 128 draws a kernel block holds 2,048 / 128 = 16 respondents, so
        # respondents 20 and 37 sit in the second and third blocks
        panel = panel50["panel"]
        mixing = small_mixing(n_draws=128)
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("position", [0, 5, 39], ids=["asc_drone", "mean", "sd"])
    def test_non_finite_parameter_is_typed(self, panel50, position, value):
        """asc_drone sits on each task's first row, the kernel's reference,
        so an infinite one makes every cell -inf while the reference stays 0.
        Every evaluation raises "non_finite_utility" naming the parameter,
        with no RuntimeWarning (an error under this suite's filter)."""
        panel = panel50["panel"]
        mixing = small_mixing(n_draws=16)
        params = np.concatenate([panel50["truth"], [0.8, 0.5]])
        params[position] = value
        k = panel.X.shape[1]
        evaluations = [lambda: msl_loglik(params, panel, mixing),
                       lambda: _work(panel, mixing, None).hessian(params)]
        if position < k:
            evaluations.append(lambda: mnl_loglik(params[:k], panel))
        for evaluate in evaluations:
            with pytest.raises(EstimationError) as err:
                evaluate()
            assert err.value.code == "non_finite_utility"
            assert f"parameter {position} is {value!r}" in str(err.value)

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
    # the 528 x 500 fit's optimum, frozen: 38 fixed coefficients, then the
    # two ASC sds
    PAPER_SCALE_PARAMS = [
        -0.5770552074509644, -0.5102205716647024, 0.24653131777261278, 0.04477985024905986,
        0.06777548700138981, -0.2791366976561968, -0.36548318764575805, 0.7049838885286842,
        0.39377249805105335, 0.1355481654467569, 0.014894548170979178, 0.1723587943881477,
        0.4368114666477615, 0.08512975929636786, -2.3374381130745405, -0.4792188547515104,
        0.6451529809529749, -2.1159018733920214, -0.30454877391064045, 0.36475679778755943,
        -1.5409684741327738, -0.6445978602847949, 0.4756706380618925, -0.01676101860983739,
        0.06973060915594785, -0.0781047703404101, 0.20633564430150145, 0.13785630704947205,
        0.09313782991341868, -0.3389595515120791, 0.007306568762295907, 0.15612123646553833,
        -0.07505266103354202, -0.16325050366815821, 0.1571561822620583, -0.11446555055864352,
        0.17547670343016486, -0.15553755349602305, 1.1973370296379964, 0.9535099825592352,
    ]

    def test_paper_scale_fit_peaks_under_11_mb(self, design32):
        # 528 x 8 tasks x 500 draws: the draws are 4.2 MB and the layout 2.6;
        # the MNL warm start shares the layout, the kernel holds the draws
        # without a copy, identification is checked without one and no block
        # array is allocated per call
        panel = simulated_panel(design32, 528, seed=5, sds=(1.2, 1.0))[2]
        mixing = MixingSpec(halton=HaltonConfig(n_draws=500))
        result, peak = traced_peak(lambda: estimate_mmnl(panel, mixing))
        assert result.converged
        assert peak <= 11e6
        assert (result.iterations, result.status) == (5, "gradient_converged")
        assert result.ll_final == pytest.approx(-3129.5922954791504, rel=1e-10, abs=0)
        np.testing.assert_allclose(result.params, self.PAPER_SCALE_PARAMS, rtol=0, atol=1e-10)

    def test_layout_is_built_once(self, mixed_panel40, monkeypatch):
        # the warm start and the mixed fit share one kernel: one pass over
        # the panel lays it out and records its identification
        calls = []
        build = mnl._MslWork.__init__
        monkeypatch.setattr(mnl._MslWork, "__init__",
                            lambda work, panel: calls.append(build(work, panel)))
        estimate_mmnl(mixed_panel40["panel"], small_mixing(n_draws=16))
        assert len(calls) == 1

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
        flipped, path = fit_from(panel, mixing, start)
        assert flipped.converged
        assert np.all(flipped.params[-2:] > 0)
        assert path[-1] != flipped.ll_final
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
        # are zero in every row; the fit must refuse from the MNL warm start
        # (whose own fit checks first) and from a given start
        cfg = mixed_panel40["cfg"]
        ages = {"age_18_34": 0.5, "age_55_74": 0.5, "age_75_plus": 0.0, "age_35_54": 0.0}
        panel = code_dataset(simulate_dataset(
            replace(cfg, demographic_weights={"age_group": ages})))
        mixing = small_mixing(n_draws=16)
        for fit in (lambda: estimate_mmnl(panel, mixing),
                    lambda: fit_from(panel, mixing, mixed_panel40["truth"])):
            with pytest.raises(EstimationError) as err:
                fit()
            assert err.value.code == "degenerate_column"
            assert "age_75_plus" in err.value.message

    def test_index_names_panel_mismatch(self, panel50):
        panel = panel50["panel"]
        other = small_mixing()
        # the panel's index has no sd entries; estimate_mmnl builds its own,
        # whose fixed part is the panel's
        res_index = build_parameter_index(panel.schema, ASC_MIX)
        assert list(res_index.names()[:38]) == list(panel.index.names())



class TestMnlRecord:
    """estimate_mnl records the panel's MNL optimum, and estimate_mmnl
    warm-starts from that record instead of fitting the MNL again."""

    @staticmethod
    def fresh(fixture):
        return code_dataset(fixture["dataset"])

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_mmnl_is_the_same_after_estimate_mnl(self, mixed_panel40, antithetic):
        mixing = small_mixing(n_draws=32, antithetic=antithetic)
        alone, after = self.fresh(mixed_panel40), self.fresh(mixed_panel40)
        want = estimate_mmnl(alone, mixing)
        mnl_fit = estimate_mnl(after)
        got = estimate_mmnl(after, mixing)
        assert got.params.tobytes() == want.params.tobytes()
        assert got.std_errors.tobytes() == want.std_errors.tobytes()
        assert got.p_values.tobytes() == want.p_values.tobytes()
        assert (got.ll_final, got.iterations, got.status, got.converged) == \
            (want.ll_final, want.iterations, want.status, want.converged)
        assert got.trace == want.trace
        # either estimator records the same optimum: estimate_mnl's params
        assert alone._mnl_params.tobytes() == after._mnl_params.tobytes() \
            == mnl_fit.params.tobytes()

    def test_mmnl_after_estimate_mnl_fits_no_mnl(self, mixed_panel40, monkeypatch):
        # a one-draw Hessian call is an MNL fit's iteration; the mixed fit
        # makes none
        calls = []
        block = mnl._MslWork._one_draw_block
        monkeypatch.setattr(mnl._MslWork, "_one_draw_block",
                            lambda work, *args: calls.append(1) or block(work, *args))
        mixing = small_mixing(n_draws=16)
        alone = self.fresh(mixed_panel40)
        estimate_mmnl(alone, mixing)
        assert calls
        panel = self.fresh(mixed_panel40)
        estimate_mnl(panel)
        calls.clear()
        estimate_mmnl(panel, mixing)
        assert calls == []

    def test_estimate_mnl_keeps_the_first_record(self, mixed_panel40):
        panel = self.fresh(mixed_panel40)
        first = estimate_mnl(panel)
        record = panel._mnl_params
        first.params[:] = 0.0  # a result is the caller's; the record is a copy
        second = estimate_mnl(panel)
        assert second is not first and second.params is not record
        assert panel._mnl_params is record
        assert record.tobytes() == second.params.tobytes()

    @pytest.mark.parametrize("name", ["X", "task_ptr", "row_task", "chosen_row",
                                      "task_respondent", "_mnl_params"])
    def test_panel_arrays_are_read_only(self, mixed_panel40, name):
        panel = self.fresh(mixed_panel40)
        estimate_mnl(panel)
        array = getattr(panel, name)
        with pytest.raises(ValueError):
            array[0] = array[0]
        with pytest.raises(ValueError):
            array += 0

    def test_replaced_panel_has_no_record(self, mixed_panel40):
        panel = self.fresh(mixed_panel40)
        assert panel._mnl_params is None
        estimate_mnl(panel)
        assert panel._mnl_params is not None
        assert replace(panel)._mnl_params is None
        assert replace(panel, X=panel.X.copy())._mnl_params is None
        # nor is it an argument, or part of equality or repr
        record = {f.name: f for f in fields(panel)}["_mnl_params"]
        assert not (record.init or record.compare or record.repr)
