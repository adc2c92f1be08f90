"""The kernel's analytic Hessian against finite differences of its gradient,
and the score it returns against the gradient pass."""

from dataclasses import replace

import numpy as np
import pytest

from dce import (HaltonConfig, MixingSpec, code_dataset, estimate_mmnl,
                 estimate_mnl, hessian_from_grad)
from dce.mmnl import _work
from dce.mnl import _mnl_work

MODELS = {
    "mnl": None,
    "mmnl": MixingSpec(halton=HaltonConfig(n_draws=16)),
    "mmnl_antithetic": MixingSpec(halton=HaltonConfig(n_draws=16), antithetic=True),
}

AGES = ("age_18_34", "age_55_74", "age_75_plus", "age_35_54")


def kernel(panel, mixing, n_threads=1):
    return _mnl_work(panel) if mixing is None else _work(panel, mixing, None, n_threads)


@pytest.fixture(scope="module")
def optimum(request):
    """Fitted point per (model, panel fixture), fitted once."""
    cache = {}

    def get(model, panel_fixture):
        if (model, panel_fixture) not in cache:
            panel = request.getfixturevalue(panel_fixture)["panel"]
            mixing = MODELS[model]
            res = (estimate_mnl(panel) if mixing is None
                   else estimate_mmnl(panel, mixing, n_threads=1))
            assert res.converged
            cache[model, panel_fixture] = res.params
        return cache[model, panel_fixture]
    return get


@pytest.mark.parametrize("at", ["optimum", "away"])
@pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
@pytest.mark.parametrize("model", MODELS)
def test_matches_finite_differences(model, panel_fixture, at, request, optimum):
    panel = request.getfixturevalue(panel_fixture)["panel"]
    work = kernel(panel, MODELS[model])
    x = optimum(model, panel_fixture)
    if at == "away":
        x = x + np.random.default_rng(7).normal(scale=0.3, size=x.size)
    ll, _, H = work.hessian(x)
    assert ll == work.loglik(x)
    fd = hessian_from_grad(lambda v: -work.loglik_and_gradient(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))
    np.testing.assert_array_equal(H, H.T)


@pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
@pytest.mark.parametrize("model", MODELS)
def test_score_matches_gradient_pass(model, panel_fixture, request, optimum):
    panel = request.getfixturevalue(panel_fixture)["panel"]
    work = kernel(panel, MODELS[model])
    x = optimum(model, panel_fixture)
    x = x + np.random.default_rng(7).normal(scale=0.3, size=x.size)
    _, grad, _ = work.hessian(x)
    want = work.loglik_and_gradient(x)[1]
    assert np.max(np.abs(grad - want)) <= 1e-10 * np.max(np.abs(want))


def test_thread_count_does_not_change_bits(mixed_panel40):
    panel = mixed_panel40["panel"]
    x = mixed_panel40["truth"]
    mixing = MixingSpec(halton=HaltonConfig(n_draws=100))
    one = kernel(panel, mixing, n_threads=1)
    four = kernel(panel, mixing, n_threads=4)
    assert len(one.blocks) > 1 and len(one.chunks) > 1
    for a, b in zip(one.hessian(x), four.hessian(x)):
        np.testing.assert_array_equal(a, b)


def test_fit_does_not_depend_on_thread_count(mixed_panel40):
    panel = mixed_panel40["panel"]
    mixing = MixingSpec(halton=HaltonConfig(n_draws=100))
    one = estimate_mmnl(panel, mixing, n_threads=1)
    four = estimate_mmnl(panel, mixing, n_threads=4)
    assert one.converged
    np.testing.assert_array_equal(one.params, four.params)
    np.testing.assert_array_equal(one.std_errors, four.std_errors)
    assert one.ll_final == four.ll_final
    assert one.trace.ll == four.trace.ll


@pytest.mark.parametrize("absent", AGES)
def test_absent_demographic_level_gives_no_standard_errors(panel50, absent):
    # with one age level unused, the age block's effects-coded columns and
    # the ASC are collinear, so the information matrix is singular
    dataset = panel50["dataset"]
    ages = [a for a in AGES if a != absent]
    respondents = tuple(
        replace(r, demographics={**r.demographics, "age_group": ages[i % 3]})
        for i, r in enumerate(dataset.respondents))
    result = estimate_mnl(code_dataset(replace(dataset, respondents=respondents)))
    assert result.converged
    assert result.std_errors is None and result.p_values is None
