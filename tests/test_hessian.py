"""The kernel's analytic Hessian against finite differences of its gradient
and against the per-draw score form, and the score it returns against the
gradient pass."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dce import HaltonConfig, MixingSpec, code_dataset, estimate_mmnl, estimate_mnl
from dce.mmnl import _work
from dce.mnl import _mnl_work
from helpers import finite_diff_grad, hessian_from_grad, hessian_oracle, simulated_panel

MODELS = {
    "mnl": None,
    "mmnl": MixingSpec(halton=HaltonConfig(n_draws=16)),
    "mmnl_antithetic": MixingSpec(halton=HaltonConfig(n_draws=16), antithetic=True),
}

AGES = ("age_18_34", "age_55_74", "age_75_plus", "age_35_54")


def kernel(panel, mixing):
    return _mnl_work(panel) if mixing is None else _work(panel, mixing, None)


@pytest.fixture(scope="module")
def optimum(request):
    """Fitted point per (model, panel fixture), fitted once."""
    cache = {}

    def get(model, panel_fixture):
        if (model, panel_fixture) not in cache:
            panel = request.getfixturevalue(panel_fixture)["panel"]
            mixing = MODELS[model]
            res = (estimate_mnl(panel) if mixing is None
                   else estimate_mmnl(panel, mixing))
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


@pytest.fixture(scope="module")
def study_panel264(design32):
    """264 respondents x 8 tasks with normal ASC mixing, the benchmark's size."""
    _, _, panel, truth = simulated_panel(design32, 264, seed=5, sds=(1.2, 1.0))
    return {"panel": panel, "truth": truth}


ORACLE_CASES = {
    "panel50-mnl": ("panel50", None),
    "ragged-mnl": ("ragged_panel", None),
    "ragged-mmnl16": ("ragged_panel", MODELS["mmnl"]),
    "mixed40-mmnl100": ("mixed_panel40", MixingSpec(halton=HaltonConfig(n_draws=100))),
    "mixed40-antithetic100": ("mixed_panel40", MixingSpec(halton=HaltonConfig(n_draws=100),
                                                          antithetic=True)),
    "study264-mmnl128": ("study_panel264", MixingSpec(halton=HaltonConfig(n_draws=128))),
}


@pytest.mark.parametrize("scale", [1, 80])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_matches_per_draw_score_oracle(case, scale, request):
    # at 80 times the truth some respondents' chosen log products run to
    # the thousands, where G - q q' and the draw weights lose the most
    panel_fixture, mixing = ORACLE_CASES[case]
    fixture = request.getfixturevalue(panel_fixture)
    panel, x = fixture["panel"], fixture["truth"]
    if mixing is not None and x.size == panel.X.shape[1]:
        x = np.concatenate([x, [1.2, 0.8]])
    x = scale * x
    work = kernel(panel, mixing)
    ll, grad, H = work.hessian(x)
    ll_want, grad_want, H_want = hessian_oracle(work, x)
    assert ll == ll_want
    assert np.max(np.abs(grad - grad_want)) <= 1e-12 * np.max(np.abs(grad_want))
    assert np.max(np.abs(H - H_want)) <= 1e-12 * np.max(np.abs(H_want))


@pytest.mark.parametrize("model", MODELS)
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), far=st.booleans())
@example(seed=0, far=True)
def test_derivatives_match_finite_differences_anywhere(model, mixed_panel40, seed, far):
    # a far point is doubled until some respondent's chosen log product,
    # under some draw, is below -700, near where its exp underflows
    panel = mixed_panel40["panel"]
    mixing = MODELS[model]
    work = kernel(panel, mixing)
    x = mixed_panel40["truth"][:work.panel.X.shape[1] + len(work.rp)]
    x = x + np.random.default_rng(seed).normal(scale=0.3, size=x.size)
    while far and work.loglik_parts(x, need_probs=False).min() >= -700:
        x = 2 * x
    _, grad, H = work.hessian(x)
    fd_grad = finite_diff_grad(work.loglik, x)
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(fd_grad))
    fd = hessian_from_grad(lambda v: -work.loglik_and_gradient(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.fixture(scope="module")
def droneless_panel(panel50):
    """panel50 with one task that lacks the schema's first alternative, so
    its first cell, the Hessian's reference, is another alternative's; and
    one respondent who answered 5 of 8 tasks, so three of theirs are padded."""
    dataset = panel50["dataset"]
    first, second, *rest = dataset.respondents
    t, obs = next((t, o) for t, o in enumerate(second.observations) if o.chosen != "drone")
    obs = replace(obs, alt_values={a: v for a, v in obs.alt_values.items() if a != "drone"})
    observations = (*second.observations[:t], obs, *second.observations[t + 1:])
    respondents = (replace(first, observations=first.observations[:5]),
                   replace(second, observations=observations), *rest)
    panel = code_dataset(replace(dataset, respondents=respondents))
    assert panel.row_alternative[panel.task_ptr[5 + t]] == "truck"
    assert panel.task_sizes[5 + t] == 2
    return panel


@pytest.mark.parametrize("model", ["mnl", "mmnl_antithetic"])
def test_first_cell_without_the_first_alternative(model, droneless_panel, panel50):
    mixing = MODELS[model]
    work = kernel(droneless_panel, mixing)
    x = panel50["truth"] if mixing is None else np.concatenate([panel50["truth"], [1.2, 0.8]])
    x = x + np.random.default_rng(3).normal(scale=0.3, size=x.size)
    ll, grad, H = work.hessian(x)
    ll_want, grad_want, H_want = hessian_oracle(work, x)
    assert ll == ll_want
    assert np.max(np.abs(grad - grad_want)) <= 1e-12 * np.max(np.abs(grad_want))
    assert np.max(np.abs(H - H_want)) <= 1e-12 * np.max(np.abs(H_want))
    want = work.loglik_and_gradient(x)[1]
    assert np.max(np.abs(grad - want)) <= 1e-10 * np.max(np.abs(want))
    fd = hessian_from_grad(lambda v: -work.loglik_and_gradient(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))
