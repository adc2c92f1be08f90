"""The kernel's analytic Hessian against finite differences of its score
and against the per-draw score form, and the score it returns against that
form's."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dce import HaltonConfig, MixingSpec, code_dataset, estimate_mmnl, estimate_mnl, mnl
from dce.mmnl import _work
from dce.mnl import _MslWork
from dce.errors import EstimationError
from helpers import (finite_diff_grad, hessian_from_grad, hessian_oracle, simulated_panel,
                     traced_peak)

MODELS = {
    "mnl": None,
    "mmnl": MixingSpec(halton=HaltonConfig(n_draws=16)),
    "mmnl_antithetic": MixingSpec(halton=HaltonConfig(n_draws=16), antithetic=True),
}

AGES = ("age_18_34", "age_55_74", "age_75_plus", "age_35_54")


def kernel(panel, mixing):
    return _MslWork(panel) if mixing is None else _work(panel, mixing, None)


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
    fd = hessian_from_grad(lambda v: -work.hessian(v)[1], x)
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
    want = hessian_oracle(work, x)[1]
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
    assert ll == work.loglik(x)
    ll_want, grad_want, H_want = hessian_oracle(work, x)
    assert abs(ll - ll_want) <= 1e-12 * abs(ll_want)
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
    while far and min(work._tile(*work._split(x), n0, n1)[0].min()
                      for n0, n1 in work.blocks) >= -700:
        x = 2 * x
    _, grad, H = work.hessian(x)
    fd_grad = finite_diff_grad(work.loglik, x)
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(fd_grad))
    fd = hessian_from_grad(lambda v: -work.hessian(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), n_draws=st.sampled_from([16, 100, 128]))
def test_flipping_every_sd_negates_only_the_sd_derivatives(mixed_panel40, seed, n_draws):
    # with antithetic draws, -sd turns each draw into its pair's other
    # member, so the likelihood is unmoved and each sd's derivatives flip
    # sign. All sds flip together: a pair negates every dimension at once
    panel = mixed_panel40["panel"]
    work = kernel(panel, MixingSpec(halton=HaltonConfig(n_draws=n_draws), antithetic=True))
    x = mixed_panel40["truth"]
    x = x + np.random.default_rng(seed).normal(scale=0.3, size=x.size)
    flip = np.ones(x.size)
    flip[panel.X.shape[1]:] = -1
    ll, grad, H = work.hessian(x)
    ll_flip, grad_flip, H_flip = work.hessian(flip * x)
    assert ll_flip == ll
    assert work.loglik(flip * x) == work.loglik(x)
    assert np.max(np.abs(grad_flip - flip * grad)) <= 1e-12 * np.max(np.abs(grad))
    assert np.max(np.abs(H_flip - flip[:, None] * H * flip)) <= 1e-12 * np.max(np.abs(H))


def workspace_bytes(work):
    """The bytes of the block workspace that the kernel allocated when built."""
    return sum(buffer.nbytes for buffer in work._buffers.values())


def test_a_call_holds_no_full_panel_probability_store(design32):
    """The first Hessian call on a fresh kernel, together with the workspace
    the kernel allocated for its blocks, takes less than half of what one
    probability per (respondent, task, cell, draw) would."""
    panel = simulated_panel(design32, 96, seed=4, sds=(1.0, 1.0))[2]
    work = _work(panel, MixingSpec(halton=HaltonConfig(n_draws=512)), None)
    x = np.concatenate([np.zeros(panel.X.shape[1]), [0.5, 0.5]])
    n_r, n_t, n_d = work.shape
    assert (n_r, n_t, n_d, work.n_draws) == (96, 8, 2, 512)
    peak = traced_peak(lambda: work.hessian(x))[1]
    assert workspace_bytes(work) + peak < 0.5 * n_r * n_t * n_d * work.n_draws * 8


def test_a_steady_state_call_allocates_no_block_sized_array(study_panel264):
    """A second Hessian call on a kernel writes its tile and every per-chunk
    product into the kernel's workspace: 0.35 MB traced, against 1.34 MB
    when each block allocated its own."""
    work = kernel(study_panel264["panel"], ORACLE_CASES["study264-mmnl128"][1])
    x = study_panel264["truth"]
    work.hessian(x)
    assert traced_peak(lambda: work.hessian(x))[1] < 0.5e6


@pytest.fixture(scope="module", params=[2000, 5000])
def large_mnl_panel(design32, request):
    return simulated_panel(design32, request.param, seed=1)[2]


def test_an_mnl_call_holds_fixed_size_blocks(large_mnl_panel):
    """One-draw blocks hold a fixed number of cells, so neither the kernel's
    workspace (1.2 MB) nor a call's peak grows with the panel; whole-panel
    products would take ~20 MB at 5,000."""
    panel = large_mnl_panel
    work = _MslWork(panel)
    x = np.full(panel.X.shape[1], 0.01)
    assert workspace_bytes(work) + traced_peak(lambda: work.hessian(x))[1] < 2e6


def test_an_mnl_fit_holds_its_layout_and_little_else(large_mnl_panel):
    """The layout is filled a chunk of respondents at a time and
    identification is checked a chunk of rows at a time, so a whole fit
    peaks within 1.3 times the layout's bytes (1.26 at 2,000 respondents,
    1.18 at 5,000), against 3.2 times when both gathered the whole design."""
    layout = _MslWork(large_mnl_panel).D.nbytes
    result, peak = traced_peak(lambda: estimate_mnl(large_mnl_panel))
    assert result.converged
    assert peak <= 1.3 * layout


def whole_panel_layout(panel, shape):
    """``D``, ``A`` and ``offset`` of ``_MslWork`` by gathers over the
    whole panel at once."""
    n_r, n_t, n_d = shape
    task_pos = np.arange(panel.n_tasks) \
        - np.searchsorted(panel.task_respondent, panel.task_respondent)
    task = panel.task_respondent * n_t + task_pos
    first = panel.task_ptr[:-1]
    ref = first[panel.row_task]
    rows = np.flatnonzero(np.arange(panel.n_rows) != ref)
    cell = task[panel.row_task[rows]] * n_d + rows - ref[rows] - 1
    offset = np.full((n_r * n_t * n_d, 1), -np.inf)
    offset[cell] = 0.0
    k = panel.X.shape[1]
    D = np.zeros((n_r * n_t * n_d, k))
    D[cell] = panel.X[rows]
    D[cell] -= panel.X[ref[rows]]
    A = np.zeros((n_r * n_t, k))
    A[task] = panel.X[panel.chosen_row] - panel.X[first]
    return D.reshape(n_r, n_t * n_d, k), A.reshape(n_r, n_t, k).sum(axis=1), offset


@pytest.mark.parametrize("layout_values", [1, 700, 1 << 14])
@pytest.mark.parametrize("panel_fixture", ["ragged_panel", "droneless_panel", "panel150"])
def test_layout_in_chunks_has_the_whole_panel_bits(panel_fixture, layout_values, request,
                                                   monkeypatch):
    # one respondent per chunk, a few, and all of them in one chunk
    panel = request.getfixturevalue(panel_fixture)
    panel = panel if panel_fixture == "droneless_panel" else panel["panel"]
    monkeypatch.setattr(mnl, "_LAYOUT_VALUES", layout_values)
    work = _MslWork(panel)
    D, A, offset = whole_panel_layout(panel, work.shape)
    assert work.D.tobytes() == D.tobytes()
    assert work.A.tobytes() == A.tobytes()
    assert work.offset.tobytes() == offset.tobytes()


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
    assert ll == work.loglik(x)
    ll_want, grad_want, H_want = hessian_oracle(work, x)
    assert abs(ll - ll_want) <= 1e-12 * abs(ll_want)
    assert np.max(np.abs(grad - grad_want)) <= 1e-12 * np.max(np.abs(grad_want))
    assert np.max(np.abs(H - H_want)) <= 1e-12 * np.max(np.abs(H_want))
    fd = hessian_from_grad(lambda v: -work.hessian(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.fixture(scope="module")
def panel150(design32):
    """150 respondents without mixing: one-draw blocks of 64, 64 and 22."""
    _, _, panel, truth = simulated_panel(design32, 150, seed=8)
    return {"panel": panel, "truth": truth}


def block_path(work):
    """``work`` evaluated by the mixed logit's block algebra
    (``_hessian_block``) in place of the one-draw closed form."""
    generic = copy.copy(work)
    generic.one_draw = False
    return generic


@pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel", "panel150"])
def test_one_draw_hessian_matches_the_block_path(panel_fixture, request):
    fixture = request.getfixturevalue(panel_fixture)
    work = _MslWork(fixture["panel"])
    assert work.one_draw
    if panel_fixture == "panel150":
        assert [n1 - n0 for n0, n1 in work.blocks] == [64, 64, 22]
    x = fixture["truth"] + np.random.default_rng(5).normal(scale=0.3, size=fixture["truth"].size)
    ll, grad, H = work.hessian(x)
    ll_want, grad_want, H_want = block_path(work).hessian(x)
    assert ll == ll_want == work.loglik(x)
    assert np.max(np.abs(grad - grad_want)) <= 1e-12 * np.max(np.abs(grad_want))
    assert np.max(np.abs(H - H_want)) <= 1e-12 * np.max(np.abs(H_want))
    fd = hessian_from_grad(lambda v: -work.hessian(v)[1], x)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("sign", [1, -1])
def test_one_draw_path_at_utilities_beyond_700(panel150, sign):
    panel = panel150["panel"]
    work = _MslWork(panel)
    x = sign * 400 * panel150["truth"]
    assert np.abs(panel.X @ x).max() > 700
    ll, grad, H = work.hessian(x)
    ll_want, grad_want, H_want = block_path(work).hessian(x)
    assert np.isfinite(ll) and ll == ll_want == work.loglik(x)
    assert np.max(np.abs(grad - grad_want)) <= 1e-12 * np.max(np.abs(grad_want))
    assert np.max(np.abs(H - H_want)) <= 1e-12 * np.max(np.abs(H_want))


@pytest.mark.parametrize("case", ["coefficient", "row_in_last_block"])
def test_one_draw_path_names_the_same_non_finite_task(panel150, case):
    panel, x = panel150["panel"], panel150["truth"].copy()
    if case == "coefficient":
        x[5] = np.inf
    else:
        task = int(np.flatnonzero(panel.task_respondent == 140)[3])
        X = panel.X.copy()
        X[panel.task_ptr[task] + 1, 0] = np.nan
        panel = replace(panel, X=X)
    work = _MslWork(panel)
    messages = set()
    for evaluate in (work.hessian, block_path(work).hessian, work.loglik):
        with pytest.raises(EstimationError) as err:
            evaluate(x)
        assert err.value.code == "non_finite_utility"
        messages.add(str(err.value))
    want = "task index 0: parameter 5 is inf" if case == "coefficient" else f"task index {task}"
    assert len(messages) == 1 and messages.pop().endswith(want)
