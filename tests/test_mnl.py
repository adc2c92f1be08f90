"""Multinomial logit likelihood, gradient, and estimation."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (
    AlternativeDef,
    AttributeDef,
    ChoiceDataset,
    CodedPanel,
    EstimationError,
    ExperimentSchema,
    Level,
    Observation,
    RespondentRecord,
    SimConfig,
    block_design,
    code_dataset,
    estimate_mnl,
    mnl_loglik,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mnl,
)

from dce import mnl
from dce.mnl import _MslWork
from helpers import binary_asc_dataset, finite_diff_grad, mnl_probabilities, mnl_score


class TestProbabilities:
    def test_softmax_of_unit_utility(self):
        rows = np.array([[1.0], [0.0], [0.0]])
        p = mnl_probabilities(np.array([1.0]), rows)
        e = np.exp(1.0)
        np.testing.assert_allclose(p[0], e / (e + 2), rtol=0, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        # shifting every alternative's utility by a constant changes nothing
        params = np.array([0.7])
        p0 = mnl_probabilities(params, np.array([[1.0], [0.0]]))
        p1 = mnl_probabilities(params, np.array([[4.0], [3.0]]))
        np.testing.assert_allclose(p0, p1, atol=1e-12)

    def test_extreme_utilities_stay_finite(self):
        rows = np.array([[400.0], [-400.0]])
        p = mnl_probabilities(np.array([2.0]), rows)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0, abs=1e-12)


class TestLoglik:
    def test_null_is_tasks_times_log_nalts(self, panel50):
        panel = panel50["panel"]
        want = -panel.n_tasks * np.log(3.0)
        assert mnl_loglik(np.zeros(38), panel) == pytest.approx(want,
                                                                abs=1e-9)

    def test_gradient_at_zero_is_share_difference(self):
        dataset = binary_asc_dataset(75, 25)
        panel = code_dataset(dataset)
        g = mnl_score(np.zeros(1), panel)
        # chosen count minus expected under uniform: 75 - 100/2
        assert g[0] == pytest.approx(25.0, abs=1e-10)

    def test_one_alternative_tasks_have_probability_one(self):
        # every task keeps only its chosen alternative, so the kernel's
        # differenced layout has no real cell at all
        dataset = binary_asc_dataset(3, 2)
        respondents = tuple(
            RespondentRecord(r.respondent_id, r.demographics,
                             tuple(Observation(o.task_id, o.block_id, o.task_values,
                                               {o.chosen: o.alt_values[o.chosen]}, o.chosen)
                                   for o in r.observations))
            for r in dataset.respondents)
        panel = code_dataset(ChoiceDataset(dataset.schema, respondents))
        assert set(panel.task_sizes) == {1}
        assert mnl_loglik(np.ones(1), panel) == 0.0
        assert mnl_score(np.ones(1), panel).tolist() == [0.0]

    @pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
    def test_gradient_matches_finite_differences(self, panel_fixture, request, rng):
        panel = request.getfixturevalue(panel_fixture)["panel"]
        for _ in range(10):
            x = rng.normal(scale=0.5, size=38)
            g = mnl_score(x, panel)
            fd = finite_diff_grad(lambda v: mnl_loglik(v, panel), x)
            denom = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) / denom < 1e-6

    @pytest.mark.parametrize("panel_fixture", ["panel50", "ragged_panel"])
    def test_matches_per_task_probabilities(self, panel_fixture, request, rng):
        # independent oracle: one mnl_probabilities call per task
        panel = request.getfixturevalue(panel_fixture)["panel"]
        x = rng.normal(scale=0.5, size=38)
        ll, grad = 0.0, np.zeros(38)
        for t in range(panel.n_tasks):
            rows = panel.X[panel.task_ptr[t]:panel.task_ptr[t + 1]]
            p = mnl_probabilities(x, rows)
            ll += np.log(p[panel.chosen_row[t] - panel.task_ptr[t]])
            grad += panel.X[panel.chosen_row[t]] - p @ rows
        assert mnl_loglik(x, panel) == pytest.approx(ll, rel=0, abs=1e-10)
        np.testing.assert_allclose(mnl_score(x, panel), grad, rtol=0, atol=1e-10)

    def test_extreme_point_has_no_log_probability_floor(self, panel50, rng):
        # at this scale some chosen log probabilities fall below -700; the
        # log likelihood is still the exact log-softmax sum and its score
        panel = panel50["panel"]
        x = rng.normal(scale=100.0, size=38)
        logp = []
        for t in range(panel.n_tasks):
            u = panel.X[panel.task_ptr[t]:panel.task_ptr[t + 1]] @ x
            top = u.max()
            log_denom = top + np.log(np.exp(u - top).sum())
            logp.append(u[panel.chosen_row[t] - panel.task_ptr[t]] - log_denom)
        assert min(logp) < -700
        assert mnl_loglik(x, panel) == pytest.approx(sum(logp), rel=1e-12)
        fd = finite_diff_grad(lambda v: mnl_loglik(v, panel), x)
        g = mnl_score(x, panel)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-6

    def test_nan_parameter_names_the_task(self, panel50):
        params = np.zeros(38)
        params[0] = np.nan
        with pytest.raises(EstimationError) as err:
            mnl_loglik(params, panel50["panel"])
        assert err.value.code == "non_finite_utility"
        assert "task index 0" in str(err.value)


class TestEstimation:
    def test_asc_only_closed_form(self):
        dataset = binary_asc_dataset(75, 25)
        result = estimate_mnl(code_dataset(dataset))
        assert result.converged
        assert result.params[0] == pytest.approx(np.log(3.0), abs=1e-8)
        # se = 1 / sqrt(n p (1-p))
        assert result.std_errors[0] == pytest.approx(
            1.0 / np.sqrt(100 * 0.75 * 0.25), rel=1e-6)

    def test_optimum_dominates_random_points(self, panel50, rng):
        panel = panel50["panel"]
        baseline = estimate_mnl(panel)
        assert baseline.converged
        for _ in range(20):
            x = rng.normal(scale=0.8, size=38)
            assert mnl_loglik(x, panel) <= baseline.ll_final + 1e-9

    def test_recovers_truth_at_moderate_n(self, panel50):
        panel = panel50["panel"]
        truth = panel50["truth"]
        result = estimate_mnl(panel)
        assert result.converged
        corr = np.corrcoef(truth, result.params)[0, 1]
        assert corr >= 0.90
        z = np.abs(result.params - truth) / result.std_errors
        assert np.mean(z <= 3.0) >= 0.90

    def test_degenerate_column_is_named(self, schema_labels, design32):
        from helpers import simulated_panel

        cfg, dataset, panel, truth = simulated_panel(design32, 30, seed=4)
        # force every respondent to one education level: the unused levels'
        # interaction columns are identically zero within every task
        forced = tuple(
            RespondentRecord(
                respondent_id=r.respondent_id,
                demographics={**r.demographics,
                              "education_group": "university"},
                observations=r.observations,
                extra=r.extra)
            for r in dataset.respondents)
        patched = ChoiceDataset(schema=dataset.schema, respondents=forced)
        with pytest.raises(EstimationError) as err:
            estimate_mnl(code_dataset(patched))
        assert err.value.code == "degenerate_column"
        assert "education_group" in str(err.value)

    def test_null_ll_recorded(self, panel50):
        result = estimate_mnl(panel50["panel"])
        assert result.ll_null == pytest.approx(-400 * np.log(3.0), abs=1e-9)
        assert result.ll_final > result.ll_null
        assert result.model == "mnl"
        assert result.n_respondents == 50

    def test_converges_at_5000_respondents(self):
        # Near the optimum of a 5,000-respondent fit the reductions fall
        # below the rounding noise of the log likelihood. On this seed a
        # BFGS fit with a strong Wolfe line search stops there
        # line_search_failed at |g| ~ 2e-5.
        schema = table4_labels_schema()
        design = block_design(select_fraction(schema, 64, seed=5, iters=100), 8, seed=5)
        panel = code_dataset(simulate_dataset(SimConfig(
            schema=schema, design=design, true_params=table4_mnl().params,
            n_respondents=5000, seed=5)))
        result = estimate_mnl(panel)
        assert result.status == "gradient_converged"
        assert result.std_errors is not None


# a column's values: one per task (constant within it), or one per row; the
# values repeat often, and nan and inf are never equal to a different value
VALUES = st.sampled_from([0.0, 1.0, -2.5, np.nan, np.inf])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_identification_names_the_columns_constant_within_tasks(data):
    # small random panels, ragged ones included, laid out in blocks of one
    # respondent up to all of them; the kernel records the columns, and _fit names
    # them before it looks at its start
    tasks = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))  # per respondent
    sizes = np.array(data.draw(st.lists(st.integers(1, 4), min_size=sum(tasks),
                                        max_size=sum(tasks))))
    task_ptr = np.concatenate([[0], np.cumsum(sizes)])
    row_task = np.repeat(np.arange(sizes.size), sizes)
    columns = []
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            columns.append(np.array(data.draw(st.lists(VALUES, min_size=sizes.size,
                                                       max_size=sizes.size)))[row_task])
        else:
            columns.append(data.draw(st.lists(VALUES, min_size=row_task.size,
                                              max_size=row_task.size)))
    X = np.array(columns).T
    panel = CodedPanel(
        schema=None,
        index=SimpleNamespace(entries=[SimpleNamespace(name=f"c{j}") for j in range(X.shape[1])],
                              n_params=X.shape[1]),
        X=X, task_ptr=task_ptr, row_task=row_task, chosen_row=task_ptr[:-1],
        task_respondent=np.repeat(np.arange(len(tasks)), tasks),
        respondent_ids=tuple(f"r{i}" for i in range(len(tasks))),
        row_alternative=("a",) * row_task.size)
    dead = np.flatnonzero(np.all(X == X[task_ptr[row_task]], axis=0))
    with mock.patch.object(mnl, "_ONE_DRAW_CELLS", data.draw(st.integers(1, 2 * X.size))):
        with np.errstate(invalid="ignore"):  # the layout differences inf - inf
            work = _MslWork(panel)
    np.testing.assert_array_equal(np.flatnonzero(~work.varies), dead)
    with pytest.raises(EstimationError) as err:
        mnl._fit(panel, work, panel.index, start=())
    if dead.size == 0:
        assert err.value.code == "parameter_mismatch"
    else:
        assert err.value.code == "degenerate_column"
        assert err.value.message == ("no within-task variation for parameter(s): "
                                     + ", ".join(f"c{j}" for j in dead))
