"""Synthetic respondent generation and recovery harness."""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dce import (
    MixingSpec,
    SimConfig,
    SimulationError,
    code_dataset,
    recovery_experiment,
    simulate_dataset,
    table3_demographic_weights,
)

from helpers import mnl_probabilities, simulated_panel


def digests(dataset, panel):
    """SHA-256 of a dataset's records and of its coded panel's arrays."""
    rows = [[r.respondent_id, r.demographics, r.extra,
             [[o.task_id, o.block_id, o.task_values, o.alt_values, o.chosen]
              for o in r.observations]]
            for r in dataset.respondents]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256()
    for a, dtype in ((panel.X, "<f8"), (panel.task_ptr, "<i8"),
                     (panel.chosen_row, "<i8"), (panel.task_respondent, "<i8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), h.hexdigest()


def degenerate_weights(schema):
    """Every respondent gets the first level of each demographic."""
    out = {}
    for attr in schema.attributes:
        if attr.scope != "demographic":
            continue
        labels = [l.label for l in attr.levels]
        out[attr.name] = {l: (1.0 if i == 0 else 0.0)
                          for i, l in enumerate(labels)}
    return out


class TestDeterminism:
    def test_same_seed_same_dataset(self, design32, schema_labels, panel50):
        cfg = panel50["cfg"]
        again = simulate_dataset(cfg)
        assert again == panel50["dataset"]

    def test_panel50_bytes_are_pinned(self, panel50):
        """SHA-256 of panel50's simulated dataset and of its coded panel, so
        a change that flips one simulated choice or one coded entry fails
        here."""
        assert digests(panel50["dataset"], panel50["panel"]) == (
            "6640395430f9fac16a01c9f717ff1260c3673e9476f249a7088dbc9285f7b752",
            "a0366c4f21a4e4e10a804f830c2dc3bec700b1e4326bf9b80fd008584256e582")

    @pytest.mark.parametrize("assignment, dataset_digest, panel_digest", [
        ("balanced", "888dbff3121103234201c4a11c1704209b04ec48a04c378bf1855b9c79a1ad0d",
         "7ad66fad29ef73e04953232409561c3e0ba18a9479122a6276bf92b1aa52776f"),
        ("uniform", "a4d288f59964cb3f0d8f6b876601a0827cdb39e94758025e09fa5c0932c934a7",
         "4c7f733fbcc313ed89e19eaf312bd2c6d177ad5ba7b2c5cc149d082fb545252b"),
    ])
    def test_mixed_bytes_are_pinned(self, mixed_panel40, assignment, dataset_digest,
                                    panel_digest):
        """The same pins for mixed_panel40, whose choices also depend on each
        respondent's deviations, as simulated and with uniform block
        assignment."""
        cfg = replace(mixed_panel40["cfg"], block_assignment=assignment)
        dataset = simulate_dataset(cfg)
        panel = code_dataset(dataset)
        assert digests(dataset, panel) == (dataset_digest, panel_digest)

    def test_different_seed_differs(self, design32, panel50):
        cfg = panel50["cfg"]
        other = SimConfig(schema=cfg.schema, design=cfg.design,
                          true_params=cfg.true_params, mixing=cfg.mixing,
                          n_respondents=cfg.n_respondents, seed=cfg.seed + 1)
        assert simulate_dataset(other) != panel50["dataset"]

    def test_growing_panel_keeps_early_respondents(self, design32,
                                                   schema_labels, panel50):
        cfg = panel50["cfg"]
        bigger = SimConfig(schema=cfg.schema, design=cfg.design,
                           true_params=cfg.true_params, mixing=cfg.mixing,
                           n_respondents=60, seed=cfg.seed)
        grown = simulate_dataset(bigger)
        assert grown.respondents[:50] == panel50["dataset"].respondents

    def test_zero_sd_mixing_equals_no_mixing(self, design32, schema_labels):
        cfg_plain, plain, _, truth = simulated_panel(design32, 12, seed=7)
        mixing = MixingSpec(random_params=("asc_drone", "asc_truck"))
        cfg = SimConfig(schema=cfg_plain.schema, design=cfg_plain.design,
                        true_params=np.concatenate([truth, [0.0, 0.0]]),
                        mixing=mixing, n_respondents=12, seed=7)
        assert simulate_dataset(cfg) == plain


class TestBlocks:
    def test_balanced_assignment(self, design32, schema_labels, panel50):
        counts = Counter(r.observations[0].block_id
                         for r in panel50["dataset"].respondents)
        assert sorted(counts.values()) == [12, 12, 13, 13]

    def test_uniform_assignment_is_seeded(self, design32, panel50):
        cfg = panel50["cfg"]
        u = SimConfig(schema=cfg.schema, design=cfg.design,
                      true_params=cfg.true_params, mixing=cfg.mixing,
                      n_respondents=30, seed=3,
                      block_assignment="uniform")
        a = simulate_dataset(u)
        b = simulate_dataset(u)
        assert a == b
        blocks = {r.observations[0].block_id for r in a.respondents}
        assert blocks.issubset({"1", "2", "3", "4"})

    def test_tasks_follow_assigned_block(self, design32, panel50):
        dataset = panel50["dataset"]
        design = panel50["cfg"].design
        run_block = {}
        for b, runs in enumerate(design.blocks, start=1):
            for r in runs:
                run_block[f"run{r + 1}"] = str(b)
        for resp in dataset.respondents[:10]:
            assert len(resp.observations) == 8
            for obs in resp.observations:
                assert obs.block_id == resp.observations[0].block_id
                assert run_block[obs.task_id] == obs.block_id


class TestDemographics:
    def test_marginals_match_weights(self, design32, schema_labels):
        cfg, dataset, panel, truth = simulated_panel(design32, 1200, seed=31)
        weights = table3_demographic_weights()
        n = len(dataset.respondents)
        for attr, dist in weights.items():
            counts = Counter(r.demographics[attr]
                             for r in dataset.respondents)
            total = sum(dist.values())
            for label, w in dist.items():
                assert counts[label] / n == pytest.approx(w / total,
                                                          abs=0.06), \
                    (attr, label)

    def test_override_weights_respected(self, design32, schema_labels,
                                        panel50):
        cfg = panel50["cfg"]
        forced = degenerate_weights(schema_labels)
        d = simulate_dataset(SimConfig(
            schema=cfg.schema, design=cfg.design,
            true_params=cfg.true_params, n_respondents=20, seed=1,
            demographic_weights=forced))
        first = {a: next(iter(w)) for a, w in
                 ((attr, weights) for attr, weights in forced.items())}
        for r in d.respondents:
            for attr, label in first.items():
                assert r.demographics[attr] == label


class TestChoiceLaw:
    def test_shares_track_analytic_probabilities(self, design32,
                                                 schema_labels):
        # identical respondents: aggregate chosen shares converge to the
        # exposure-weighted mean of analytic choice probabilities
        fixture_cfg, _, _, truth = simulated_panel(design32, 1, seed=0)
        cfg = SimConfig(schema=schema_labels, design=design32,
                        true_params=truth, n_respondents=2000, seed=17,
                        demographic_weights=degenerate_weights(schema_labels))
        dataset = simulate_dataset(cfg)
        panel = code_dataset(dataset)
        alt_order = [a.id for a in schema_labels.alternatives]
        p_all = []
        for t in range(panel.n_tasks):
            rows = panel.X[panel.task_ptr[t]:panel.task_ptr[t + 1]]
            p_all.append(mnl_probabilities(truth, rows))
        p_mean = np.mean(p_all, axis=0)
        chosen_alt = Counter(panel.row_alternative[i]
                             for i in panel.chosen_row)
        share = np.array([chosen_alt[a] / panel.n_tasks for a in alt_order])
        np.testing.assert_allclose(share, p_mean, atol=0.02)


class TestValidation:
    def test_bad_respondent_count(self, design32, schema_labels, panel50):
        cfg = panel50["cfg"]
        with pytest.raises(SimulationError) as err:
            SimConfig(schema=cfg.schema, design=cfg.design,
                      true_params=cfg.true_params, n_respondents=0, seed=0)
        assert err.value.code == "bad_respondent_count"

    @pytest.mark.parametrize("setting, code", [
        ({"n_respondents": "5"}, "bad_respondent_count"),
        ({"n_respondents": 2.5}, "bad_respondent_count"),
        ({"n_respondents": True}, "bad_respondent_count"),
        ({"seed": 1.5}, "bad_seed"), ({"seed": -1}, "bad_seed"), ({"seed": "0"}, "bad_seed")])
    def test_non_integer_settings_are_typed(self, panel50, setting, code):
        cfg = panel50["cfg"]
        with pytest.raises(SimulationError) as err:
            SimConfig(schema=cfg.schema, design=cfg.design, true_params=cfg.true_params,
                      **{"n_respondents": 5, "seed": 0, **setting})
        assert err.value.code == code

    def test_bad_block_assignment(self, design32, panel50):
        cfg = panel50["cfg"]
        with pytest.raises(SimulationError) as err:
            SimConfig(schema=cfg.schema, design=cfg.design,
                      true_params=cfg.true_params, n_respondents=5, seed=0,
                      block_assignment="alphabetical")
        assert err.value.code == "bad_block_assignment"

    def test_bad_weights_coverage(self, design32, schema_labels, panel50):
        cfg = panel50["cfg"]
        bad = degenerate_weights(schema_labels)
        bad["gender"] = {"male": 1.0}  # missing a level
        with pytest.raises(SimulationError) as err:
            simulate_dataset(SimConfig(
                schema=cfg.schema, design=cfg.design,
                true_params=cfg.true_params, n_respondents=5, seed=0,
                demographic_weights=bad))
        assert err.value.code == "bad_weights"

    def test_bad_weights_sum(self, design32, schema_labels, panel50):
        cfg = panel50["cfg"]
        bad = degenerate_weights(schema_labels)
        bad["gender"] = {k: 0.4 for k in bad["gender"]}
        with pytest.raises(SimulationError) as err:
            simulate_dataset(SimConfig(
                schema=cfg.schema, design=cfg.design,
                true_params=cfg.true_params, n_respondents=5, seed=0,
                demographic_weights=bad))
        assert err.value.code == "bad_weights"

    @pytest.mark.parametrize("weight", [float("nan"), "x", None, True])
    def test_weights_that_are_not_finite_numbers(self, schema_labels, panel50, weight):
        """A NaN weight once made every respondent male, and "x" raised a raw
        ValueError."""
        cfg = panel50["cfg"]
        bad = {**degenerate_weights(schema_labels), "gender": {"male": weight, "female": 0.0}}
        with pytest.raises(SimulationError) as err:
            simulate_dataset(replace(cfg, n_respondents=5, demographic_weights=bad))
        assert err.value.code == "bad_weights"

    @pytest.mark.parametrize("name", ["gendr", "delivery_date_drone"])
    def test_weights_for_an_attribute_that_is_no_demographic(self, panel50, name):
        """A misspelled attribute was ignored, and the published shares used."""
        cfg = panel50["cfg"]
        with pytest.raises(SimulationError) as err:
            simulate_dataset(replace(cfg, n_respondents=5, demographic_weights={
                name: {"male": 1.0, "female": 0.0}}))
        assert err.value.code == "bad_weights"

    @pytest.mark.parametrize("weights", [
        ["gender"], {"gender": ["male", "female"]}, {"gender": 0.5}, "gender"])
    def test_weights_that_are_not_a_mapping_of_mappings(self, panel50, weights):
        """These escaped as raw AttributeError or TypeError, and "gender" was
        read as the attribute names g, e, n, d, e, r."""
        with pytest.raises(SimulationError) as err:
            replace(panel50["cfg"], n_respondents=5, demographic_weights=weights)
        assert err.value.code == "bad_weights"

    @pytest.mark.parametrize("mixing", [("asc_drone",), {"random_params": ["asc_drone"]}, 500])
    def test_mixing_that_is_no_mixing_spec(self, panel50, mixing):
        with pytest.raises(SimulationError) as err:
            replace(panel50["cfg"], n_respondents=5, mixing=mixing)
        assert err.value.code == "bad_mixing"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_true_params(self, panel50, value):
        """A NaN made every task choose the same alternative."""
        cfg = panel50["cfg"]
        truth = cfg.true_params.copy()
        truth[3] = value
        with pytest.raises(SimulationError) as err:
            replace(cfg, true_params=truth)
        assert err.value.code == "non_finite_params"

    def test_parameter_count_mismatch(self, design32, schema_labels,
                                      panel50):
        cfg = panel50["cfg"]
        with pytest.raises(SimulationError) as err:
            simulate_dataset(SimConfig(
                schema=cfg.schema, design=cfg.design,
                true_params=cfg.true_params[:10], n_respondents=5, seed=0))
        assert err.value.code == "parameter_mismatch"


class TestRecovery:
    def test_mnl_recovery_smoke(self, design32, schema_labels, panel50):
        cfg = panel50["cfg"]
        report = recovery_experiment(cfg, "mnl")
        assert report.estimator == "mnl"
        assert report.seed == cfg.seed
        assert report.correlation > 0.85
        assert len(report.rows) == 38
        assert report.result.converged
        names = {row.name for row in report.rows}
        assert "asc_drone" in names
        assert 0.0 <= report.share_within <= 1.0

    def test_bad_estimator(self, panel50):
        with pytest.raises(SimulationError) as err:
            recovery_experiment(panel50["cfg"], "probit")
        assert err.value.code == "bad_estimator"
