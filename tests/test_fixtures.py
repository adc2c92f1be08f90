"""Shipped coefficient fixtures and schema files."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dce import (
    EstimationResult,
    SchemaError,
    builtin_fixture,
    builtin_schema,
    default_schema,
    implied_base_levels,
    table3_demographic_weights,
    table4_labels_schema,
    table4_mmnl,
    table4_mnl,
)
from dce.errors import read_json

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "src" / "dce" / "data"

# every field of a mixed logit's result record, as a path of keys
_RECORD = table4_mmnl().to_dict()
RECORD_FIELDS = [(k,) for k in _RECORD] \
    + [(part, k) for part in ("fit", "mixing") for k in _RECORD[part]] \
    + [("parameters", "asc_drone")] \
    + [("parameters", "sd:asc_truck", k) for k in _RECORD["parameters"]["sd:asc_truck"]] \
    + [("base_levels", next(iter(_RECORD["base_levels"])))]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


def assert_results_equal(a: EstimationResult, b: EstimationResult):
    assert a.index.names() == b.index.names()
    np.testing.assert_array_equal(a.params, b.params)
    np.testing.assert_array_equal(a.p_values, b.p_values)
    assert a.std_errors is None and b.std_errors is None
    assert (a.ll_final, a.ll_null) == (b.ll_final, b.ll_null)
    assert a.model == b.model
    assert a.status is None and b.status is None  # transcribed, not fitted
    assert a.base_levels == b.base_levels
    assert (a.n_respondents, a.n_tasks) == (b.n_respondents, b.n_tasks)
    assert a.mixing == b.mixing


class TestPublishedNumbers:
    def test_mnl_anchors(self):
        r = table4_mnl()
        assert r.model == "mnl"
        assert r.k_params == 38
        assert r.ll_null == -4640.540
        assert r.ll_final == -3641.330
        assert r.estimate("asc_drone") == -0.413
        assert r.estimate("delivery_date_drone:next_day") == 0.342
        assert r.mixing is None

    def test_mmnl_anchors(self):
        r = table4_mmnl()
        assert r.model == "mmnl"
        assert r.k_params == 40
        assert r.ll_null == -4640.540
        assert r.ll_final == -3367.430
        assert r.estimate("sd:asc_drone") == 1.500
        assert r.estimate("sd:asc_truck") == 1.241
        assert r.mixing.random_params == ("asc_drone", "asc_truck")
        assert r.mixing.n_draws == 500

    def test_sds_stored_positive(self):
        r = table4_mmnl()
        assert r.estimate("sd:asc_drone") > 0
        assert r.estimate("sd:asc_truck") > 0

    def test_base_levels_close_negated_sums(self):
        # implied base coefficients sit within transcription rounding of the
        # negated sum of the printed same-attribute coefficients
        schema = table4_labels_schema()
        for r in (table4_mnl(), table4_mmnl()):
            implied = implied_base_levels(schema, r.index, r.params)
            for name, printed in r.base_levels.items():
                assert implied[name] == pytest.approx(printed, abs=0.0035), name

    def test_coefficient_falls_back_to_base_levels(self):
        r = table4_mmnl()
        assert r.coefficient("delivery_cost_drone:480") == 1.895
        assert r.coefficient("delivery_cost_drone:1080") == -1.966


class TestRegistry:
    def test_fixture_aliases(self):
        assert_results_equal(builtin_fixture("table4"), table4_mmnl())
        assert_results_equal(builtin_fixture("table4-mmnl"), table4_mmnl())
        assert_results_equal(builtin_fixture("table4-mnl"), table4_mnl())

    def test_unknown_fixture_lists_available(self):
        with pytest.raises(KeyError) as err:
            builtin_fixture("table5")
        msg = str(err.value)
        for name in ("table4", "table4-mmnl", "table4-mnl"):
            assert name in msg

    def test_unknown_schema_lists_available(self):
        with pytest.raises(KeyError) as err:
            builtin_schema("nonexistent")
        assert "drone_delivery_japan" in str(err.value)

    def test_schema_registry(self):
        assert builtin_schema("drone_delivery_japan").to_dict() == \
            default_schema().to_dict()
        assert builtin_schema(
            "drone_delivery_japan_table4_labels").to_dict() == \
            table4_labels_schema().to_dict()


class TestShippedFiles:
    def test_one_copy_of_each_file(self, monkeypatch):
        # the repo-root paths are links to the package data, not copies
        linked = [*(REPO / "schemas").glob("*.json"), *(REPO / "fixtures").glob("*.json")]
        assert sorted(p.name for p in linked) == sorted(p.name for p in DATA.iterdir())
        for p in linked:
            assert p.resolve() == (DATA / p.name).resolve(), p
        # and every data file is what some builtin loads
        opened = set()

        def recording(path, code):
            opened.add(Path(path).resolve())
            return read_json(path, code)
        monkeypatch.setattr("dce.schema.read_json", recording)
        monkeypatch.setattr("dce.results.read_json", recording)
        for name in ("drone_delivery_japan", "drone_delivery_japan_table4_labels"):
            builtin_schema(name)
        for name in ("table4", "table4-mmnl", "table4-mnl"):
            builtin_fixture(name)
        assert opened == {p.resolve() for p in DATA.iterdir()}

    def test_result_round_trip(self, tmp_path):
        r = table4_mmnl()
        path = tmp_path / "out.json"
        r.save(path)
        assert_results_equal(EstimationResult.load(path), r)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        r = table4_mmnl()
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        r.save(plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert_results_equal(EstimationResult.load(bom), EstimationResult.load(plain))

    @pytest.mark.parametrize("field, value", [
        ("std_error", "abc"),
        ("p_value", "abc"),
        ("mixing", {"n_draws": 501, "antithetic": True}),
        ("mixing", {"n_draws": 0}),
        ("mixing", {"primes": [2, 4]}),
        # fields are checked, not coerced: a string is not a boolean, a
        # fraction is not a count and neither is a boolean
        ("mixing", {"antithetic": "false"}),
        ("mixing", {"n_draws": 500.7}),
        ("mixing", {"drop": 10.5}),
        ("mixing", {"primes": [2.9, 3]}),
        ("mixing", {"n_draws": True}),
        ("fit", {"converged": "false"}),
        ("fit", {"iterations": 5.7}),
        ("n_respondents", "abc"),
        ("n_tasks", 4224.0),
        # json reads NaN and +-Infinity; none is a JSON number
        ("estimate", float("nan")),
        ("std_error", float("inf")),
        ("fit", {"ll_null": float("-inf")}),
        ("fit", {"ll_final": float("nan")}),
        # Halton bases are the first primes, one per random parameter
        ("mixing", {"primes": [3, 5]}),
        ("mixing", {"primes": [2, 3, 5]}),
    ])
    def test_malformed_result_record_is_typed(self, field, value):
        d = table4_mmnl().to_dict()
        if field in ("mixing", "fit"):
            d[field].update(value)
        elif field in d:
            d[field] = value
        else:
            d["parameters"]["asc_drone"][field] = value
        with pytest.raises(SchemaError) as err:
            EstimationResult.from_dict(d)
        assert err.value.code == "result_json"

    def test_missing_antithetic_defaults_to_false(self):
        d = table4_mmnl().to_dict()
        del d["mixing"]["antithetic"]
        assert EstimationResult.from_dict(d).mixing.antithetic is False

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(field=st.sampled_from(RECORD_FIELDS), value=JSON_VALUES)
    def test_any_field_of_another_type_loads_or_is_typed(self, field, value):
        d = table4_mmnl().to_dict()
        *path, key = field
        target = d
        for k in path:
            target = target[k]
        assume(type(value) is not type(target[key]))
        target[key] = value
        try:
            EstimationResult.from_dict(d)
        except SchemaError as err:
            assert err.code == "result_json"

    def test_load_against_schema_names_the_mismatch(self, schema_labels):
        d = table4_mnl().to_dict()
        d["parameters"]["asc_bus"] = d["parameters"].pop("asc_truck")
        with pytest.raises(SchemaError) as err:
            EstimationResult.from_dict(d, schema_labels)
        assert err.value.code == "parameter_mismatch"
        assert err.value.message.endswith(
            "; missing parameters: asc_truck; unexpected parameters: asc_bus")
        d = table4_mnl().to_dict()
        d["parameters"] = dict(reversed(d["parameters"].items()))
        with pytest.raises(SchemaError) as err:
            EstimationResult.from_dict(d, schema_labels)
        assert err.value.message.endswith("; order differs")

    def test_load_without_schema_checks_the_sd_entries(self):
        d = table4_mmnl().to_dict()
        del d["parameters"]["sd:asc_truck"]
        with pytest.raises(SchemaError) as err:
            EstimationResult.from_dict(d)
        assert err.value.code == "parameter_mismatch"
        assert err.value.message.endswith("; missing parameters: sd:asc_truck")


class TestDemographicWeights:
    def test_structure_and_values(self):
        w = table3_demographic_weights()
        assert set(w) == {"gender", "age_group", "education_group"}
        assert w["gender"] == {"male": 0.5189, "female": 0.4811}
        assert w["education_group"]["university"] == 0.4621
        assert math.isclose(sum(w["gender"].values()), 1.0)
        assert math.isclose(sum(w["education_group"].values()), 1.0)
        # printed age marginals sum to 0.9999; sampler renormalizes
        assert sum(w["age_group"].values()) == pytest.approx(0.9999,
                                                             abs=1e-12)

    def test_labels_match_schema_levels(self, schema_labels):
        w = table3_demographic_weights()
        by_name = {a.name: a for a in schema_labels.attributes}
        for attr, dist in w.items():
            labels = {l.label for l in by_name[attr].levels}
            assert set(dist) == labels


class TestSchemaVariants:
    def test_cost_label_swap(self):
        d = {a.name: a for a in default_schema().attributes}
        t = {a.name: a for a in table4_labels_schema().attributes}
        moto_d = [l.label for l in d["delivery_cost_motorcycle"].levels]
        moto_t = [l.label for l in t["delivery_cost_motorcycle"].levels]
        truck_d = [l.label for l in d["delivery_cost_truck"].levels]
        truck_t = [l.label for l in t["delivery_cost_truck"].levels]
        assert moto_d == truck_t and truck_d == moto_t
        assert moto_d == ["1070", "870", "670", "470"]
        assert truck_d == ["1180", "980", "780", "580"]
        assert [l.value for l in t["delivery_cost_motorcycle"].levels] == [1180, 980, 780, 580]
        drone_d = [l.label for l in d["delivery_cost_drone"].levels]
        drone_t = [l.label for l in t["delivery_cost_drone"].levels]
        assert drone_d == drone_t
