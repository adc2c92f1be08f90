"""Schema definition, effects coding, parameter layout, validation."""

import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (
    AlternativeDef,
    AttributeDef,
    DesignError,
    EstimationResult,
    ExperimentSchema,
    Level,
    SchemaError,
    SimConfig,
    block_design,
    build_parameter_index,
    default_schema,
    ingest_choices,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    write_choices_csv,
)
from dce.cli import main
from dce.schema import _check_level


class TestDefaultSchema:
    def test_validates_clean(self, schema_default):
        assert dataclasses.replace(schema_default) == schema_default

    def test_labels_variant_validates_clean(self, schema_labels):
        assert dataclasses.replace(schema_labels) == schema_labels

    def test_alternatives(self, schema_default):
        ids = [a.id for a in schema_default.alternatives]
        assert ids == ["drone", "truck", "motorcycle"]
        assert [a.id for a in schema_default.alternatives if a.is_reference] \
            == ["motorcycle"]

    def test_fixed_part_has_38_parameters(self, schema_default):
        index = build_parameter_index(schema_default)
        assert index.n_params == 38
        names = index.names()
        assert names[0] == "asc_drone"
        assert names[1] == "asc_truck"
        assert len(set(names)) == 38

    def test_random_spec_appends_two_sds(self, schema_default):
        index = build_parameter_index(
            schema_default, ("asc_drone", "asc_truck"))
        assert index.n_params == 40
        assert list(index.names()[38:]) == ["sd:asc_drone", "sd:asc_truck"]
        assert index.sd_position("asc_truck") == 39

    def test_unknown_random_param(self, schema_default):
        with pytest.raises(SchemaError) as err:
            build_parameter_index(schema_default, ("not_a_param",))
        assert err.value.code == "unknown_parameter"

    def test_cost_levels_swap_between_variants(self, schema_default,
                                               schema_labels):
        def cost_labels(schema, mode):
            attr = schema.attribute(f"delivery_cost_{mode}")
            return sorted(l.label for l in attr.levels)

        assert cost_labels(schema_default, "truck") \
            == cost_labels(schema_labels, "motorcycle")
        assert cost_labels(schema_default, "motorcycle") \
            == cost_labels(schema_labels, "truck")
        assert cost_labels(schema_default, "drone") \
            == cost_labels(schema_labels, "drone")


class TestEffectsCoding:
    def test_codes_sum_to_zero_over_levels(self, schema_default):
        for attr in schema_default.attributes:
            if attr.coding != "effects":
                continue
            np.testing.assert_array_equal(attr.codes.sum(axis=0), np.zeros(len(attr.levels) - 1))

    def test_base_level_is_minus_one(self):
        attr = AttributeDef(
            name="x", scope="alternative_specific",
            levels=(Level("lo"), Level("mid"), Level("hi")),
            applies_to=("a",))
        np.testing.assert_array_equal(attr.codes, [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])

    def test_unknown_level_raises(self):
        attr = AttributeDef(
            name="x", scope="alternative_specific",
            levels=(Level("lo"), Level("hi")), applies_to=("a",))
        # every reader of a level label looks it up through _check_level
        with pytest.raises(SchemaError) as err:
            _check_level(attr, "x", "medium", 3, SchemaError)
        assert err.value.code == "unknown_level"
        assert err.value.row == 3


def _edit(schema, edit):
    """``schema``'s JSON dict after ``edit`` changed it in place."""
    d = schema.to_dict()
    edit(d)
    return d


def _attr(d, name):
    return next(a for a in d["attributes"] if a["name"] == name)


# one edit of the shipped default schema each, and the code it is refused
# with; none of them raised at construction before construction checked them
INVALID_EDITS = {
    "one_level": (lambda d: _attr(d, "dropoff_drone")["levels"].pop(),
                  "degenerate_attribute"),
    "duplicate_attribute": (lambda d: d["attributes"].append(_attr(d, "delivery_date_drone")),
                            "duplicate_attribute"),
    "applies_to_unknown": (lambda d: _attr(d, "dropoff_drone").update(applies_to=["zeppelin"]),
                           "unknown_alternative"),
    "interaction_with_reference": (
        lambda d: d["interactions"]["demographic"].append(["gender", "motorcycle"]),
        "interaction_with_reference"),
    "interaction_unknown_alternative": (
        lambda d: d["interactions"]["context"].append(["product_type", "zeppelin"]),
        "interaction_unknown_alternative"),
    "duplicate_level": (lambda d: _attr(d, "gender")["levels"].append({"label": "male"}),
                        "duplicate_level"),
    "duplicate_alternative": (lambda d: d["alternatives"].append(dict(d["alternatives"][0])),
                              "duplicate_alternative"),
    "no_reference": (lambda d: d["alternatives"][2].update(is_reference=False), "no_reference"),
    "two_references": (lambda d: d["alternatives"][0].update(is_reference=True),
                       "multiple_reference"),
    "interaction_with_design_attribute": (
        lambda d: d["interactions"]["demographic"].append(["delivery_date_drone", "drone"]),
        "interaction_scope"),
    "interaction_unknown_attribute": (
        lambda d: d["interactions"]["demographic"].append(["income", "drone"]),
        "unknown_interaction_attribute"),
    "linear_without_values": (lambda d: _attr(d, "social_influence").update(coding="linear"),
                              "missing_value"),
    "design_columns_meet": (lambda d: _attr(d, "dropoff_drone").update(column="delivery_date"),
                            "duplicate_column"),
    "context_column_read_twice": (
        lambda d: _attr(d, "product_type").update(column="social_influence"), "duplicate_column"),
    "core_column": (lambda d: _attr(d, "gender").update(column="block_id"), "duplicate_column"),
    "demographic_column_read_twice": (lambda d: _attr(d, "gender").update(column="age_group"),
                                      "duplicate_column"),
}


class TestValidation:
    def _base(self, **overrides):
        kwargs = dict(
            name="toy",
            alternatives=(AlternativeDef("a"),
                          AlternativeDef("b", is_reference=True)),
            attributes=(AttributeDef("x", "alternative_specific",
                                     (Level("lo"), Level("hi")),
                                     applies_to=("a",)),),
        )
        kwargs.update(overrides)
        return ExperimentSchema(**kwargs)

    def _code(self, build):
        with pytest.raises(SchemaError) as err:
            build()
        return err.value.code

    def test_clean(self):
        assert self._base().reference.id == "b"

    def test_no_reference(self):
        assert self._code(lambda: self._base(
            alternatives=(AlternativeDef("a"), AlternativeDef("b")))) == "no_reference"

    def test_multiple_reference(self):
        assert self._code(lambda: self._base(
            alternatives=(AlternativeDef("a", is_reference=True),
                          AlternativeDef("b", is_reference=True)))) == "multiple_reference"

    def test_duplicate_level(self):
        assert self._code(lambda: self._base(
            attributes=(AttributeDef("x", "alternative_specific",
                                     (Level("lo"), Level("lo")),
                                     applies_to=("a",)),))) == "duplicate_level"

    def test_degenerate_attribute(self):
        assert self._code(lambda: self._base(
            attributes=(AttributeDef("x", "alternative_specific", (Level("only"),),
                                     applies_to=("a",)),))) == "degenerate_attribute"

    def test_unknown_applies_to(self):
        assert self._code(lambda: self._base(
            attributes=(AttributeDef("x", "alternative_specific",
                                     (Level("lo"), Level("hi")),
                                     applies_to=("zeppelin",)),))) == "unknown_alternative"

    def test_bad_scope_rejected_at_construction(self):
        with pytest.raises(SchemaError) as err:
            AttributeDef("x", "per_planet", (Level("lo"), Level("hi")))
        assert err.value.code == "bad_scope"

    @pytest.mark.parametrize("edit, code", INVALID_EDITS.values(), ids=INVALID_EDITS)
    def test_invalid_schema_is_refused_at_load(self, tmp_path, capsys, schema_default,
                                               edit, code):
        d = _edit(schema_default, edit)
        with pytest.raises(SchemaError) as err:
            ExperimentSchema.from_dict(d)
        assert err.value.code == code
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["design", "--schema", str(path), "--runs", "32", "--blocks", "4",
                     "-o", str(tmp_path / "bad.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {code}: ")
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf"), "9", True])
    def test_linear_level_needs_a_finite_value(self, value):
        assert self._code(lambda: AttributeDef(
            "x", "alternative_specific", (Level("lo", 1.0), Level("hi", value)),
            coding="linear")) == "missing_value"

    def test_message_names_every_fault(self):
        with pytest.raises(SchemaError) as err:
            AttributeDef("x", "alternative_specific", (Level("only"),), coding="linear")
        assert err.value.code == "degenerate_attribute"
        assert "missing_value: " in err.value.message
        x = AttributeDef("x", "context", (Level("lo"), Level("hi")), column="chosen")
        with pytest.raises(SchemaError) as err:
            self._base(alternatives=(AlternativeDef("a"), AlternativeDef("a")),
                       attributes=(x, x), demographic_interactions=(("x", "c"),))
        assert err.value.code == "duplicate_alternative"
        for code in ("no_reference", "duplicate_attribute", "interaction_scope",
                     "interaction_unknown_alternative", "duplicate_column"):
            assert f"{code}: " in err.value.message

    def test_design_attributes_share_a_column_only_across_disjoint_alternatives(self):
        def cost(name, *alts):
            return AttributeDef(name, "alternative_specific", (Level("lo"), Level("hi")),
                                applies_to=alts, column="cost")

        assert self._base(attributes=(cost("cost_a", "a"), cost("cost_b", "b")))
        assert self._code(lambda: self._base(
            attributes=(cost("cost_a", "a"), cost("cost_ab", "a", "b")))) == "duplicate_column"
        shared = AttributeDef("s", "shared", (Level("lo"), Level("hi")), column="cost")
        assert self._code(lambda: self._base(
            attributes=(cost("cost_b", "b"), shared))) == "duplicate_column"

    def test_colliding_coefficient_names(self):
        """Declaring one interaction twice names its coefficients twice."""
        gender = AttributeDef("g", "demographic", (Level("m"), Level("f")))
        assert self._code(lambda: self._base(
            attributes=(gender,),
            demographic_interactions=(("g", "a"), ("g", "a")))) == "duplicate_parameter"


CORE_COLUMNS = ("respondent_id", "task_id", "block_id", "alt_id", "chosen")


def _random_edit(data, d):
    """One random edit of the schema dict ``d``, in place."""
    def pick(seq):
        return data.draw(st.sampled_from(seq))

    attrs, alts = d["attributes"], d["alternatives"]
    attr = pick(attrs)
    kind = data.draw(st.sampled_from(["drop_level", "duplicate_level", "column", "reference",
                                      "interaction", "duplicate_attribute",
                                      "duplicate_alternative"]))
    if kind == "drop_level" and attr["levels"]:
        attr["levels"].pop(data.draw(st.integers(0, len(attr["levels"]) - 1)))
    elif kind == "duplicate_level" and attr["levels"]:
        attr["levels"].append(dict(pick(attr["levels"])))
    elif kind == "column":
        attr["column"] = pick([*(a["column"] for a in attrs), *CORE_COLUMNS, "fresh"])
    elif kind == "reference":
        alt = pick(alts)
        alt["is_reference"] = not alt["is_reference"]
    elif kind == "interaction":
        pair = pick([p for pairs in d["interactions"].values() for p in pairs])
        if data.draw(st.booleans()):
            pair[0] = pick([*(a["name"] for a in attrs), "income"])
        else:
            pair[1] = pick([*(a["id"] for a in alts), "zeppelin"])
    elif kind == "duplicate_attribute":
        attrs.append(copy.deepcopy(attr))
    elif kind == "duplicate_alternative":
        alts.append(dict(pick(alts)))


class TestEndToEnd:
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_a_schema_that_constructs_runs_end_to_end(self, tmp_path_factory, data):
        """1-3 random edits of the default schema: either it is refused at
        construction, or it designs, simulates, writes and reads back the
        same dataset, with only the design search's infeasible on the way."""
        d = default_schema().to_dict()
        for _ in range(data.draw(st.integers(1, 3))):
            _random_edit(data, d)
        try:
            schema = ExperimentSchema.from_dict(d)
        except SchemaError:
            return
        try:
            with warnings.catch_warnings():  # level counts that do not divide 64
                warnings.simplefilter("ignore", UserWarning)
                design = select_fraction(schema, 64, seed=0, iters=50, restarts=1)
        except DesignError as err:
            assert err.code == "infeasible"
            return
        design = block_design(design, 4, seed=0)
        truth = np.zeros(build_parameter_index(schema).n_params)
        dataset = simulate_dataset(SimConfig(schema, design, truth, n_respondents=10))
        path = tmp_path_factory.mktemp("edited") / "choices.csv"
        write_choices_csv(dataset, path)
        assert ingest_choices(path, schema) == dataset


class TestSerialization:
    def test_round_trip_default(self, schema_default):
        clone = ExperimentSchema.from_dict(schema_default.to_dict())
        assert clone == schema_default

    def test_round_trip_labels(self, schema_labels):
        clone = ExperimentSchema.from_dict(schema_labels.to_dict())
        assert clone == schema_labels

    def test_json_round_trip(self, tmp_path, schema_default):
        path = tmp_path / "schema.json"
        schema_default.save(path)
        clone = ExperimentSchema.load(path)
        assert clone == schema_default

    def test_byte_order_mark_is_dropped(self, tmp_path, schema_labels):
        """A schema saved by an editor that writes a UTF-8 BOM loads as
        the same file without it."""
        path = tmp_path / "schema.json"
        schema_labels.save(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ExperimentSchema.load(path) == schema_labels

    @pytest.mark.parametrize("load, code", [(ExperimentSchema.load, "schema_json"),
                                            (EstimationResult.load, "result_json")],
                             ids=["schema", "result"])
    def test_nesting_past_the_recursion_limit_is_typed(self, tmp_path, load, code):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError) as err:
            load(path)
        assert err.value.code == code

    def test_malformed_json(self, tmp_path, schema_default):
        path = tmp_path / "bad.json"
        listed = {**schema_default.to_dict(), "interactions": []}
        texts = ["{not json", json.dumps(listed)]
        # json writes and reads NaN and Infinity, which are no JSON numbers
        for value in ("abc", True, float("nan"), float("inf"), float("-inf")):
            d = schema_default.to_dict()
            cost = next(a for a in d["attributes"] if a["name"] == "delivery_cost_drone")
            cost["levels"][0]["value"] = value
            texts.append(json.dumps(d))
        # each loaded coerced before: as True, as ('d','r','o','n','e') and
        # as a level whose label is an int
        for set_field in (lambda d: d["alternatives"][0].update(is_reference="false"),
                          lambda d: d["attributes"][1].update(applies_to="drone"),
                          lambda d: d["attributes"][1]["levels"][0].update(label=5)):
            d = schema_default.to_dict()
            set_field(d)
            texts.append(json.dumps(d))
        for text in texts:
            path.write_text(text)
            with pytest.raises(SchemaError) as err:
                ExperimentSchema.load(path)
            assert err.value.code == "schema_json"


class TestParameterIndex:
    def test_positions_and_lookup(self, schema_default):
        index = build_parameter_index(schema_default)
        names = index.names()
        pos = index.positions(("asc_truck", names[5]))
        assert list(pos) == [1, 5]

    def test_unknown_name(self, schema_default):
        index = build_parameter_index(schema_default)
        with pytest.raises(SchemaError) as err:
            index.position("nope")
        assert err.value.code == "unknown_parameter"

    def test_duplicate_random_params_rejected(self, schema_default):
        with pytest.raises(SchemaError):
            build_parameter_index(schema_default,
                                  ("asc_drone", "asc_drone"))
