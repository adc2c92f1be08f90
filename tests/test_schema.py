"""Schema definition, effects coding, parameter layout, validation."""

import json

import numpy as np
import pytest

from dce import (
    AlternativeDef,
    AttributeDef,
    EstimationResult,
    ExperimentSchema,
    Level,
    SchemaError,
    build_parameter_index,
    default_schema,
    table4_labels_schema,
    validate_schema,
)
from dce.schema import _check_level


class TestDefaultSchema:
    def test_validates_clean(self, schema_default):
        assert validate_schema(schema_default) == []

    def test_labels_variant_validates_clean(self, schema_labels):
        assert validate_schema(schema_labels) == []

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

    def test_clean(self):
        assert validate_schema(self._base()) == []

    def test_no_reference(self):
        schema = self._base(alternatives=(AlternativeDef("a"),
                                          AlternativeDef("b")))
        assert "no_reference" in {i.code for i in validate_schema(schema)}

    def test_multiple_reference(self):
        schema = self._base(
            alternatives=(AlternativeDef("a", is_reference=True),
                          AlternativeDef("b", is_reference=True)))
        assert "multiple_reference" in {i.code
                                        for i in validate_schema(schema)}

    def test_duplicate_level(self):
        schema = self._base(
            attributes=(AttributeDef("x", "alternative_specific",
                                     (Level("lo"), Level("lo")),
                                     applies_to=("a",)),))
        assert "duplicate_level" in {i.code for i in validate_schema(schema)}

    def test_degenerate_attribute(self):
        schema = self._base(
            attributes=(AttributeDef("x", "alternative_specific", (Level("only"),),
                                     applies_to=("a",)),))
        assert "degenerate_attribute" in {i.code
                                          for i in validate_schema(schema)}

    def test_unknown_applies_to(self):
        schema = self._base(
            attributes=(AttributeDef("x", "alternative_specific",
                                     (Level("lo"), Level("hi")),
                                     applies_to=("zeppelin",)),))
        assert "unknown_alternative" in {i.code
                                         for i in validate_schema(schema)}

    def test_bad_scope_rejected_at_construction(self):
        with pytest.raises(SchemaError) as err:
            AttributeDef("x", "per_planet", (Level("lo"), Level("hi")))
        assert err.value.code == "bad_scope"


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
