"""Built-in schema for the Japan drone-delivery study and published estimates.

Two schema variants ship because the source tables disagree on which cost
level set belongs to motorcycle vs truck:

  default_schema()        attribute-table labeling
                          (motorcycle 470..1070, truck 580..1180)
  table4_labels_schema()  estimate-table labeling as printed
                          (motorcycle 580..1180, truck 470..1070)

The transcribed coefficient fixtures pair with the second variant, since
that is how the estimates were printed. No attempt is made to guess which
labeling was intended; each pipeline is internally consistent.

Transcription notes: standard deviations of the random ASCs were printed
with a negative sign; they are stored as absolute values here (the sign is
not identified). A few implied base levels in the MNL column differ from
the negated sum of the printed coefficients by 0.001 (source rounding);
the printed values are kept.
"""

from __future__ import annotations

import numpy as np

from .numerics import HaltonConfig, MixingSpec
from .results import EstimationResult
from .schema import AlternativeDef, AttributeDef, ExperimentSchema, Level, build_parameter_index

__all__ = [
    "default_schema",
    "table4_labels_schema",
    "table3_demographic_weights",
    "table4_mnl",
    "table4_mmnl",
    "builtin_fixture",
    "builtin_schema",
]

_COST_DRONE = (1080, 880, 680, 480)
_COST_TRUCK = (1180, 980, 780, 580)
_COST_MOTORCYCLE = (1070, 870, 670, 470)


def _cost_attr(mode: str, yens: tuple[int, ...]) -> AttributeDef:
    return AttributeDef(
        name=f"delivery_cost_{mode}",
        scope="alternative_specific",
        applies_to=(mode,),
        column="delivery_cost",
        levels=tuple(Level(str(y), value=float(y), display=f"{y} Yen") for y in yens),
    )


def _date_attr(mode: str) -> AttributeDef:
    return AttributeDef(
        name=f"delivery_date_{mode}",
        scope="alternative_specific",
        applies_to=(mode,),
        column="delivery_date",
        levels=(
            Level("next_day", display="The Next Day"),
            Level("day_after_tomorrow", display="The Day After Tomorrow"),
        ),
    )


def _dropoff_attr(mode: str) -> AttributeDef:
    return AttributeDef(
        name=f"dropoff_{mode}",
        scope="alternative_specific",
        applies_to=(mode,),
        column="dropoff_place",
        levels=(
            Level("doorstep", display="Doorstep"),
            Level(*(("window_balcony", None, "Window Or Balcony Sills")
                    if mode == "drone" else
                    ("smart_storage_box", None, "Smart Storage Box"))),
        ),
    )


def _build_schema(name: str, moto_costs: tuple[int, ...], truck_costs: tuple[int, ...]):
    alternatives = (
        AlternativeDef("drone", "Drone"),
        AlternativeDef("truck", "Truck"),
        AlternativeDef("motorcycle", "Motorcycle", is_reference=True),
    )
    attributes = (
        AttributeDef(
            name="product_type",
            scope="context",
            levels=(
                Level("daily_goods", display="Daily Consumer Goods"),
                Level("medicine_health", display="Medicine Or Health Care Products"),
                Level("electronics", display="Electronics"),
                Level("gift", display="Gift"),
            ),
        ),
        _dropoff_attr("motorcycle"),
        _dropoff_attr("drone"),
        _dropoff_attr("truck"),
        _date_attr("motorcycle"),
        _date_attr("drone"),
        _date_attr("truck"),
        _cost_attr("motorcycle", moto_costs),
        _cost_attr("drone", _COST_DRONE),
        _cost_attr("truck", truck_costs),
        AttributeDef(
            name="social_influence",
            scope="shared",
            levels=(
                Level("neighbor_30", display="30% Of Neighbor"),
                Level("neighbor_70", display="70% Of Neighbor"),
                Level("family_30", display="30% Of Family Members And Close Friends"),
                Level("family_70", display="70% Of Family Members And Close Friends"),
            ),
        ),
        AttributeDef(
            name="gender",
            scope="demographic",
            levels=(Level("male", display="Male"), Level("female", display="Female")),
        ),
        AttributeDef(
            name="age_group",
            scope="demographic",
            levels=(
                Level("age_18_34", display="18-34 Years Old"),
                Level("age_55_74", display="55-74 Years Old"),
                Level("age_75_plus", display=">=75 Years Old"),
                Level("age_35_54", display="35-54 Years Old"),
            ),
        ),
        AttributeDef(
            name="education_group",
            scope="demographic",
            levels=(
                Level("university", display="Graduate School - University"),
                Level("vocational", display="Vocational School - Junior College"),
                Level("other", display="Elementary School - High School"),
            ),
        ),
    )
    return ExperimentSchema(
        name=name,
        alternatives=alternatives,
        attributes=attributes,
        context_interactions=(("product_type", "drone"), ("product_type", "truck")),
        demographic_interactions=(
            ("gender", "drone"), ("gender", "truck"),
            ("age_group", "drone"), ("age_group", "truck"),
            ("education_group", "drone"), ("education_group", "truck"),
        ),
    )


def default_schema() -> ExperimentSchema:
    """Three delivery modes, attribute-table cost labeling."""
    return _build_schema("drone_delivery_japan", _COST_MOTORCYCLE, _COST_TRUCK)


def table4_labels_schema() -> ExperimentSchema:
    """Variant with motorcycle/truck cost level sets as printed in the
    estimate table (swapped relative to the attribute table)."""
    return _build_schema("drone_delivery_japan_table4_labels", _COST_TRUCK, _COST_MOTORCYCLE)


def table3_demographic_weights() -> dict[str, dict[str, float]]:
    """Sample marginals used as simulator sampling weights.

    Education groups the reported University and Graduate School shares into
    the single university level used by the utility specification.
    """
    return {
        "gender": {"male": 0.5189, "female": 0.4811},
        "age_group": {"age_18_34": 0.2765, "age_55_74": 0.2102,
                      "age_75_plus": 0.0587, "age_35_54": 0.4545},
        "education_group": {"university": 0.4621, "vocational": 0.1629, "other": 0.3750},
    }


# --------------------------------------------------------------------------
# Transcribed estimates. Each entry: name -> (estimate, p_value or None).
# Layout follows the parameter index of table4_labels_schema().
# --------------------------------------------------------------------------

_MNL_PARAMS = {
    "asc_drone": (-0.413, 0.000),
    "asc_truck": (-0.339, 0.000),
    "product_type_drone:daily_goods": (0.053, 0.214),
    "product_type_drone:medicine_health": (0.129, 0.020),
    "product_type_drone:electronics": (0.095, 0.078),
    "product_type_truck:daily_goods": (-0.236, 0.000),
    "product_type_truck:medicine_health": (-0.212, 0.002),
    "product_type_truck:electronics": (0.520, 0.000),
    "dropoff_motorcycle:doorstep": (0.208, 0.000),
    "dropoff_drone:doorstep": (0.043, 0.151),
    "dropoff_truck:doorstep": (-0.022, 0.281),
    "delivery_date_motorcycle:next_day": (0.111, 0.001),
    "delivery_date_drone:next_day": (0.342, 0.000),
    "delivery_date_truck:next_day": (0.050, 0.092),
    "delivery_cost_motorcycle:1180": (-1.452, 0.000),
    "delivery_cost_motorcycle:980": (-0.337, 0.000),
    "delivery_cost_motorcycle:780": (0.426, 0.000),
    "delivery_cost_drone:1080": (-1.264, 0.000),
    "delivery_cost_drone:880": (-0.316, 0.000),
    "delivery_cost_drone:680": (0.338, 0.000),
    "delivery_cost_truck:1070": (-1.027, 0.000),
    "delivery_cost_truck:870": (-0.334, 0.000),
    "delivery_cost_truck:670": (0.239, 0.000),
    "social_influence:neighbor_30": (-0.074, 0.031),
    "social_influence:neighbor_70": (0.102, 0.004),
    "social_influence:family_30": (-0.039, 0.135),
    "gender_drone:male": (0.106, 0.041),
    "gender_truck:male": (0.000, 0.499),
    "age_group_drone:age_18_34": (0.250, 0.012),
    "age_group_drone:age_55_74": (-0.203, 0.036),
    "age_group_drone:age_75_plus": (-0.172, 0.148),
    "age_group_truck:age_18_34": (-0.061, 0.292),
    "age_group_truck:age_55_74": (0.014, 0.447),
    "age_group_truck:age_75_plus": (-0.044, 0.408),
    "education_group_drone:university": (0.055, 0.252),
    "education_group_drone:vocational": (-0.131, 0.106),
    "education_group_truck:university": (0.107, 0.085),
    "education_group_truck:vocational": (-0.199, 0.030),
}

_MNL_BASES = {
    "product_type_drone:gift": -0.278,
    "product_type_truck:gift": -0.073,
    "delivery_cost_motorcycle:580": 1.363,
    "delivery_cost_drone:480": 1.242,
    "delivery_cost_truck:470": 1.121,
    "social_influence:family_70": 0.011,
    "age_group_drone:age_35_54": 0.126,
    "age_group_truck:age_35_54": 0.091,
    "education_group_drone:other": 0.077,
    "education_group_truck:other": 0.092,
}

_MMNL_PARAMS = {
    "asc_drone": (-0.719, 0.000),
    "asc_truck": (-0.567, 0.000),
    "product_type_drone:daily_goods": (0.135, 0.082),
    "product_type_drone:medicine_health": (0.168, 0.033),
    "product_type_drone:electronics": (0.056, 0.275),
    "product_type_truck:daily_goods": (-0.260, 0.004),
    "product_type_truck:medicine_health": (-0.416, 0.000),
    "product_type_truck:electronics": (0.694, 0.000),
    "dropoff_motorcycle:doorstep": (0.321, 0.000),
    "dropoff_drone:doorstep": (0.064, 0.142),
    "dropoff_truck:doorstep": (-0.008, 0.442),
    "delivery_date_motorcycle:next_day": (0.162, 0.000),
    "delivery_date_drone:next_day": (0.489, 0.000),
    "delivery_date_truck:next_day": (0.030, 0.287),
    "delivery_cost_motorcycle:1180": (-2.230, 0.000),
    "delivery_cost_motorcycle:980": (-0.367, 0.000),
    "delivery_cost_motorcycle:780": (0.553, 0.000),
    "delivery_cost_drone:1080": (-1.966, 0.000),
    "delivery_cost_drone:880": (-0.437, 0.000),
    "delivery_cost_drone:680": (0.508, 0.000),
    "delivery_cost_truck:1070": (-1.607, 0.000),
    "delivery_cost_truck:870": (-0.444, 0.000),
    "delivery_cost_truck:670": (0.422, 0.000),
    "social_influence:neighbor_30": (-0.062, 0.123),
    "social_influence:neighbor_70": (0.124, 0.013),
    "social_influence:family_30": (-0.094, 0.028),
    "gender_drone:male": (0.187, 0.018),
    "gender_truck:male": (-0.012, 0.439),
    "age_group_drone:age_18_34": (0.374, 0.012),
    "age_group_drone:age_55_74": (-0.314, 0.029),
    "age_group_drone:age_75_plus": (-0.212, 0.182),
    "age_group_truck:age_18_34": (-0.041, 0.394),
    "age_group_truck:age_55_74": (0.026, 0.428),
    "age_group_truck:age_75_plus": (-0.116, 0.320),
    "education_group_drone:university": (0.098, 0.202),
    "education_group_drone:vocational": (-0.168, 0.125),
    "education_group_truck:university": (0.168, 0.055),
    "education_group_truck:vocational": (-0.274, 0.027),
    "sd:asc_drone": (1.500, 0.000),
    "sd:asc_truck": (1.241, 0.000),
}

_MMNL_BASES = {
    "product_type_drone:gift": -0.359,
    "product_type_truck:gift": -0.018,
    "delivery_cost_motorcycle:580": 2.044,
    "delivery_cost_drone:480": 1.895,
    "delivery_cost_truck:470": 1.629,
    "social_influence:family_70": 0.032,
    "age_group_drone:age_35_54": 0.152,
    "age_group_truck:age_35_54": 0.131,
    "education_group_drone:other": 0.070,
    "education_group_truck:other": 0.106,
}

_LL_NULL = -4640.540
_LL_MNL = -3641.330
_LL_MMNL = -3367.430


def _make_result(param_table, bases, ll_final, model, mixing) -> EstimationResult:
    schema = table4_labels_schema()
    rps = mixing.random_params if mixing else ()
    index = build_parameter_index(schema, rps)
    names = index.names()
    missing = [n for n in names if n not in param_table]
    if missing:  # transcription and layout must agree exactly
        raise AssertionError(f"fixture out of sync with schema layout: {missing}")
    params = np.array([param_table[n][0] for n in names], dtype=np.float64)
    p_values = np.array([np.nan if param_table[n][1] is None else param_table[n][1]
                         for n in names], dtype=np.float64)
    return EstimationResult(
        index=index,
        params=params,
        std_errors=None,
        p_values=p_values,
        ll_final=ll_final,
        ll_null=_LL_NULL,
        converged=True,
        iterations=0,
        model=model,
        mixing=mixing,
        base_levels=dict(bases),
        n_respondents=528,
        n_tasks=4224,
    )


def table4_mnl() -> EstimationResult:
    """Published multinomial logit estimates (printed labels)."""
    return _make_result(_MNL_PARAMS, _MNL_BASES, _LL_MNL, "mnl", None)


def table4_mmnl() -> EstimationResult:
    """Published mixed logit estimates (printed labels, absolute sds)."""
    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(primes=(2, 3), drop=10, n_draws=500))
    return _make_result(_MMNL_PARAMS, _MMNL_BASES, _LL_MMNL, "mmnl", mixing)


_FIXTURES = {
    "table4": table4_mmnl,
    "table4-mmnl": table4_mmnl,
    "table4-mnl": table4_mnl,
}

_SCHEMAS = {
    "drone_delivery_japan": default_schema,
    "drone_delivery_japan_table4_labels": table4_labels_schema,
}


def builtin_fixture(name: str) -> EstimationResult:
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {sorted(_FIXTURES)}")
    return _FIXTURES[name]()


def builtin_schema(name: str) -> ExperimentSchema:
    if name not in _SCHEMAS:
        raise KeyError(f"unknown schema {name!r}; available: {sorted(_SCHEMAS)}")
    return _SCHEMAS[name]()
