"""Built-in schemas and published estimates of the Japan drone-delivery study;
README's "Shipped schemas and fixtures" says what they hold."""

from __future__ import annotations

from importlib.resources import files

from .results import EstimationResult
from .schema import ExperimentSchema

__all__ = [
    "default_schema",
    "table4_labels_schema",
    "table3_demographic_weights",
    "table4_mnl",
    "table4_mmnl",
    "builtin_fixture",
    "builtin_schema",
]

_DATA = files(__package__) / "data"


def default_schema() -> ExperimentSchema:
    """Three delivery modes, attribute-table cost labeling."""
    return ExperimentSchema.load(_DATA / "drone_delivery_japan.json")


def table4_labels_schema() -> ExperimentSchema:
    """Variant with motorcycle/truck cost level sets as printed in the
    estimate table (swapped relative to the attribute table)."""
    return ExperimentSchema.load(_DATA / "drone_delivery_japan_table4_labels.json")


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


def table4_mnl() -> EstimationResult:
    """Published multinomial logit estimates (printed labels)."""
    return EstimationResult.load(_DATA / "table4_mnl.json", table4_labels_schema())


def table4_mmnl() -> EstimationResult:
    """Published mixed logit estimates (printed labels, absolute sds)."""
    return EstimationResult.load(_DATA / "table4_mmnl.json", table4_labels_schema())


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
