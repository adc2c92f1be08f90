"""Experiment schema: alternatives, attributes, coding, and the parameter layout.

A schema declares the choice setting once; the design generator, the data
pipeline, the estimators, and the simulator all derive their column layout
from it through ``build_parameter_index``, so a coefficient name means the
same thing everywhere.

Scopes:
  alternative_specific  levels and coefficients belong to one alternative
  shared                every alternative carries its own level of the
                        attribute, but all alternatives share one
                        coefficient block (identified by cross-alternative
                        level variation within a task)
  context               task-level variable entering only through declared
                        interactions with non-reference alternatives
  demographic           respondent-level variable entering only through
                        declared interactions with non-reference alternatives

Effects coding: an L-level attribute spans L - 1 columns; the base level is
the last level listed and codes -1 in every column, so each column's codes
sum to zero across levels and the implied base coefficient is the negated
sum of the estimated ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import SchemaError, read_json

__all__ = [
    "Level",
    "AlternativeDef",
    "AttributeDef",
    "ExperimentSchema",
    "ParamInfo",
    "ParameterIndex",
    "SchemaIssue",
    "effects_code",
    "build_parameter_index",
    "validate_schema",
]

SCOPES = ("alternative_specific", "shared", "context", "demographic")
CODINGS = ("effects", "linear")


@dataclass(frozen=True)
class Level:
    """One attribute level: machine label, optional numeric value, display text."""

    label: str
    value: float | None = None
    display: str | None = None


_MAX_DOUBLE = float(np.finfo(np.float64).max)


def _checked(code: str, value, kind: str, what: str, optional: bool = False):
    """``value`` if its JSON type is ``kind`` ("boolean", "integer", "number",
    "string" or "array"), or null when ``optional``; else SchemaError
    ``code``. Nothing is coerced, and a boolean is neither an integer nor a
    number. A number must be finite and within a double's range: ``json``
    reads NaN, Infinity, 1e400 (as inf) and integers no double holds. The
    schema and result loaders check every field with it."""
    types = {"boolean": bool, "integer": int, "number": (int, float), "string": str,
             "array": list}[kind]
    if not (optional and value is None) and (
            not isinstance(value, types) or isinstance(value, bool) != (kind == "boolean")
            or (kind == "number" and not abs(value) <= _MAX_DOUBLE)):
        raise SchemaError(code, f"{what} must be a JSON {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class AlternativeDef:
    id: str
    label: str = ""
    is_reference: bool = False


@dataclass(frozen=True)
class AttributeDef:
    """One attribute. ``applies_to`` empty means all alternatives.

    ``column`` is the CSV column carrying this attribute's level labels in
    long-format data and design exports; it defaults to ``name``. Several
    alternative-specific attributes may share a column (one per alternative)
    when they represent the same underlying quantity with different level
    sets, e.g. per-mode delivery cost.
    """

    name: str
    scope: str
    levels: tuple[Level, ...]
    applies_to: tuple[str, ...] = ()
    coding: str = "effects"
    column: str | None = None

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise SchemaError("bad_scope", f"attribute {self.name}: unknown scope {self.scope!r}")
        if self.coding not in CODINGS:
            raise SchemaError("bad_coding", f"attribute {self.name}: unknown coding {self.coding!r}")

    @property
    def csv_column(self) -> str:
        return self.column if self.column is not None else self.name

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_columns(self) -> int:
        return 1 if self.coding == "linear" else len(self.levels) - 1

    @property
    def base_level(self) -> Level:
        return self.levels[-1]

    def level_labels(self) -> tuple[str, ...]:
        return tuple(l.label for l in self.levels)

    @cached_property
    def level_index(self) -> dict[str, int]:
        """Label -> position in ``levels`` (labels are unique in a valid schema)."""
        return {l.label: i for i, l in enumerate(self.levels)}

    @cached_property
    def codes(self) -> np.ndarray:
        """Read-only code table, (n_levels, n_columns): row i codes level i.

        Effects coding gives level i < L-1 the unit vector e_i and the base
        (last listed) level -1 in every column; linear coding gives each
        level its numeric value.
        """
        if self.coding == "effects":
            table = np.vstack([np.eye(self.n_levels - 1), -np.ones(self.n_levels - 1)])
        else:
            for l in self.levels:
                if l.value is None:
                    raise SchemaError("missing_value", f"attribute {self.name}: level "
                                                       f"{l.label!r} has no numeric value")
            table = np.array([[l.value] for l in self.levels], dtype=np.float64)
        table.flags.writeable = False
        return table


def effects_code(attribute: AttributeDef, label: str) -> np.ndarray:
    """Code one level of an attribute: its read-only row of ``attribute.codes``.

    Effects coding returns a length L-1 vector: unit vector for a non-base
    level, all -1 for the base (last listed) level. Linear coding returns the
    level's numeric value as a length-1 vector.
    """
    if label not in attribute.level_index:
        raise SchemaError("unknown_level",
                          f"attribute {attribute.name}: unknown level {label!r}")
    return attribute.codes[attribute.level_index[label]]


def _check_level(attr: AttributeDef, column: str, label: str, row: int, error) -> int:
    """``label``'s index in ``attr``'s levels, read from a file's ``column`` at
    ``row``; a label the attribute lacks raises ``error("unknown_level")``."""
    try:
        return attr.level_index[label]
    except KeyError:
        raise error("unknown_level", f"column {column!r}: {label!r} is not a level of "
                                     f"{attr.name}", row=row) from None


@dataclass(frozen=True)
class ExperimentSchema:
    """Alternatives, attributes, and interaction declarations."""

    name: str
    alternatives: tuple[AlternativeDef, ...]
    attributes: tuple[AttributeDef, ...]
    context_interactions: tuple[tuple[str, str], ...] = ()
    demographic_interactions: tuple[tuple[str, str], ...] = ()

    # -- lookups ----------------------------------------------------------

    def alternative_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.alternatives)

    @property
    def reference(self) -> AlternativeDef:
        refs = [a for a in self.alternatives if a.is_reference]
        if len(refs) != 1:
            raise SchemaError("reference", f"schema {self.name}: need exactly one reference "
                                           f"alternative, found {len(refs)}")
        return refs[0]

    def attribute(self, name: str) -> AttributeDef:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError("unknown_attribute", f"schema {self.name}: no attribute {name!r}")

    def applies(self, attr: AttributeDef, alt_id: str) -> bool:
        return not attr.applies_to or alt_id in attr.applies_to

    def design_attributes(self, alt_id: str) -> tuple[AttributeDef, ...]:
        """Attributes whose levels vary run-by-run for this alternative."""
        return tuple(a for a in self.attributes
                     if a.scope in ("alternative_specific", "shared") and self.applies(a, alt_id))

    def context_attributes(self) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if a.scope == "context")

    def demographic_attributes(self) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if a.scope == "demographic")

    def design_columns(self) -> tuple[str, ...]:
        """Long-format design columns in first-appearance order."""
        seen: list[str] = []
        for a in self.attributes:
            if a.scope in ("alternative_specific", "shared") and a.csv_column not in seen:
                seen.append(a.csv_column)
        return tuple(seen)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        def level_dict(l: Level) -> dict:
            d: dict = {"label": l.label}
            if l.value is not None:
                d["value"] = l.value
            if l.display is not None:
                d["display"] = l.display
            return d

        return {
            "name": self.name,
            "alternatives": [
                {"id": a.id, "label": a.label, "is_reference": a.is_reference}
                for a in self.alternatives
            ],
            "attributes": [
                {
                    "name": a.name,
                    "scope": a.scope,
                    "coding": a.coding,
                    "applies_to": list(a.applies_to),
                    "column": a.csv_column,
                    "levels": [level_dict(l) for l in a.levels],
                }
                for a in self.attributes
            ],
            "interactions": {
                "context": [list(p) for p in self.context_interactions],
                "demographic": [list(p) for p in self.demographic_interactions],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSchema":
        """Rebuild a schema from its JSON dict. Every field must hold its own
        JSON type, else SchemaError "schema_json": nothing is coerced, so
        ``"false"`` is not a boolean nor ``"drone"`` a list of alternatives."""
        checked = partial(_checked, "schema_json")

        def strings(value, what):
            return tuple(checked(v, "string", what) for v in checked(value, "array", what))

        def interactions(kind):
            """``kind``'s [attribute, alternative] pairs; a pair of another
            length fails to unpack with ValueError"""
            listed = checked(d.get("interactions", {}).get(kind, []), "array", kind)
            return tuple((attr, alt) for attr, alt in (strings(p, f"{kind} interaction")
                                                       for p in listed))

        try:
            alts = tuple(
                AlternativeDef(checked(a["id"], "string", "alternative id"),
                               checked(a.get("label", ""), "string", "alternative label"),
                               checked(a.get("is_reference", False), "boolean", "is_reference"))
                for a in checked(d["alternatives"], "array", "alternatives"))
            attrs = tuple(
                AttributeDef(
                    name=checked(a["name"], "string", "attribute name"),
                    scope=checked(a["scope"], "string", "scope"),
                    coding=checked(a.get("coding", "effects"), "string", "coding"),
                    applies_to=strings(a.get("applies_to", []), "applies_to"),
                    # the JSON always materializes the column; fold the
                    # default back to None so round trips compare equal
                    column=None if a.get("column") == a["name"]
                    else checked(a.get("column"), "string", "column", True),
                    levels=tuple(
                        Level(checked(l["label"], "string", "level label"),
                              checked(l.get("value"), "number", "level value", True),
                              checked(l.get("display"), "string", "level display", True))
                        for l in checked(a["levels"], "array", "levels")),
                )
                for a in checked(d["attributes"], "array", "attributes"))
            return cls(
                name=checked(d["name"], "string", "schema name"),
                alternatives=alts,
                attributes=attrs,
                context_interactions=interactions("context"),
                demographic_interactions=interactions("demographic"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError("schema_json", f"malformed schema JSON: {exc!r}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSchema":
        return cls.from_dict(read_json(path, "schema_json"))


# ---------------------------------------------------------------------------
# Parameter index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamInfo:
    """One utility-function column."""

    name: str
    kind: str  # asc | context | attribute | demographic | sd
    attribute: str | None = None
    alternative: str | None = None  # owning alternative; None for shared blocks
    level: str | None = None


@dataclass(frozen=True)
class ParameterIndex:
    """Bijective, deterministic map between coefficient names and columns."""

    schema_name: str
    entries: tuple[ParamInfo, ...]
    random_params: tuple[str, ...] = ()

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError("duplicate_parameter", f"duplicate parameter names: {dupes}")

    @property
    def n_params(self) -> int:
        return len(self.entries)

    @property
    def n_fixed(self) -> int:
        return len(self.entries) - len(self.random_params)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def position(self, name: str) -> int:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        raise SchemaError("unknown_parameter", f"no parameter named {name!r}")

    def positions(self, names) -> np.ndarray:
        return np.array([self.position(n) for n in names], dtype=np.intp)

    def sd_position(self, param_name: str) -> int:
        return self.position(f"sd:{param_name}")


def _block_prefix(attr: AttributeDef, alt_id: str | None) -> str:
    if alt_id is None or (len(attr.applies_to) == 1 and attr.applies_to[0] == alt_id):
        return attr.name
    return f"{attr.name}_{alt_id}"


def build_parameter_index(schema: ExperimentSchema,
                          random_params: tuple[str, ...] = ()) -> ParameterIndex:
    """Lay out utility columns for a schema.

    Order: ASCs for non-reference alternatives (schema order), context
    interaction blocks (declared order), design attributes (declared order;
    an alternative_specific attribute contributes one block per applicable
    alternative, a shared attribute one block total), demographic interaction
    blocks (declared order), then one sd column per entry of
    ``random_params``. Identical schemas produce identical orderings.
    """
    ref = schema.reference
    entries: list[ParamInfo] = []

    for alt in schema.alternatives:
        if not alt.is_reference:
            entries.append(ParamInfo(f"asc_{alt.id}", "asc", alternative=alt.id))

    def _add_block(kind: str, attr: AttributeDef, alt_id: str | None, prefix: str):
        if attr.coding == "linear":
            entries.append(ParamInfo(prefix, kind, attribute=attr.name,
                                     alternative=alt_id, level=None))
            return
        for lv in attr.levels[:-1]:
            entries.append(ParamInfo(f"{prefix}:{lv.label}", kind, attribute=attr.name,
                                     alternative=alt_id, level=lv.label))

    for attr_name, alt_id in schema.context_interactions:
        attr = schema.attribute(attr_name)
        _add_block("context", attr, alt_id, f"{attr.name}_{alt_id}")

    for attr in schema.attributes:
        if attr.scope == "alternative_specific":
            for alt in schema.alternatives:
                if schema.applies(attr, alt.id):
                    _add_block("attribute", attr, alt.id, _block_prefix(attr, alt.id))
        elif attr.scope == "shared":
            _add_block("attribute", attr, None, attr.name)

    for attr_name, alt_id in schema.demographic_interactions:
        attr = schema.attribute(attr_name)
        _add_block("demographic", attr, alt_id, f"{attr.name}_{alt_id}")

    fixed_names = {e.name for e in entries}
    for rp in random_params:
        if rp not in fixed_names:
            raise SchemaError("unknown_parameter",
                              f"random parameter {rp!r} is not a fixed-part coefficient")
    for rp in random_params:
        entries.append(ParamInfo(f"sd:{rp}", "sd", attribute=None, alternative=None, level=rp))

    return ParameterIndex(schema.name, tuple(entries), tuple(random_params))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemaIssue:
    code: str
    message: str


def validate_schema(schema: ExperimentSchema) -> list[SchemaIssue]:
    """Collect all schema violations; returns an empty list when valid.

    Never raises: callers decide whether issues are fatal.
    """
    issues: list[SchemaIssue] = []
    alt_ids = [a.id for a in schema.alternatives]

    if len(alt_ids) != len(set(alt_ids)):
        issues.append(SchemaIssue("duplicate_alternative", "alternative ids are not unique"))
    refs = [a.id for a in schema.alternatives if a.is_reference]
    if len(refs) == 0:
        issues.append(SchemaIssue("no_reference", "no reference alternative declared"))
    elif len(refs) > 1:
        issues.append(SchemaIssue("multiple_reference",
                                  f"multiple reference alternatives: {refs}"))

    names = [a.name for a in schema.attributes]
    if len(names) != len(set(names)):
        issues.append(SchemaIssue("duplicate_attribute", "attribute names are not unique"))

    for attr in schema.attributes:
        if attr.n_levels < 2:
            issues.append(SchemaIssue("degenerate_attribute",
                                      f"attribute {attr.name}: fewer than 2 levels"))
        labels = attr.level_labels()
        if len(labels) != len(set(labels)):
            issues.append(SchemaIssue("duplicate_level",
                                      f"attribute {attr.name}: duplicate level labels"))
        for alt_id in attr.applies_to:
            if alt_id not in alt_ids:
                issues.append(SchemaIssue("unknown_alternative",
                                          f"attribute {attr.name}: applies_to references "
                                          f"unknown alternative {alt_id!r}"))
        if attr.coding == "linear":
            for lv in attr.levels:
                if lv.value is None:
                    issues.append(SchemaIssue("missing_value",
                                              f"attribute {attr.name}: linear coding needs a "
                                              f"numeric value for level {lv.label!r}"))

    ref_id = refs[0] if len(refs) == 1 else None
    known = set(names)
    for kind, pairs, want_scope in (
        ("context", schema.context_interactions, "context"),
        ("demographic", schema.demographic_interactions, "demographic"),
    ):
        for attr_name, alt_id in pairs:
            if attr_name not in known:
                issues.append(SchemaIssue("unknown_interaction_attribute",
                                          f"{kind} interaction references unknown attribute "
                                          f"{attr_name!r}"))
                continue
            if schema.attribute(attr_name).scope != want_scope:
                issues.append(SchemaIssue("interaction_scope",
                                          f"{kind} interaction with {attr_name!r}, whose scope "
                                          f"is {schema.attribute(attr_name).scope!r}"))
            if alt_id not in alt_ids:
                issues.append(SchemaIssue("interaction_unknown_alternative",
                                          f"{kind} interaction references unknown alternative "
                                          f"{alt_id!r}"))
            elif ref_id is not None and alt_id == ref_id:
                issues.append(SchemaIssue("interaction_with_reference",
                                          f"{kind} interaction with the reference "
                                          f"alternative {alt_id!r}"))
    return issues
