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

A schema that constructs is valid: ``AttributeDef`` and ``ExperimentSchema``
check themselves when built, and nothing checks a schema again. Each raises
one SchemaError whose code is its first fault's and whose message lists all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import SchemaError, _real, read_json

__all__ = [
    "Level",
    "AlternativeDef",
    "AttributeDef",
    "ExperimentSchema",
    "ParamInfo",
    "ParameterIndex",
    "build_parameter_index",
]

SCOPES = ("alternative_specific", "shared", "context", "demographic")
CODINGS = ("effects", "linear")
# the long-format CSV's own columns, which no attribute may read
_CORE_COLUMNS = ("respondent_id", "task_id", "block_id", "alt_id", "chosen")


def _repeats(items) -> list:
    """The items that occur more than once in ``items``, sorted."""
    return sorted({x for x in items if items.count(x) > 1})


def _raise_faults(where: str, faults) -> None:
    """Raise one SchemaError for the (code, message) pairs ``faults`` found in
    ``where``: its code is the first fault's, and its message lists each later
    fault with its code. No faults, no error."""
    if faults := list(faults):
        (code, text), *rest = faults
        raise SchemaError(code, f"{where}: " + "; ".join([text, *(f"{c}: {m}" for c, m in rest)]))


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
    long-format data and design exports; it defaults to ``name``. Design
    attributes of disjoint alternatives may share a column when they
    represent the same underlying quantity with different level sets, e.g.
    per-mode delivery cost. An attribute has at least 2 levels with distinct
    labels, and a linear one a finite value on each.
    """

    name: str
    scope: str
    levels: tuple[Level, ...]
    applies_to: tuple[str, ...] = ()
    coding: str = "effects"
    column: str | None = None

    def __post_init__(self):
        labels = self.level_labels()
        no_value = [l.label for l in self.levels if not (_real(l.value) and math.isfinite(l.value))]
        _raise_faults(f"attribute {self.name}", [(code, message) for fault, code, message in (
            (self.scope not in SCOPES, "bad_scope", f"unknown scope {self.scope!r}"),
            (self.coding not in CODINGS, "bad_coding", f"unknown coding {self.coding!r}"),
            (len(labels) < 2, "degenerate_attribute", "fewer than 2 levels"),
            (_repeats(labels), "duplicate_level", f"level labels {_repeats(labels)} repeat"),
            (self.coding == "linear" and no_value, "missing_value",
             f"linear coding needs a finite value on levels {no_value}"),
        ) if fault])

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
            table = np.array([[l.value] for l in self.levels], dtype=np.float64)
        table.flags.writeable = False
        return table


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

    def __post_init__(self):
        _raise_faults(f"schema {self.name}", self._faults())
        build_parameter_index(self)  # its coefficient names are unique

    def _faults(self):
        """(code, message) per fault of the declarations, in check order."""
        alt_ids = self.alternative_ids()
        refs = [a.id for a in self.alternatives if a.is_reference]
        scopes = {a.name: a.scope for a in self.attributes}
        if _repeats(alt_ids):
            yield "duplicate_alternative", f"alternative ids {_repeats(alt_ids)} repeat"
        if len(refs) != 1:
            yield "multiple_reference" if refs else "no_reference", f"reference alternatives {refs}"
        if _repeats(names := [a.name for a in self.attributes]):
            yield "duplicate_attribute", f"attribute names {_repeats(names)} repeat"
        for a in self.attributes:
            for alt in a.applies_to:
                if alt not in alt_ids:
                    yield "unknown_alternative", f"{a.name} applies to unknown alternative {alt!r}"
        for kind, pairs in (("context", self.context_interactions),
                            ("demographic", self.demographic_interactions)):
            for attr, alt in pairs:
                what = f"{kind} interaction ({attr}, {alt})"
                if attr not in scopes:
                    yield "unknown_interaction_attribute", f"{what}: no attribute {attr!r}"
                elif scopes[attr] != kind:
                    yield "interaction_scope", f"{what}: {attr} has scope {scopes[attr]!r}"
                if alt not in alt_ids:
                    yield "interaction_unknown_alternative", f"{what}: no alternative {alt!r}"
                elif alt in refs:
                    yield "interaction_with_reference", f"{what}: {alt} is the reference"
        for a in self.attributes:
            if a.csv_column in _CORE_COLUMNS:
                yield "duplicate_column", f"{a.name} reads the core column {a.csv_column!r}"
        # one column on a row means one attribute: a context or demographic
        # column is on every row, a design column on its alternatives' rows
        for a, b in combinations(self.attributes, 2):
            if a.csv_column == b.csv_column and (
                    {a.scope, b.scope} & {"context", "demographic"}
                    or any(self.applies(a, alt) and self.applies(b, alt) for alt in alt_ids)):
                yield "duplicate_column", f"{a.name} and {b.name} both read {a.csv_column!r}"

    # -- lookups ----------------------------------------------------------

    def alternative_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.alternatives)

    @property
    def reference(self) -> AlternativeDef:
        return next(a for a in self.alternatives if a.is_reference)

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
        """Rebuild a schema from its JSON dict. A field not of its own JSON type
        raises SchemaError "schema_json" (nothing is coerced: ``"false"`` is no
        boolean); a well-typed schema with faults raises its checks' error."""
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
        if dupes := _repeats([e.name for e in self.entries]):
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
