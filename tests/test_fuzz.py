"""Fuzzed outside input: the readers of choice, companion respondent,
design, schema and result files let only typed DceErrors out.

Each reader gets arbitrary bytes and valid files mutated two ways: byte
splices (spans deleted, bytes inserted, some repeated past the csv module's
131,072-character field limit) and, for the JSON files, one value anywhere
in the tree replaced by any JSON value, NaN, +-Infinity and integers no
double holds included. A CSV fault names its row wherever one is known, and
a JSON file that loads holds only finite numbers.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dce import (DatasetError, DceError, DesignError, EstimationResult, ExperimentSchema,
                 ingest_choices, read_design_csv, table4_mmnl, write_choices_csv,
                 write_design_csv)

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# the codes a reader raises before it reaches a data row
HEADER_CODES = {"empty_dataset", "empty_design", "missing_column"}

# inserted bytes are arbitrary or one of CSV's own delimiters and quote
INSERTS = st.binary(min_size=1, max_size=4) | st.sampled_from([b",", b"\n", b'"'])
SPLICES = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 40), INSERTS,
                             st.sampled_from([1, 140_000])),
                   min_size=1, max_size=4)
# the numbers json reads that no double holds, then any JSON value
JSON_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]) \
    | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)


def splice(data: bytes, edits) -> bytes:
    """``data`` with each (where, n_deleted, inserted, times) edit applied
    in turn; ``where`` is a fraction of the current length."""
    for where, n, inserted, times in edits:
        at = int(where * len(data))
        data = data[:at] + inserted * times + data[at + n:]
    return data


def json_paths(node, path=()):
    """Every path into a JSON tree: the root, then each member or item."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def with_value(tree, path, value):
    """A copy of ``tree`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = with_value(tree[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def valid(tmp_path_factory, panel50, design32, schema_labels):
    """Valid files of each kind, and a scratch path to write fuzzed ones to."""
    root = tmp_path_factory.mktemp("fuzz")
    dataset = panel50["dataset"]
    write_choices_csv(replace(dataset, respondents=dataset.respondents[:3]), root / "choices.csv")
    demo = [a.csv_column for a in schema_labels.demographic_attributes()]
    (root / "respondents.csv").write_text("".join(
        ",".join(fields) + "\n" for fields in [["respondent_id", *demo]] + [
            [r.respondent_id, *(r.demographics[c] for c in demo)]
            for r in dataset.respondents[:3]]))
    write_design_csv(design32, root / "design.csv")
    schema_labels.save(root / "schema.json")
    table4_mmnl().save(root / "result.json")
    return {"root": root, "labels": schema_labels,
            **{name: (root / f"{name}.{ext}").read_bytes()
               for name, ext in (("choices", "csv"), ("respondents", "csv"), ("design", "csv"),
                                 ("schema", "json"), ("result", "json"))}}


def read(valid, kind: str, data: bytes):
    """Write ``data`` and read it as a ``kind`` file; return what it read,
    or the DceError raised. Any other exception fails the test."""
    path: Path = valid["root"] / f"fuzzed_{kind}"
    path.write_bytes(data)
    reader = {"choices": lambda: ingest_choices(path, valid["labels"]),
              "respondents": lambda: ingest_choices(valid["root"] / "choices.csv",
                                                    valid["labels"], respondents_path=path),
              "design": lambda: read_design_csv(path, valid["labels"]),
              "schema": lambda: ExperimentSchema.load(path),
              "result": lambda: EstimationResult.load(path)}[kind]
    try:
        return reader()
    except DceError as err:
        if isinstance(err, (DatasetError, DesignError)):
            assert err.row is not None or err.code in HEADER_CODES, err
        return err


KINDS = ["choices", "respondents", "design", "schema", "result"]


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_raise_only_typed_errors(valid, kind, data):
    read(valid, kind, data)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(edits=SPLICES)
def test_spliced_files_raise_only_typed_errors(valid, kind, edits):
    read(valid, kind, splice(valid[kind], edits))


@pytest.mark.parametrize("kind", ["schema", "result"])
@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_any_json_value_anywhere_loads_or_is_typed(valid, kind, data, value):
    tree = json.loads(valid[kind])
    path = data.draw(st.sampled_from(list(json_paths(tree))))
    loaded = read(valid, kind, json.dumps(with_value(tree, path, value)).encode())
    if isinstance(loaded, EstimationResult):
        assert np.all(np.isfinite([loaded.ll_final, loaded.ll_null, *loaded.params]))
    elif isinstance(loaded, ExperimentSchema):
        assert all(np.isfinite(level.value) for a in loaded.attributes for level in a.levels
                   if level.value is not None)
