"""Long-format choice data: ingest, screening, and design-matrix coding.

The interchange format is one CSV row per respondent x task x alternative:

  respondent_id, task_id, block_id, alt_id, chosen,
  <context columns>, <design columns>, <demographic columns>, extras...

``chosen`` is 1 on exactly one row per task. Context columns must be constant
within a task; demographic columns constant within a respondent. Shared
attributes (one coefficient block across alternatives) carry per-alternative
values like any design column.
Demographics may instead live in a companion respondent-level CSV keyed by
``respondent_id``. Unrecognized columns are kept as respondent-level
passthrough when constant within a respondent and dropped otherwise.
Both files are decoded by ``errors.read_csv``, which strips every value and
refuses a row with more or fewer fields than the header (``bad_csv``). Every
fault found past a file's header raises DatasetError with its row.

Coding produces a panel design matrix with one row per alternative, rows
grouped by task and tasks grouped by respondent, columns laid out by
``build_parameter_index``. One walk over the dataset resolves each distinct
task record once: a record is one ``Observation`` object, which
``simulate_dataset`` shares among the respondents who made the same choice on
the same run and block. Resolving it lays out its rows' alternatives, maps
each label its context and design attributes read to the label's index in the
attribute's ``level_index``, and finds its chosen row. A demographic's label
is mapped once per respondent. A label the attribute lacks raises
DatasetError("unknown_level") naming the first respondent, in dataset order,
who holds it. The records are told apart by object identity, in a memo local
to the call; equal records that are distinct objects, as ``ingest_choices``
makes them, are each resolved. The panel's rows are then gathered from its
tasks' records, and each column is one gather from its attribute's read-only
``codes`` table over the rows of the alternative that owns it (every row a
shared block fills); an ASC column is 1 on its alternative's rows, and every
other entry is 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, _integer, _real, read_csv
from .schema import (_CORE_COLUMNS, ExperimentSchema, ParameterIndex,
                     _check_level, build_parameter_index)

__all__ = [
    "Observation",
    "RespondentRecord",
    "ChoiceDataset",
    "CodedPanel",
    "ScreeningRules",
    "ScreeningReport",
    "ingest_choices",
    "write_choices_csv",
    "screen_responses",
    "code_dataset",
]


@dataclass(frozen=True)
class Observation:
    """One choice task: task-level values, per-alternative values, the choice."""

    task_id: str
    block_id: str
    task_values: dict[str, str]
    alt_values: dict[str, dict[str, str]]
    chosen: str

    def alternatives(self, schema: ExperimentSchema) -> tuple[str, ...]:
        return tuple(a for a in schema.alternative_ids() if a in self.alt_values)


@dataclass(frozen=True)
class RespondentRecord:
    respondent_id: str
    demographics: dict[str, str]
    observations: tuple[Observation, ...]
    extra: dict[str, str] = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class ChoiceDataset:
    schema: ExperimentSchema
    respondents: tuple[RespondentRecord, ...]

    @property
    def n_respondents(self) -> int:
        return len(self.respondents)

    @property
    def n_tasks(self) -> int:
        return sum(r.n_tasks for r in self.respondents)

    @property
    def n_rows(self) -> int:
        return sum(len(o.alt_values) for r in self.respondents for o in r.observations)

    def subset(self, respondent_ids) -> "ChoiceDataset":
        keep = set(respondent_ids)
        return ChoiceDataset(self.schema,
                             tuple(r for r in self.respondents if r.respondent_id in keep))


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------

def _read_respondent_table(path: str | Path, demo_columns) -> dict[str, dict[str, str]]:
    table: dict[str, dict[str, str]] = {}
    for n, row in enumerate(read_csv(path, DatasetError, "empty_dataset",
                                     ("respondent_id", *demo_columns)), start=2):
        rid = row.pop("respondent_id")
        if not rid:
            raise DatasetError("missing_column", f"{path}: blank respondent_id", row=n)
        if rid in table:
            raise DatasetError("duplicate_respondent", f"{path}: respondent {rid!r} repeated",
                               row=n)
        table[rid] = row
    return table


def ingest_choices(path: str | Path, schema: ExperimentSchema,
                   respondents_path: str | Path | None = None) -> ChoiceDataset:
    """Read a long-format choice CSV into a validated dataset.

    Raises DatasetError with a 1-based CSV row number wherever the offending
    row is identifiable.
    """
    context_cols = tuple(a.csv_column for a in schema.context_attributes())
    design_cols = schema.design_columns()
    demo_attrs = schema.demographic_attributes()
    demo_cols = tuple(a.csv_column for a in demo_attrs)

    needed = (*_CORE_COLUMNS[:2], "alt_id", "chosen", *context_cols, *design_cols)
    if respondents_path is None:
        needed += demo_cols
    rows = read_csv(path, DatasetError, "empty_dataset", needed)
    if not rows:
        raise DatasetError("empty_dataset", f"{path}: no data rows")
    companion = None
    if respondents_path is not None:
        companion = _read_respondent_table(respondents_path, demo_cols)

    known = set(_CORE_COLUMNS) | set(context_cols) | set(design_cols) | set(demo_cols)
    extra_cols = [c for c in rows[0] if c not in known]

    # each alternative's design columns, each with the one attribute of the
    # alternative that reads it
    alt_design = {alt_id: [(a.csv_column, a) for a in schema.design_attributes(alt_id)]
                  for alt_id in schema.alternative_ids()}
    task_level_attrs = [(a.csv_column, a) for a in schema.context_attributes()]
    # respondent -> task -> accumulated rows; insertion order preserved
    per_resp: dict[str, dict[str, dict]] = {}
    resp_demo: dict[str, dict[str, str]] = {}
    resp_extra: dict[str, dict[str, str | None]] = {}

    for n, row in enumerate(rows, start=2):
        rid, tid, aid = row["respondent_id"], row["task_id"], row["alt_id"]
        if not rid or not tid or not aid:
            raise DatasetError("missing_column",
                               f"blank respondent_id/task_id/alt_id", row=n)
        if aid not in alt_design:
            raise DatasetError("unknown_alternative", f"alternative {aid!r}", row=n)

        chosen_raw = row["chosen"]
        if chosen_raw not in ("0", "1"):
            raise DatasetError("bad_chosen", f"chosen must be 0 or 1, got {chosen_raw!r}", row=n)

        tasks = per_resp.setdefault(rid, {})
        task = tasks.setdefault(tid, {"block": row.get("block_id", ""),
                                      "task_values": {}, "alts": {}, "chosen": [],
                                      "first_row": n})
        if aid in task["alts"]:
            raise DatasetError("duplicate_alternative",
                               f"alternative {aid!r} repeated in task {tid!r}", row=n)

        # task-level columns must agree across the task's rows
        for col, attr in task_level_attrs:
            val = row[col]
            prev = task["task_values"].get(col)
            if prev is None:
                _check_level(attr, col, val, n, DatasetError)
                task["task_values"][col] = val
            elif prev != val:
                raise DatasetError("inconsistent_task_value",
                                   f"column {col!r} differs within task {tid!r}", row=n)

        # design columns, validated against the attribute that fills each
        alt_vals: dict[str, str] = {}
        for col, attr in alt_design[aid]:
            val = row[col]
            _check_level(attr, col, val, n, DatasetError)
            alt_vals[col] = val
        task["alts"][aid] = alt_vals
        if chosen_raw == "1":
            task["chosen"].append((aid, n))

        # demographics: inline, companion, or both (must then agree)
        demo_inline = {col: row[col] for col in demo_cols if col in row}
        if companion is not None:
            comp = companion.get(rid)
            if comp is None:
                raise DatasetError("missing_demographics",
                                   f"respondent {rid!r} absent from respondent table", row=n)
            for col, val in demo_inline.items():
                if val and val != comp[col]:
                    raise DatasetError("demographic_mismatch",
                                       f"column {col!r} disagrees with respondent table "
                                       f"for {rid!r}", row=n)
            demo = {col: comp[col] for col in demo_cols}
            extras_src = {k: v for k, v in comp.items() if k not in demo_cols}
        else:
            demo = demo_inline
            extras_src = {c: row[c] for c in extra_cols}

        if rid not in resp_demo:
            for attr in demo_attrs:
                _check_level(attr, attr.csv_column, demo[attr.csv_column], n, DatasetError)
            resp_demo[rid] = demo
        elif companion is None and demo != resp_demo[rid]:
            raise DatasetError("demographic_mismatch",
                               f"demographics differ within respondent {rid!r}", row=n)

        # passthrough: keep only values constant within the respondent
        pool = resp_extra.setdefault(rid, {})
        for k, v in extras_src.items():
            if k not in pool:
                pool[k] = v
            elif pool[k] != v:
                pool[k] = None  # poisoned; dropped below

    records = []
    for rid, tasks in per_resp.items():
        observations = []
        for tid, t in tasks.items():
            if len(t["alts"]) < 2:
                raise DatasetError("too_few_alternatives",
                                   f"task {tid!r} of respondent {rid!r} has "
                                   f"{len(t['alts'])} alternative(s)", row=t["first_row"])
            if not t["chosen"]:
                raise DatasetError("missing_chosen",
                                   f"no chosen alternative in task {tid!r} of "
                                   f"respondent {rid!r}", row=t["first_row"])
            if len(t["chosen"]) > 1:
                raise DatasetError("multiple_chosen",
                                   f"{len(t['chosen'])} chosen alternatives in task {tid!r} "
                                   f"of respondent {rid!r}", row=t["chosen"][1][1])
            observations.append(Observation(
                task_id=tid, block_id=t["block"], task_values=dict(t["task_values"]),
                alt_values={a: dict(v) for a, v in t["alts"].items()},
                chosen=t["chosen"][0][0]))
        records.append(RespondentRecord(
            respondent_id=rid, demographics=dict(resp_demo[rid]),
            observations=tuple(observations),
            extra={k: v for k, v in resp_extra.get(rid, {}).items() if v is not None}))
    return ChoiceDataset(schema, tuple(records))


def write_choices_csv(dataset: ChoiceDataset, path: str | Path) -> None:
    """Write the long-format CSV (UTF-8, LF). Inverse of ingest up to column
    order and passthrough placement."""
    schema = dataset.schema
    context_cols = [a.csv_column for a in schema.context_attributes()]
    design_cols = list(schema.design_columns())
    demo_cols = [a.csv_column for a in schema.demographic_attributes()]
    extra_cols = sorted({k for r in dataset.respondents for k in r.extra})
    header = list(_CORE_COLUMNS) + context_cols + design_cols + demo_cols + extra_cols

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in dataset.respondents:
            for obs in rec.observations:
                for aid in obs.alternatives(schema):
                    row = [rec.respondent_id, obs.task_id, obs.block_id, aid,
                           "1" if aid == obs.chosen else "0"]
                    row += [obs.task_values.get(c, "") for c in context_cols]
                    row += [obs.alt_values[aid].get(c, "") for c in design_cols]
                    row += [rec.demographics.get(c, "") for c in demo_cols]
                    row += [rec.extra.get(c, "") for c in extra_cols]
                    writer.writerow(row)


# ---------------------------------------------------------------------------
# Screening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreeningRules:
    """Quality screens applied respondent by respondent.

    incomplete     drop respondents with fewer tasks than expected_tasks, an
                   integer >= 1 (default: the maximum task count observed)
    straight_line  drop respondents who picked the same alternative in every
                   task (two or more tasks)
    fast_seconds   drop respondents whose response_seconds passthrough value
                   is below this threshold; the threshold and each duration
                   must be a number, finite and >= 0
    A rule of another kind or range is DatasetError "bad_number".
    """

    incomplete: bool = True
    straight_line: bool = True
    fast_seconds: float | None = None
    expected_tasks: int | None = None

    def __post_init__(self):
        fast = self.fast_seconds
        for name, ok, kind in (
                ("incomplete", isinstance(self.incomplete, bool), "True or False"),
                ("straight_line", isinstance(self.straight_line, bool), "True or False"),
                ("fast_seconds", fast is None or (_real(fast) and math.isfinite(fast) and fast >= 0),
                 "a number, finite and >= 0")):
            if not ok:
                raise DatasetError("bad_number",
                                   f"{name} must be {kind}, got {getattr(self, name)!r}")
        if self.expected_tasks is not None:
            _integer(DatasetError, "bad_number", "expected_tasks", self.expected_tasks, 1)


@dataclass(frozen=True)
class ScreeningReport:
    n_input: int
    n_kept: int
    dropped: dict[str, str]
    counts: dict[str, int]


def screen_responses(dataset: ChoiceDataset,
                     rules: ScreeningRules = ScreeningRules(),
                     ) -> tuple[ChoiceDataset, ScreeningReport]:
    expected = rules.expected_tasks or max((r.n_tasks for r in dataset.respondents), default=0)

    dropped: dict[str, str] = {}
    for rec in dataset.respondents:
        if rules.incomplete and rec.n_tasks < expected:
            dropped[rec.respondent_id] = "incomplete"
            continue
        if rules.fast_seconds is not None:
            raw = rec.extra.get("response_seconds")
            if raw is None:
                raise DatasetError("missing_column",
                                   f"respondent {rec.respondent_id!r} has no "
                                   f"response_seconds value")
            try:
                seconds = float(raw)
            except ValueError:
                seconds = math.nan
            if not (math.isfinite(seconds) and seconds >= 0):
                raise DatasetError("bad_number",
                                   f"response_seconds {raw!r} for respondent "
                                   f"{rec.respondent_id!r}")
            if seconds < rules.fast_seconds:
                dropped[rec.respondent_id] = "fast_response"
                continue
        if rules.straight_line and rec.n_tasks >= 2:
            chosen = {o.chosen for o in rec.observations}
            if len(chosen) == 1:
                dropped[rec.respondent_id] = "straight_line"

    kept = dataset.subset(r.respondent_id for r in dataset.respondents
                          if r.respondent_id not in dropped)
    counts: dict[str, int] = {}
    for reason in dropped.values():
        counts[reason] = counts.get(reason, 0) + 1
    report = ScreeningReport(n_input=dataset.n_respondents, n_kept=kept.n_respondents,
                             dropped=dropped, counts=counts)
    return kept, report


# ---------------------------------------------------------------------------
# Coding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodedPanel:
    """Design matrix plus panel bookkeeping.

    Rows are alternatives in schema order, grouped by task; tasks grouped by
    respondent in dataset order. ``task_ptr`` delimits tasks CSR-style and
    ``row_task`` holds each row's task. The arrays are read-only.
    """

    schema: ExperimentSchema
    index: ParameterIndex
    X: np.ndarray
    task_ptr: np.ndarray
    row_task: np.ndarray
    chosen_row: np.ndarray
    task_respondent: np.ndarray
    respondent_ids: tuple[str, ...]
    row_alternative: tuple[str, ...]
    _mnl_params: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.X, self.task_ptr, self.row_task, self.chosen_row, self.task_respondent):
            a.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.chosen_row)

    @property
    def n_respondents(self) -> int:
        return len(self.respondent_ids)

    @property
    def task_sizes(self) -> np.ndarray:
        return np.diff(self.task_ptr)

    def null_loglik(self) -> float:
        """Log likelihood of equal shares: -sum over tasks of ln(task size).
        The sizes are written as floats and their logs over them, so the
        call holds one array of the task count."""
        logs = np.subtract(self.task_ptr[1:], self.task_ptr[:-1], out=np.empty(self.n_tasks))
        return float(-np.sum(np.log(logs, out=logs)))

    @classmethod
    def from_dataset(cls, dataset: ChoiceDataset) -> "CodedPanel":
        """Code ``dataset`` against its schema's index (see the module docstring)."""
        schema = dataset.schema
        index = build_parameter_index(schema)
        if not dataset.respondents:
            raise DatasetError("empty_dataset", "dataset has no respondents")
        alt_ids = schema.alternative_ids()
        fixed = index.entries[:index.n_fixed]
        attrs = {e.attribute: schema.attribute(e.attribute) for e in fixed if e.kind != "asc"}
        # a design attribute's level is -1 on the record rows it does not
        # fill; a record has at most one row per alternative
        task_counts = [len(rec.observations) for rec in dataset.respondents]
        n_tasks = sum(task_counts)
        if not n_tasks:
            raise DatasetError("empty_dataset", "dataset has no tasks")
        levels = {n: [] if a.scope in ("context", "demographic") else [-1] * (n_tasks * len(alt_ids))
                  for n, a in attrs.items()}
        per = {scope: [(a.csv_column, a.level_index, levels[a.name], a)
                       for a in attrs.values() if a.scope == scope]
               for scope in ("context", "demographic")}
        design = [[(a.csv_column, a.level_index, levels[a.name], a)
                   for a in schema.design_attributes(aid) if a.name in levels]
                  for aid in alt_ids]

        def unknown(attr, label, rec, obs=None):
            where = "" if obs is None else f", task {obs.task_id!r}"
            return DatasetError("unknown_level", f"{label!r} is not a level of {attr.name} "
                                                 f"(respondent {rec.respondent_id!r}{where})")

        # each distinct record's rows (rec_ptr delimits them), their
        # alternatives and its chosen row's offset; each task's record
        memo: dict[int, int] = {}
        rec_ptr, rec_alt, rec_chosen, task_rec = [0], [], [], []
        for rec in dataset.respondents:
            for col, lx, out, attr in per["demographic"]:
                try:
                    out.append(lx[rec.demographics[col]])
                except KeyError:
                    raise unknown(attr, rec.demographics.get(col), rec) from None
            for obs in rec.observations:
                u = memo.get(id(obs))
                if u is None:
                    u = memo[id(obs)] = len(rec_chosen)
                    for col, lx, out, attr in per["context"]:
                        try:
                            out.append(lx[obs.task_values[col]])
                        except KeyError:
                            raise unknown(attr, obs.task_values.get(col), rec, obs) from None
                    chosen = None
                    for a, aid in enumerate(alt_ids):
                        values = obs.alt_values.get(aid)
                        if values is None:
                            continue
                        n = len(rec_alt)
                        for col, lx, out, attr in design[a]:
                            try:
                                out[n] = lx[values[col]]
                            except KeyError:
                                raise unknown(attr, values.get(col), rec, obs) from None
                        if aid == obs.chosen:
                            chosen = n - rec_ptr[-1]
                        rec_alt.append(a)
                    if chosen is None:
                        raise DatasetError("missing_chosen",
                                           f"chosen alternative {obs.chosen!r} has no row "
                                           f"(respondent {rec.respondent_id!r}, "
                                           f"task {obs.task_id!r})")
                    rec_ptr.append(len(rec_alt))
                    rec_chosen.append(chosen)
                task_rec.append(u)

        # the panel's rows are its tasks' records' rows, laid out by gathers
        rec_ptr = np.asarray(rec_ptr, dtype=np.intp)
        task_rec = np.asarray(task_rec, dtype=np.intp)
        sizes = np.diff(rec_ptr)[task_rec]
        task_ptr = np.zeros(n_tasks + 1, dtype=np.intp)
        np.cumsum(sizes, out=task_ptr[1:])
        n_rows = int(task_ptr[-1])
        row_task = np.repeat(np.arange(n_tasks), sizes)
        src = np.arange(n_rows) + (rec_ptr[:-1][task_rec] - task_ptr[:-1])[row_task]
        task_respondent = np.repeat(np.arange(dataset.n_respondents), task_counts)
        to_row = {"context": task_rec[row_task], "demographic": task_respondent[row_task]}
        row_levels = {n: np.asarray(levels[n] if a.scope in to_row else levels[n][:len(rec_alt)],
                                    dtype=np.intp)[to_row.get(a.scope, src)]
                      for n, a in attrs.items()}
        row_alt = np.asarray(rec_alt, dtype=np.intp)[src]
        row_alternative = tuple(np.asarray(alt_ids, dtype=object)[row_alt].tolist())
        chosen_row = task_ptr[:-1] + np.asarray(rec_chosen, dtype=np.intp)[task_rec]
        owned = {aid: row_alt == a for a, aid in enumerate(alt_ids)}

        X = np.zeros((n_rows, index.n_fixed))
        for j, e in enumerate(fixed):
            if e.kind == "asc":
                X[owned[e.alternative], j] = 1.0
                continue
            attr, lv = attrs[e.attribute], row_levels[e.attribute]
            rows = owned[e.alternative] if e.alternative is not None else lv >= 0
            comp = 0 if attr.coding == "linear" else attr.level_index[e.level]
            X[rows, j] = attr.codes[lv[rows], comp]

        return cls(schema=schema, index=index, X=X, task_ptr=task_ptr, row_task=row_task,
                   chosen_row=np.asarray(chosen_row, dtype=np.intp),
                   task_respondent=task_respondent,
                   respondent_ids=tuple(r.respondent_id for r in dataset.respondents),
                   row_alternative=row_alternative)


def code_dataset(dataset: ChoiceDataset) -> CodedPanel:
    """Code a dataset against its schema's parameter index."""
    return CodedPanel.from_dataset(dataset)
