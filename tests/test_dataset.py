"""Ingestion, screening, effects coding of long-format choice data."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dce import (
    ChoiceDataset,
    DatasetError,
    Observation,
    RespondentRecord,
    ScreeningRules,
    code_dataset,
    ingest_choices,
    screen_responses,
    write_choices_csv,
)

from helpers import binary_asc_dataset, effects_code, linear_schema


@pytest.fixture(scope="module")
def choices_csv(tmp_path_factory, panel50):
    path = tmp_path_factory.mktemp("data") / "choices.csv"
    write_choices_csv(panel50["dataset"], path)
    return path


class TestIngest:
    def test_round_trip(self, choices_csv, schema_labels, panel50):
        clone = ingest_choices(choices_csv, schema_labels)
        assert clone == panel50["dataset"]

    def test_write_is_byte_deterministic(self, tmp_path, panel50):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_choices_csv(panel50["dataset"], p1)
        write_choices_csv(panel50["dataset"], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def _mutate(self, choices_csv, tmp_path, col, value, row_no=2):
        lines = choices_csv.read_text().splitlines()
        header = lines[0].split(",")
        i = header.index(col)
        cells = lines[row_no - 1].split(",")
        cells[i] = value
        lines[row_no - 1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_unknown_alternative_names_row(self, choices_csv, tmp_path,
                                           schema_labels):
        bad = self._mutate(choices_csv, tmp_path, "alt_id", "zeppelin")
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "unknown_alternative"
        assert err.value.row == 2

    def test_unknown_level_names_row(self, choices_csv, tmp_path,
                                     schema_labels):
        bad = self._mutate(choices_csv, tmp_path, "delivery_cost", "9999",
                           row_no=4)
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "unknown_level"
        assert err.value.row == 4

    def test_bad_chosen_flag(self, choices_csv, tmp_path, schema_labels):
        bad = self._mutate(choices_csv, tmp_path, "chosen", "yes")
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "bad_chosen"

    def test_multiple_chosen_in_task(self, choices_csv, tmp_path,
                                     schema_labels):
        lines = choices_csv.read_text().splitlines()
        header = lines[0].split(",")
        i = header.index("chosen")
        for row_no in (2, 3, 4):
            cells = lines[row_no - 1].split(",")
            cells[i] = "1"
            lines[row_no - 1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "multiple_chosen"

    def test_missing_column(self, choices_csv, tmp_path, schema_labels):
        lines = choices_csv.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h != "chosen"]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(
            ",".join(row.split(",")[i] for i in keep) for row in lines) + "\n")
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "missing_column"

    def test_byte_order_mark_is_dropped(self, choices_csv, tmp_path, schema_labels):
        """A spreadsheet's BOM must not glue itself to the respondent_id
        header, in the choice file or in the respondent file."""
        want = ingest_choices(choices_csv, schema_labels)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + choices_csv.read_bytes())
        assert ingest_choices(bom, schema_labels) == want

        demo = [a.csv_column for a in schema_labels.demographic_attributes()]
        people = tmp_path / "respondents.csv"
        people.write_bytes(b"\xef\xbb\xbf" + "\n".join(
            [",".join(["respondent_id", *demo])]
            + [",".join([r.respondent_id, *(r.demographics[c] for c in demo)])
               for r in want.respondents]).encode() + b"\n")
        got = ingest_choices(choices_csv, schema_labels, respondents_path=people)
        assert [r.demographics for r in got.respondents] == \
            [r.demographics for r in want.respondents]

    @pytest.mark.parametrize("which", ["choices", "respondents"])
    def test_non_utf8_bytes_name_row(self, choices_csv, tmp_path, schema_labels, which):
        if which == "choices":
            lines = choices_csv.read_bytes().split(b"\n")
        else:
            lines = [b"respondent_id,age", b"r1,30", b"r2,40", b"r3,50"]
        lines[2] = lines[2].replace(b",", b",\xe9", 1)  # CSV row 3
        bad = tmp_path / f"{which}.csv"
        bad.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetError) as err:
            if which == "choices":
                ingest_choices(bad, schema_labels)
            else:
                ingest_choices(choices_csv, schema_labels, respondents_path=bad)
        assert err.value.code == "bad_encoding"
        assert err.value.row == 3

    @pytest.mark.parametrize("which", ["choices", "respondents"])
    @pytest.mark.parametrize("surplus", [True, False])
    def test_row_of_the_wrong_width_names_row(self, choices_csv, tmp_path, schema_labels,
                                              which, surplus):
        """A row with one field more or one less than the header is refused,
        not read with the surplus dropped or the missing field blank."""
        if which == "choices":
            lines = choices_csv.read_text().splitlines()
        else:
            demo = [a.csv_column for a in schema_labels.demographic_attributes()]
            lines = [",".join(["respondent_id", *demo])] + [
                ",".join([r.respondent_id, *(r.demographics[c] for c in demo)])
                for r in ingest_choices(choices_csv, schema_labels).respondents]
        lines[3] = lines[3] + ",x" if surplus else lines[3].rsplit(",", 1)[0]  # CSV row 4
        bad = tmp_path / f"{which}.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as err:
            if which == "choices":
                ingest_choices(bad, schema_labels)
            else:
                ingest_choices(choices_csv, schema_labels, respondents_path=bad)
        assert err.value.code == "bad_csv"
        assert err.value.row == 4

    def test_empty_file(self, tmp_path, schema_labels):
        bad = tmp_path / "empty.csv"
        bad.write_text("respondent_id,task_id\n")
        with pytest.raises(DatasetError) as err:
            ingest_choices(bad, schema_labels)
        assert err.value.code == "empty_dataset"


class TestScreening:
    def test_clean_panel_keeps_everyone(self, panel50):
        kept, report = screen_responses(panel50["dataset"],
                                        ScreeningRules(expected_tasks=8))
        assert report.n_kept == report.n_input == 50
        assert report.dropped == {}

    def test_straight_liner_dropped(self, panel50):
        dataset = panel50["dataset"]
        victim = dataset.respondents[0]
        forced = victim.observations[0].chosen
        rigged = type(victim)(
            respondent_id=victim.respondent_id,
            demographics=victim.demographics,
            observations=tuple(
                type(o)(task_id=o.task_id, block_id=o.block_id,
                        task_values=o.task_values, alt_values=o.alt_values,
                        chosen=forced)
                for o in victim.observations),
            extra=victim.extra)
        patched = type(dataset)(schema=dataset.schema,
                                respondents=(rigged,) + dataset.respondents[1:])
        kept, report = screen_responses(patched,
                                        ScreeningRules(expected_tasks=8))
        assert report.n_kept == 49
        assert report.dropped[victim.respondent_id] == "straight_line"

    def test_incomplete_dropped(self, panel50):
        dataset = panel50["dataset"]
        victim = dataset.respondents[1]
        truncated = type(victim)(
            respondent_id=victim.respondent_id,
            demographics=victim.demographics,
            observations=victim.observations[:5],
            extra=victim.extra)
        patched = type(dataset)(
            schema=dataset.schema,
            respondents=(dataset.respondents[0], truncated)
            + dataset.respondents[2:])
        kept, report = screen_responses(patched,
                                        ScreeningRules(expected_tasks=8))
        assert report.dropped[victim.respondent_id] == "incomplete"

    def test_screens_can_be_disabled(self, panel50):
        kept, report = screen_responses(
            panel50["dataset"],
            ScreeningRules(incomplete=False, straight_line=False))
        assert report.n_kept == 50

    @staticmethod
    def timed(dataset, seconds):
        """``dataset`` with respondent i's response_seconds set to
        seconds[i]; None leaves the value out."""
        return replace(dataset, respondents=tuple(
            replace(r, extra={} if s is None else {"response_seconds": s})
            for r, s in zip(dataset.respondents, seconds)))

    def test_fast_responder_dropped(self, panel50):
        # 60 is not below the 60-second threshold; 59.5 is
        seconds = ["300"] * 50
        seconds[3], seconds[4] = "59.5", "60"
        kept, report = screen_responses(self.timed(panel50["dataset"], seconds),
                                        ScreeningRules(fast_seconds=60))
        assert report.dropped == {"r4": "fast_response"}
        assert report.counts == {"fast_response": 1}
        assert "r4" not in {r.respondent_id for r in kept.respondents}

    @pytest.mark.parametrize("value, code", [(None, "missing_column"),
                                             ("quick", "bad_number"),
                                             ("nan", "bad_number"),
                                             ("inf", "bad_number"),
                                             ("-inf", "bad_number"),
                                             # a duration below 0 is not a fast one
                                             ("-5", "bad_number")])
    def test_bad_response_seconds(self, panel50, value, code):
        seconds = ["300"] * 50
        seconds[7] = value
        with pytest.raises(DatasetError) as err:
            screen_responses(self.timed(panel50["dataset"], seconds),
                             ScreeningRules(fast_seconds=60))
        assert err.value.code == code
        assert "r8" in err.value.message

    @pytest.mark.parametrize("fast_seconds", [math.nan, math.inf, -1.0, "60", True])
    def test_bad_fast_seconds(self, fast_seconds):
        with pytest.raises(DatasetError) as err:
            ScreeningRules(fast_seconds=fast_seconds)
        assert err.value.code == "bad_number"


def with_copied_records(dataset, copy):
    """``dataset`` with respondent i's task records replaced by equal but
    distinct objects wherever ``copy(i)`` holds."""
    return replace(dataset, respondents=tuple(
        replace(rec, observations=tuple(
            Observation(o.task_id, o.block_id, dict(o.task_values),
                        {a: dict(v) for a, v in o.alt_values.items()}, o.chosen)
            for o in rec.observations)) if copy(i) else rec
        for i, rec in enumerate(dataset.respondents)))


class TestCoding:
    def test_shapes_and_pointers(self, panel50, schema_labels):
        panel = panel50["panel"]
        assert panel.X.shape == (50 * 8 * 3, 38)
        assert panel.n_tasks == 400
        assert panel.n_respondents == 50
        np.testing.assert_array_equal(np.diff(panel.task_ptr), 3)
        assert np.all(panel.chosen_row >= panel.task_ptr[:-1])
        assert np.all(panel.chosen_row < panel.task_ptr[1:])

    def test_asc_columns(self, panel50):
        panel = panel50["panel"]
        names = panel.index.names()
        drone_rows = [i for i, a in enumerate(panel.row_alternative)
                      if a == "drone"]
        moto_rows = [i for i, a in enumerate(panel.row_alternative)
                     if a == "motorcycle"]
        assert names[0] == "asc_drone"
        assert np.all(panel.X[drone_rows, 0] == 1.0)
        assert np.all(panel.X[moto_rows, 0] == 0.0)
        assert np.all(panel.X[moto_rows, 1] == 0.0)

    def test_effects_codes_match_schema(self, panel50, schema_labels):
        panel = panel50["panel"]
        dataset = panel50["dataset"]
        obs = dataset.respondents[0].observations[0]
        attr = schema_labels.attribute("dropoff_drone")
        label = obs.alt_values["drone"][attr.csv_column]
        want = effects_code(attr, label)
        cols = [i for i, n in enumerate(panel.index.names())
                if n.startswith("dropoff_drone:")]
        row = panel.task_ptr[0] + list(
            panel.row_alternative[panel.task_ptr[0]:panel.task_ptr[1]]
        ).index("drone")
        np.testing.assert_array_equal(panel.X[row, cols], want)

    def test_demographics_enter_interactions(self, panel50):
        panel = panel50["panel"]
        names = panel.index.names()
        gender_cols = [i for i, n in enumerate(names) if "gender" in n]
        assert gender_cols, "expected gender interaction columns"
        sub = panel.X[:, gender_cols]
        assert set(np.unique(sub)).issubset({-1.0, 0.0, 1.0})

    def test_binary_asc_panel(self):
        dataset = binary_asc_dataset(75, 25)
        panel = code_dataset(dataset)
        assert panel.X.shape[1] == 1
        assert panel.n_tasks == 100
        chosen_asc = panel.X[panel.chosen_row, 0]
        assert chosen_asc.sum() == 75

    @pytest.mark.parametrize("fixture", ["panel50", "ragged_panel", "copies",
                                         "shared_and_copies"])
    def test_matches_per_row_oracle(self, fixture, request, panel50):
        """Every entry equals the one coded row by row from effects_code
        and the index's entries, whether task records are shared objects
        (simulated), distinct (read from CSV), equal copies, or both."""
        if fixture in ("panel50", "ragged_panel"):
            data = request.getfixturevalue(fixture)
            dataset, panel = data["dataset"], data["panel"]
        else:
            every = 1 if fixture == "copies" else 2
            dataset = with_copied_records(panel50["dataset"], lambda i: i % every == 0)
            panel = code_dataset(dataset)
            np.testing.assert_array_equal(panel.X, panel50["panel"].X)
        shared = {id(o) for r in dataset.respondents for o in r.observations}
        n_tasks = sum(r.n_tasks for r in dataset.respondents)
        assert (len(shared) < n_tasks) == (fixture in ("panel50", "shared_and_copies"))
        schema, entries = dataset.schema, panel.index.entries
        rows = []
        for rec in dataset.respondents:
            for obs in rec.observations:
                for aid in obs.alternatives(schema):
                    row = []
                    for e in entries[:panel.index.n_fixed]:
                        if e.alternative not in (None, aid):
                            row.append(0.0)
                            continue
                        if e.kind == "asc":
                            row.append(1.0)
                            continue
                        attr = schema.attribute(e.attribute)
                        source = {"context": obs.task_values,
                                  "demographic": rec.demographics}.get(e.kind, obs.alt_values[aid])
                        comp = 0 if attr.coding == "linear" else attr.level_labels().index(e.level)
                        row.append(effects_code(attr, source[attr.csv_column])[comp])
                    rows.append(row)
        np.testing.assert_array_equal(panel.X, np.array(rows))
        np.testing.assert_array_equal(
            panel.row_task, np.repeat(np.arange(panel.n_tasks), panel.task_sizes))

    def test_unknown_level_is_typed(self, panel50):
        """A dataset built in code may hold a label its attribute lacks."""
        dataset = panel50["dataset"]
        first, *rest = dataset.respondents
        obs = first.observations[2]
        drone = dict(obs.alt_values["drone"], delivery_cost="999")
        obs = replace(obs, alt_values=dict(obs.alt_values, drone=drone))
        first = replace(first, observations=(*first.observations[:2], obs,
                                             *first.observations[3:]))
        with pytest.raises(DatasetError) as err:
            code_dataset(replace(dataset, respondents=(first, *rest)))
        assert err.value.code == "unknown_level"
        for part in ("delivery_cost_drone", "'999'", repr(first.respondent_id),
                     repr(obs.task_id)):
            assert part in err.value.message

    def test_unknown_level_in_a_shared_record_names_its_first_respondent(self, panel50):
        """A record shared by several respondents is resolved once, at the
        first of them in dataset order, and a bad label names that one."""
        dataset = panel50["dataset"]
        holders = {}
        for i, rec in enumerate(dataset.respondents):
            for obs in rec.observations:
                holders.setdefault(id(obs), (obs, []))[1].append(i)
        obs, (i, j, *_) = next(v for v in holders.values() if len(v[1]) > 1 and v[1][0] > 0)
        drone = dict(obs.alt_values["drone"], delivery_cost="999")
        bad = replace(obs, alt_values=dict(obs.alt_values, drone=drone))
        respondents = list(dataset.respondents)
        for n in (i, j):
            respondents[n] = replace(respondents[n], observations=tuple(
                bad if o is obs else o for o in respondents[n].observations))
        with pytest.raises(DatasetError) as err:
            code_dataset(replace(dataset, respondents=tuple(respondents)))
        assert err.value.code == "unknown_level"
        assert f"(respondent {dataset.respondents[i].respondent_id!r}, " \
               f"task {obs.task_id!r})" in err.value.message

    def test_chosen_alternative_without_a_row_is_typed(self):
        """A dataset built in code may choose an alternative the schema
        lacks; it has no row, so no chosen row."""
        dataset = binary_asc_dataset(3, 1)
        first, *rest = dataset.respondents
        obs = replace(first.observations[0], chosen="c")
        first = replace(first, observations=(obs, *first.observations[1:]))
        with pytest.raises(DatasetError) as err:
            code_dataset(replace(dataset, respondents=(first, *rest)))
        assert err.value.code == "missing_chosen"
        assert repr(obs.task_id) in err.value.message

    def test_linear_coding(self):
        """A linear attribute codes its level's value on the rows it reaches
        and 0 elsewhere."""
        schema = linear_schema()
        price = {l.label: l.value for l in schema.attribute("price").levels}
        wait = {l.label: l.value for l in schema.attribute("wait").levels}
        tasks = [("lo", "short", "long", "a"), ("hi", "long", "long", "b"),
                 ("mid", "long", "short", "a")]
        dataset = ChoiceDataset(schema, (RespondentRecord("r1", {}, tuple(
            Observation(f"t{t}", "1", {},
                        {"a": {"price": p, "wait": wa}, "b": {"wait": wb}}, chosen)
            for t, (p, wa, wb, chosen) in enumerate(tasks))),))
        panel = code_dataset(dataset)
        assert panel.index.names() == ("asc_a", "price", "wait")
        want = []
        for p, wa, wb, _ in tasks:
            want += [[1.0, price[p], wait[wa]], [0.0, 0.0, wait[wb]]]
        np.testing.assert_array_equal(panel.X, want)
        assert panel.row_alternative == ("a", "b") * 3
        np.testing.assert_array_equal(panel.chosen_row, [0, 3, 4])

