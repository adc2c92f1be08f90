"""Fractional design search, blocking, diagnostics, CSV round trip."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dce.design
from dce import (
    DesignError,
    Profile,
    block_design,
    default_schema,
    read_design_csv,
    select_fraction,
    table4_labels_schema,
    within_block_deviation,
    write_design_csv,
)

from helpers import block_design_oracle, linear_schema, select_fraction_oracle

# frozen from the first verified run of select_fraction(default, 64, seed=7)
FROZEN_D_EFF_64_SEED7 = 0.4873273045612155


def assignment_digest(design) -> str:
    """Short digest of every run's level labels, in run order."""
    runs = [[run.alt_levels, run.context] for run in design.runs]
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()[:16]


class TestSelectFraction:
    def test_balance_and_orthogonality_64(self, schema_default):
        design = select_fraction(schema_default, 64, seed=7)
        diag = design.diagnostics
        assert max(diag.level_balance.values()) == 0.0
        assert diag.max_abs_column_correlation <= 0.05
        assert diag.d_efficiency == pytest.approx(FROZEN_D_EFF_64_SEED7,
                                                  abs=1e-12)

    def test_same_seed_same_design(self, schema_default):
        a = select_fraction(schema_default, 32, seed=5, iters=200, restarts=2)
        b = select_fraction(schema_default, 32, seed=5, iters=200, restarts=2)
        assert a.runs == b.runs

    def test_more_iters_never_worse(self, schema_default):
        lo = select_fraction(schema_default, 32, seed=5, iters=0, restarts=1)
        hi = select_fraction(schema_default, 32, seed=5, iters=400, restarts=1)
        assert hi.diagnostics.d_efficiency >= lo.diagnostics.d_efficiency

    def test_iters_zero_still_balanced(self, schema_default):
        design = select_fraction(schema_default, 32, seed=5, iters=0,
                                 restarts=1)
        assert max(design.diagnostics.level_balance.values()) <= 1.0

    @pytest.mark.parametrize("iters, restarts, code", [
        (-3, 2, "bad_iteration_count"), (10, 0, "bad_restart_count")])
    def test_bad_search_settings_are_typed(self, schema_default, iters, restarts, code):
        with pytest.raises(DesignError) as err:
            select_fraction(schema_default, 32, seed=5, iters=iters, restarts=restarts)
        assert err.value.code == code

    @pytest.mark.parametrize("setting, code", [
        ({"iters": "5"}, "bad_iteration_count"), ({"iters": 2.5}, "bad_iteration_count"),
        ({"iters": True}, "bad_iteration_count"), ({"restarts": 1.5}, "bad_restart_count"),
        ({"n_runs": 32.0}, "bad_number"), ({"n_runs": 0}, "bad_number"),
        ({"seed": 1.5}, "bad_seed"), ({"seed": -1}, "bad_seed")])
    def test_non_integer_settings_are_typed(self, schema_default, setting, code):
        settings = {"n_runs": 32, "seed": 5, "iters": 10, "restarts": 1, **setting}
        with pytest.raises(DesignError) as err:
            select_fraction(schema_default, **settings)
        assert err.value.code == code
        name, value = next(iter(setting.items()))
        assert err.value.message.startswith(f"{name} must be an integer >= ")
        assert err.value.message.endswith(f"got {value!r}")

    def test_numpy_integer_settings_search_as_ints(self, schema_default):
        want = select_fraction(schema_default, 32, seed=5, iters=50, restarts=2)
        got = select_fraction(schema_default, np.int64(32), seed=np.int64(5),
                              iters=np.int64(50), restarts=np.int64(2))
        assert got == want
        assert block_design(got, np.int64(4), seed=np.int64(1)) == block_design(want, 4, seed=1)

    def test_linear_slots_code_their_values(self):
        """Diagnostics of a design with linear slots use the level values."""
        schema = linear_schema()
        design = select_fraction(schema, 6, seed=0, iters=50)
        value = {a.name: {l.label: l.value for l in a.levels} for a in schema.attributes}
        X = np.array([[value["price"][run.alt_levels["a"]["price"]],
                       value["wait"][run.alt_levels["a"]["wait"]],
                       value["wait"][run.alt_levels["b"]["wait"]]] for run in design.runs])
        want = np.linalg.det(X.T @ X / 6) ** (1 / 3)
        assert design.diagnostics.d_efficiency == pytest.approx(want, rel=1e-12)

    # (schema, n_runs, seed, iters, restarts) -> (assignment digest, exact
    # d_efficiency), frozen from the per-proposal search before the screen:
    # the study design, recovery_sweep's set-up, the toy size, the 64-run
    # survey design and the linear schema
    PINNED = {
        ("labels", 32, 0, 1000, 5): ("a4af9308ca9624d4", 0.3997037837952299),
        ("labels", 32, 1, 1000, 5): ("a5f19722d899e7a4", 0.39394519146687046),
        ("labels", 32, 2, 1000, 5): ("3c6905083735e4ed", 0.400695632921749),
        ("labels", 32, 0, 300, 2): ("3e6c7cfbc38cd77a", 0.3504552440485981),
        ("labels", 32, 1, 300, 2): ("13807b3a0fcd3fbc", 0.34641311383549894),
        ("labels", 32, 2, 300, 2): ("e0c7fd5782b298fd", 0.3669470581909449),
        ("labels", 32, 0, 50, 5): ("66eb9031ec95f13e", 0.30368862252193485),
        ("labels", 32, 1, 50, 5): ("759f18bdc4a40834", 0.29570131983701553),
        ("labels", 32, 2, 50, 5): ("b5703fb7c3b3a8e9", 0.29652933303164764),
        ("labels", 64, 0, 1000, 5): ("9dbaa264fd252d36", 0.4873273045612155),
        ("linear", 6, 0, 50, 5): ("c529f00b2b851628", 48.379468599112265),
        ("linear", 6, 1, 50, 5): ("3807759b6583099e", 48.379468599112265),
        ("linear", 6, 2, 50, 5): ("2f75a264304a6816", 48.379468599112265),
        ("linear", 12, 0, 50, 5): ("22a3b8d88f8aa2eb", 47.79384634567739),
        ("linear", 12, 1, 50, 5): ("9ad8534a8114f62a", 48.45168101374428),
        ("linear", 12, 2, 50, 5): ("fed6c45218bc7115", 48.45168101374428),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_designs_are_pinned(self, case):
        name, n_runs, seed, iters, restarts = case
        schema = table4_labels_schema() if name == "labels" else linear_schema()
        design = select_fraction(schema, n_runs, seed=seed, iters=iters, restarts=restarts)
        digest, d_eff = self.PINNED[case]
        assert assignment_digest(design) == digest
        assert design.diagnostics.d_efficiency == d_eff

    SCHEMAS = {"labels": table4_labels_schema, "default": default_schema,
               "linear": linear_schema}

    @pytest.mark.filterwarnings("ignore:n_runs=")
    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(geometry=st.sampled_from([("labels", 28), ("labels", 32), ("labels", 48),
                                     ("labels", 64), ("default", 32), ("linear", 4),
                                     ("linear", 5), ("linear", 6), ("linear", 12)]),
           seed=st.integers(0, 2**16), iters=st.integers(0, 300), restarts=st.integers(1, 2))
    def test_screen_makes_the_oracle_decisions(self, geometry, seed, iters, restarts):
        name, n_runs = geometry
        schema = self.SCHEMAS[name]()
        got = select_fraction(schema, n_runs, seed=seed, iters=iters, restarts=restarts)
        want = select_fraction_oracle(schema, n_runs, seed=seed, iters=iters,
                                      restarts=restarts)
        assert got.runs == want.runs
        assert got.diagnostics.d_efficiency == want.diagnostics.d_efficiency

    @pytest.mark.filterwarnings("ignore:n_runs=")
    @pytest.mark.parametrize("name,n_runs,seed", [("linear", 6, 23), ("labels", 28, 2)])
    def test_singular_start_takes_the_exact_path(self, monkeypatch, name, n_runs, seed):
        """These searches start from an X'X too ill-conditioned to screen
        (singular: both wait columns equal; or 27 columns on 28 runs), so
        proposals are compared one at a time, some rejected, until accepted
        swaps make it well-conditioned."""
        screenable = []
        inverse = dce.design._inverse

        def spy(X):
            N = inverse(X)
            screenable.append(N is not None)
            return N

        monkeypatch.setattr(dce.design, "_inverse", spy)
        schema = self.SCHEMAS[name]()
        got = select_fraction(schema, n_runs, seed=seed, iters=100, restarts=1)
        want = select_fraction_oracle(schema, n_runs, seed=seed, iters=100, restarts=1)
        assert not screenable[0]
        assert got.runs == want.runs
        assert got.diagnostics.d_efficiency == want.diagnostics.d_efficiency

    @pytest.mark.parametrize("seed", [0, 1, 7, 2026])
    @pytest.mark.parametrize("n_slots,n_runs", [(12, 32), (3, 6), (27, 64), (1, 2), (5, 1000)])
    def test_proposals_drawn_at_once_match_drawn_in_turn(self, seed, n_slots, n_runs):
        """select_fraction draws a restart's proposals in one call; the search
        is defined by drawing a slot, then two runs, per proposal."""
        iters = 200
        at_once = np.random.default_rng([seed, 1])
        in_turn = np.random.default_rng([seed, 1])
        drawn = at_once.integers(0, np.tile([n_slots, n_runs, n_runs], iters)).reshape(iters, 3)
        want = []
        for _ in range(iters):
            s = int(in_turn.integers(n_slots))
            i, j = in_turn.integers(n_runs, size=2)
            want.append((s, i, j))
        np.testing.assert_array_equal(drawn, want)
        assert at_once.bit_generator.state == in_turn.bit_generator.state

    def test_infeasible_run_count(self, schema_default):
        with pytest.raises(DesignError) as err:
            select_fraction(schema_default, 24, seed=0, iters=10, restarts=1)
        assert err.value.code == "infeasible"


class TestDiagnostics:
    def test_follow_the_runs(self, design32):
        # a design's diagnostics are those of its own runs: its first 16
        # runs cannot identify the labels schema's coded columns
        head = replace(design32, runs=design32.runs[:16], blocks=(tuple(range(16)),))
        assert not design32.diagnostics.singular
        assert head.diagnostics.singular
        assert head.diagnostics.d_efficiency == 0.0

    def test_no_runs_is_typed(self, design32):
        with pytest.raises(DesignError) as err:
            replace(design32, runs=(), blocks=()).diagnostics
        assert err.value.code == "empty_design"

    @pytest.mark.parametrize("label", ["nope", None])
    def test_unknown_or_missing_label_is_typed(self, design32, label):
        # run 6's first design slot gets a label that is not a level, or none
        run = design32.runs[5]
        alt_id, column = next((a, c) for a, cols in run.alt_levels.items() for c in cols)
        levels = {c: v for c, v in run.alt_levels[alt_id].items() if c != column}
        if label is not None:
            levels[column] = label
        bad = Profile(alt_levels={**run.alt_levels, alt_id: levels}, context=run.context)
        with pytest.raises(DesignError) as err:
            replace(design32, runs=design32.runs[:5] + (bad,) + design32.runs[6:])
        assert err.value.code == "unknown_level"
        assert f"run 6, slot '{alt_id}:{column}'" in err.value.message


class TestBlocking:
    def test_blocks_partition_runs(self, schema_default):
        design = select_fraction(schema_default, 32, seed=5, iters=200,
                                 restarts=2)
        blocked = block_design(design, 4, seed=1)
        flat = sorted(i for block in blocked.blocks for i in block)
        assert flat == list(range(32))
        assert all(len(b) == 8 for b in blocked.blocks)

    def test_within_block_deviation_bounded(self, schema_default):
        design = select_fraction(schema_default, 64, seed=7)
        blocked = block_design(design, 8, seed=7)
        assert within_block_deviation(blocked) <= 1.0

    def test_non_divisible(self, schema_default):
        design = select_fraction(schema_default, 32, seed=5, iters=50,
                                 restarts=1)
        with pytest.raises(DesignError) as err:
            block_design(design, 3, seed=0)
        assert err.value.code == "non_divisible"

    def test_zero_blocks_are_typed(self, design32):
        with pytest.raises(DesignError) as err:
            block_design(design32, 0, seed=0)
        assert err.value.code == "bad_block_count"

    @pytest.mark.parametrize("setting, code", [
        ({"n_blocks": 2.0}, "bad_block_count"), ({"n_blocks": True}, "bad_block_count"),
        ({"n_blocks": "4"}, "bad_block_count"), ({"seed": 1.5}, "bad_seed"),
        ({"seed": -2}, "bad_seed")])
    def test_non_integer_settings_are_typed(self, design32, setting, code):
        with pytest.raises(DesignError) as err:
            block_design(design32, **{"n_blocks": 4, "seed": 0, **setting})
        assert err.value.code == code

    def test_deterministic(self, schema_default):
        design = select_fraction(schema_default, 32, seed=5, iters=100,
                                 restarts=1)
        a = block_design(design, 4, seed=2)
        b = block_design(design, 4, seed=2)
        assert a.blocks == b.blocks

    # block of each run, frozen from the first verified blocking; the
    # 24-run design is the first 24 runs of the 32-run one, so the 4-level
    # slots target 1.5 runs per level in each 6-run block
    PINNED = {
        ("32/4", 0): ("30100333200111232210122232310013", 1.0),
        ("32/4", 1): ("10103321320110220320102212331303", 2.0),
        ("32/4", 2): ("11233302121330000231322030101122", 2.0),
        ("64/8", 0): ("1247750242150336061643357642150773321217050642454505064613377612", 1.0),
        ("64/8", 1): ("5471125203411730634007366472525617725341125004310256643057766342", 1.0),
        ("64/8", 2): ("2763065434621607150234170513275406172762160434633454150327170552", 1.0),
        ("24/4", 0): ("232332002113210012003311", 1.5),
        ("24/4", 1): ("301222331001213301232100", 1.5),
        ("24/4", 2): ("322001331001103322031221", 2.5),
        ("linear 12/4", 0): ("120322011033", 0.5),
        ("linear 12/4", 1): ("233311120200", 0.5),
        ("linear 12/4", 2): ("100313212023", 0.5),
    }

    @pytest.mark.parametrize("geometry,seed", sorted(PINNED))
    def test_blocks_are_pinned(self, schema_default, geometry, seed):
        if geometry == "linear 12/4":
            design = select_fraction(linear_schema(), 12, seed=0, iters=50, restarts=1)
        else:
            n_runs = 64 if geometry == "64/8" else 32
            design = select_fraction(schema_default, n_runs, seed=0, iters=200, restarts=1)
            if geometry == "24/4":
                design = replace(design, runs=design.runs[:24], blocks=(tuple(range(24)),))
        n_blocks = int(geometry.split("/")[1])
        blocked = block_design(design, n_blocks, seed=seed)
        block_of, deviation = self.PINNED[geometry, seed]
        assert blocked.blocks == tuple(
            tuple(r for r, b in enumerate(block_of) if int(b) == k) for k in range(n_blocks))
        assert within_block_deviation(blocked) == deviation

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(name=st.sampled_from(["default", "linear"]), n_runs=st.sampled_from([8, 16, 24, 32, 64]),
           n_blocks=st.sampled_from([1, 2, 4, 8]), balanced=st.booleans(),
           levels_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    def test_match_table_makes_the_count_search_blocks(self, name, n_runs, n_blocks,
                                                       balanced, levels_seed, seed):
        """Random level assignments, balanced as the fraction search starts
        or drawn independently, block as the (block, slot, level) count
        search blocks them, ties included. Blocks of 3 runs (24 runs, 8
        blocks) cannot hold a 2- or 4-level slot's levels evenly."""
        schema = default_schema() if name == "default" else linear_schema()
        slots = dce.design._slots(schema)
        rng = np.random.default_rng(levels_seed)
        A = np.column_stack([dce.design._balanced_levels(n_runs, attr.n_levels, rng) if balanced
                             else rng.integers(attr.n_levels, size=n_runs) for _, attr in slots])
        design = dce.design.BlockedDesign(
            schema=schema, runs=dce.design._profiles_from_assignment(A, slots),
            blocks=(tuple(range(n_runs)),), seed=None)
        assert block_design(design, n_blocks, seed).blocks == \
            block_design_oracle(design, n_blocks, seed)

    @pytest.mark.parametrize("levels_seed", [0, 1, 2])
    def test_level_balance_counts_levels(self, schema_default, levels_seed):
        """Per slot, the largest |count - n/L| over its levels, on levels
        drawn independently (so unbalanced), against bincount's counts."""
        slots = dce.design._slots(schema_default)
        rng = np.random.default_rng(levels_seed)
        A = np.column_stack([rng.integers(attr.n_levels, size=20) for _, attr in slots])
        design = dce.design.BlockedDesign(
            schema=schema_default, runs=dce.design._profiles_from_assignment(A, slots),
            blocks=(tuple(range(20)),), seed=None)
        expected = {dce.design._slot_name(alt_id, attr):
                    float(np.abs(np.bincount(A[:, s], minlength=attr.n_levels)
                                 - 20 / attr.n_levels).max())
                    for s, (alt_id, attr) in enumerate(slots)}
        assert design.diagnostics.level_balance == expected
        assert design.diagnostics.max_level_imbalance > 0

    def test_deviation_of_unequal_blocks(self, tmp_path):
        """Each block is measured against its own size: a wrong size (4, the
        mean) would give |4 - 4/3| = 8/3."""
        path = tmp_path / "design.csv"
        path.write_text("run_id,block_id,a:price,a:wait,b:wait\n"
                        "1,1,lo,short,short\n"
                        "2,1,mid,short,long\n"
                        "3,1,hi,long,short\n"
                        "4,2,lo,short,short\n"
                        "5,2,lo,short,short\n"
                        "6,2,lo,short,short\n"
                        "7,2,lo,long,short\n"
                        "8,2,mid,long,long\n")
        design = read_design_csv(path, linear_schema())
        assert [len(b) for b in design.blocks] == [3, 5]
        # block 2, price: 4 runs at lo against 5/3
        assert within_block_deviation(design) == pytest.approx(7 / 3, abs=1e-12)


class TestDesignCsv:
    def test_round_trip(self, tmp_path, schema_labels, design32):
        blocked = block_design(design32, 4, seed=1)
        path = tmp_path / "design.csv"
        write_design_csv(blocked, path)
        clone = read_design_csv(path, schema_labels)
        assert clone.runs == blocked.runs
        assert clone.blocks == blocked.blocks
        assert clone.diagnostics.d_efficiency == pytest.approx(
            blocked.diagnostics.d_efficiency, abs=1e-12)

    def test_write_is_byte_deterministic(self, tmp_path, design32):
        blocked = block_design(design32, 4, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_design_csv(blocked, p1)
        write_design_csv(blocked, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_level_names_row(self, tmp_path, schema_labels, design32):
        blocked = block_design(design32, 4, seed=1)
        path = tmp_path / "design.csv"
        write_design_csv(blocked, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[2], "no_such_level", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(DesignError) as err:
            read_design_csv(bad, schema_labels)
        assert err.value.code == "unknown_level"
        assert "row 2" in str(err.value)

    def test_missing_column(self, tmp_path, schema_labels, design32):
        blocked = block_design(design32, 4, seed=1)
        path = tmp_path / "design.csv"
        write_design_csv(blocked, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h != "product_type"]
        slim = ["\n".join(",".join(row.split(",")[i] for i in keep)
                          for row in lines)]
        bad = tmp_path / "bad.csv"
        bad.write_text(slim[0] + "\n")
        with pytest.raises(DesignError) as err:
            read_design_csv(bad, schema_labels)
        assert err.value.code == "missing_column"

    def test_byte_order_mark_is_dropped(self, tmp_path, schema_labels, design32):
        """A spreadsheet's BOM must not glue itself to the run_id header."""
        blocked = block_design(design32, 4, seed=1)
        path = tmp_path / "design.csv"
        write_design_csv(blocked, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        clone = read_design_csv(path, schema_labels)
        assert clone.runs == blocked.runs
        assert clone.blocks == blocked.blocks

    def test_non_utf8_bytes_name_row(self, tmp_path, schema_labels, design32):
        path = tmp_path / "design.csv"
        write_design_csv(block_design(design32, 4, seed=1), path)
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b",", b",\xff", 1)  # CSV row 5
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DesignError) as err:
            read_design_csv(path, schema_labels)
        assert err.value.code == "bad_encoding"
        assert "row 5" in str(err.value)

    @pytest.mark.parametrize("surplus", [True, False])
    def test_row_of_the_wrong_width_names_row(self, tmp_path, schema_labels, design32,
                                              surplus):
        """A run with one field more or one less than the header is refused,
        not read with the surplus dropped."""
        path = tmp_path / "design.csv"
        write_design_csv(block_design(design32, 4, seed=1), path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5] + ",x" if surplus else lines[5].rsplit(",", 1)[0]  # CSV row 6
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DesignError) as err:
            read_design_csv(path, schema_labels)
        assert err.value.code == "bad_csv"
        assert err.value.row == 6
        assert "(row 6)" in str(err.value)

    def test_blank_block_id_names_row(self, tmp_path, schema_labels, design32):
        """A blank block cell would otherwise make a block of its own."""
        path = tmp_path / "design.csv"
        write_design_csv(block_design(design32, 4, seed=1), path)
        lines = path.read_text().splitlines()
        run_id, _, rest = lines[7].split(",", 2)  # CSV row 8
        lines[7] = f"{run_id}, ,{rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DesignError) as err:
            read_design_csv(path, schema_labels)
        assert err.value.code == "bad_block"
        assert "row 8" in str(err.value)
