"""Fractional design search, blocking, diagnostics, CSV round trip."""

from dataclasses import replace

import numpy as np
import pytest

from dce import (
    DesignError,
    block_design,
    design_diagnostics,
    full_factorial,
    read_design_csv,
    select_fraction,
    within_block_deviation,
    write_design_csv,
)

from helpers import linear_schema

# frozen from the first verified run of select_fraction(default, 64, seed=7)
FROZEN_D_EFF_64_SEED7 = 0.4873273045612155


class TestFullFactorial:
    def test_size_and_lexicographic_order(self, schema_default):
        combos = full_factorial(schema_default, "drone")
        # dropoff 2 x date 2 x cost 4 x shared social influence 4
        assert len(combos) == 2 * 2 * 4 * 4
        assert combos[0] != combos[1]
        # first attribute cycles slowest
        keys = list(combos[0])
        firsts = [c[keys[0]] for c in combos]
        assert firsts == sorted(firsts, key=firsts.index)

    def test_unknown_alternative(self, schema_default):
        with pytest.raises(DesignError) as err:
            full_factorial(schema_default, "zeppelin")
        assert err.value.code == "unknown_alternative"

    def test_overflow_cap(self, schema_default):
        with pytest.raises(DesignError) as err:
            full_factorial(schema_default, "drone", cap=10)
        assert err.value.code == "overflow"


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
        assert design_diagnostics(design) == design.diagnostics

    def test_infeasible_run_count(self, schema_default):
        with pytest.raises(DesignError) as err:
            select_fraction(schema_default, 24, seed=0, iters=10, restarts=1)
        assert err.value.code == "infeasible"


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
        d0 = design_diagnostics(blocked)
        d1 = design_diagnostics(clone)
        assert d1.d_efficiency == pytest.approx(d0.d_efficiency, abs=1e-12)
        assert clone.diagnostics == design_diagnostics(clone) == d1

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
