"""End-to-end command line flows: design -> simulate -> estimate -> postest."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dce import (EstimationResult, ExperimentSchema, read_design_csv, within_block_deviation,
                 write_choices_csv)
from dce.cli import main

from helpers import simulated_panel

REPO = Path(__file__).resolve().parents[1]
# `python -m` puts its working directory first on sys.path, so a child run
# from here imports this checkout's package with or without an install
SRC = REPO / "src"
LABELS_SCHEMA = str(REPO / "schemas" / "drone_delivery_japan_table4_labels.json")
MMNL_FIXTURE = str(REPO / "fixtures" / "table4_mmnl.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Run the full pipeline once; individual tests inspect the artifacts."""
    paths = {
        "design": workdir / "design.csv",
        "choices": workdir / "choices.csv",
        "mnl": workdir / "mnl.json",
        "mmnl": workdir / "mmnl.json",
    }
    codes = {}
    codes["design"] = main([
        "design", "--schema", LABELS_SCHEMA, "--runs", "32", "--blocks", "4",
        "--seed", "3", "--iters", "300", "-o", str(paths["design"])])
    codes["simulate"] = main([
        "simulate", "--design", str(paths["design"]),
        "--params", MMNL_FIXTURE, "--n", "40", "--seed", "11",
        "-o", str(paths["choices"])])
    codes["mnl"] = main([
        "estimate", "mnl", "--data", str(paths["choices"]),
        "--schema", LABELS_SCHEMA, "-o", str(paths["mnl"])])
    codes["mmnl"] = main([
        "estimate", "mmnl", "--data", str(paths["choices"]),
        "--schema", LABELS_SCHEMA, "--draws", "30",
        "--random", "asc_drone,asc_truck", "-o", str(paths["mmnl"])])
    return {"paths": paths, "codes": codes}


def manifest_of(path: Path) -> dict:
    return json.loads(Path(str(path) + ".manifest.json").read_text())


class TestPipeline:
    def test_all_stages_succeed(self, pipeline):
        assert pipeline["codes"] == {"design": 0, "simulate": 0,
                                     "mnl": 0, "mmnl": 0}

    def test_design_output_and_manifest(self, pipeline):
        m = manifest_of(pipeline["paths"]["design"])
        assert re.fullmatch(r"[0-9a-f]{16}", m["run_id"])
        assert m["command"] == "design"
        assert set(m["diagnostics"]) >= {"d_efficiency",
                                         "max_abs_column_correlation",
                                         "max_level_imbalance",
                                         "within_block_deviation"}
        assert m["diagnostics"]["max_level_imbalance"] == 0
        assert m["elapsed_seconds"] >= 0
        assert str(pipeline["paths"]["design"]) in m["outputs"]
        design = read_design_csv(pipeline["paths"]["design"],
                                 ExperimentSchema.load(LABELS_SCHEMA))
        diag = design.diagnostics
        assert m["diagnostics"] == {
            "d_efficiency": diag.d_efficiency,
            "max_abs_column_correlation": diag.max_abs_column_correlation,
            "max_level_imbalance": diag.max_level_imbalance,
            "within_block_deviation": within_block_deviation(design),
            "singular": diag.singular,
        }

    def test_simulate_line_count(self, pipeline):
        lines = pipeline["paths"]["choices"].read_text().splitlines()
        assert len(lines) == 1 + 40 * 8 * 3

    def test_mnl_result_file(self, pipeline):
        r = EstimationResult.load(pipeline["paths"]["mnl"])
        assert r.model == "mnl"
        assert r.converged
        assert r.k_params == 38
        assert r.ll_final > r.ll_null
        assert r.status == "gradient_converged"
        assert r.run_id == manifest_of(pipeline["paths"]["mnl"])["run_id"]

    def test_three_random_coefficients(self, workdir):
        # README's design and choices; the third coefficient draws in base 5
        design, choices, out = (workdir / n for n in ("d64.csv", "c200.csv", "mmnl3.json"))
        assert main(["design", "--schema", LABELS_SCHEMA, "--runs", "64", "--blocks", "8",
                     "--seed", "7", "-o", str(design)]) == 0
        assert main(["simulate", "--design", str(design), "--params", MMNL_FIXTURE,
                     "--n", "200", "--seed", "11", "-o", str(choices)]) == 0
        assert main(["estimate", "mmnl", "--data", str(choices), "--schema", LABELS_SCHEMA,
                     "--random", "asc_drone,asc_truck,social_influence:neighbor_30",
                     "--draws", "100", "-o", str(out)]) == 0
        mixing = json.loads(out.read_text())["mixing"]
        assert mixing["primes"] == [2, 3, 5]
        assert EstimationResult.load(out).mixing.primes == (2, 3, 5)

    def test_mmnl_result_file(self, pipeline):
        r = EstimationResult.load(pipeline["paths"]["mmnl"])
        assert r.model == "mmnl"
        assert r.converged
        assert r.index.names()[-2:] == ("sd:asc_drone", "sd:asc_truck")
        assert r.mixing.n_draws == 30
        fit = json.loads(pipeline["paths"]["mmnl"].read_text())["fit"]
        assert fit["status"] == "gradient_converged"

    def test_fit_summary_shows_status_and_reruns_identically(self, pipeline,
                                                            workdir, capsys):
        out_json = workdir / "mnl_again.json"
        argv = ["estimate", "mnl", "--data", str(pipeline["paths"]["choices"]),
                "--schema", LABELS_SCHEMA, "-o", str(out_json)]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            printed = capsys.readouterr().out
            assert re.search(r"optimizer status\s+gradient_converged", printed)
            m = manifest_of(out_json)
            runs.append((out_json.read_bytes(), m["run_id"], m["outputs"]))
        assert runs[0] == runs[1]

    def test_design_rerun_byte_identical(self, pipeline, workdir):
        first = pipeline["paths"]["design"].read_bytes()
        run_id = manifest_of(pipeline["paths"]["design"])["run_id"]
        assert main([
            "design", "--schema", LABELS_SCHEMA, "--runs", "32",
            "--blocks", "4", "--seed", "3", "--iters", "300",
            "-o", str(pipeline["paths"]["design"])]) == 0
        assert pipeline["paths"]["design"].read_bytes() == first
        assert manifest_of(pipeline["paths"]["design"])["run_id"] == run_id

    def test_simulate_rerun_byte_identical(self, pipeline):
        first = pipeline["paths"]["choices"].read_bytes()
        assert main([
            "simulate", "--design", str(pipeline["paths"]["design"]),
            "--params", MMNL_FIXTURE, "--n", "40", "--seed", "11",
            "-o", str(pipeline["paths"]["choices"])]) == 0
        assert pipeline["paths"]["choices"].read_bytes() == first

    def test_estimate_prints_table(self, pipeline, capsys):
        main(["estimate", "mnl", "--data", str(pipeline["paths"]["choices"]),
              "--schema", LABELS_SCHEMA,
              "-o", str(pipeline["paths"]["mnl"])])
        out = capsys.readouterr().out
        assert "asc_drone" in out
        assert "LL(final)" in out


class TestPostest:
    def test_fit_fixture(self, capsys):
        assert main(["postest", "fit", "--fixture", "table4"]) == 0
        out = capsys.readouterr().out
        assert "rho2 0.274" in out
        assert "rho2_adj 0.266" in out

    def test_wtp_fixture_table(self, capsys):
        assert main(["postest", "wtp", "--fixture", "table4"]) == 0
        out = capsys.readouterr().out
        for token in ("delivery_date_drone", "delivery_date_motorcycle",
                      "dropoff_motorcycle", "social_influence",
                      "156.1", "47.2", "93.4", "29.7"):
            assert token in out, token

    def test_wtp_report_json(self, workdir, capsys):
        out_json = workdir / "wtp.json"
        assert main(["postest", "wtp", "--fixture", "table4",
                     "-o", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert re.fullmatch(r"[0-9a-f]{16}", payload["run_id"])
        assert payload["run_id"] == manifest_of(out_json)["run_id"]
        labels = {row["attribute"] for row in payload["wtp"]}
        assert "delivery_date_drone" in labels

    def test_wtp_on_fresh_estimate(self, pipeline, capsys):
        assert main(["postest", "wtp",
                     "--result", str(pipeline["paths"]["mmnl"]),
                     "--schema", LABELS_SCHEMA]) == 0
        assert "delivery_date_drone" in capsys.readouterr().out

    def test_elasticity_with_grid(self, workdir, capsys):
        grid = workdir / "grid.csv"
        assert main(["postest", "elasticity", "--fixture", "table4",
                     "--price", "680", "--prob", "0.3333",
                     "--slope-mode", "drone",
                     "--emit-grid", str(grid)]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "not published" in out
        lines = grid.read_text().splitlines()
        assert lines[0] == "price,probability"
        assert len(lines) == 22


class TestErrors:
    def test_bad_blocking(self, workdir, capsys):
        code = main(["design", "--schema", LABELS_SCHEMA, "--runs", "32",
                     "--blocks", "5", "--seed", "0",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "bad_blocking" in capsys.readouterr().err

    def test_negative_iters(self, workdir, capsys):
        code = main(["design", "--schema", LABELS_SCHEMA, "--runs", "32",
                     "--blocks", "4", "--iters", "-5", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "bad_iteration_count" in capsys.readouterr().err

    @pytest.mark.parametrize("price", ["nan", "inf", "1e400", "-680", "0", "1.7e308", "5e-324"])
    def test_elasticity_price_outside_the_domain(self, workdir, capsys, price):
        # 1.7e308 and 5e-324 are positive floats, but the grid's top price
        # 1.5 x 1.7e308 overflows and its bottom price 0.5 x 5e-324 rounds to 0
        grid = workdir / "bad_price_grid.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["postest", "elasticity", "--fixture", "table4", "--price", price,
                         "--prob", "0.3", "--slope-mode", "drone", "--emit-grid", str(grid)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad_price" in err and str(float(price)) in err
        assert not grid.exists()

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_negative_seed(self, pipeline, workdir, capsys, command):
        inputs = (["--schema", LABELS_SCHEMA, "--runs", "32", "--blocks", "4"]
                  if command == "design" else
                  ["--design", str(pipeline["paths"]["design"]), "--params", MMNL_FIXTURE,
                   "--n", "5"])
        code = main([command, *inputs, "--seed", "-1", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "bad_seed" in capsys.readouterr().err

    def test_simulate_zero_respondents(self, pipeline, workdir, capsys):
        code = main(["simulate", "--design", str(pipeline["paths"]["design"]),
                     "--params", MMNL_FIXTURE, "--n", "0",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "bad_respondent_count" in capsys.readouterr().err

    @pytest.mark.parametrize("name, reported", [
        ("asc_bus", "unexpected parameters: asc_bus"),
        ("asc_truck", "missing parameters: asc_truck")])
    def test_simulate_params_not_matching_schema(self, pipeline, workdir, capsys,
                                                 name, reported):
        doc = json.loads(Path(MMNL_FIXTURE).read_text())
        if doc["parameters"].pop(name, None) is None:
            doc["parameters"][name] = {"estimate": 0.5}
        params = workdir / f"params_{name}.json"
        params.write_text(json.dumps(doc))
        code = main(["simulate", "--design", str(pipeline["paths"]["design"]),
                     "--params", str(params), "--n", "5",
                     "-o", str(workdir / "mismatch.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "parameter_mismatch" in err and reported in err
        assert not (workdir / "mismatch.csv").exists()

    def test_unknown_random_param(self, pipeline, workdir, capsys):
        code = main(["estimate", "mmnl",
                     "--data", str(pipeline["paths"]["choices"]),
                     "--schema", LABELS_SCHEMA, "--draws", "10",
                     "--random", "not_a_param",
                     "-o", str(workdir / "x.json")])
        assert code == 2
        assert "unknown_parameter" in capsys.readouterr().err

    def test_no_random_params(self, pipeline, workdir, capsys):
        code = main(["estimate", "mmnl",
                     "--data", str(pipeline["paths"]["choices"]),
                     "--schema", LABELS_SCHEMA, "--draws", "10",
                     "--random", "", "-o", str(workdir / "x.json")])
        assert code == 2
        assert "no_random_params" in capsys.readouterr().err

    def test_result_missing_an_sd_entry(self, workdir, capsys):
        doc = json.loads(Path(MMNL_FIXTURE).read_text())
        del doc["parameters"]["sd:asc_truck"]
        result = workdir / "no_sd.json"
        result.write_text(json.dumps(doc))
        assert main(["postest", "fit", "--result", str(result)]) == 2
        err = capsys.readouterr().err
        assert "parameter_mismatch" in err and "sd:asc_truck" in err

    def test_wtp_with_a_zero_cost_slope(self, workdir, capsys):
        # every cost level's coefficient, the implied base levels' too, is 0
        doc = json.loads(Path(MMNL_FIXTURE).read_text())
        for name, entry in doc["parameters"].items():
            if name.startswith("delivery_cost_"):
                entry["estimate"] = 0.0
        for name in doc["base_levels"]:
            if name.startswith("delivery_cost_"):
                doc["base_levels"][name] = 0.0
        result = workdir / "zero_cost.json"
        result.write_text(json.dumps(doc))
        assert main(["postest", "wtp", "--result", str(result)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zero_cost_slope:") and "Traceback" not in err

    def test_result_that_is_not_json(self, workdir, capsys):
        result = workdir / "not_json.json"
        # json reads NaN and -Infinity, which are no JSON numbers
        texts = ["not json", '{"parameters": []}']
        for field, value in (("ll_null", float("-inf")), ("ll_final", float("nan"))):
            doc = json.loads(Path(MMNL_FIXTURE).read_text())
            doc["fit"][field] = value
            texts.append(json.dumps(doc))
        for text in texts:
            result.write_text(text)
            assert main(["postest", "fit", "--result", str(result)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: result_json:") and "Traceback" not in err

    def test_schema_level_value_that_is_not_a_number(self, workdir, capsys):
        doc = json.loads(Path(LABELS_SCHEMA).read_text())
        cost = next(a for a in doc["attributes"] if a["name"] == "delivery_cost_drone")
        cost["levels"][0]["value"] = "abc"
        schema = workdir / "bad_value.json"
        schema.write_text(json.dumps(doc))
        for report in (["wtp"], ["elasticity", "--price", "800", "--prob", "0.3",
                                 "--slope-mode", "drone"]):
            assert main(["postest", *report, "--schema", str(schema)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: schema_json:") and "Traceback" not in err

    # past int64's range the drop itself, or the indices of 40 respondents x
    # 10 draws after it, would overflow or wrap negative; at 2**54 - 1 the
    # base-2 draw rounds to 1.0
    @pytest.mark.parametrize("flag, value, error", [("--draws", "0", "bad_draw_count"),
                                                    ("--drop", "-1", "bad_drop"),
                                                    ("--drop", "9223372036854775807", "bad_drop"),
                                                    ("--drop", "9223372036854775500", "bad_drop"),
                                                    ("--drop", "18014398509481982", "bad_drop")])
    def test_bad_halton_setting(self, pipeline, workdir, capsys, flag, value, error):
        code = main(["estimate", "mmnl",
                     "--data", str(pipeline["paths"]["choices"]),
                     "--schema", LABELS_SCHEMA, "--draws", "10",
                     "--random", "asc_drone", flag, value,
                     "-o", str(workdir / "halton.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err
        assert not (workdir / "halton.json").exists()

    def test_unknown_schema_name(self, workdir, capsys):
        code = main(["design", "--schema", "no_such_schema", "--runs", "32",
                     "--blocks", "4", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "unknown_schema" in capsys.readouterr().err

    def test_unknown_fixture(self, capsys):
        assert main(["postest", "fit", "--fixture", "table9"]) == 2
        assert "table4" in capsys.readouterr().err  # lists what exists

    def test_missing_input_file(self, workdir, capsys):
        code = main(["simulate", "--design", str(workdir / "absent.csv"),
                     "--params", MMNL_FIXTURE, "--n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "missing file" in capsys.readouterr().err

    def test_directory_as_input_exits_2(self, workdir, capsys):
        folder = workdir / "a_directory"
        folder.mkdir(exist_ok=True)
        for argv in (["postest", "fit", "--result", str(folder)],
                     ["estimate", "mnl", "--data", str(folder), "--schema", LABELS_SCHEMA,
                      "-o", str(workdir / "x.json")],
                     ["design", "--schema", str(folder), "--runs", "32", "--blocks", "4",
                      "-o", str(workdir / "x.csv")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {folder}:"), argv

    def test_non_utf8_input_exits_2(self, pipeline, workdir, capsys):
        for name in ("design", "choices"):
            data = pipeline["paths"][name].read_bytes()
            (workdir / f"latin1_{name}.csv").write_bytes(data.replace(b",", b",\xe9", 1))
        code = main(["simulate", "--design", str(workdir / "latin1_design.csv"),
                     "--params", MMNL_FIXTURE, "--n", "5", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "bad_encoding" in capsys.readouterr().err
        code = main(["estimate", "mnl", "--data", str(workdir / "latin1_choices.csv"),
                     "--schema", LABELS_SCHEMA, "-o", str(workdir / "x.json")])
        assert code == 2
        assert "bad_encoding" in capsys.readouterr().err
        bad = workdir / "latin1.json"
        bad.write_bytes(b"\xff" + Path(MMNL_FIXTURE).read_bytes())
        for argv, error in ((["design", "--schema", str(bad), "--runs", "32", "--blocks", "4",
                              "-o", str(workdir / "x.csv")], "schema_json"),
                            (["postest", "fit", "--result", str(bad)], "result_json")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {error}:") and "Traceback" not in err

    def test_csv_field_over_the_reader_limit_exits_2(self, pipeline, workdir, capsys):
        # csv's default field limit is 131,072 characters; raising it would
        # change it for the whole process, so the readers report the row
        for name in ("design", "choices"):
            lines = pipeline["paths"][name].read_text().split("\n")
            lines[2] += "," + "x" * 140_000  # CSV row 3
            (workdir / f"long_{name}.csv").write_text("\n".join(lines))
        code = main(["simulate", "--design", str(workdir / "long_design.csv"),
                     "--params", MMNL_FIXTURE, "--n", "5", "-o", str(workdir / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad_csv:") and "(row 3)" in err
        code = main(["estimate", "mnl", "--data", str(workdir / "long_choices.csv"),
                     "--schema", LABELS_SCHEMA, "-o", str(workdir / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad_csv:") and "(row 3)" in err

    def test_nonconvergence_exits_3(self, pipeline, workdir, capsys,
                                    monkeypatch):
        import dce.cli as cli_mod
        real = cli_mod.estimate_mnl

        def stubborn(panel):
            r = real(panel)
            r.converged = False
            return r

        monkeypatch.setattr(cli_mod, "estimate_mnl", stubborn)
        out_json = workdir / "noconv.json"
        code = main(["estimate", "mnl",
                     "--data", str(pipeline["paths"]["choices"]),
                     "--schema", LABELS_SCHEMA, "-o", str(out_json)])
        assert code == 3
        assert out_json.exists()  # result still written
        assert "did not converge" in capsys.readouterr().err


class TestSubprocess:
    def test_module_entry_point(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "dce.cli", "--version"],
            capture_output=True, text=True, cwd=SRC)
        assert proc.returncode == 0

    def test_exit_code_propagates(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "dce.cli", "design",
             "--schema", LABELS_SCHEMA, "--runs", "32", "--blocks", "5",
             "-o", str(workdir / "y.csv")],
            capture_output=True, text=True, cwd=SRC)
        assert proc.returncode == 2
        assert "bad_blocking" in proc.stderr

    def test_imports_load_no_scipy(self):
        # numpy is the only runtime dependency, and a fit loads none of its
        # optional submodules: numpy.polynomial alone adds ~0.6 MB of RSS
        script = (
            "import sys, dce, dce.cli\n"
            "from dce import *\n"
            "schema = table4_labels_schema()\n"
            "design = block_design(select_fraction(schema, 32, seed=3, iters=50, restarts=1),"
            " 4, seed=3)\n"
            "cfg = SimConfig(schema=schema, design=design, true_params=table4_mnl().params,"
            " n_respondents=40, seed=1)\n"
            "estimate_mmnl(code_dataset(simulate_dataset(cfg)),"
            " MixingSpec(halton=HaltonConfig(n_draws=8)))\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=SRC)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_fits_are_byte_identical_across_processes(self, tmp_path, design32):
        """`dce estimate mnl` then `dce estimate mmnl` (60 respondents, 64
        draws) in two processes, one on one BLAS/OpenMP thread and the other
        on two, each with its own hash seed, write the same result bytes and
        run ids. Paths are relative, so both runs see the same arguments."""
        _, dataset, _, _ = simulated_panel(design32, 60, seed=4, sds=(1.2, 1.0))
        estimate = [["estimate", "mnl", "--data", "choices.csv", "--schema", LABELS_SCHEMA,
                     "-o", "mnl.json"],
                    ["estimate", "mmnl", "--data", "choices.csv", "--schema", LABELS_SCHEMA,
                     "--draws", "64", "--random", "asc_drone,asc_truck", "-o", "mmnl.json"]]
        script = ("import sys; from dce.cli import main; "
                  "a = sys.argv[1:]; i = a.index('--'); sys.exit(main(a[:i]) or main(a[i + 1:]))")
        runs = []
        for threads, hash_seed in (("1", "0"), ("2", "4242")):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            write_choices_csv(dataset, cwd / "choices.csv")
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", script, *estimate[0], "--", *estimate[1]],
                                  capture_output=True, text=True, cwd=cwd, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append({name: ((cwd / name).read_bytes(),
                                manifest_of(cwd / name)["run_id"])
                         for name in ("mnl.json", "mmnl.json")})
        assert runs[0] == runs[1]

    def test_console_script_if_installed(self, workdir):
        exe = shutil.which("dce")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
