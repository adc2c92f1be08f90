"""End-to-end command line flows: design -> simulate -> estimate -> postest."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dce import (EstimationResult, ExperimentSchema, design_diagnostics, read_design_csv,
                 within_block_deviation)
from dce.cli import main

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
        diag = design_diagnostics(design)
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

    def test_result_that_is_not_json(self, workdir, capsys):
        result = workdir / "not_json.json"
        result.write_text("not json")
        assert main(["postest", "fit", "--result", str(result)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: result_json:") and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, error", [("--draws", "0", "bad_draw_count"),
                                                    ("--drop", "-1", "bad_drop")])
    def test_bad_halton_setting(self, pipeline, workdir, capsys, flag, value, error):
        code = main(["estimate", "mmnl",
                     "--data", str(pipeline["paths"]["choices"]),
                     "--schema", LABELS_SCHEMA, "--draws", "10",
                     "--random", "asc_drone", flag, value,
                     "-o", str(workdir / "halton.json")])
        assert code == 2
        assert error in capsys.readouterr().err
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

    def test_nonconvergence_exits_3(self, pipeline, workdir, capsys,
                                    monkeypatch):
        import dce.cli as cli_mod
        real = cli_mod.estimate_mnl

        def stubborn(panel, options=None):
            r = real(panel, options)
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
        # numpy is the only runtime dependency
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dce, dce.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, cwd=SRC)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_if_installed(self, workdir):
        exe = shutil.which("dce")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
