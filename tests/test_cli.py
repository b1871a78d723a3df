"""Exit codes and output of every CLI subcommand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridxpand
from gridxpand import save_case
from gridxpand.cli import main
from support import toy_case


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    save_case(toy_case(), path)
    return str(path)


@pytest.fixture()
def toy_dry_path(tmp_path):
    path = tmp_path / "toy_dry.json"
    save_case(toy_case(with_weather=False), path)
    return str(path)


@pytest.fixture()
def six_bus_path(case_dir):
    return str(case_dir / "six_bus.json")


@pytest.fixture()
def six_bus_scenario_path(case_dir):
    return str(case_dir / "six_bus_scenario.json")


class TestValidate:
    def test_ok(self, six_bus_path, capsys):
        assert main(["validate", "--case", six_bus_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "buses:" in out and "candidate" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", "--case", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_inconsistent_case(self, tmp_path, capsys):
        from gridxpand import case_to_document
        doc = case_to_document(toy_case())
        doc["buses"][1]["load_weight"] = 0.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--case", str(path)]) == 2
        assert "sum to 1" in capsys.readouterr().err


class TestPlan:
    def test_deterministic_plan(self, toy_path, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        code = main(["plan", "--case", toy_path, "--mode", "dc_det",
                     "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode:       dc_det" in out
        assert f"wrote {out_file}" in out
        doc = json.loads(out_file.read_text())
        assert doc["status"] == "optimal"
        assert doc["added_units"] == ["U1"]

    def test_robust_mode_requires_scenario(self, toy_path, capsys):
        code = main(["plan", "--case", toy_path, "--mode", "dc_robust"])
        assert code == 2
        assert "robust parameters" in capsys.readouterr().err

    def test_nan_time_limit_rejected(self, toy_path, capsys):
        code = main(["plan", "--case", toy_path, "--mode", "dc_det",
                     "--time-limit", "nan"])
        assert code == 2
        assert "time limit" in capsys.readouterr().err

    def test_scenario_supplies_params(self, six_bus_path,
                                      six_bus_scenario_path, capsys):
        code = main(["plan", "--case", six_bus_path,
                     "--scenario", six_bus_scenario_path,
                     "--mode", "dc_robust", "--gap", "1e-6"])
        assert code == 0
        assert "status:     optimal" in capsys.readouterr().out

    def test_peak_rescale_to_infeasible(self, toy_path, capsys):
        code = main(["plan", "--case", toy_path, "--mode", "dc_det",
                     "--peak", "1000"])
        assert code == 0    # infeasible is an answer, not a failure
        assert "infeasible" in capsys.readouterr().out

    def test_oracle_backend_over_cap_fails(self, six_bus_path,
                                           six_bus_scenario_path, capsys):
        code = main(["plan", "--case", six_bus_path,
                     "--scenario", six_bus_scenario_path,
                     "--mode", "dtlr_robust", "--backend", "oracle"])
        assert code == 1
        assert "solver error" in capsys.readouterr().err

    def test_unknown_mode_rejected_by_parser(self, toy_path):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--case", toy_path, "--mode", "ac_opf"])
        assert exc.value.code == 2


class TestSweep:
    def test_table_and_output_file(self, toy_path, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = main(["sweep", "--case", toy_path, "--peaks", "80,120",
                     "--mode", "dc_det", "--serial", "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Peak MW" in out
        doc = json.loads(out_file.read_text())
        assert doc["peaks_mw"] == [80.0, 120.0]
        assert [r["status"] for r in doc["rows"]] == ["optimal", "optimal"]

    def test_bad_peaks_list(self, toy_path, capsys):
        assert main(["sweep", "--case", toy_path, "--peaks", "300,200",
                     "--mode", "dc_det", "--serial"]) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert main(["sweep", "--case", toy_path, "--peaks", "abc",
                     "--mode", "dc_det", "--serial"]) == 2
        assert "bad peak list" in capsys.readouterr().err

    def test_default_modes_need_scenario(self, toy_path, capsys):
        code = main(["sweep", "--case", toy_path, "--peaks", "80",
                     "--serial"])
        assert code == 2
        assert "robust parameters" in capsys.readouterr().err

    def test_every_mode_is_checked_before_solving(self, toy_path, capsys):
        code = main(["sweep", "--case", toy_path, "--peaks", "80",
                     "--mode", "dc_det,dc_robust", "--serial"])
        captured = capsys.readouterr()
        assert code == 2
        assert "'dc_robust' needs robust parameters" in captured.err
        assert captured.out == ""

    def test_error_rows_flip_exit_code(self, toy_dry_path, tmp_path, capsys):
        # weather-free case in thermal mode: each row records a build
        # error, the sweep completes, and the exit code reports failure
        scenario = tmp_path / "robust_only.json"
        scenario.write_text(json.dumps(
            {"robust": {"phi": 0.05, "mu": 0.01, "reliability": 0.05}}))
        code = main(["sweep", "--case", toy_dry_path,
                     "--scenario", str(scenario),
                     "--peaks", "80", "--mode", "dtlr_robust", "--serial"])
        assert code == 1
        assert "error" in capsys.readouterr().out

    def test_infeasible_rows_still_succeed(self, toy_path, capsys):
        code = main(["sweep", "--case", toy_path, "--peaks", "80,1000",
                     "--mode", "dc_det", "--serial"])
        assert code == 0
        assert "Infeasible" in capsys.readouterr().out


class TestRate:
    def test_all_lines(self, toy_path, capsys):
        assert main(["rate", "--case", toy_path]) == 0
        out = capsys.readouterr().out
        assert "ampacity" in out
        assert "line E (existing)" in out
        assert "line L (candidate)" in out
        assert "k-prime governs" in out

    def test_explicit_current(self, toy_path, capsys):
        assert main(["rate", "--case", toy_path, "--line", "E",
                     "--current", "500"]) == 0
        out = capsys.readouterr().out
        assert "at 500.0 A" in out
        assert "residual" in out

    def test_explicit_pair_without_weather(self, toy_dry_path, capsys):
        code = main(["rate", "--case", toy_dry_path, "--line", "E"])
        assert code == 2
        assert "no weather" in capsys.readouterr().err

    def test_no_weather_at_all(self, toy_dry_path, capsys):
        assert main(["rate", "--case", toy_dry_path]) == 2
        assert "carries weather" in capsys.readouterr().err

    def test_unknown_line(self, toy_path, capsys):
        assert main(["rate", "--case", toy_path, "--line", "zz"]) == 2
        assert "unknown line" in capsys.readouterr().err


class TestFit:
    def test_default_table(self, capsys):
        assert main(["fit"]) == 0
        out = capsys.readouterr().out
        assert "cos, x<=0" in out
        assert "ln T-window" in out
        assert "radiation link at 298 K ambient" in out

    def test_custom_window(self, capsys):
        assert main(["fit", "--window", "0.4"]) == 0
        assert "[-0.4, 0]" in capsys.readouterr().out

    def test_bad_window(self, capsys):
        assert main(["fit", "--window", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, six_bus_path):
        # the child imports gridxpand from where this process found it
        src = str(Path(gridxpand.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gridxpand", "validate",
             "--case", six_bus_path],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "ok" in proc.stdout
