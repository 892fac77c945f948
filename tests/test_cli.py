import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv_column(path, name):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(name)
    return [line.split(",")[idx] for line in lines[1:]]


class TestExperimentCommand:
    def test_trig_poisson_writes_report(self, run_cli, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli(
            "experiment", "--preset", "trig", "--matrix", "poisson",
            "--runs", "5", "--seed", "7", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run_id,seed,signal,method,P,M,N,error")
        assert len(lines) == 1 + 5 + 1
        mean_error = float(lines[-1].split(",")[7])
        assert mean_error < 1e-8

    def test_naive_matrix_reports_large_error(self, run_cli, tmp_path):
        out = tmp_path / "naive.csv"
        proc = run_cli(
            "experiment", "--preset", "trig", "--matrix", "naive",
            "--runs", "5", "--seed", "7", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(out.read_text().splitlines()[-1].split(",")[7]) > 0.2

    def test_stdout_when_no_out(self, run_cli):
        proc = run_cli("experiment", "--preset", "trig", "--runs", "2", "--seed", "1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("run_id,seed,")

    def test_json_format(self, run_cli, tmp_path):
        out = tmp_path / "r.json"
        proc = run_cli(
            "experiment", "--preset", "trig", "--runs", "2", "--seed", "3",
            "--format", "json", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["signal"] == "trig"
        assert len(doc["runs"]) == 2

    def test_repeat_invocations_byte_identical(self, run_cli, tmp_path):
        argv = ("experiment", "--preset", "trig", "--runs", "3", "--seed", "5", "--out")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*argv, a).returncode == 0
        assert run_cli(*argv, b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_runs_failed_exits_2(self, run_cli, tmp_path):
        # 16 bins with no residual stop outgrow the 8 measurements, so the
        # OMP warm start of the square run fails.
        proc = run_cli(
            "experiment", "--preset", "square", "--runs", "1",
            "--m", "8", "--max-atoms", "16", "--residual-tol", "0",
            "--out", tmp_path / "fail.csv",
        )
        assert proc.returncode == 2
        assert "failed" in proc.stderr

    def test_over_selecting_runs_are_failed_runs(self, run_cli):
        # A budget of 200 bins with no residual stop outgrows the 93
        # measurements in every run: a numerical failure, not a usage error.
        proc = run_cli(
            "experiment", "--preset", "gauspuls", "--runs", "3", "--seed", "7",
            "--max-atoms", "200", "--residual-tol", "0",
        )
        assert proc.returncode == 2, proc.stderr
        assert "all runs failed" in proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert len(rows) == 3 + 1
        assert all(row.split(",")[7] == "nan" for row in rows)

    def test_all_failed_json_with_timings_is_valid(self, run_cli):
        proc = run_cli(
            "experiment", "--preset", "square", "--runs", "2",
            "--m", "8", "--max-atoms", "16", "--residual-tol", "0", "--format", "json", "--timings",
        )
        assert proc.returncode == 2

        def reject(name):
            raise ValueError(f"{name} is not valid JSON")

        doc = json.loads(proc.stdout, parse_constant=reject)
        aggregates = doc["aggregates"]
        assert aggregates["mean_error"] is None
        assert aggregates["mean_build_time_s"] is None
        assert aggregates["mean_solve_time_s"] is None
        assert aggregates["n_failed"] == 2

    def test_zero_or_negative_size_flags_exit_1(self, run_cli):
        # A given 0 is an invalid size, not "unset": no fallback to the preset's.
        for flag, value, field in (("--m", "0", "m_samples"), ("--n", "0", "n_grid"),
                                   ("--rate", "0", "sample_rate"), ("--rate", "-5", "sample_rate")):
            proc = run_cli("experiment", "--preset", "trig", "--runs", "1", flag, value)
            assert proc.returncode == 1, (flag, value, proc.stdout)
            assert proc.stderr.startswith(f"randsamp: error: {field} must be")
            assert proc.stdout == ""

    def test_solver_override_flags(self, run_cli, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli(
            "experiment", "--preset", "trig", "--runs", "2", "--seed", "2",
            "--max-atoms", "8", "--residual-tol", "1e-10", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr

    def test_solver_flag_keeps_budget_fitted_to_overridden_m(self, run_cli):
        # The preset budget is fitted to --m before --residual-tol overrides
        # the stopping rule, so a final frequency pair cannot outgrow M.
        proc = run_cli(
            "experiment", "--preset", "trig", "--m", "8", "--runs", "2", "--seed", "7",
            "--residual-tol", "1e-6",
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 2 + 1

    def test_gauspuls_odd_grid(self, run_cli, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli(
            "experiment", "--preset", "gauspuls", "--rate", "9.99e6", "--runs", "2", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        assert set(read_csv_column(out, "N")) == {"927"}
        assert max(float(e) for e in read_csv_column(out, "error")) < 0.05

    def test_closed_form_rows_carry_no_p(self, run_cli, tmp_path):
        # poisson ignores P, so it does not check one either
        out = tmp_path / "r.csv"
        for p_terms in ("200", "3"):
            proc = run_cli(
                "experiment", "--preset", "trig", "--matrix", "poisson", "--p-terms", p_terms,
                "--runs", "2", "--seed", "7", "--out", out,
            )
            assert proc.returncode == 0, proc.stderr
            assert read_csv_column(out, "P") == ["", "", ""]


class TestSweepCommand:
    def test_sweep_csv_rows(self, run_cli, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep-p", "--p-list", "2,20", "--runs", "2", "--seed", "7", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "method,P,mean_error,mean_build_time_s,mean_solve_time_s"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["2", "20", ""]

    def test_rejects_bad_p_list(self, run_cli):
        proc = run_cli("sweep-p", "--p-list", "2,x")
        assert proc.returncode == 1

    def test_rejects_odd_p(self, run_cli):
        proc = run_cli("sweep-p", "--p-list", "2,3")
        assert proc.returncode == 1
        assert "p_terms must be an even integer >= 2, got 3" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag", [["--matrix", "naive"], ["--p-terms", "200"]], ids=["matrix", "p-terms"])
    def test_rejects_matrix_flags(self, run_cli, flag):
        # Each row sets its own method and P, so sweep-p takes neither flag.
        proc = run_cli("sweep-p", "--p-list", "2,20", "--runs", "2", *flag)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: randsamp")
        assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr
        assert proc.stdout == ""


class TestPipeline:
    def test_generate_sample_build_recover(self, run_cli, tmp_path):
        grid = tmp_path / "grid.csv"
        samples = tmp_path / "samples.csv"
        matrix = tmp_path / "matrix.csv"
        recovered = tmp_path / "recovered.csv"

        assert run_cli(
            "generate", "--signal", "trig", "--n", "256", "--rate", "800", "--out", grid,
        ).returncode == 0
        assert run_cli(
            "sample", "--signal", "trig", "--m", "64", "--duration", "0.32",
            "--seed", "11", "--out", samples,
        ).returncode == 0
        assert run_cli(
            "build-matrix", "--times", samples, "--rate", "800", "--n", "256",
            "--method", "poisson", "--out", matrix,
        ).returncode == 0
        assert run_cli(
            "recover", "--matrix", matrix, "--measurements", samples, "--out", recovered,
        ).returncode == 0

        truth = np.array([float(v) for v in read_csv_column(grid, "value")])
        got = np.array([float(v) for v in read_csv_column(recovered, "value")])
        assert np.linalg.norm(got - truth) / np.linalg.norm(truth) < 1e-8

    def test_recover_over_selection_is_numerical_failure(self, run_cli, tmp_path):
        samples = tmp_path / "samples.csv"
        matrix = tmp_path / "matrix.csv"
        assert run_cli(
            "sample", "--signal", "trig", "--m", "8", "--duration", "0.32",
            "--seed", "11", "--out", samples,
        ).returncode == 0
        assert run_cli(
            "build-matrix", "--times", samples, "--rate", "800", "--n", "256",
            "--out", matrix,
        ).returncode == 0
        proc = run_cli(
            "recover", "--matrix", matrix, "--measurements", samples,
            "--max-atoms", "16", "--residual-tol", "0",
        )
        assert proc.returncode == 2, proc.stderr
        assert "recovery failed: support size" in proc.stderr

    @pytest.mark.parametrize("solver", ["omp", "tv"])
    def test_recover_zero_measurements_gives_zeros(self, run_cli, tmp_path, solver):
        # OMP selects nothing; it used to index with an empty float array.
        assert run_cli("sample", "--signal", "trig", "--m", "8", "--duration", "0.02", "--seed", "11",
                       "--out", "s.csv").returncode == 0
        assert run_cli("build-matrix", "--times", "s.csv", "--rate", "800", "--n", "16",
                       "--out", "m0.csv").returncode == 0
        (tmp_path / "zeros.csv").write_text("value\n" + "0.0\n" * 8)
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "zeros.csv", "--solver", solver,
                       "--out", "rec.csv")
        assert proc.returncode == 0, proc.stderr
        assert read_csv_column(tmp_path / "rec.csv", "value") == ["0.0"] * 16

    def test_recover_from_matrix_csv_matches_atom_path(self, run_cli, tmp_path):
        # recover takes the real FFT of the rows of the M0 it reads; the
        # library fills the same sensing matrix from the times.
        from randsamp.fourier import poisson_sensing
        from randsamp.solvers import OmpConfig, omp_recover

        samples = tmp_path / "samples.csv"
        matrix = tmp_path / "m0.csv"
        recovered = tmp_path / "recovered.csv"
        assert run_cli(
            "sample", "--signal", "trig", "--m", "64", "--duration", "0.32",
            "--seed", "11", "--out", samples,
        ).returncode == 0
        assert run_cli(
            "build-matrix", "--times", samples, "--rate", "800", "--n", "256",
            "--method", "poisson", "--out", matrix,
        ).returncode == 0
        assert run_cli(
            "recover", "--matrix", matrix, "--measurements", samples, "--solver", "omp",
            "--out", recovered,
        ).returncode == 0
        times = np.array([float(v) for v in read_csv_column(samples, "time")])
        values = np.array([float(v) for v in read_csv_column(samples, "value")])
        expected = omp_recover(poisson_sensing(times, 1.25e-3, 256), values, OmpConfig()).recovered
        got = np.array([float(v) for v in read_csv_column(recovered, "value")])
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_generate_gauspuls_implies_grid(self, run_cli, tmp_path):
        out = tmp_path / "pulse.csv"
        proc = run_cli("generate", "--signal", "gauspuls", "--rate", "1e7", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 928

    def test_gauspuls_pipeline_needs_the_grid_origin(self, run_cli, tmp_path):
        # generate and sample start a pulse's grid at -cutoff, build-matrix
        # --t0 defaults to 0: the grid's first time must be passed on.
        assert run_cli("generate", "--signal", "gauspuls", "--rate", "1e7", "--out", "grid.csv").returncode == 0
        assert run_cli("sample", "--signal", "gauspuls", "--m", "93", "--duration", "9.28e-5", "--seed", "3",
                       "--out", "s.csv").returncode == 0
        t0 = read_csv_column(tmp_path / "grid.csv", "time")[0]
        assert float(t0) < 0.0
        proc = run_cli("build-matrix", "--times", "s.csv", "--rate", "1e7", "--n", "928", f"--t0={t0}",
                       "--out", "m0.csv")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "s.csv", "--max-atoms", "24",
                       "--residual-tol", "1e-4", "--out", "rec.csv")
        assert proc.returncode == 0, proc.stderr
        grid = np.array([float(v) for v in read_csv_column(tmp_path / "grid.csv", "value")])
        rec = np.array([float(v) for v in read_csv_column(tmp_path / "rec.csv", "value")])
        assert np.linalg.norm(rec - grid) / np.linalg.norm(grid) < 1e-3

    def test_negative_t0_after_a_space_is_a_value(self, run_cli, tmp_path):
        # argparse's own pattern takes a negative number with an exponent for a flag
        assert run_cli("sample", "--signal", "gauspuls", "--m", "8", "--duration", "9.28e-5", "--seed", "3",
                       "--out", "s.csv").returncode == 0
        build = ("build-matrix", "--times", "s.csv", "--rate", "1e7", "--n", "64")
        t0 = "-4.635491741357094e-05"
        for t0_flag, out in ((["--t0", t0], "space.csv"), ([f"--t0={t0}"], "eq.csv")):
            proc = run_cli(*build, *t0_flag, "--out", out)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "space.csv").read_bytes() == (tmp_path / "eq.csv").read_bytes()

    @pytest.mark.parametrize("solver", ["omp", "tv"])
    def test_recover_fits_the_default_budget_to_the_matrix(self, run_cli, tmp_path, solver):
        # OmpConfig's 16 bins outgrow M=8; as in experiment, the default
        # budget is capped below M, so neither solve over-selects.
        assert run_cli("sample", "--signal", "square", "--period", "0.5", "--m", "8", "--duration", "1",
                       "--seed", "3", "--out", "s.csv").returncode == 0
        assert run_cli("build-matrix", "--times", "s.csv", "--rate", "16", "--n", "16",
                       "--out", "m0.csv").returncode == 0
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "s.csv", "--solver", solver)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 16

    @pytest.mark.parametrize("preset", ["trig", "gauspuls", "square"])
    def test_step_by_step_reproduces_the_preset(self, run_cli, tmp_path, preset):
        # generate -> sample -> build-matrix -> recover, with the preset's
        # sizes and solver settings as flags, gives run 0's error. Only OMP on
        # a poisson matrix differs in its last bits: experiment reads the
        # atoms at the sample times, recover the FFT of the M0 rows.
        from randsamp.experiments import ExperimentConfig, resolve_plan

        plan = resolve_plan(ExperimentConfig(preset=preset))
        proc = run_cli("experiment", "--preset", preset, "--runs", "1", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        _, seed, *_, expected, _, _ = proc.stdout.splitlines()[1].split(",")
        solver_flags = ["--solver", plan.solver, "--max-atoms", plan.omp.max_atoms,
                        "--residual-tol", repr(plan.omp.residual_tol)]
        if plan.solver == "tv":
            assert plan.tv.lam is None  # the data-scaled default, which no flag sets
            solver_flags += ["--tv-iters", plan.tv.max_iters]
        assert run_cli("generate", "--signal", preset, "--n", plan.n_grid, "--rate", repr(1 / plan.interval),
                       "--out", "grid.csv").returncode == 0
        assert run_cli("sample", "--signal", preset, "--m", plan.m_samples, "--duration", repr(plan.duration),
                       "--seed", seed, "--out", "s.csv").returncode == 0
        t0 = read_csv_column(tmp_path / "grid.csv", "time")[0]
        assert run_cli("build-matrix", "--times", "s.csv", "--rate", repr(1 / plan.interval), "--n", plan.n_grid,
                       f"--t0={t0}", "--out", "m0.csv").returncode == 0
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "s.csv", *solver_flags, "--out", "rec.csv")
        assert proc.returncode == 0, proc.stderr
        grid = np.array([float(v) for v in read_csv_column(tmp_path / "grid.csv", "value")])
        rec = np.array([float(v) for v in read_csv_column(tmp_path / "rec.csv", "value")])
        error = np.linalg.norm(rec - grid) / np.linalg.norm(grid)
        assert abs(error - float(expected)) <= 1e-9 * float(expected) + 1e-12, (error, expected)

    def test_recover_tv_square(self, run_cli, tmp_path):
        samples = tmp_path / "samples.csv"
        matrix = tmp_path / "matrix.csv"
        out = tmp_path / "rec.json"
        assert run_cli(
            "sample", "--signal", "square", "--period", "0.5", "--m", "40",
            "--duration", "1.0", "--seed", "3", "--out", samples,
        ).returncode == 0
        assert run_cli(
            "build-matrix", "--times", samples, "--rate", "240",
            "--n", "240", "--out", matrix,
        ).returncode == 0
        proc = run_cli(
            "recover", "--matrix", matrix, "--measurements", samples,
            "--solver", "tv", "--tv-iters", "200",
            "--format", "json", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert len(doc["values"]) == 240
        assert doc["iterations"] > 0

    def test_recover_tv_default_budget_is_the_square_presets(self, run_cli, tmp_path):
        # README's square pipeline without --tv-iters: the default budget is
        # the square preset's 6 000 steps, so the error is run 0's of
        # `experiment --preset square --seed 7`.
        for argv in (
            ("generate", "--signal", "square", "--n", "240", "--rate", "240", "--out", "grid.csv"),
            ("sample", "--signal", "square", "--m", "80", "--duration", "1", "--seed", "7191089600892374487",
             "--out", "s.csv"),
            ("build-matrix", "--times", "s.csv", "--rate", "240", "--n", "240",
             "--out", "m0.csv"),
        ):
            assert run_cli(*argv).returncode == 0
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "s.csv", "--solver", "tv",
                       "--max-atoms", "24", "--residual-tol", "1e-6", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["iterations"] == 6000
        grid = np.array([float(v) for v in read_csv_column(tmp_path / "grid.csv", "value")])
        error = np.linalg.norm(np.array(doc["values"]) - grid) / np.linalg.norm(grid)
        assert abs(error - 0.2162981517425841) <= 1e-9 * 0.2162981517425841, error


class TestUsage:
    def test_unknown_flag_exits_1(self, run_cli):
        proc = run_cli("experiment", "--preset", "trig", "--bogus")
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "--matrix", "m.csv", "--measurements", "s.csv", "--tv-epsilon", "1e-2"],
            ["recover", "--matrix", "m.csv", "--measurements", "s.csv", "--tv-grad-tol", "1e-6"],
            ["experiment", "--preset", "square", "--tv-epsilon", "1e-2"],
            ["sweep-p", "--tv-epsilon", "1e-2"],
            ["experiment", "--preset", "trig", "--jobs", "2"],
            ["generate", "--signal", "trig", "--n", "4", "--rate", "800", "--interval", "1"],
            ["build-matrix", "--times", "t.csv", "--rate", "800", "--n", "8", "--out", "m.csv", "--interval", "1"],
        ],
        ids=["recover-tv-epsilon", "recover-tv-grad-tol", "experiment-tv-epsilon", "sweep-p-tv-epsilon",
             "experiment-jobs", "generate-interval", "build-matrix-interval"],
    )
    def test_removed_flag_exits_1(self, monkeypatch, capsys, tmp_path, argv):
        # TvConfig.epsilon and .grad_tol are constants, runs are serial, and
        # the grid spacing is given only as --rate, so these flags are gone
        # and argparse rejects them.
        from randsamp.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, run_cli):
        proc = run_cli("sample", "--signal", "trig")
        assert proc.returncode == 1

    def test_no_subcommand_exits_1(self, run_cli):
        assert run_cli().returncode == 1

    @pytest.mark.parametrize(
        "spacing, message",
        [(["--rate", "800", "--interval", "1"], "unrecognized arguments: --interval 1"),
         ([], "the following arguments are required: --rate")],
        ids=["both", "neither"],
    )
    def test_generate_takes_exactly_one_of_rate_and_interval(self, run_cli, spacing, message):
        # --interval is gone, so the one spacing generate takes is a required --rate.
        proc = run_cli("generate", "--signal", "trig", "--n", "3", *spacing)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert proc.stdout == ""

    def test_help_everywhere(self, run_cli):
        assert run_cli("--help").returncode == 0
        for sub in ("generate", "sample", "build-matrix", "recover", "experiment", "sweep-p"):
            proc = run_cli(sub, "--help")
            assert proc.returncode == 0
            assert "--out" in proc.stdout

    def test_recover_help_documents_solver_flags(self, run_cli):
        proc = run_cli("recover", "--help")
        assert proc.returncode == 0
        assert "OMP support budget" in proc.stdout

    def test_experiment_help_documents_presets(self, run_cli):
        proc = run_cli("experiment", "--help")
        assert "trig" in proc.stdout and "gauspuls" in proc.stdout and "square" in proc.stdout


class TestMalformedColumnFiles:
    """A times or measurements CSV that cannot be read is a usage error that
    names the file, not a traceback."""

    def test_empty_file(self, run_cli, tmp_path):
        times = tmp_path / "empty.csv"
        times.write_text("")
        proc = run_cli("build-matrix", "--times", times, "--rate", "1", "--n", "8", "--out", "m.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("randsamp: error: ")
        assert str(times) in proc.stderr and "empty" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_row_shorter_than_header(self, run_cli, tmp_path):
        values = tmp_path / "short.csv"
        values.write_text("index,time\n0\n")
        proc = run_cli("build-matrix", "--times", values, "--rate", "1", "--n", "8", "--out", "m.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("randsamp: error: ")
        assert f"{values}: line 2 has no 'time' field" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_numeric_field(self, run_cli, tmp_path):
        times = tmp_path / "bad.csv"
        times.write_text("index,time\n0,0.5\n1,abc\n")
        proc = run_cli("build-matrix", "--times", times, "--rate", "1", "--n", "8", "--out", "m.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("randsamp: error: ")
        assert f"{times}: line 3: 'time' field 'abc' is not a number" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field(self, run_cli, tmp_path, bad):
        # Unchecked, a NaN measurement recovers an all-zero signal with exit 0.
        from randsamp.obs_matrix import build_poisson, save_matrix_csv

        matrix = tmp_path / "m.csv"
        save_matrix_csv(build_poisson(np.array([0.3, 2.9, 5.5, 7.1]), 1.0, 16), matrix)
        values = tmp_path / "y.csv"
        values.write_text(f"index,value\n0,1.0\n1,{bad}\n2,0.5\n3,-1.0\n")
        proc = run_cli("recover", "--matrix", matrix, "--measurements", values, "--max-atoms", "4")
        assert proc.returncode == 1
        assert proc.stderr.startswith("randsamp: error: ")
        assert f"{values}: line 3: 'value' field '{bad}' is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestMalformedMatrixFiles:
    """A matrix CSV that cannot be read or parsed is a usage error, not a traceback."""

    def recover(self, run_cli, tmp_path, matrix):
        values = tmp_path / "y.csv"
        values.write_text("index,value\n0,1.0\n")
        return run_cli("recover", "--matrix", matrix, "--measurements", values)

    def test_missing_file(self, run_cli, tmp_path):
        proc = self.recover(run_cli, tmp_path, tmp_path / "nope.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"randsamp: error: cannot read {tmp_path / 'nope.csv'}")
        assert "Traceback" not in proc.stderr

    def test_header_only(self, run_cli, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_text("M,N,method,P\n")
        proc = self.recover(run_cli, tmp_path, matrix)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"randsamp: error: {matrix}: line 1: ")
        assert "Traceback" not in proc.stderr


class TestNumericFlags:
    """A zero, NaN or infinite numeric flag is a usage error naming the value:
    never a fallback to another flag, a NaN output or a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--signal", "trig", "--n", "4", "--rate", "0"],
             "--rate must be positive and finite, got 0.0"),
            (["generate", "--signal", "trig", "--n", "4", "--rate", "nan"], "--rate must be positive"),
            (["generate", "--signal", "gauspuls", "--rate", "nan"], "--rate must be positive"),
            (["generate", "--signal", "gauspuls", "--n", "4", "--rate", "1e6", "--fc", "nan"],
             "center_freq must be positive and finite"),
            (["generate", "--signal", "gauspuls", "--n", "4", "--rate", "1e6", "--bwr", "nan"],
             "bwr_db=nan"),
            (["generate", "--signal", "gauspuls", "--n", "4", "--rate", "1e6", "--tpr", "nan"],
             "tpr_db=nan"),
            (["generate", "--signal", "square", "--n", "4", "--rate", "10", "--period", "nan"],
             "period must be positive and finite"),
            (["generate", "--signal", "square", "--n", "4", "--rate", "10", "--amplitude", "nan"],
             "amplitude must be finite"),
            (["build-matrix", "--times", "t.csv", "--rate", "0", "--n", "8", "--out", "m.csv"],
             "--rate must be positive and finite, got 0.0"),
            (["build-matrix", "--times", "t.csv", "--rate", "nan", "--n", "8", "--out", "m.csv"],
             "--rate must be positive and finite, got nan"),  # the interval 1/rate would be NaN
            (["build-matrix", "--times", "t.csv", "--rate", "1e-320", "--n", "8", "--out", "m.csv"],
             "interval must be positive and finite, got inf"),  # 1/rate overflows
            (["build-matrix", "--times", "t.csv", "--rate", "inf", "--n", "8", "--out", "m.csv"],
             "--rate must be positive and finite, got inf"),
            (["build-matrix", "--times", "missing.csv", "--rate", "1", "--n", "8"],
             "build-matrix needs --out"),
            (["sample", "--signal", "trig", "--m", "4", "--duration", "nan"],
             "duration must be positive and finite"),
            (["sample", "--signal", "trig", "--m", "4", "--duration", "inf"],
             "duration must be positive and finite"),
            (["sample", "--signal", "trig", "--m", "4", "--duration", "1", "--t0", "nan"],
             "t0 and t0 + duration must be finite"),
            (["sample", "--signal", "trig", "--m", "4", "--duration", "1", "--seed", "-1"],
             "seed must be an integer >= 0, got -1"),
            (["experiment", "--preset", "trig", "--runs", "1", "--residual-tol", "nan"],
             "residual_tol must be nonnegative and finite"),
            (["experiment", "--preset", "trig", "--runs", "1", "--seed", "-1"],
             "master_seed must be an integer >= 0, got -1"),
            (["sweep-p", "--p-list", "2", "--runs", "1", "--seed", str(2**64)],
             f"master_seed must be in [0, 2**64), got {2**64}"),
        ],
        ids=["generate-rate-zero", "generate-rate-nan", "gauspuls-rate-nan",
             "fc-nan", "bwr-nan", "tpr-nan", "period-nan", "amplitude-nan", "build-rate-zero",
             "build-interval-nan", "build-interval-inf", "build-rate-inf", "build-out-checked-first", "duration-nan", "duration-inf",
             "sample-t0-nan", "sample-seed-negative", "residual-tol-nan", "experiment-seed-negative",
             "sweep-seed-too-large"],
    )
    def test_rejected_with_exit_1(self, tmp_path, monkeypatch, capsys, argv, message):
        from randsamp.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text("time\n0.5\n2.5\n")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("randsamp: error: ")
        assert message in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestExtremeFiniteInputs:
    """Finite flags whose derived values over- or underflow are usage errors,
    raised where those values are formed and with no numpy RuntimeWarning."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--signal", "gauspuls", "--fc", "1e-300", "--rate", "1e6"],
             "envelope variance inf"),
            (["generate", "--signal", "gauspuls", "--fc", "1e300", "--n", "4", "--rate", "1e6"],
             "envelope variance 0.0"),
            (["generate", "--signal", "gauspuls", "--fc", "1e-150", "--rate", "1e6"],
             "gives a grid of N="),
            (["build-matrix", "--times", "t.csv", "--rate", "1e308", "--n", "8", "--out", "m.csv"],
             "times / interval must be finite"),
            # windows holding fewer doubles than M: the time draw used to loop forever
            (["sample", "--signal", "trig", "--m", "8", "--duration", "1e-15", "--t0", "1"],
             "m=8 times drawn on [t0, t0 + duration) with t0=1.0, duration=1e-15 coincided"),
            (["experiment", "--preset", "gauspuls", "--n", "928", "--rate", "1e300", "--runs", "1"],
             "the window holds too few distinct floating-point values"),
        ],
        ids=["fc-tiny", "fc-huge", "fc-grid-too-large", "interval-tiny", "sample-window-too-narrow",
             "experiment-window-too-narrow"],
    )
    def test_exit_1_without_traceback(self, run_cli, tmp_path, argv, message):
        (tmp_path / "t.csv").write_text("time\n0.5\n2.5\n")
        proc = run_cli(*argv, env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("randsamp: error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestUnwritableOut:
    @pytest.mark.parametrize("blocker", ["directory", "file-as-parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--signal", "trig", "--n", "4", "--rate", "800"],
            ["experiment", "--preset", "trig", "--runs", "1"],
            ["build-matrix", "--times", "t.csv", "--rate", "10", "--n", "8"],
        ],
        ids=["generate", "experiment", "build-matrix"],
    )
    def test_exit_1_naming_the_path(self, run_cli, tmp_path, argv, blocker):
        (tmp_path / "t.csv").write_text("time\n0.5\n2.5\n")
        taken = tmp_path / "taken"
        if blocker == "directory":
            taken.mkdir()
            out = taken
        else:
            taken.write_text("")
            out = taken / "x.csv"
        proc = run_cli(*argv, "--out", out)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("randsamp: error: ")
        assert str(taken) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConfigFile:
    def test_flags_win_over_config(self, run_cli, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("preset=trig\nruns=4\nseed=9\n")
        out = tmp_path / "r.csv"
        proc = run_cli("experiment", "--config", config, "--runs", "2", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # flag value (2 runs) wins
        from randsamp.experiments import derive_run_seed

        assert int(lines[1].split(",")[1]) == derive_run_seed(9, 0)  # config seed applies

    def test_boolean_config_values(self, run_cli, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("preset=trig\nruns=2\ntimings=true\n")
        out = tmp_path / "r.csv"
        assert run_cli("experiment", "--config", config, "--out", out).returncode == 0
        assert not out.read_text().splitlines()[1].endswith(",,")

    def test_malformed_config_rejected(self, run_cli, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("this is not a key value pair\n")
        assert run_cli("experiment", "--config", config).returncode == 1

    def test_missing_config_rejected(self, run_cli, tmp_path):
        assert run_cli("experiment", "--config", tmp_path / "nope.cfg").returncode == 1

    @pytest.mark.parametrize("spelling", [["--config=run.cfg"], ["--conf", "run.cfg"], ["--c=run.cfg"]],
                             ids=["equals", "abbreviated", "abbreviated-equals"])
    def test_every_spelling_of_config_is_read(self, run_cli, tmp_path, spelling):
        # --config=FILE and argparse's abbreviations used to be accepted and ignored.
        (tmp_path / "run.cfg").write_text("runs=2\n")
        proc = run_cli("experiment", "--preset", "trig", *spelling)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 2 + 1

    def test_negative_exponent_value(self, run_cli, tmp_path):
        # Spliced as "--t0" "-2.5e-01", the value used to read as a flag.
        (tmp_path / "t.csv").write_text("time\n0.5\n2.5\n")
        (tmp_path / "t.cfg").write_text("t0=-2.5e-01\n")
        build = ("build-matrix", "--times", "t.csv", "--rate", "2", "--n", "8")
        proc = run_cli(*build, "--config", "t.cfg", "--out", "config.csv")
        assert proc.returncode == 0, proc.stderr
        assert run_cli(*build, "--t0=-2.5e-01", "--out", "flag.csv").returncode == 0
        assert run_cli(*build, "--out", "zero.csv").returncode == 0
        config = (tmp_path / "config.csv").read_text()
        assert config == (tmp_path / "flag.csv").read_text() != (tmp_path / "zero.csv").read_text()

    def test_both_spacings_given_still_rejected(self, run_cli, tmp_path):
        (tmp_path / "g.cfg").write_text("rate=800\n")
        proc = run_cli("generate", "--signal", "trig", "--n", "4", "--config", "g.cfg",
                       "--rate", "800", "--interval", "1")
        assert proc.returncode == 1
        assert "unrecognized arguments: --interval 1" in proc.stderr

    def test_config_before_subcommand_rejected(self, run_cli, tmp_path):
        # Spliced in as the command, the file's values read as "invalid choice".
        config = tmp_path / "run.cfg"
        config.write_text("runs=2\n")
        proc = run_cli("--config", config, "experiment", "--preset", "trig")
        assert proc.returncode == 1
        assert proc.stderr == "randsamp: error: --config goes after the subcommand: randsamp COMMAND --config FILE\n"
        assert proc.stdout == ""


class TestOutDirEnv:
    def test_relative_out_lands_in_env_dir(self, run_cli, tmp_path):
        outdir = tmp_path / "results"
        proc = run_cli(
            "experiment", "--preset", "trig", "--runs", "2", "--out", "r.csv",
            env_extra={"RANDSAMP_OUT_DIR": str(outdir)},
        )
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "r.csv").exists()

    def test_absolute_out_ignores_env(self, run_cli, tmp_path):
        target = tmp_path / "abs.csv"
        proc = run_cli(
            "experiment", "--preset", "trig", "--runs", "2", "--out", target,
            env_extra={"RANDSAMP_OUT_DIR": str(tmp_path / "elsewhere")},
        )
        assert proc.returncode == 0, proc.stderr
        assert target.exists()


class TestExperimentConfig:
    """Solver flags override the preset's configs field by field."""

    def config(self, *argv):
        from randsamp.cli import _experiment_config, build_parser

        return _experiment_config(build_parser().parse_args(["experiment", *argv]))

    def test_no_solver_flags_leave_configs_to_the_plan(self):
        cfg = self.config("--preset", "square")
        assert cfg.omp is None and cfg.tv is None

    def test_tv_flag_keeps_other_preset_fields(self):
        from dataclasses import replace

        from randsamp.solvers import TvConfig

        cfg = self.config("--preset", "square", "--tv-lambda", "0.5", "--tv-iters", "30")
        assert cfg.tv == replace(TvConfig(), lam=0.5, max_iters=30)
        assert cfg.omp is None

    def test_omp_flags_keep_other_preset_fields(self):
        from randsamp.experiments import GAUSPULS_OMP
        from randsamp.solvers import OmpConfig

        assert self.config("--preset", "trig", "--max-atoms", "8").omp == OmpConfig(
            max_atoms=8, residual_tol=OmpConfig().residual_tol
        )
        cfg = self.config("--preset", "gauspuls", "--residual-tol", "1e-6")
        assert cfg.omp == OmpConfig(max_atoms=GAUSPULS_OMP.max_atoms, residual_tol=1e-6)
        assert cfg.tv is None
        # the preset budget is first fitted to the overridden M
        cfg = self.config("--preset", "gauspuls", "--m", "10", "--residual-tol", "1e-6")
        assert cfg.omp == OmpConfig(max_atoms=9, residual_tol=1e-6)



class TestLibraryDefaults:
    """The CLI states no default or convention of its own: what a flag leaves
    unset, the library decides."""

    @pytest.mark.parametrize("command", ["experiment", "sweep-p"])
    @pytest.mark.parametrize("preset", ["trig", "gauspuls", "square"])
    def test_help_lists_each_presets_plan(self, run_cli, command, preset):
        import re

        from randsamp.experiments import ExperimentConfig, resolve_plan

        plan = resolve_plan(ExperimentConfig(preset=preset))
        text = " ".join(run_cli(command, "--help").stdout.split())
        m, n, rate, scale, solver = re.search(
            rf"{preset} = [^;]*?, M=(\d+), N=(\d+), ([\d.]+) (M|k|)Hz grid, (OMP|TV)", text
        ).groups()
        assert (int(m), int(n), solver) == (plan.m_samples, plan.n_grid, plan.solver.upper())
        assert float(rate) * {"M": 1e6, "k": 1e3, "": 1.0}[scale] == pytest.approx(1.0 / plan.interval)

    @pytest.mark.parametrize("preset", ["trig", "gauspuls", "square"])
    def test_generate_without_signal_flags_gives_the_presets_reference(self, run_cli, tmp_path, preset):
        # Same signal parameters and the same grid origin as the experiment's
        # reference grid; the preset signals are the dataclass defaults.
        from randsamp.experiments import ExperimentConfig, resolve_plan
        from randsamp.signals import grid_origin, uniform_samples

        plan = resolve_plan(ExperimentConfig(preset=preset))
        assert plan.signal == type(plan.signal)()
        out = tmp_path / "grid.json"
        proc = run_cli("generate", "--signal", preset, "--n", plan.n_grid, "--rate", repr(1 / plan.interval),
                       "--format", "json", "--out", out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        reference = uniform_samples(plan.signal, plan.n_grid, plan.interval, plan.t0)
        assert doc["origin"] == plan.t0 == grid_origin(type(plan.signal)())
        assert np.array_equal(doc["values"], reference.values)

    def test_sample_draws_an_experiment_runs_times(self, run_cli, tmp_path):
        from randsamp.experiments import ExperimentConfig, derive_run_seed, resolve_plan
        from randsamp.signals import draw_random_times

        plan = resolve_plan(ExperimentConfig(preset="gauspuls"))
        seed = derive_run_seed(7, 0)
        out = tmp_path / "s.csv"
        proc = run_cli("sample", "--signal", "gauspuls", "--m", plan.m_samples, "--duration", repr(plan.duration),
                       "--seed", seed, "--out", out)
        assert proc.returncode == 0, proc.stderr
        times = [float(v) for v in read_csv_column(out, "time")]
        assert np.array_equal(times, draw_random_times(plan.m_samples, plan.duration, plan.t0, seed))

    @pytest.mark.parametrize("command", ["experiment", "sweep-p"])
    def test_unset_run_flags_keep_the_config_defaults(self, command):
        from randsamp.cli import _experiment_config, build_parser
        from randsamp.experiments import ExperimentConfig

        cfg = _experiment_config(build_parser().parse_args([command, "--preset", "trig"]))
        assert cfg == ExperimentConfig(preset="trig")

    def test_experiment_matrix_defaults_to_the_config_method(self, run_cli):
        from randsamp.experiments import ExperimentConfig

        proc = run_cli("experiment", "--preset", "trig", "--runs", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].split(",")[3] == ExperimentConfig(preset="trig").method

    def test_truncated_build_without_p_is_the_librarys_error(self, run_cli, tmp_path):
        (tmp_path / "t.csv").write_text("time\n0.5\n2.5\n")
        proc = run_cli("build-matrix", "--times", "t.csv", "--rate", "1", "--n", "8",
                       "--method", "truncated", "--out", "m.csv")
        assert proc.returncode == 1
        assert proc.stderr == "randsamp: error: truncated method needs p_terms\n"
        assert not (tmp_path / "m.csv").exists()


class TestFileEncoding:
    """Every file is read and written as UTF-8; a leading byte-order mark is
    accepted, and a file that cannot be decoded is named."""

    def inputs(self, run_cli, tmp_path):
        """The README trig pipeline's samples and matrix, and a config file."""
        assert run_cli("sample", "--signal", "trig", "--m", "64", "--duration", "0.32",
                       "--seed", "11", "--out", "samples.csv").returncode == 0
        assert run_cli("build-matrix", "--times", "samples.csv", "--rate", "800", "--n", "256",
                       "--out", "m0.csv").returncode == 0
        (tmp_path / "run.cfg").write_text("runs=2\n")
        return tmp_path / "samples.csv", tmp_path / "m0.csv", tmp_path / "run.cfg"

    @staticmethod
    def argv(role, path):
        if role == "times":
            return ["build-matrix", "--times", path, "--rate", "800", "--n", "256", "--out", "m.csv"]
        if role == "matrix":
            return ["recover", "--matrix", path, "--measurements", "samples.csv"]
        return ["experiment", "--preset", "trig", "--config", path]

    @pytest.mark.parametrize("role", ["times", "matrix", "config"])
    def test_undecodable_file_is_named(self, run_cli, tmp_path, role):
        times, matrix, config = self.inputs(run_cli, tmp_path)
        path = {"times": times, "matrix": matrix, "config": config}[role]
        path.write_bytes(b"\xff" + path.read_bytes())
        proc = run_cli(*self.argv(role, path))
        assert proc.returncode == 1
        assert proc.stderr == (f"randsamp: error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                               "in position 0: invalid start byte\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("role", ["times", "matrix", "config"])
    def test_byte_order_mark_is_accepted(self, run_cli, tmp_path, role):
        # Spreadsheet tools and some editors write one.
        times, matrix, config = self.inputs(run_cli, tmp_path)
        path = {"times": times, "matrix": matrix, "config": config}[role]
        marked = tmp_path / f"bom-{path.name}"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, with_mark = run_cli(*self.argv(role, path)), run_cli(*self.argv(role, marked))
        assert with_mark.returncode == plain.returncode == 0, with_mark.stderr
        assert with_mark.stdout == plain.stdout
        if role == "times":
            assert (tmp_path / "m.csv").read_text() == matrix.read_text()

    @pytest.mark.parametrize("role", ["times", "measurements", "matrix"])
    def test_quoted_fields_are_read(self, run_cli, tmp_path, role):
        # Spreadsheet tools quote every field: "time","value" / "0.5","1.0".
        times, matrix, _ = self.inputs(run_cli, tmp_path)
        quoted = tmp_path / "quoted.csv"
        with quoted.open("w", encoding="utf-8", newline="") as f:
            csv.writer(f, quoting=csv.QUOTE_ALL).writerows(
                line.split(",") for line in (matrix if role == "matrix" else times).read_text().splitlines()
            )
        if role == "times":
            proc = run_cli(*self.argv("times", quoted))
            assert proc.returncode == 0, proc.stderr
            assert (tmp_path / "m.csv").read_text() == matrix.read_text()
        else:
            pairs = [(matrix, times), (quoted, times) if role == "matrix" else (matrix, quoted)]
            plain, with_quotes = (run_cli("recover", "--matrix", m0, "--measurements", y) for m0, y in pairs)
            assert with_quotes.returncode == plain.returncode == 0, with_quotes.stderr
            assert with_quotes.stdout == plain.stdout

    def test_quoted_field_errors_name_file_and_line(self, run_cli, tmp_path):
        (tmp_path / "q.csv").write_text('"time","value"\n"0.5","1.0"\n"2,5","1.0"\n')
        proc = run_cli(*self.argv("times", "q.csv"))
        assert proc.returncode == 1
        assert proc.stderr == "randsamp: error: q.csv: line 3: 'time' field '2,5' is not a number\n"

    def test_recover_csv_index_is_integers(self, run_cli, tmp_path):
        self.inputs(run_cli, tmp_path)
        proc = run_cli("recover", "--matrix", "m0.csv", "--measurements", "samples.csv")
        assert proc.returncode == 0, proc.stderr
        assert [line.split(",")[0] for line in proc.stdout.splitlines()] == ["index", *map(str, range(256))]

    def test_no_file_uses_the_locale_encoding(self, tmp_path):
        # Under -X warn_default_encoding, an open() without an encoding warns;
        # as an error, it fails the command.
        (tmp_path / "run.cfg").write_text("preset=trig\nruns=2\nseed=7\n")
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        for argv in (
            ["generate", "--signal", "trig", "--n", "256", "--rate", "800", "--out", "grid.csv"],
            ["sample", "--signal", "trig", "--m", "64", "--duration", "0.32", "--seed", "11", "--out", "samples.csv"],
            ["build-matrix", "--times", "samples.csv", "--rate", "800", "--n", "256", "--out", "m0.csv"],
            ["recover", "--matrix", "m0.csv", "--measurements", "samples.csv", "--out", "recovered.csv"],
            ["experiment", "--config", "run.cfg", "--out", "r.csv"],
        ):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "randsamp",
                 *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "recovered.csv").read_text().splitlines()) == 257
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 2 + 1


class TestImports:
    def test_package_loads_no_thread_pool(self):
        # Batches run serially, so importing the package or its CLI pulls in
        # neither concurrent.futures nor the logging module it imports.
        code = (
            "import sys, randsamp, randsamp.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
