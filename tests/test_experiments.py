import gc
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randsamp import experiments
from randsamp.experiments import (
    ExperimentConfig,
    ExperimentReport,
    Reconstruction,
    RunRecord,
    derive_run_seed,
    reconstruct_once,
    relative_l2_error,
    report_csv,
    report_json,
    resolve_plan,
    run_experiment,
    sweep_csv,
    sweep_truncation,
)
from randsamp.fourier import sensing_matrix
from randsamp.obs_matrix import build_poisson
from randsamp.signals import grid_origin
from randsamp.solvers import OmpConfig, OverSelectionError, RecoveryError, TvConfig, omp_recover


class TestRelativeError:
    def test_reference_cases(self):
        x = np.array([1.0, 2.0, 3.0])
        assert relative_l2_error(x, x) == 0.0
        assert relative_l2_error(np.zeros(3), x) == 1.0
        assert relative_l2_error(np.array([1.1, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])) == pytest.approx(0.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(3), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_l2_error(np.ones(3), np.ones(4))

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariant(self, scale):
        x = np.array([1.0, -2.0, 0.5])
        noisy = x + np.array([0.01, -0.02, 0.03])
        assert relative_l2_error(scale * noisy, scale * x) == pytest.approx(
            relative_l2_error(noisy, x), rel=1e-9
        )


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned so recorded seeds stay replayable across releases
        assert derive_run_seed(0, 0) == 16294208416658607535
        assert derive_run_seed(7, 0) == 7191089600892374487

    def test_streams_differ(self):
        seeds = {derive_run_seed(m, r) for m in range(4) for r in range(64)}
        assert len(seeds) == 4 * 64

    def test_fits_64_bits(self):
        for r in range(100):
            assert 0 <= derive_run_seed(123456789, r) < 2**64


class TestResolvePlan:
    def test_trig_defaults(self):
        plan = resolve_plan(ExperimentConfig(preset="trig"))
        assert (plan.m_samples, plan.n_grid) == (64, 256)
        assert plan.interval == pytest.approx(1.0 / 800.0)
        assert plan.solver == "omp"
        assert plan.duration == pytest.approx(0.32)

    def test_gauspuls_defaults(self):
        plan = resolve_plan(ExperimentConfig(preset="gauspuls"))
        assert (plan.m_samples, plan.n_grid) == (93, 928)
        assert plan.interval == pytest.approx(1e-7)
        assert plan.t0 == pytest.approx(-plan.signal.cutoff_time)

    def test_square_defaults(self):
        plan = resolve_plan(ExperimentConfig(preset="square"))
        assert (plan.m_samples, plan.n_grid) == (80, 240)
        assert plan.solver == "tv"
        assert plan.tv_init == "spectral"
        # two periods across the one-second window, edges on grid points
        assert plan.signal.period == pytest.approx(0.5)

    @pytest.mark.parametrize("preset", experiments.PRESETS)
    def test_origin_is_the_signals_grid_origin(self, preset):
        plan = resolve_plan(ExperimentConfig(preset=preset))
        assert plan.t0 == grid_origin(plan.signal)

    def test_explicit_gauspuls_grid_skips_the_size_limit(self):
        # At 1e13 Hz the implied grid would exceed MAX_GRID_POINTS; a given N is used as is.
        plan = resolve_plan(ExperimentConfig(preset="gauspuls", sample_rate=1e13, n_grid=928))
        assert plan.n_grid == 928

    def test_overrides(self):
        plan = resolve_plan(ExperimentConfig(preset="trig", m_samples=8, n_grid=32, sample_rate=100.0))
        assert (plan.m_samples, plan.n_grid) == (8, 32)
        assert plan.duration == pytest.approx(0.32)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="sawtooth")
        with pytest.raises(ValueError):
            ExperimentConfig(preset="trig", method="truncated")  # needs p_terms
        with pytest.raises(ValueError):
            ExperimentConfig(preset="trig", method="truncated", p_terms=3)
        with pytest.raises(ValueError):
            ExperimentConfig(preset="trig", runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(preset="trig", solver="cg")
        with pytest.raises(ValueError, match="unknown matrix method 'sinc'"):
            ExperimentConfig(preset="trig", method="sinc")
        # derive_run_seed would wrap them onto seeds 2**64 - 1 and 0
        with pytest.raises(ValueError, match=r"^master_seed must be an integer >= 0, got -1$"):
            ExperimentConfig(preset="trig", master_seed=-1)
        with pytest.raises(ValueError, match=r"^master_seed must be in \[0, 2\*\*64\)"):
            ExperimentConfig(preset="trig", master_seed=2**64)
        ExperimentConfig(preset="trig", master_seed=2**64 - 1)

    @pytest.mark.parametrize(
        "field, value", [("m_samples", 0), ("n_grid", 0), ("n_grid", 1), ("sample_rate", 0.0),
                         ("sample_rate", -5.0)]
    )
    def test_zero_or_negative_override_rejected_not_defaulted(self, field, value):
        # A given 0 is an invalid size, not "unset": no fallback to M=80, N=240.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            resolve_plan(ExperimentConfig(preset="square", **{field: value}))

    @pytest.mark.parametrize("p_terms", [0, -2, -4, 3, 1])
    def test_rejects_bad_truncation_length(self, p_terms):
        with pytest.raises(ValueError, match="even integer >= 2"):
            ExperimentConfig(preset="trig", method="truncated", p_terms=p_terms)


def small_trig_config(**kw):
    defaults = dict(preset="trig", method="poisson", runs=3, master_seed=7)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def failing_square_config(runs=2):
    """Square runs whose OMP warm start fails: 16 bins with no residual stop
    outgrow the M = 8 measurements."""
    return ExperimentConfig(
        preset="square",
        runs=runs,
        m_samples=8,
        solver="tv",
        omp=OmpConfig(max_atoms=16, residual_tol=0.0),
    )


class TestRunExperiment:
    def test_trig_poisson_recovers_exactly(self):
        report = run_experiment(small_trig_config())
        assert report.n_failed == 0
        assert all(r.error < 1e-10 for r in report.records)
        assert [r.run_id for r in report.records] == [0, 1, 2]

    def test_naive_matrix_fails_badly(self):
        report = run_experiment(small_trig_config(method="naive"))
        assert report.mean_error > 0.1

    def test_deterministic_and_parallel_invariant(self):
        a = run_experiment(small_trig_config())
        b = run_experiment(small_trig_config())
        c = run_experiment(small_trig_config(), jobs=3)
        for other in (b, c):
            for ra, rb in zip(a.records, other.records):
                assert ra.run_id == rb.run_id
                assert ra.seed == rb.seed
                assert ra.error == rb.error  # bitwise replay

    def test_aggregates_match_records(self):
        report = run_experiment(small_trig_config())
        assert report.mean_error == float(np.mean([r.error for r in report.records]))

    def test_failed_runs_counted_not_averaged(self):
        records = [
            RunRecord(0, 11, 0.5, 0.1, 0.2),
            RunRecord(1, 12, float("nan"), 0.1, 0.2),
        ]
        report = ExperimentReport(
            preset="square",
            method="poisson",
            p_terms=None,
            m_samples=8,
            n_grid=16,
            master_seed=0,
            records=records,
        )
        assert report.mean_error == 0.5
        assert report.n_failed == 1

    def test_diverging_solver_marks_run_failed(self):
        report = run_experiment(failing_square_config())
        assert report.n_failed == 2
        assert math.isnan(report.mean_error)

    def test_over_selecting_run_marks_run_failed(self):
        # With no residual stop, OMP keeps adding frequency pairs past the
        # M = 8 measurements; each such run is a NaN record, not an abort.
        cfg = small_trig_config(runs=2, m_samples=8, omp=OmpConfig(max_atoms=16, residual_tol=0.0))
        with pytest.raises(OverSelectionError, match="exceeds the 8 measurements"):
            reconstruct_once(cfg)
        report = run_experiment(cfg)
        assert report.n_failed == 2
        assert all(math.isnan(r.error) and r.build_time_s > 0.0 for r in report.records)

    def test_failed_runs_leave_no_reference_cycle(self):
        # A RecoveryError kept in a local of the frame that caught it forms a
        # cycle with that frame, which its traceback holds: each failed run's
        # arrays would then live until the cyclic collector runs.
        cfg = failing_square_config()
        run_experiment(cfg)
        gc.collect()
        gc.disable()
        try:
            assert run_experiment(cfg).n_failed == 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("method", ["naive", "poisson"])
    def test_more_samples_than_grid_warns_for_every_matrix(self, method):
        # Every operand a batch solves warns: the M0s of naive, and the
        # closed form's sensing tables of poisson, which is no M0.
        with pytest.warns(UserWarning, match="M=300 exceeds N=256"):
            run_experiment(small_trig_config(method=method, runs=2, m_samples=300))

    def test_working_set_of_a_batch(self):
        # A batch solves its runs in groups whose working set GROUP_BYTES
        # bounds. 50 gauspuls runs (groups of 7 and 6) peaked at 1.24 MB
        # traced with numpy 2.4.6, against 0.22 MB one run at a time; the
        # bound leaves 20 % for other numpy builds. 50 naive trig runs peaked
        # at 1.81 MB, and at 2.18 MB while a group's M0s were built before
        # the previous group's were freed.
        for preset, method, bound in (("gauspuls", "poisson", 1.5e6), ("trig", "naive", 2.0e6)):
            run_experiment(ExperimentConfig(preset=preset, method=method, runs=2, master_seed=7))  # numpy's lazy imports
            tracemalloc.start()
            try:
                run_experiment(ExperimentConfig(preset=preset, method=method, runs=50, master_seed=7))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (preset, method, peak)

    def test_failed_run_row_keeps_seed_and_timings(self):
        report = run_experiment(failing_square_config())
        rows = report_csv(report, include_timings=True).splitlines()[1:3]
        for run_id, row in enumerate(rows):
            fields = row.split(",")
            assert fields[1] == str(derive_run_seed(0, run_id))
            assert fields[7] == "nan"
            build_time, solve_time = float(fields[8]), float(fields[9])
            assert math.isfinite(build_time) and build_time > 0.0
            assert math.isfinite(solve_time) and solve_time > 0.0


class TestReconstructOnce:
    def test_matches_batch_error(self):
        cfg = small_trig_config()
        outcome = reconstruct_once(cfg, run_id=1)
        report = run_experiment(cfg)
        assert outcome.error == report.records[1].error
        assert outcome.seed == report.records[1].seed
        assert isinstance(outcome, Reconstruction)
        assert len(outcome.result.recovered) == 256

    def test_square_preset_runs(self):
        cfg = ExperimentConfig(preset="square", runs=1, master_seed=7)
        outcome = reconstruct_once(cfg)
        assert len(outcome.result.recovered) == 240

    def test_solver_failure_propagates(self):
        with pytest.raises(RecoveryError):
            reconstruct_once(failing_square_config())

    def test_run_is_one_record_with_its_reconstruction_or_failure(self):
        # A batch keeps one record per run, and a failed run's failure
        # unraised; reconstruct_once returns the run's reconstruction, or
        # raises its failure with the traceback of the solver call that
        # raised it.
        for cfg, kind in ((small_trig_config(), Reconstruction), (failing_square_config(), OverSelectionError)):
            batch = run_experiment(cfg).records[1]
            assert (batch.run_id, batch.seed) == (1, derive_run_seed(cfg.master_seed, 1))
            if kind is Reconstruction:
                outcome = reconstruct_once(cfg, 1)
                assert (outcome.run_id, outcome.seed, outcome.error) == (batch.run_id, batch.seed, batch.error)
            else:
                assert math.isnan(batch.error)
                with pytest.raises(OverSelectionError, match="^support size 10 exceeds the 8 measurements$") as info:
                    reconstruct_once(cfg, 1)
                assert [entry.name for entry in info.traceback[-2:]] == ["reconstruct_once", "solve"]


def interior_error(outcome):
    """Relative error on the grid points at least 5 samples (circularly) from
    a jump of the square-wave reference, as in acceptance test C7."""
    ref = outcome.reference.values
    n = ref.size
    edges = np.flatnonzero(ref != np.roll(ref, 1))
    dist = np.min(np.abs((np.arange(n)[:, None] - edges[None, :] + n // 2) % n - n // 2), axis=1)
    interior = dist >= 5
    return float(np.linalg.norm((outcome.result.recovered - ref)[interior]) / np.linalg.norm(ref[interior]))


def test_square_tv_budget_stops_before_the_error_rises():
    # The square preset's step cap is an early-stopping regularizer: past it
    # the error rises again. Seed 11 is not the seed the acceptance gates use.
    # The comparison holds for the mean, not run by run: runs 0 and 2 read a
    # higher interior error at the budget, yet the interior mean is 1.6 %
    # lower over runs 0-3 and 5 % lower over runs 0-5.
    assert TvConfig().max_iters < 20_000
    long_tv = replace(TvConfig(), max_iters=20_000)
    means = {}
    for label, tv in (("budget", None), ("20000", long_tv)):
        outcomes = [reconstruct_once(ExperimentConfig(preset="square", runs=6, master_seed=11, tv=tv), i)
                    for i in range(6)]
        means[label] = (np.mean([o.error for o in outcomes]), np.mean([interior_error(o) for o in outcomes]))
    assert means["budget"][0] <= means["20000"][0], means
    assert means["budget"][1] <= means["20000"][1], means


def test_tv_on_the_pulse_starts_from_omp():
    # Every TV solve starts from the OMP reconstruction. Started from M0^T y,
    # as it was for every preset but square, runs 0-1 of seed 7 read a mean
    # error of 0.73; from OMP, with the default 6 000 steps, they read 0.048.
    report = run_experiment(ExperimentConfig(preset="gauspuls", solver="tv", runs=2, master_seed=7))
    assert report.n_failed == 0
    assert report.mean_error < 0.1


class TestSensingWithoutM0:
    """OMP on a ``poisson`` matrix reads the atoms at the sample times and
    builds no M0, in a batch or in a single reconstruction."""

    def test_batch_builds_no_observation_matrix(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("OMP on a poisson matrix built M0")

        cfg = small_trig_config()
        monkeypatch.setattr(experiments, "build", no_build)
        report = run_experiment(cfg)
        assert report.n_failed == 0 and report.mean_error < 1e-10
        outcome = reconstruct_once(cfg, run_id=2)
        assert outcome.error == report.records[2].error

    @pytest.mark.parametrize(
        "overrides",
        [
            {"preset": "trig"},
            {"preset": "gauspuls"},
            {"preset": "gauspuls", "sample_rate": 9.99e6},
            {"preset": "trig", "m_samples": 20},
        ],
        ids=["trig", "gauspuls-10MHz", "gauspuls-9.99MHz", "trig-M20"],
    )
    def test_same_supports_and_errors_as_m0_path(self, overrides):
        # The M0 path: build_poisson, then the real FFT of its rows. Trig
        # errors are ~1e-14 rounding, hence the absolute floor.
        for seed in range(4):
            cfg = ExperimentConfig(runs=50, master_seed=seed, **overrides)
            plan = resolve_plan(cfg)
            for run_id in range(cfg.runs):
                outcome = reconstruct_once(cfg, run_id)
                m0 = build_poisson(outcome.times - plan.t0, plan.interval, plan.n_grid)
                old = omp_recover(sensing_matrix(m0), outcome.measurements, plan.omp)
                old_error = relative_l2_error(old.recovered, outcome.reference.values)
                assert outcome.result.support == old.support, (seed, run_id)
                assert math.isclose(outcome.error, old_error, rel_tol=1e-9, abs_tol=1e-12), (seed, run_id)


class TestSweep:
    def test_rows_and_baseline(self):
        cfg = small_trig_config(runs=2)
        rows = sweep_truncation(cfg, [2, 20])
        assert [p for p, _ in rows] == [2, 20, None]
        assert rows[0][1].method == "truncated"
        assert rows[-1][1].method == "poisson"

    def test_rows_share_sample_times(self):
        cfg = small_trig_config(runs=2)
        rows = sweep_truncation(cfg, [2, 20])
        seeds = [[r.seed for r in report.records] for _, report in rows]
        assert seeds[0] == seeds[1] == seeds[2]

    def test_error_improves_with_more_terms(self):
        cfg = small_trig_config(runs=2)
        rows = dict(sweep_truncation(cfg, [2, 200]))
        assert rows[200].mean_error < rows[2].mean_error
        assert rows[None].mean_error < rows[200].mean_error

    def test_empty_p_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_truncation(small_trig_config(), [])

    def test_bad_p_list_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_experiment", lambda cfg, jobs=1: calls.append(cfg))
        for p_list in ([2, 2000, 3], [0], [2, -2]):
            with pytest.raises(ValueError, match="even integer >= 2"):
                sweep_truncation(small_trig_config(), p_list)
        assert calls == []


class TestSerialization:
    def test_csv_layout_and_determinism(self):
        report = run_experiment(small_trig_config())
        text = report_csv(report)
        lines = text.splitlines()
        assert lines[0] == "run_id,seed,signal,method,P,M,N,error,build_time_s,solve_time_s"
        assert len(lines) == 1 + 3 + 1  # header + runs + mean row
        assert lines[-1].startswith("mean,")
        # timing columns stay empty unless requested, so output is reproducible
        assert lines[1].endswith(",,")
        assert text == report_csv(report)

    def test_csv_with_timings(self):
        report = run_experiment(small_trig_config())
        lines = report_csv(report, include_timings=True).splitlines()
        last = lines[1].split(",")
        assert float(last[-1]) > 0.0 and float(last[-2]) > 0.0

    def test_csv_errors_round_trip_exactly(self):
        report = run_experiment(small_trig_config())
        lines = report_csv(report).splitlines()[1:4]
        for line, record in zip(lines, report.records):
            assert float(line.split(",")[7]) == record.error

    def test_json_shape(self):
        report = run_experiment(small_trig_config())
        doc = json.loads(report_json(report))
        assert doc["signal"] == "trig" and doc["method"] == "poisson"
        assert len(doc["runs"]) == 3
        assert doc["aggregates"]["mean_error"] == report.mean_error
        assert doc["aggregates"]["n_failed"] == 0
        assert doc["runs"][0]["build_time_s"] is None

    def test_json_nan_becomes_null(self):
        doc = json.loads(report_json(run_experiment(failing_square_config(runs=1))))
        assert doc["runs"][0]["error"] is None
        assert doc["aggregates"]["mean_error"] is None

    def test_sweep_csv(self):
        rows = sweep_truncation(small_trig_config(runs=2), [2])
        lines = sweep_csv(rows, include_timings=True).splitlines()
        assert lines[0] == "method,P,mean_error,mean_build_time_s,mean_solve_time_s"
        assert lines[1].startswith("truncated,2,")
        assert lines[2].startswith("poisson,,")
        assert not lines[1].endswith(",,")
        no_timing = sweep_csv(rows).splitlines()
        assert no_timing[1].endswith(",,")

    def test_p_terms_column_round_trip(self):
        report = run_experiment(small_trig_config(method="truncated", p_terms=20, runs=2))
        line = report_csv(report).splitlines()[1]
        assert line.split(",")[3:5] == ["truncated", "20"]
