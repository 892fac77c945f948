"""Seeded, repeatable benchmark experiments: error metrics, timing, P-sweeps.

A run is fully determined by (master_seed, run_index): per-run seeds come
from a SplitMix64-style mix, so runs are independent random streams and batch
results do not depend on execution order. Every batch runs serially.

Builds and solves are timed separately with a monotonic wall clock. Timing
values are real measurements and therefore vary between invocations; the CSV
and JSON writers keep the timing columns in the schema but only fill them on
request, so that default artifacts are byte-reproducible.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .files import check_choice, check_count, check_positive, csv_text, json_text
from .fourier import poisson_sensing, sensing_matrix
from .obs_matrix import METHODS, build, check_p_terms
from .signals import (
    GaussPulseSignal,
    SquareSignal,
    TrigSignal,
    draw_random_times,
    grid_origin,
    sample_at,
    uniform_samples,
)
from .solvers import SOLVERS, OmpConfig, RecoveryError, TvConfig, fit_budget, solve

PRESETS = ("trig", "gauspuls", "square")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the SplitMix64 increment

CSV_HEADER = "run_id,seed,signal,method,P,M,N,error,build_time_s,solve_time_s"
SWEEP_CSV_HEADER = "method,P,mean_error,mean_build_time_s,mean_solve_time_s"


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Independent 64-bit stream seed for one run: the SplitMix64 finalizer
    applied to master_seed + (run_index + 1) * golden-ratio increment."""
    z = (int(master_seed) + (run_index + 1) * _GOLDEN) & _MASK64  # a numpy integer would overflow
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def relative_l2_error(x_rec, x_ref) -> float:
    """||x_rec - x_ref||_2 / ||x_ref||_2, for arrays of one shape."""
    x_rec = np.asarray(x_rec, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    if x_rec.shape != x_ref.shape:
        raise ValueError(f"x_rec and x_ref must have one shape, got {x_rec.shape} and {x_ref.shape}")
    ref_norm = float(np.linalg.norm(x_ref))
    if ref_norm == 0.0:
        raise ValueError("reference vector has zero norm; relative error undefined")
    return float(np.linalg.norm(x_rec - x_ref)) / ref_norm


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a signal preset, a matrix construction, a solver.

    :func:`resolve_plan` gives each preset's M (m_samples), N (n_grid), grid
    rate (sample_rate) and solver; ``randsamp experiment --help`` lists them.
    Any of the optional fields override the preset's value. The counts
    (p_terms, runs, master_seed, m_samples, n_grid) are ints or numpy
    integers, sample_rate is positive and finite, and preset, method and
    solver name one of PRESETS, METHODS and SOLVERS; another value raises
    ValueError naming the field.
    """

    preset: str
    method: str = "poisson"
    p_terms: int | None = None
    solver: str | None = None
    runs: int = 50
    master_seed: int = 0
    m_samples: int | None = None
    n_grid: int | None = None
    sample_rate: float | None = None
    omp: OmpConfig | None = None
    tv: TvConfig | None = None

    def __post_init__(self):
        check_choice("preset", self.preset, PRESETS)
        check_choice("matrix method", self.method, METHODS)
        if self.method == "truncated":  # the other methods ignore p_terms
            check_p_terms(self.p_terms)
        if self.solver is not None:
            check_choice("solver", self.solver, SOLVERS)
        check_count("runs", self.runs, 1)
        check_count("master_seed", self.master_seed, 0)
        if self.master_seed > _MASK64:  # derive_run_seed would wrap it modulo 2**64
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.m_samples is not None:
            check_count("m_samples", self.m_samples, 1)
        if self.n_grid is not None:
            check_count("n_grid", self.n_grid, 2)
        if self.sample_rate is not None:
            check_positive("sample_rate", self.sample_rate)


# Solver settings used by the presets. The trig preset takes OmpConfig's
# defaults, whose 16 bins cover the signal's 7 occupied bins with margin; the
# gauspuls budget keeps the dominant spectral lobe of the pulse. Every preset
# takes TvConfig's defaults, whose step budget was chosen on the square preset.
GAUSPULS_OMP = OmpConfig(max_atoms=24, residual_tol=1e-4)
# OMP budget of the square preset's warm start (see solvers.solve).
SQUARE_INIT_OMP = OmpConfig(max_atoms=24, residual_tol=1e-6)


@dataclass(frozen=True)
class ResolvedPlan:
    """Fully concrete experiment parameters after preset resolution; a TV
    solve starts from the OMP reconstruction under this plan's OmpConfig."""

    signal: object
    m_samples: int
    n_grid: int
    interval: float
    t0: float
    duration: float
    solver: str
    omp: OmpConfig
    tv: TvConfig

    @property
    def tv_init(self) -> str:
        """Always "spectral"; read only by perfbench's replay, and deleted once that follows the library."""
        return "spectral"


def _given_or(value, default):
    """default when value is unset (None), else value."""
    return default if value is None else value


def resolve_plan(cfg: ExperimentConfig) -> ResolvedPlan:
    """Apply preset defaults and overrides to a concrete run plan; a preset's
    OMP budget is fitted to M and N, a given cfg.omp is taken as it is."""
    if cfg.preset == "trig":
        signal = TrigSignal()
        rate = _given_or(cfg.sample_rate, 800.0)
        m = _given_or(cfg.m_samples, 64)
        n = _given_or(cfg.n_grid, 256)
        solver = cfg.solver or "omp"
        omp = cfg.omp or fit_budget(OmpConfig(), m, n)
    elif cfg.preset == "gauspuls":
        signal = GaussPulseSignal()
        rate = _given_or(cfg.sample_rate, 10e6)
        m = _given_or(cfg.m_samples, 93)
        # grid_points is only consulted when N is not given, so its size
        # limit does not apply to an explicit n_grid.
        n = signal.grid_points(rate) if cfg.n_grid is None else cfg.n_grid
        solver = cfg.solver or "omp"
        omp = cfg.omp or fit_budget(GAUSPULS_OMP, m, n)
    else:  # square
        rate = _given_or(cfg.sample_rate, 240.0)
        m = _given_or(cfg.m_samples, 80)
        n = _given_or(cfg.n_grid, 240)
        # Two full periods across the grid, edges on grid points.
        signal = SquareSignal(period=n / (2.0 * rate), duty=0.5, amplitude=1.0)
        solver = cfg.solver or "tv"
        omp = cfg.omp or fit_budget(SQUARE_INIT_OMP, m, n)
    tv = cfg.tv or TvConfig()
    interval = 1.0 / rate
    return ResolvedPlan(signal, m, n, interval, grid_origin(signal), n * interval, solver, omp, tv)


@dataclass(frozen=True)
class RunRecord:
    """One run's outcome; error is NaN when the solver failed."""

    run_id: int
    seed: int
    error: float
    build_time_s: float
    solve_time_s: float


def _mean_over(records, key) -> float:
    ok = [key(r) for r in records if not math.isnan(r.error)]
    return float(np.mean(ok)) if ok else float("nan")


@dataclass
class ExperimentReport:
    """Per-run records of one experiment configuration, with their aggregates.

    The aggregates are computed from the records: means over the successful
    runs, while failed runs are counted in n_failed and left out of the means.
    """

    preset: str
    method: str
    p_terms: int | None
    m_samples: int
    n_grid: int
    master_seed: int
    records: list[RunRecord] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        return _mean_over(self.records, lambda r: r.error)

    @property
    def mean_build_time_s(self) -> float:
        return _mean_over(self.records, lambda r: r.build_time_s)

    @property
    def mean_solve_time_s(self) -> float:
        return _mean_over(self.records, lambda r: r.solve_time_s)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if math.isnan(r.error))


@dataclass
class Reconstruction:
    """One fully materialized run: inputs, solver output, reference."""

    run_id: int
    seed: int
    times: np.ndarray
    measurements: np.ndarray
    result: object
    reference: object
    error: float


def _run(
    cfg: ExperimentConfig, plan: ResolvedPlan, reference, run_id: int
) -> Iterator[RunRecord | Reconstruction]:
    """Draw, sample, build and recover one run, in two steps.

    The generator first yields the run's RunRecord; when the solver failed,
    its error is NaN and its times are those measured up to the failure.
    Resumed, it re-raises that RecoveryError, or yields the run's
    Reconstruction.

    build_time_s times what makes the operators the solvers read, and
    solve_time_s :func:`solve`. For OMP on ``poisson`` the build is only
    :func:`poisson_sensing`, the two factor tables of the atoms; the columns
    and correlations OMP forms from them are part of the solve.
    """
    seed = derive_run_seed(cfg.master_seed, run_id)
    times = draw_random_times(plan.m_samples, plan.duration, plan.t0, seed)
    samples = sample_at(plan.signal, times, duration=plan.duration, seed=seed)
    # The matrix kernel places grid point n at time n*interval, so sample
    # times are passed relative to the grid origin.
    grid_times = times - plan.t0

    tic = time.perf_counter()
    if plan.solver == "omp" and cfg.method == "poisson":
        m0, sensing = None, poisson_sensing(grid_times, plan.interval, plan.n_grid)
    else:
        m0 = build(cfg.method, grid_times, plan.interval, plan.n_grid, cfg.p_terms)
        sensing = sensing_matrix(m0)
    build_time = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        result = solve(plan.solver, sensing, m0, samples.values, plan.omp, plan.tv)
        error = relative_l2_error(result.recovered, reference.values)
    except RecoveryError:
        yield RunRecord(run_id, seed, float("nan"), build_time, time.perf_counter() - tic)
        raise
    yield RunRecord(run_id, seed, error, build_time, time.perf_counter() - tic)
    yield Reconstruction(run_id, seed, times, samples.values, result, reference, error)


def reconstruct_once(cfg: ExperimentConfig, run_id: int = 0) -> Reconstruction:
    """Materialize a single run of an experiment (the figure-style view).

    Unlike :func:`run_experiment`, solver failures propagate.
    """
    plan = resolve_plan(cfg)
    reference = uniform_samples(plan.signal, plan.n_grid, plan.interval, plan.t0)
    _, reconstruction = _run(cfg, plan, reference, run_id)
    return reconstruction


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run cfg.runs seeded repetitions, one after another, and aggregate them.

    A run whose solver fails is recorded with error NaN. jobs is ignored and
    kept only so that existing callers passing it keep working.
    """
    plan = resolve_plan(cfg)
    reference = uniform_samples(plan.signal, plan.n_grid, plan.interval, plan.t0)
    records = [next(_run(cfg, plan, reference, i)) for i in range(cfg.runs)]
    return ExperimentReport(
        preset=cfg.preset,
        method=cfg.method,
        # only the truncated build uses P; the other methods ignore it
        p_terms=cfg.p_terms if cfg.method == "truncated" else None,
        m_samples=plan.m_samples,
        n_grid=plan.n_grid,
        master_seed=cfg.master_seed,
        records=records,
    )


def sweep_truncation(cfg: ExperimentConfig, p_list):
    """Run the experiment once per truncation length plus a closed-form
    baseline row.

    Returns a list of (p_terms, report) pairs, ending with (None, report) for
    the closed-form kernel. All rows share the per-run sample times because
    seeds depend only on (master_seed, run_id).
    """
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must be nonempty")
    # Every config is built, and so every P validated, before the first run.
    configs = [replace(cfg, method="truncated", p_terms=p) for p in p_list]
    configs.append(replace(cfg, method="poisson", p_terms=None))
    return [(c.p_terms, run_experiment(c)) for c in configs]


def _rows(report: ExperimentReport, include_timings: bool) -> list[tuple]:
    """The values every report writer reads: (run_id, seed, error,
    build_time_s, solve_time_s) per record, then the aggregate row ("mean",
    "", and the means over the successful runs). Timings are None unless
    include_timings."""
    rows = [(r.run_id, r.seed, r.error, r.build_time_s, r.solve_time_s) for r in report.records]
    rows.append(("mean", "", report.mean_error, report.mean_build_time_s, report.mean_solve_time_s))
    return rows if include_timings else [row[:3] + (None, None) for row in rows]


def report_csv(report: ExperimentReport, include_timings: bool = False) -> str:
    """Per-run rows plus a trailing aggregate row (run_id == 'mean')."""
    fixed = (report.preset, report.method, report.p_terms, report.m_samples, report.n_grid)
    rows = ((run_id, seed, *fixed, *values) for run_id, seed, *values in _rows(report, include_timings))
    return csv_text(CSV_HEADER, rows)


def report_json(report: ExperimentReport, include_timings: bool = False) -> str:
    """JSON variant of the CSV schema, with aggregates; NaN values become null."""
    fields = ("run_id", "seed", "error", "build_time_s", "solve_time_s")
    runs = [
        {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in zip(fields, row)}
        for row in _rows(report, include_timings)
    ]
    mean = runs.pop()
    aggregates = {f"mean_{k}": mean[k] for k in fields[2:]}
    aggregates["n_failed"] = report.n_failed
    return json_text(
        {
            "signal": report.preset,
            "method": report.method,
            "p_terms": report.p_terms,
            "m_samples": report.m_samples,
            "n_grid": report.n_grid,
            "master_seed": report.master_seed,
            "runs": runs,
            "aggregates": aggregates,
        }
    )


def sweep_csv(rows, include_timings: bool = False) -> str:
    """Aggregate row per truncation length (and the closed-form baseline),
    ready for log-log plotting."""
    means = ((report.method, p, *_rows(report, include_timings)[-1][2:]) for p, report in rows)
    return csv_text(SWEEP_CSV_HEADER, means)
