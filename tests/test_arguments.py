"""Every count, positive real and named choice a public entry point takes is
checked where it enters, by one rule per kind (randsamp.files):

* a count is an int or numpy integer, not a bool or any float, and at
  least k;
* a positive real is an int, float or numpy number, not a bool or a string,
  and positive and finite;
* a choice is one of a tuple.

A rejection is a ValueError whose message names the parameter. A new entry
point adds a row to COUNTS, POSITIVE_REALS or CHOICES, not a test.
"""

import math

import numpy as np
import pytest

from randsamp import (
    ExperimentConfig,
    GaussPulseSignal,
    ObservationMatrix,
    OmpConfig,
    SquareSignal,
    TrigSignal,
    TvConfig,
    UniformSignal,
    build,
    build_naive,
    build_poisson,
    build_truncated,
    draw_random_times,
    omp_recover,
    periodized_sinc,
    poisson_sensing,
    relative_l2_error,
    run_experiment,
    tv_recover,
    uniform_samples,
)
from randsamp.cli import _interval
from randsamp.experiments import reconstruct_once, report_csv, report_json
from randsamp.solvers import solve

TIMES = np.array([0.25, 1.5])
TIMES3 = np.array([0.25, 1.5, 4.75])

# (entry point, parameter, least value k, call with the value)
COUNTS = [
    ("periodized_sinc", "n_grid", 2, lambda v: periodized_sinc(0.3, v)),
    ("build_naive", "n_grid", 2, lambda v: build_naive(TIMES, 1.0, v)),
    ("build_truncated", "n_grid", 2, lambda v: build_truncated(TIMES, 1.0, v, 20)),
    ("build_poisson", "n_grid", 2, lambda v: build_poisson(TIMES, 1.0, v)),
    ("poisson_sensing", "n_grid", 2, lambda v: poisson_sensing(TIMES, 1.0, v)),
    ("build_truncated", "p_terms", 2, lambda v: build_truncated(TIMES, 1.0, 8, v)),
    ("build", "p_terms", 2, lambda v: build("truncated", TIMES, 1.0, 8, v)),
    ("ObservationMatrix", "p_terms", 2, lambda v: ObservationMatrix(np.eye(2, 8), "truncated", v)),
    ("uniform_samples", "n", 2, lambda v: uniform_samples(TrigSignal(), v, 0.1)),
    ("draw_random_times", "m", 1, lambda v: draw_random_times(v, 1.0)),
    ("draw_random_times", "seed", 0, lambda v: draw_random_times(4, 1.0, seed=v)),
    ("OmpConfig", "max_atoms", 1, lambda v: OmpConfig(max_atoms=v)),
    ("TvConfig", "max_iters", 1, lambda v: TvConfig(max_iters=v)),
    ("ExperimentConfig", "runs", 1, lambda v: ExperimentConfig(preset="trig", runs=v)),
    ("ExperimentConfig", "master_seed", 0, lambda v: ExperimentConfig(preset="trig", master_seed=v)),
    ("ExperimentConfig", "m_samples", 1, lambda v: ExperimentConfig(preset="trig", m_samples=v)),
    ("ExperimentConfig", "n_grid", 2, lambda v: ExperimentConfig(preset="trig", n_grid=v)),
    ("ExperimentConfig", "p_terms", 2, lambda v: ExperimentConfig(preset="trig", method="truncated", p_terms=v)),
    ("ExperimentConfig(naive)", "p_terms", 1, lambda v: ExperimentConfig(preset="trig", method="naive", p_terms=v)),
    ("ExperimentConfig(poisson)", "p_terms", 1, lambda v: ExperimentConfig(preset="trig", method="poisson", p_terms=v)),
    ("reconstruct_once", "run_id", 0, lambda v: reconstruct_once(ExperimentConfig(preset="trig"), v)),
]

# (entry point, parameter, call with the value)
POSITIVE_REALS = [
    ("build_naive", "interval", lambda v: build_naive(TIMES, v, 8)),
    ("build_truncated", "interval", lambda v: build_truncated(TIMES, v, 8, 20)),
    ("build_poisson", "interval", lambda v: build_poisson(TIMES, v, 8)),
    ("poisson_sensing", "interval", lambda v: poisson_sensing(TIMES, v, 8)),
    ("uniform_samples", "interval", lambda v: uniform_samples(TrigSignal(), 8, v)),
    ("UniformSignal", "interval", lambda v: UniformSignal(np.zeros(2), v)),
    ("TrigSignal", "sin_freqs", lambda v: TrigSignal(sin_freqs=(50.0, v))),
    ("TrigSignal", "cos_freqs", lambda v: TrigSignal(cos_freqs=(v, 400.0))),
    ("GaussPulseSignal", "center_freq", lambda v: GaussPulseSignal(center_freq=v)),
    ("GaussPulseSignal.grid_points", "sample_rate", lambda v: GaussPulseSignal().grid_points(v)),
    ("SquareSignal", "period", lambda v: SquareSignal(period=v)),
    ("draw_random_times", "duration", lambda v: draw_random_times(4, v)),
    ("ExperimentConfig", "sample_rate", lambda v: ExperimentConfig(preset="trig", sample_rate=v)),
    ("TvConfig", "lam", lambda v: TvConfig(lam=v)),
    ("cli --rate", "--rate", _interval),
]

# (entry point, parameter, call with the value)
CHOICES = [
    ("ExperimentConfig", "preset", lambda v: ExperimentConfig(preset=v)),
    ("ExperimentConfig", "method", lambda v: ExperimentConfig(preset="trig", method=v)),
    ("ExperimentConfig", "solver", lambda v: ExperimentConfig(preset="trig", solver=v)),
    ("ObservationMatrix", "method", lambda v: ObservationMatrix(np.eye(2, 8), v)),
    ("build", "method", lambda v: build(v, TIMES, 1.0, 8)),
    ("solve", "solver", lambda v: solve(v, ObservationMatrix(np.eye(2, 8), "naive"), np.ones(2), OmpConfig(), TvConfig())),
]


def _ids(rows):
    return [f"{entry}-{name}" for entry, name, *_ in rows]


def _rejected(call, value, name):
    with pytest.raises(ValueError) as info:
        call(value)
    assert name in str(info.value)


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=_ids(COUNTS))
@pytest.mark.parametrize("bad", ["fraction", "integral float", "bool", "k - 1"])
def test_count_rejected(entry, name, least, call, bad):
    value = {"fraction": 2.5, "integral float": 4.0, "bool": True, "k - 1": least - 1}[bad]
    _rejected(call, value, name)


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=_ids(COUNTS))
def test_count_accepts_numpy_integer(entry, name, least, call):
    call(np.int64(least))


@pytest.mark.parametrize("entry, name, call", POSITIVE_REALS, ids=_ids(POSITIVE_REALS))
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "1", True])
def test_positive_real_rejected(entry, name, call, bad):
    _rejected(call, bad, name)


@pytest.mark.parametrize("entry, name, call", POSITIVE_REALS, ids=_ids(POSITIVE_REALS))
@pytest.mark.parametrize("good", [np.float32(1e3), np.int64(1000)], ids=["float32", "int64"])
def test_positive_real_accepts_numpy_number(entry, name, call, good):
    call(good)


@pytest.mark.parametrize("entry, name, call", CHOICES, ids=_ids(CHOICES))
def test_choice_rejected(entry, name, call):
    with pytest.raises(ValueError, match=r"^unknown .*'bogus'; expected one of \(") as info:
        call("bogus")
    assert name in str(info.value)


def test_numpy_integer_counts_give_the_same_report():
    counts = dict(runs=2, master_seed=7, m_samples=16, n_grid=64, p_terms=20)
    reports = [
        run_experiment(ExperimentConfig(preset="trig", method="truncated", **{k: kind(v) for k, v in counts.items()}))
        for kind in (int, np.int64)
    ]
    assert report_csv(reports[0]) == report_csv(reports[1])
    assert report_json(reports[0]) == report_json(reports[1])


# Values that were once silently rounded or sized wrong, or let through to
# fail later with an unnamed TypeError.


def test_uniform_samples_refuses_fractional_n():
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 4\.5$"):
        uniform_samples(TrigSignal(), 4.5, 0.1)  # once 5 samples


def test_tv_config_refuses_fractional_max_iters():
    with pytest.raises(ValueError, match=r"^max_iters must be an integer >= 1, got 10\.5$"):
        TvConfig(max_iters=10.5)  # once 10 steps


def test_periodized_sinc_refuses_fractional_n_grid():
    with pytest.raises(ValueError, match=r"^n_grid must be an integer >= 2, got 2\.5$"):
        periodized_sinc(0.3, 2.5)  # once 0.879


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("runs", 2.5, "runs must be an integer >= 1, got 2.5"),
        ("master_seed", 1.5, "master_seed must be an integer >= 0, got 1.5"),
        ("m_samples", 64.5, "m_samples must be an integer >= 1, got 64.5"),
        ("p_terms", 4.0, "p_terms must be an even integer >= 2, got 4.0"),
    ],
)
def test_experiment_config_refuses_fractional_counts(field, value, message):
    extra = {"method": "truncated"} if field == "p_terms" else {}
    with pytest.raises(ValueError) as info:
        ExperimentConfig(preset="trig", **extra, **{field: value})  # once a TypeError in run_experiment
    assert str(info.value) == message


def test_omp_config_refuses_integral_float_max_atoms():
    with pytest.raises(ValueError, match=r"^max_atoms must be an integer >= 1, got 16\.0$"):
        OmpConfig(max_atoms=16.0)  # once accepted by ExperimentConfig, then a TypeError in run_experiment


@pytest.mark.parametrize(
    "recover, name",
    [(omp_recover, "sensing"), (tv_recover, "m0")],
    ids=["omp", "tv"],
)
@pytest.mark.parametrize("matrix, shape", [(None, r"\(\)"), (np.ones(3), r"\(3,\)"), (np.ones((3, 4, 2)), r"\(3, 4, 2\)")],
                         ids=["none", "1-d", "3-d"])
def test_solver_operand_must_be_a_matrix(recover, name, matrix, shape):
    # once an IndexError, an unpacking error, or for tv "m0 entries must be finite"
    with pytest.raises(ValueError, match=rf"^{name} must be a 2-D M x N matrix, got shape {shape}$"):
        recover(matrix, np.ones(3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: omp_recover(np.eye(3, 8), np.ones(4)), r"^y must hold the M=3 measurements, got shape \(4,\)$"),
        (lambda: tv_recover(np.eye(3, 8), np.ones(4)), r"^y must hold the M=3 measurements, got shape \(4,\)$"),
        (lambda: omp_recover(np.eye(3, 8), np.ones(3), OmpConfig(max_atoms=9)), r"^max_atoms=9 exceeds the N=8 columns$"),
        (lambda: tv_recover(np.eye(3, 8), np.ones(3), x_init=np.ones(7)),
         r"^x_init must hold the N=8 grid values, got shape \(7,\)$"),
        (lambda: relative_l2_error(np.ones(3), np.ones(4)), r"^x_rec and x_ref must have one shape, got \(3,\) and \(4,\)$"),
        # once the group message, naming a G axis the caller never passed
        (lambda: solve("omp", build_poisson(TIMES3, 1.0, 8), np.ones(4), OmpConfig(max_atoms=2), TvConfig()),
         r"^y must hold the M=3 measurements, got shape \(4,\)$"),
        (lambda: solve("tv", build_poisson(TIMES3, 1.0, 8), np.ones(4), OmpConfig(max_atoms=2), TvConfig()),
         r"^y must hold the M=3 measurements, got shape \(4,\)$"),
    ],
    ids=["omp-y", "tv-y", "max-atoms", "x-init", "relative-error", "solve-omp-y", "solve-tv-y"],
)
def test_size_mismatch_names_both_sizes(call, message):
    with pytest.raises(ValueError, match=message):
        call()
