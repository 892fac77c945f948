#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Every check gets a correct input, which it must pass, and a corrupted one,
which it must reject, so no check can silently become vacuous. Exits 0 when
all hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import randsamp as rs  # noqa: E402

import checks  # noqa: E402
from reference import pulse_reference, square_reference, trig_reference  # noqa: E402
from replay import replay_config  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def square_cases():
    ref = square_reference()
    rng = np.random.default_rng(0)
    good = ref.grid + 0.005 * rng.standard_normal(ref.n_grid)
    for j in ref.jumps:  # overshoot on both sides of each jump
        good[j] += 0.3 * ref.grid[j]
        good[j - 1] += 0.3 * ref.grid[j - 1]
    shifted = good.copy()
    shifted[:8] = -1.0  # first +1 plateau moved 8 samples later
    shifted[60:68] = 1.0
    yield "square interior and edges", checks.square_edges(good, ref), checks.square_edges(shifted, ref)
    mean_ok = [checks.interior_error(good, ref)]
    mean_bad = [checks.interior_error(good + 0.06 * ref.grid, ref)]  # every plateau 6 % too high
    yield ("square mean interior error",
           checks.errors_at_most("mean", mean_ok, checks.SQUARE_MAX_MEAN_INTERIOR_ERROR),
           checks.errors_at_most("mean", mean_bad, checks.SQUARE_MAX_MEAN_INTERIOR_ERROR))
    off_edges = ref.grid + 0.01 * (ref.edge_distance() >= 5)  # exact at the jumps, off in the interior
    yield "square error sits at the jumps", checks.square_edges(good, ref), checks.square_edges(off_edges, ref)


def trig_run(method, p_terms=None, seed=3):
    ref = trig_reference()
    times = rs.draw_random_times(64, ref.n_grid * ref.interval, 0.0, seed)
    build = {"naive": rs.build_naive, "poisson": rs.build_poisson}.get(method)
    m0 = build(times, ref.interval, ref.n_grid) if build else rs.build_truncated(times, ref.interval, ref.n_grid, p_terms)
    return ref, times, m0


def trig_cases():
    ref, times, closed = trig_run("poisson")
    _, _, naive = trig_run("naive")
    y = ref.evaluate(times)
    yield ("naive matrix labelled closed form",
           checks.closed_form_consistent(closed.entries, ref.grid, y),
           checks.closed_form_consistent(naive.entries, ref.grid, y))
    diffs = [(p, float(np.max(np.abs(trig_run("truncated", p)[2].entries - closed.entries)))) for p in (2, 20, 200)]
    yield ("truncated matrices converge", checks.truncation_converges(diffs),
           checks.truncation_converges(diffs[:2] + [(200, diffs[0][1])]))
    yield ("truncated means fall with P",
           checks.truncation_trend([(2, 0.4), (20, 0.02), (200, 0.002), (2000, 0.003)], 1e-14),
           checks.truncation_trend([(2, 0.4), (20, 0.5), (200, 0.002), (2000, 0.003)], 1e-14))
    yield ("truncated means above closed form",
           checks.truncation_trend([(2, 0.4), (20, 0.02)], 1e-14),
           checks.truncation_trend([(2, 0.4), (20, 0.02)], 0.1))
    yield "naive kernel fails", checks.naive_mean_fails(0.41), checks.naive_mean_fails(0.05)
    yield ("closed-form error bound", checks.errors_at_most("poisson", [1e-14, 2e-14], checks.CLOSED_FORM_MAX_ERROR),
           checks.errors_at_most("poisson", [1e-14, 3e-7], checks.CLOSED_FORM_MAX_ERROR))
    yield ("measurements follow the reference", checks.samples_match(y, ref.evaluate(times)),
           checks.samples_match(y, ref.evaluate(times + 1e-6)))
    x = ref.grid + 1e-3
    own = float(np.linalg.norm(x - ref.grid) / np.linalg.norm(ref.grid))
    yield ("program scoring", checks.scoring_matches(own, x, ref.grid), checks.scoring_matches(own * 1.001, x, ref.grid))


def replay_cases():
    """A replay of the measured seed matches; a replay under another seed,
    presented as the measured runs, must not."""
    cfg = rs.ExperimentConfig(preset="trig", method="naive", runs=3, master_seed=11)
    report = rs.run_experiment(cfg)
    measured = {f"naive/11/{r.run_id}": (r.error, None) for r in report.records}
    ref = trig_reference()
    same = replay_config(rs, Tracer(), "naive", cfg, ref)
    other = replay_config(rs, Tracer(), "naive", replace(cfg, master_seed=12), ref)
    yield ("trace uses the measured seed",
           checks.replay_matches([(r.key, r.error, r.error_type) for r in same], measured),
           checks.replay_matches([(s.key, o.error, o.error_type) for s, o in zip(same, other)], measured))
    failing = [("9.99MHz/1/0", float("nan"), "ValueError")]
    yield ("failures match by type",
           checks.replay_matches(failing, {"9.99MHz/1/0": (float("nan"), "ValueError")}),
           checks.replay_matches(failing, {"9.99MHz/1/0": (0.01, None)}))
    known = WORKLOADS["pulse"].known_failure
    yield ("only the known slice fails", checks.failures_expected([known], known),
           checks.failures_expected([known, ("10MHz", *known[1:])], known))
    yield ("the known slice fails only with the known fault", checks.failures_expected([known], known),
           checks.failures_expected([("9.99MHz", "ValueError", "entries shape does not match times x grid")], known))


def pulse_cases():
    ref = pulse_reference(10e6)
    n = ref.n_grid
    yield ("OMP residual does not increase", checks.nonincreasing("residual", [3.0, 2.0, 1.0, 1.0]),
           checks.nonincreasing("residual", [3.0, 2.0, 2.5]))
    yield ("support closed under k -> N-k", checks.conjugate_closed([5, n - 5, 0], n),
           checks.conjugate_closed([5, n - 5, 7], n))
    bad = ref.grid.copy()
    bad[3] = np.nan
    yield "output finite", checks.finite("x", ref.grid), checks.finite("x", bad)
    yield ("pulse error bound", checks.errors_at_most("10MHz", [4e-5], checks.PULSE_MAX_ERROR),
           checks.errors_at_most("10MHz", [4e-5, 0.2], checks.PULSE_MAX_ERROR))


def tv_cases():
    plan = rs.resolve_plan(rs.ExperimentConfig(preset="square", master_seed=5))
    times = rs.draw_random_times(plan.m_samples, plan.duration, plan.t0, 5)
    y = rs.sample_at(plan.signal, times).values
    m0 = rs.build_poisson(times, plan.interval, plan.n_grid)
    warm = rs.omp_recover(rs.sensing_matrix(m0), y, plan.omp).recovered
    res = rs.tv_recover(m0, y, replace(plan.tv, max_iters=200), x_init=warm)
    h = res.objective_history
    eps = plan.tv.epsilon
    yield ("TV objective does not increase", checks.nonincreasing("J", h, 0.0),
           checks.nonincreasing("J", np.append(h, h[-1] * (1 + 1e-9)), 0.0))
    yield ("J at x equals the solver's last entry",
           checks.tv_objective_consistent(m0.entries, y, eps, res.recovered, warm, h),
           checks.tv_objective_consistent(m0.entries, y, eps, res.recovered, warm, np.append(h[:-1], h[-1] * (1 - 1e-6))))
    yield ("J at x not above the warm start",
           checks.tv_objective_consistent(m0.entries, y, eps, res.recovered, warm, h),
           checks.tv_objective_consistent(m0.entries, y, eps, warm + 0.2, res.recovered,
                                          [checks.tv_objective(m0.entries, warm + 0.2, y, eps)]))


def main() -> int:
    failed = 0
    for group in (square_cases, trig_cases, replay_cases, pulse_cases, tv_cases):
        for name, good, bad in group():
            ok = not good and bool(bad)
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f"  good={good} bad={bad}"))
    print(f"{failed} self-test(s) failed" if failed else "all self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
