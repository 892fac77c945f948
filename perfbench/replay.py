"""Replay of measured runs through the public layer functions, the
correctness checks on their outputs, and the per-layer figures from spans."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

import checks
from reference import Reference, reference_for
from tracing import Tracer, duration, self_times
from workloads import Tally, Workload, make_configs, run_key, tally


@dataclass
class Replayed:
    config: str
    cfg: object  # ExperimentConfig
    plan: object  # ResolvedPlan
    ref: Reference
    run_id: int
    times: object = None
    values: object = None
    m0: object = None
    result: object = None
    warm: object = None  # OMP warm start of a TV run
    error: float = math.nan
    error_type: str | None = None

    @property
    def key(self) -> str:
        return run_key(self.config, self.cfg.master_seed, self.run_id)


def replay_config(rs, tr, label: str, cfg, ref: Reference) -> list[Replayed]:
    """The runs of one run_experiment call, rebuilt from the public layer
    functions in the order the library's own pipeline calls them."""
    cid = f"{label}/{cfg.master_seed}"
    plan = tr.call("experiments.resolve_plan", cid, label, rs.resolve_plan, cfg)
    reference = tr.call("signals.uniform_samples", cid, label, rs.uniform_samples,
                        plan.signal, plan.n_grid, plan.interval, plan.t0)
    builder = {"naive": rs.build_naive, "truncated": rs.build_truncated, "poisson": rs.build_poisson}[cfg.method]
    extra = (cfg.p_terms,) if cfg.method == "truncated" else ()
    out = []
    for run_id in range(cfg.runs):
        run = Replayed(label, cfg, plan, ref, run_id)
        rid = run.key
        try:
            with tr.span("run", rid, label):
                seed = tr.call("experiments.derive_run_seed", rid, label, rs.derive_run_seed, cfg.master_seed, run_id)
                run.times = tr.call("signals.draw_random_times", rid, label, rs.draw_random_times,
                                    plan.m_samples, plan.duration, plan.t0, seed)
                run.values = tr.call("signals.sample_at", rid, label, rs.sample_at, plan.signal, run.times,
                                     duration=plan.duration, seed=seed).values
                run.m0 = tr.call(f"obs_matrix.build_{cfg.method}", rid, label, builder,
                                 run.times - plan.t0, plan.interval, plan.n_grid, *extra)
                try:
                    if plan.solver == "omp":
                        a = tr.call("fourier.sensing_matrix", rid, label, rs.sensing_matrix, run.m0)
                        run.result = tr.call("solvers.omp_recover", rid, label, rs.omp_recover, a, run.values, plan.omp)
                    else:
                        x_init = None
                        if plan.tv_init == "spectral":
                            a = tr.call("fourier.sensing_matrix", rid, label, rs.sensing_matrix, run.m0)
                            run.warm = tr.call("solvers.omp_recover", rid, label, rs.omp_recover, a, run.values, plan.omp)
                            x_init = run.warm.recovered
                        run.result = tr.call("solvers.tv_recover", rid, label, rs.tv_recover,
                                             run.m0, run.values, plan.tv, x_init=x_init)
                    run.error = tr.call("experiments.relative_l2_error", rid, label, rs.relative_l2_error,
                                        run.result.recovered, reference.values)
                except (rs.NonConvergenceError, rs.SingularSystemError):
                    run.error = math.nan  # run_experiment records these as NaN
        except Exception as exc:  # compared with the measured call's failure
            run.error_type = type(exc).__name__
        out.append(run)
    return out


def check_workload(rs, wl: Workload, runs: list[Replayed], t: Tally) -> list[str]:
    problems = checks.failures_expected(t.failures, wl.known_failure)
    problems += checks.replay_matches([(r.key, r.error, r.error_type) for r in runs], t.outcomes)
    for first in {r.config: r for r in runs}.values():
        if first.plan.n_grid != first.ref.n_grid or not (
            math.isclose(first.plan.t0, first.ref.t0, rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(first.plan.interval, first.ref.interval, rel_tol=1e-12)
        ):
            problems.append(f"{first.config}: program grid differs from the reference grid")
    for r in runs:
        if r.error_type is None:
            problems += checks.samples_match(r.values, r.ref.evaluate(r.times))
            problems += checks.finite("recovered signal", r.result.recovered)
            problems += checks.scoring_matches(r.error, r.result.recovered, r.ref.grid)

    errors = t.errors
    done = [r for r in runs if r.error_type is None]
    if wl.name == "trig-sweep":
        problems += checks.errors_at_most("poisson", errors["poisson"], checks.CLOSED_FORM_MAX_ERROR)
        problems += checks.naive_mean_fails(fmean(errors["naive"]))
        truncated = [(int(c.split("-")[1]), fmean(e)) for c, e in errors.items() if c.startswith("truncated-")]
        problems += checks.truncation_trend(truncated, fmean(errors["poisson"]))
        closed = {(r.cfg.master_seed, r.run_id): r for r in done if r.cfg.method == "poisson"}
        for r in closed.values():
            problems += checks.closed_form_consistent(r.m0.entries, r.ref.grid, r.ref.evaluate(r.times))
        diffs = defaultdict(list)
        for r in done:
            twin = closed.get((r.cfg.master_seed, r.run_id))  # same sample times, closed form
            if r.cfg.method == "truncated" and twin:
                gap = float(np.max(np.abs(r.m0.entries - twin.m0.entries)))
                diffs[(r.cfg.master_seed, r.run_id)].append((r.cfg.p_terms, gap))
        for d in diffs.values():
            problems += checks.truncation_converges(d)
    elif wl.name == "pulse":
        for label, errs in errors.items():
            problems += checks.errors_at_most(label, errs, checks.PULSE_MAX_ERROR)
        for r in done:
            problems += checks.nonincreasing(f"{r.key} OMP residual history", r.result.residual_history)
            problems += checks.conjugate_closed(r.result.support, r.plan.n_grid)
    elif wl.name == "square-tv":
        problems += checks.errors_at_most("square mean interior",
                                          [fmean(checks.interior_error(r.result.recovered, r.ref) for r in done)],
                                          checks.SQUARE_MAX_MEAN_INTERIOR_ERROR)
        for r in done:
            problems += checks.square_edges(r.result.recovered, r.ref)
            problems += checks.nonincreasing(f"{r.key} TV objective history", r.result.objective_history, 0.0)
            start = r.warm.recovered if r.warm else r.m0.entries.T @ r.values  # tv_recover's default start
            problems += checks.tv_objective_consistent(r.m0.entries, r.values, r.plan.tv.epsilon,
                                                       r.result.recovered, start, r.result.objective_history)
    return problems


# ---------------------------------------------------------- layer figures


def build_suffix(cfg) -> str:
    return f"truncated-{cfg.p_terms}" if cfg.method == "truncated" else cfg.method


def layer_metrics(rs, spans, runs: list[Replayed], t: Tally) -> tuple[dict, dict]:
    """Per-layer figures from the traced replay: (the set every workload
    reports, named in BENCHMARK.json; the workload-specific extras)."""
    by_run = {r.key: r for r in runs}
    done = [r for r in runs if r.error_type is None]
    ok = defaultdict(list)  # span name -> spans that returned
    per_run = defaultdict(lambda: defaultdict(float))  # run key -> span name -> seconds
    for s in spans:
        if s["error"] is None:
            ok[s["name"]].append(s)
            per_run[s["run"]][s["name"]] += duration(s)

    def med_ms(name, keep=lambda s: True):
        return median(duration(s) * 1e3 for s in ok[name] if keep(s))

    builds = [s for s in spans if s["name"].startswith("obs_matrix.build_")]
    sensing = ok["fourier.sensing_matrix"]
    first_n, sensing_first, sensing_rest = set(), [], []
    for s in sensing:
        n = by_run[s["run"]].plan.n_grid
        (sensing_rest if n in first_n else sensing_first).append(duration(s) * 1e3)
        first_n.add(n)
    omp = [r.warm or r.result for r in done]
    final_iters, converged = [], []
    for r in done:
        final_iters.append(r.result.iterations)
        if r.plan.solver == "omp":
            converged.append(r.result.final_residual <= r.plan.omp.residual_tol * np.linalg.norm(r.values))
        else:
            converged.append(r.result.iterations < r.plan.tv.max_iters)

    # Traced minus untraced time per run, for configurations whose runs
    # completed (a failed call's time is not a run's).
    runs_per_call = {r.config: r.cfg.runs for r in runs}
    overhead = [
        med_ms("run", lambda s, c=c: s["config"] == c) - median(secs) / runs_per_call[c] * 1e3
        for c, secs in t.batch.items()
        if any(s["config"] == c for s in ok["run"])
    ]

    fixed = {
        "signals.reference_ms": med_ms("signals.uniform_samples"),
        "signals.draw_ms": med_ms("signals.draw_random_times"),
        "signals.sample_ms": med_ms("signals.sample_at"),
        "obs_matrix.build_ms": fmean(per_run[r.key][f"obs_matrix.build_{r.cfg.method}"] * 1e3 for r in done),
        "obs_matrix.build_ms.poisson": med_ms("obs_matrix.build_poisson"),
        "obs_matrix.kernel_evals": fmean(r.m0.entries.size * (r.cfg.p_terms or 1) for r in done),
        "obs_matrix.failed_builds": sum(1 for s in builds if s["error"]),
        "fourier.sensing_ms": median(sensing_rest),
        "fourier.sensing_first_ms": fmean(sensing_first),
        "fourier.sensing_gflop": fmean(8 * r.plan.m_samples * r.plan.n_grid**2 / 1e9 for r in done),
        "fourier.dft_mb": sum(16 * n * n / 1e6 for n in first_n),
        "solvers.omp_ms": med_ms("solvers.omp_recover"),
        "solvers.omp_iterations": median(o.iterations for o in omp),
        "solvers.omp_atoms": median(len(o.support) for o in omp),
        "solvers.solve_ms": fmean((per_run[r.key]["solvers.omp_recover"] + per_run[r.key]["solvers.tv_recover"]) * 1e3
                                  for r in done),
        "solvers.iterations": median(final_iters),
        "solvers.converged_ratio": fmean(converged),
        "trace.overhead_ms": fmean(overhead),
    }

    extra = {}
    for suffix in sorted({build_suffix(r.cfg) for r in done} - {"poisson"}):
        mine = [r for r in done if build_suffix(r.cfg) == suffix]
        keys = {r.key for r in mine}
        extra[f"obs_matrix.build_ms.{suffix}"] = median(duration(s) * 1e3 for s in builds if s["run"] in keys and not s["error"])
        extra[f"obs_matrix.kernel_evals.{suffix}"] = mine[0].m0.entries.size * (mine[0].cfg.p_terms or 1)
    tv = [r for r in done if r.plan.solver == "tv"]
    if tv:
        extra["solvers.warmstart_ms"] = med_ms("solvers.omp_recover")
        extra["solvers.tv_ms"] = med_ms("solvers.tv_recover")
        extra["solvers.tv_iterations"] = median(r.result.iterations for r in tv)
        extra["solvers.tv_iters_to_1e-3"] = median(iters_to_within(r.result.objective_history, 1e-3) for r in tv)
        extra["solvers.tv_converged_ratio"] = fmean(r.result.iterations < r.plan.tv.max_iters for r in tv)
        extra["solvers.tv_grad_norm"] = median(tv_grad_norm(rs, r) for r in tv)
    selfs = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        selfs[s["name"].split(".")[0]] += t
    for layer, t in selfs.items():
        extra[f"self_ms_per_run.{layer}"] = t * 1e3 / len(runs)
    return fixed, extra


def iters_to_within(history, rel: float) -> int:
    """First iteration whose objective is within rel of the final value."""
    h = np.asarray(history)
    return int(np.flatnonzero(abs(h - h[-1]) <= rel * abs(h[-1]))[0])


def tv_grad_norm(rs, r: Replayed) -> float:
    """|grad J| at the returned iterate, from M0, y, lam = 1e-2 |y| and the
    public tv_gradient."""
    a, x, y = r.m0.entries, r.result.recovered, r.values
    lam = 1e-2 * float(np.linalg.norm(y))
    return float(np.linalg.norm(a.T @ (a @ x - y) + lam * rs.tv_gradient(x, r.plan.tv.epsilon)))


def verify(rs, wl: Workload, measured: dict, trace: bool, spans_path: str | None) -> dict:
    tracer = Tracer()
    rounds = measured["rounds"][: wl.input_rounds if wl.replay_all else 1]
    runs = []
    for rnd in rounds:
        for (label, kw), (_, cfg) in zip(wl.configs, make_configs(rs, wl, rnd["master_seed"])):
            runs += replay_config(rs, tracer, label, cfg, reference_for(kw))
    t = tally(measured, wl)
    problems = check_workload(rs, wl, runs, t)
    interior = defaultdict(list)
    for r in runs:
        if r.error_type is None:
            interior[r.config].append(checks.interior_error(r.result.recovered, r.ref))
    out = {
        "problems": problems,
        "replayed": len(runs),
        "interior_errors": interior,
    }
    if trace:
        out["layers"], out["layers_extra"] = layer_metrics(rs, tracer.spans, runs, t)
        if spans_path:
            tracer.write(spans_path)
    return out
