"""Correctness checks. Each returns a list of problems; an empty list passes.

Every check either compares with a value the benchmark computes itself (its
own references and its own objective formula) or tests a property the method
must have. None compares against stored output of the program.
"""

from __future__ import annotations

import math

import numpy as np

# Replayed and measured errors of the same run must agree to this (absolute).
REPLAY_TOL = 1e-6
CLOSED_FORM_MAX_ERROR = 1e-8
CLOSED_FORM_MAX_RESIDUAL = 1e-10
NAIVE_MIN_MEAN_ERROR = 0.20
PULSE_MAX_ERROR = 0.05
# Mean interior error over a workload's square runs. A single run may land
# higher when a sampling gap of ~16 grid points sits next to a jump: there
# the TV minimizer itself misplaces the jump (J at the reference is above J
# at the solution), so each run is held only to the looser gross bound.
SQUARE_MAX_MEAN_INTERIOR_ERROR = 0.05
SQUARE_MAX_RUN_INTERIOR_ERROR = 0.25
OBJECTIVE_REL_TOL = 1e-9
# Program error versus the benchmark's own scoring of the same output; the
# absolute part covers the last-digit differences of two independently
# evaluated references, which dominate at closed-form error levels (~1e-14).
SCORING_REL_TOL = 1e-9
SCORING_ABS_TOL = 1e-12


def _same_error(a: float, b: float, tol: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def replay_matches(replayed, measured) -> list[str]:
    """replayed: (key, error, error_type) per replayed run; measured maps the
    same key to (error, error_type). A run matches when both raised the same
    exception type or both errors agree within REPLAY_TOL."""
    out = []
    for key, error, error_type in replayed:
        if key not in measured:
            out.append(f"{key}: replayed run was never measured")
            continue
        m_error, m_type = measured[key]
        if error_type or m_type:
            if error_type != m_type:
                out.append(f"{key}: replay raised {error_type}, measured run raised {m_type}")
        elif not _same_error(error, m_error, REPLAY_TOL):
            out.append(f"{key}: replay error {error!r} != measured error {m_error!r}")
    return out


def failures_expected(failures, known) -> list[str]:
    """failures: (config label, exception type, message) per failed run. Each
    must be the known fault: same slice, same type and same message."""
    return [
        f"{label}: unexpected failure {etype}: {message}"
        for label, etype, message in failures
        if known is None or (label, etype, message) != tuple(known)
    ]


def errors_at_most(label: str, errors, bound: float) -> list[str]:
    bad = [e for e in errors if not e <= bound]
    return [f"{label}: {len(bad)} of {len(errors)} runs above error {bound:g} (worst {max(bad)!r})"] if bad else []


def naive_mean_fails(mean: float) -> list[str]:
    if mean >= NAIVE_MIN_MEAN_ERROR:
        return []
    return [f"naive mean error {mean:.3g} is below {NAIVE_MIN_MEAN_ERROR}: the naive kernel should fail"]


def truncation_trend(means_by_p, closed_mean: float) -> list[str]:
    """Mean error falls as P grows, with at most one inversion, and every
    truncated mean stays above the closed-form mean."""
    means = [m for _, m in sorted(means_by_p)]
    out = []
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    if inversions > 1:
        out.append(f"truncated mean errors {means} rise with P {inversions} times")
    if not all(m > closed_mean for m in means):
        out.append(f"a truncated mean error in {means} is not above the closed-form {closed_mean:.3g}")
    return out


def truncation_converges(diffs_by_p) -> list[str]:
    """max |M0_P - M0_closed| must shrink strictly as P grows."""
    diffs = [d for _, d in sorted(diffs_by_p)]
    if all(b < a for a, b in zip(diffs, diffs[1:])):
        return []
    return [f"max |M0_P - M0_closed| over P does not shrink: {diffs}"]


def closed_form_consistent(entries, x_grid, y) -> list[str]:
    """A band-limited signal that is periodic on the grid span satisfies
    M0 x_grid = y exactly when M0 is the exact periodized kernel."""
    y = np.asarray(y, dtype=float)
    rel = float(np.linalg.norm(np.asarray(entries) @ x_grid - y) / np.linalg.norm(y))
    if rel <= CLOSED_FORM_MAX_RESIDUAL:
        return []
    return [f"closed-form |M0 x - y|/|y| = {rel:.3g} exceeds {CLOSED_FORM_MAX_RESIDUAL:g}"]


def samples_match(values, own_values) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(values) - own_values)))
    return [] if gap <= 1e-12 else [f"measurements differ from the reference signal by {gap:.3g}"]


def scoring_matches(program_error: float, x_rec, x_ref) -> list[str]:
    own = float(np.linalg.norm(x_rec - x_ref) / np.linalg.norm(x_ref))
    if abs(own - program_error) <= SCORING_REL_TOL * own + SCORING_ABS_TOL:
        return []
    return [f"program error {program_error!r} != benchmark error {own!r} against its own reference"]


def nonincreasing(name: str, history, rel_tol: float = 1e-12) -> list[str]:
    h = np.asarray(history, dtype=float)
    rises = np.flatnonzero(h[1:] > h[:-1] * (1.0 + rel_tol))
    return [f"{name} rises at step {int(rises[0]) + 1}: {h[rises[0]]!r} -> {h[rises[0] + 1]!r}"] if len(rises) else []


def conjugate_closed(support, n_grid: int) -> list[str]:
    s = set(support)
    missing = sorted(k for k in s if (n_grid - k) % n_grid not in s)
    return [f"support not closed under k -> N-k, missing partners of {missing}"] if missing else []


def finite(name: str, x) -> list[str]:
    return [] if np.all(np.isfinite(x)) else [f"{name} has non-finite entries"]


def interior_error(x_rec, ref) -> float:
    mask = ref.interior()
    return float(np.linalg.norm((x_rec - ref.grid)[mask]) / np.linalg.norm(ref.grid[mask]))


def square_edges(x_rec, ref) -> list[str]:
    """One run's interior error within the gross bound, and the breakdown
    sits at the jumps: the largest near-edge deviation exceeds the largest
    interior one."""
    out = []
    err = interior_error(x_rec, ref)
    if not err <= SQUARE_MAX_RUN_INTERIOR_ERROR:
        out.append(f"interior error {err:.4g} exceeds {SQUARE_MAX_RUN_INTERIOR_ERROR}")
    dev = np.abs(x_rec - ref.grid)
    dist = ref.edge_distance()
    if not dev[dist <= 2].max() > dev[dist >= 5].max():
        out.append("largest deviation is not at the jumps")
    return out


def tv_objective(entries, x, y, epsilon: float) -> float:
    """0.5 |M0 x - y|^2 + lam sum_n sqrt((x[n+1]-x[n])^2 + eps^2), circular,
    with the data-scaled lam = 1e-2 |y|."""
    lam = 1e-2 * float(np.linalg.norm(y))
    r = np.asarray(entries) @ x - y
    d = np.diff(np.append(x, x[0]))
    return 0.5 * float(r @ r) + lam * float(np.sum(np.sqrt(d * d + epsilon * epsilon)))


def tv_objective_consistent(entries, y, epsilon: float, x_final, x_warm, history) -> list[str]:
    """J(x_final), computed here, equals the solver's last history entry, and
    is no higher than J at the starting point x_warm."""
    out = []
    j_final = tv_objective(entries, x_final, y, epsilon)
    if abs(j_final - history[-1]) > OBJECTIVE_REL_TOL * abs(j_final):
        out.append(f"J(x) = {j_final!r} but the solver reports {history[-1]!r}")
    j_warm = tv_objective(entries, x_warm, y, epsilon)
    if j_final > j_warm:
        out.append(f"J(x) = {j_final!r} is above J at the warm start {j_warm!r}")
    return out
