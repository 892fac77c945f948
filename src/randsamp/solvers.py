"""Recovery of sparse spectra and gradient-sparse signals from random samples.

Two solvers, which :func:`solve_group` runs on a group of runs' operands as
one pipeline step, and :func:`solve` on one run's:

* :func:`omp_recover` -- orthogonal matching pursuit for real signals, run
  by :func:`solve_group` on a group of runs in lock-step; see
  :mod:`~randsamp.omp`, which defines it, and the results, errors and OMP
  settings that this module holds too.
* :func:`tv_recover` -- gradient descent on a smoothed total-variation
  objective, for signals whose variation rather than spectrum is sparse:
  J(x) = 0.5 ||M0 x - y||^2 + lam * sum_n sqrt((x[n+1]-x[n])^2 + eps^2)
  with circular differences and the constant eps = TvConfig.epsilon, at the
  fixed step TV_STEP_ALPHA / L for L the Lipschitz bound of grad J, for a
  budget of TvConfig.max_iters steps. The residual and differences computed
  to evaluate J at an iterate also give its gradient. A step makes only the
  calls its next iterate depends on, one M0 and one M0^T product plus O(N)
  in-place passes; J and ||grad J||, which only report or test a step, are
  reduced once per block of steps, and the descent returns the iterate at
  which a per-step test would have stopped, bit for bit.

Both are deterministic for fixed inputs, and a run's result does not depend
on the runs solved with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .files import check_choice, check_count, check_positive
from .fourier import DenseSensing, PoissonSensing, sensing_matrix
from .omp import (  # the OMP names are held here too, with the TV descent's
    OmpConfig,
    OverSelectionError,
    RecoveryError,
    RecoveryResult,
    SingularSystemError,
    _aligned_empty,
    _aligned_rows,
    _measurements,
    _omp_group,
    fit_budget,
    omp_recover,
)

SOLVERS = ("omp", "tv")


class NonConvergenceError(RecoveryError, RuntimeError):
    """A descent that failed to converge. No randsamp solver raises it since
    the TV descent took a fixed step; it stays for code that catches it."""


# tv_recover steps by TV_STEP_ALPHA / L, L the Lipschitz bound of grad J;
# any factor below 2 makes every step lower J in exact arithmetic (the
# descent lemma), and one near 2 takes the fewest steps to a given J.
TV_STEP_ALPHA = 1.99

# tv_recover takes J and ||grad J||, which only report or test a step, once
# per block of this many steps.
_TV_BLOCK = 64


@dataclass(frozen=True)
class TvConfig:
    """Settings of the smoothed total-variation descent.

    lam is positive and finite, or None for the data-scaled default
    1e-2 * ||y||_2. The descent stops after max_iters steps (an int or numpy
    integer >= 1), or earlier once ||grad J|| <= grad_tol. The step is not
    a setting: :func:`tv_recover` works it out from M0, lam and the
    smoothing epsilon, which like grad_tol is a constant.
    """

    epsilon: ClassVar[float] = 1e-3
    grad_tol: ClassVar[float] = 1e-8

    lam: float | None = None
    # The step budget is an early-stopping regularizer, not a convergence
    # budget: on the square preset, the only preset that solves by TV, the
    # descent never meets grad_tol, and its error first falls and then rises
    # with the step count (semi-convergence; Engl, Hanke & Neubauer 1996).
    # 6 000 steps was chosen there over master seeds 7, 11 and 13 (runs 0-39
    # each), caps 4 000 to 20 000: its mean error and mean interior error
    # are below those at 20 000 on every seed, and its worst interior error
    # is within 0.2 % of that of the earlier 5 000-step descent, whose step
    # halved whenever J rose. 5 800 meets both too, but leaves seed 11's
    # interior mean over runs 0-5 only 1 % under the 20 000-step one
    # (6 000: 5 %); 5 000 raised seed 11's worst interior error from 0.022
    # to 0.050.
    max_iters: int = 6_000

    def __post_init__(self):
        if self.lam is not None:
            check_positive("lam", self.lam)
        check_count("max_iters", self.max_iters, 1)


def _matrix(name: str, a: np.ndarray) -> np.ndarray:
    """a, checked to be 2-D."""
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D M x N matrix, got shape {a.shape}")
    return a


def _m0_entries(m0) -> np.ndarray:
    """M0, an ObservationMatrix or bare array, as a 2-D float array; a PoissonSensing is refused."""
    if isinstance(m0, PoissonSensing):
        raise ValueError("m0 must be an ObservationMatrix or an M x N array, got a PoissonSensing, which holds no M0")
    return _matrix("m0", np.asarray(getattr(m0, "entries", m0), dtype=float))


def total_variation(x, epsilon: float) -> float:
    """Smoothed circular TV: sum_n sqrt((x[n+1]-x[n])^2 + epsilon^2), n mod N."""
    x = np.asarray(x, dtype=float)
    d = np.roll(x, -1) - x
    return float(np.sum(np.sqrt(d * d + epsilon * epsilon)))


def tv_gradient(x, epsilon: float) -> np.ndarray:
    """Analytic gradient of :func:`total_variation`: D^T (d / s) with
    d[n] = x[n+1] - x[n], s = sqrt(d^2 + epsilon^2) and
    (D^T w)[n] = w[n-1] - w[n], n mod N."""
    x = np.asarray(x, dtype=float)
    d = np.roll(x, -1) - x
    w = d / np.sqrt(d * d + epsilon * epsilon)
    return np.roll(w, 1) - w


def tv_recover(m0, y, cfg: TvConfig = TvConfig(), x_init=None) -> RecoveryResult:
    """Gradient descent on the smoothed-TV objective at a fixed step.

    m0 may be an ObservationMatrix or a bare M x N array. Starts from
    x_init (default M0^T y) and steps x <- x - (TV_STEP_ALPHA / L) grad J,
    with L = ||M0||_2^2 + 4 lam / epsilon the Lipschitz bound of grad J
    (||D||_2^2 <= 4 for the circular difference D, and the smoothed
    magnitude's curvature is at most 1 / epsilon). Stops after cfg.max_iters
    steps or when ||grad J|| <= grad_tol, where epsilon and grad_tol are the
    constants TvConfig.epsilon and TvConfig.grad_tol. The history holds J
    at the start and after each step, so its last entry is J at the
    returned x. An M0 that is not 2-D, or a y or x_init that is not M or N
    finite values, or a non-finite M0 entry, raises ValueError, as does a
    PoissonSensing, which is the sensing matrix of M0's shape, not M0.

    M0 is copied once into a 64-byte-aligned buffer, so the speed of its
    BLAS products does not depend on where the heap placed the caller's
    array. The descent runs in blocks of _TV_BLOCK steps; iterate k of a
    block has row k of each block buffer, and every row starts on a cache
    line. The chain of step k makes only the calls x_{k+1} depends on:
    r_k = M0 x_k - y; d_k = D x_k, one subtraction, since the row of x_k
    repeats x_k[0] in a halo column; s_k = sqrt(d_k^2 + eps^2);
    g_k = M0^T r_k + lam D^T w for w = d_k / s_k, D^T w one subtraction too,
    as w repeats w[-1] in a head halo; x_{k+1} = x_k - (TV_STEP_ALPHA / L)
    g_k, into the next row, and its halo. After the block, J_k =
    0.5 r_k.r_k + lam sum(s_k) and ||g_k|| are taken for all its rows at
    once. The first k with ||g_k|| <= grad_tol, or the last of the budget,
    ends the descent at x_k, and the block's steps past it are dropped.

    The bits are those of evaluating J and grad J afresh at every iterate
    and testing after each step: every value takes the same floating-point
    operations in the same order. ndarray.dot with out= is the gemv that
    np.matmul calls, a stacked (1 x M) @ (M x 1) matmul is the ddot of
    r.dot(r), a row's np.add.reduce is the pairwise sum of a 1-D reduce, and
    a halo entry is a copy. So the iterates, history, step count and final
    residual equal that loop's bit for bit, as the tests check.
    """
    entries = _m0_entries(m0)
    a = _aligned_empty(entries.shape)
    a[...] = entries
    if not np.isfinite(a).all():
        raise ValueError("m0 entries must be finite")
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    x = a.T @ y if x_init is None else np.array(x_init, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x_init must hold the N={n} grid values, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x_init must be finite")

    epsilon, grad_tol = TvConfig.epsilon, TvConfig.grad_tol
    lam = cfg.lam if cfg.lam is not None else 1e-2 * float(np.linalg.norm(y))
    lipschitz = float(np.linalg.norm(a, 2)) ** 2 + 4.0 * lam / epsilon
    # The ufuncs take the scalars as 0-d arrays, which they convert faster
    # than Python floats, at the same values. L = 0 only for M0 = 0 and
    # lam = 0, where grad J = 0 stops the descent before its first step.
    lam_0d = np.array(lam)
    step = np.array(TV_STEP_ALPHA / lipschitz if lipschitz > 0.0 else 0.0)
    eps_sq = np.array(epsilon * epsilon)
    a_t = a.T

    # Row k of a block's buffers belongs to its k-th iterate. A row of xs is
    # x with a halo column equal to x[0], so d = D x is one subtraction; w
    # has a head halo equal to w[-1], so D^T w is one too.
    xs = _aligned_rows((_TV_BLOCK + 1, n + 1))[0]
    rs, ss, gs = (_aligned_rows((_TV_BLOCK, length))[0] for length in (m, n, n))
    d, w, tv_grad = np.empty(n), np.empty(n + 1), np.empty(n)
    w_prev, w_next = w[:n], w[1:]
    rows = [(xs[k, :n], xs[k, 1:], xs[k + 1, :n], xs[k + 1], rs[k], ss[k], gs[k]) for k in range(_TV_BLOCK)]
    xs[0, :n], xs[0, n] = x, x[0]

    history, done = [], 0  # done: the steps taken before this block
    # Bound once: looking up a step's 13 callables costs ~4 % of the step.
    subtract, multiply, add, divide, sqrt = np.subtract, np.multiply, np.add, np.divide, np.sqrt
    a_dot, a_t_dot = a.dot, a_t.dot
    while True:
        count = min(_TV_BLOCK, cfg.max_iters + 1 - done)  # iterates this block evaluates
        for x_k, x_shifted, x_next, x_next_row, r, s, g in rows[:count]:
            a_dot(x_k, out=r)
            subtract(r, y, r)
            subtract(x_shifted, x_k, d)
            multiply(d, d, s)
            add(s, eps_sq, s)
            sqrt(s, s)
            a_t_dot(r, out=g)
            divide(d, s, w_next)
            w[0] = w[n]
            subtract(w_prev, w_next, tv_grad)
            multiply(tv_grad, lam_0d, tv_grad)
            add(g, tv_grad, g)
            multiply(g, step, tv_grad)
            subtract(x_k, tv_grad, x_next)
            x_next_row[n] = x_next_row[0]
        # Stacked (1 x M) @ (M x 1) products are the ddot of r.dot(r), and
        # a row's reduce is the pairwise sum of the 1-D reduce.
        rr = np.matmul(rs[:count, None], rs[:count, :, None])[:, 0, 0]
        gg = np.matmul(gs[:count, None], gs[:count, :, None])[:, 0, 0]
        history.append(0.5 * rr + lam * np.add.reduce(ss[:count], axis=1))
        stops = np.flatnonzero(np.sqrt(gg) <= grad_tol)
        if stops.size or done + count > cfg.max_iters:
            k = int(stops[0]) if stops.size else count - 1
            break
        done += count
        xs[0] = xs[count]

    history[-1] = history[-1][: k + 1]
    return RecoveryResult(
        recovered=xs[k, :n].copy(),
        iterations=int(done + k),
        final_residual=float(np.linalg.norm(rs[k])),
        objective_history=np.concatenate(history),
    )


def solve(solver: str, operand, y, omp: OmpConfig, tv: TvConfig) -> RecoveryResult:
    """One run of :func:`solve_group`, whose failure is raised. operand is
    an ObservationMatrix or a bare M x N array, or for "omp" alone the
    one-run PoissonSensing of ``poisson_sensing``; a y of other than M
    finite values raises ValueError."""
    if isinstance(operand, PoissonSensing):
        group, m = operand, operand.shape[-2]
    else:
        group = [_m0_entries(operand)]
        m = group[0].shape[0]
    (outcome,) = solve_group(solver, group, _measurements(y, m)[None], omp, tv)
    if isinstance(outcome, RecoveryError):
        raise outcome
    return outcome


def solve_group(solver: str, operands, ys, omp: OmpConfig, tv: TvConfig) -> list[RecoveryResult | RecoveryError]:
    """Orthogonal matching pursuit (see :func:`omp_recover`) on the sensing
    matrices of G runs' operands in lock-step, then for solver "tv"
    :func:`tv_recover` on each run's operand as M0 from its OMP
    reconstruction, which pins the transitions so the descent only flattens
    the ripples between them: run g's result, or the RecoveryError that
    ended it, at index g, a failure being returned, not raised. operands is
    a list of G ObservationMatrix or bare M x N arrays of one shape, or for
    "omp" alone the PoissonSensing of ``poisson_sensing`` at the G runs'
    times, which holds no M0; ys is G x M. A solver not in SOLVERS, and for
    "tv" an operand without M0, raise ValueError before any OMP work."""
    check_choice("solver", solver, SOLVERS)
    if solver == "omp" and isinstance(operands, PoissonSensing):
        return _omp_group(operands, ys, omp)
    # Every other operand is read as M0, which a PoissonSensing refuses.
    m0s = [_m0_entries(operand) for operand in ([operands] if isinstance(operands, PoissonSensing) else operands)]
    outcomes = _omp_group(DenseSensing(sensing_matrix(m0s)), ys, omp)
    if solver == "omp":
        return outcomes
    return [
        outcome if isinstance(outcome, RecoveryError) else tv_recover(m0, y, tv, x_init=outcome.recovered)
        for m0, y, outcome in zip(m0s, ys, outcomes)
    ]
