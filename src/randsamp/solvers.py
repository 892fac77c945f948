"""Recovery of sparse spectra and gradient-sparse signals from random samples.

Two solvers, which :func:`solve` runs as one pipeline step:

* :func:`omp_recover` -- orthogonal matching pursuit for real signals on the
  sensing matrix A = M0 Psi* of a real M0, stored real in halfcomplex order
  (Re a_0, Re a_1, Im a_1, Re a_2, Im a_2, ...). Greedily selects the
  frequency whose (normalized) column pair best correlates with the residual
  and takes bins j and N-j. Classical Gram-Schmidt applied twice factors the
  selected columns as Q R, one column at a time; the residual is y minus its
  projection onto Q, and back substitution in R gives the coefficients. A
  column whose orthogonal remainder is at most M * eps times the largest
  column norm of A raises SingularSystemError.
* :func:`tv_recover` -- gradient descent on a smoothed total-variation
  objective, for signals whose variation rather than spectrum is sparse:
  J(x) = 0.5 ||M0 x - y||^2 + lam * sum_n sqrt((x[n+1]-x[n])^2 + eps^2)
  with circular differences and the constant eps = TvConfig.epsilon, at the
  fixed step TV_STEP_ALPHA / L for L the Lipschitz bound of grad J, for a
  budget of TvConfig.max_iters steps. The residual and differences computed
  to evaluate J at an iterate also give its gradient, so a step costs one
  M0 and one M0^T product plus O(N) in-place passes.

Both are single-threaded and deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .files import check_choice, check_count, check_positive
from .fourier import PoissonSensing

SOLVERS = ("omp", "tv")


class RecoveryError(Exception):
    """A recovery that ended without a result; each subclass keeps its
    RuntimeError or ValueError base."""


class SingularSystemError(RecoveryError, RuntimeError):
    """The least-squares system on the selected support is rank-deficient."""

    def __init__(self, support):
        self.support = list(support)
        super().__init__(f"rank-deficient least-squares system on support {self.support}")


class OverSelectionError(RecoveryError, ValueError):
    """OMP selected more DFT bins than there are measurements."""


class NonConvergenceError(RecoveryError, RuntimeError):
    """A descent that failed to converge. No randsamp solver raises it since
    the TV descent took a fixed step; it stays for code that catches it."""


@dataclass(frozen=True)
class OmpConfig:
    """Stopping rule for orthogonal matching pursuit.

    max_atoms: largest support size, in DFT bins, before stopping, an int
        or numpy integer >= 1; a frequency adds its bins j and N-j (DC and
        Nyquist add one), so the final support can exceed it by one bin.
    residual_tol: stop once ||residual|| <= residual_tol * ||y||.
    """

    max_atoms: int = 16
    residual_tol: float = 1e-12

    def __post_init__(self):
        check_count("max_atoms", self.max_atoms, 1)
        if not 0.0 <= self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be nonnegative and finite, got {self.residual_tol}")


def fit_budget(omp: OmpConfig, m: int, n: int) -> OmpConfig:
    """omp with its max_atoms capped to an M x N problem.

    OMP adds a frequency pair's two bins at once and so can overshoot the
    budget by one bin; the cap leaves room for that below M, where the
    over-selection guard would trip, and keeps the budget within N.
    """
    cap = min(omp.max_atoms, max(1, m - 1), n)
    return omp if cap == omp.max_atoms else replace(omp, max_atoms=cap)


# tv_recover steps by TV_STEP_ALPHA / L, L the Lipschitz bound of grad J;
# any factor below 2 makes every step lower J in exact arithmetic (the
# descent lemma), and one near 2 takes the fewest steps to a given J.
TV_STEP_ALPHA = 1.99


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


@dataclass
class RecoveryResult:
    """Output of a recovery run.

    recovered: real time-domain signal on the uniform grid.
    spectrum/support: selected DFT coefficients and bins (OMP only).
    residual_history: ||residual|| before the first and after each OMP
        iteration; objective_history: J at the start and after each TV
        step.
    """

    recovered: np.ndarray
    spectrum: np.ndarray | None = None
    support: list[int] | None = None
    iterations: int = 0
    final_residual: float = 0.0
    residual_history: np.ndarray | None = None
    objective_history: np.ndarray | None = None


def _matrix(name: str, a: np.ndarray) -> np.ndarray:
    """a, checked to be 2-D."""
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D M x N matrix, got shape {a.shape}")
    return a


def _measurements(y, m: int) -> np.ndarray:
    """y as a float array, checked to hold M finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must hold the M={m} measurements, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


class _DenseSensing:
    """The three reads of :func:`omp_recover`, as on a
    :class:`~randsamp.fourier.PoissonSensing`, of a real M x N array."""

    def __init__(self, a):
        self.a, self.shape = a, a.shape

    def sq_norms(self) -> np.ndarray:
        return np.einsum("ij,ij->j", self.a, self.a)

    def correlate(self, r, out) -> None:
        np.matmul(r, self.a, out=out)

    def column(self, c: int) -> np.ndarray:
        return self.a[:, c]


def omp_recover(sensing, y, cfg: OmpConfig = OmpConfig()) -> RecoveryResult:
    """Greedy recovery of the real signal behind real measurements y.

    sensing is the real M x N sensing matrix of a real M0 in halfcomplex
    order (see :mod:`~randsamp.fourier`): Re a_0, then Re a_j and Im a_j in
    columns 2j - 1 and 2j; either an array or the
    :class:`~randsamp.fourier.PoissonSensing` that ``poisson_sensing``
    returns, which is read without forming the matrix. A complex array or a
    non-finite y raises ValueError. Per iteration: (1) pick the frequency j
    maximizing |<a_j/||a_j||, r>| (ties break to the lowest j) and add bins
    j and N-j, or one bin for DC and Nyquist; (2) orthogonalize its columns
    Re a_j and Im a_j (Re a_j alone for DC and Nyquist) against those
    selected before, by classical Gram-Schmidt applied twice, which extends
    a[:, S] = Q R over the selected columns S; (3) project y onto Q for the
    residual. Stops when the support reaches cfg.max_atoms bins or the
    residual drops below cfg.residual_tol * ||y||; back substitution in
    R c = Q^T y then gives the coefficients, whose residual is the last one
    tracked.
    A support that outgrows the M measurements raises OverSelectionError. A
    column whose orthogonal remainder is at most M * eps * max_j ||a[:, j]||,
    the rounding floor of a, raises SingularSystemError at that iteration.
    The spectrum is Hermitian by construction, and the time-domain output is
    its inverse real FFT. An array that is not 2-D, a y of other than M
    values, or a cfg.max_atoms above N raises ValueError giving the sizes.
    """
    if isinstance(sensing, PoissonSensing):
        a = sensing
    else:
        a = np.asarray(sensing)
        if np.iscomplexobj(a):
            raise ValueError("sensing matrix must be real, with Re a_j and Im a_j in separate columns")
        a = _DenseSensing(_matrix("sensing", a))
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    if cfg.max_atoms > n:
        raise ValueError(f"max_atoms={cfg.max_atoms} exceeds the N={n} columns")
    h = n // 2 + 1
    self_paired = [0] if n % 2 else [0, n // 2]  # bins that are their own partner

    # Column c of a is slot c + 1 of `slots`, read as the complex `pairs`:
    # pair j holds the values of Re a_j and Im a_j, and the slots with no
    # column (DC's first, even-N Nyquist's last) stay zero.
    slots = np.zeros(2 * h)
    pairs = slots.view(complex)
    sq_norms = a.sq_norms()
    slots[1 : n + 1] = sq_norms
    col_norms = np.sqrt(pairs.real + pairs.imag)
    col_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    singular_tol = m * np.finfo(float).eps * math.sqrt(sq_norms.max())
    y_norm = math.sqrt(y.dot(y))
    residual = y
    basis = np.empty((min(cfg.max_atoms + 1, m), m))  # orthonormal rows, one per column picked
    r = np.zeros((len(basis), len(basis)))  # a[:, columns] = basis.T @ r, r upper triangular
    score = np.empty(h)
    is_picked = np.zeros(h, dtype=bool)
    picked: list[int] = []  # frequencies
    support: list[int] = []  # their DFT bins
    columns: list[int] = []  # their columns of a, one per real unknown
    history = [y_norm]

    while history[-1] > cfg.residual_tol * y_norm and len(support) < cfg.max_atoms:
        a.correlate(residual, slots[1 : n + 1])
        np.abs(pairs, out=score)
        np.divide(score, col_norms, out=score)
        np.putmask(score, is_picked, -1.0)
        pick = int(score.argmax())
        is_picked[pick] = True
        picked.append(pick)
        new = [c for c in (2 * pick - 1, 2 * pick) if 0 <= c < n]
        support += [pick, n - pick] if len(new) == 2 else [pick]
        if len(support) > m:
            raise OverSelectionError(f"support size {len(support)} exceeds the {m} measurements")
        for c in new:
            k = len(columns)
            q = basis[:k]
            column = a.column(c)
            projection = q @ column
            v = column - projection @ q
            correction = q @ v
            v -= correction @ q
            r[:k, k] = projection + correction
            r[k, k] = math.sqrt(v @ v)
            if r[k, k] <= singular_tol:
                raise SingularSystemError(support)
            np.divide(v, r[k, k], out=basis[k])
            columns.append(c)
        q = basis[: len(columns)]
        residual = y - (q @ y) @ q
        history.append(math.sqrt(residual.dot(residual)))

    k = len(columns)  # r is triangular, so solve's LU is back substitution
    coeffs = np.linalg.solve(r[:k, :k], basis[:k] @ y)

    # y = sum_j 2 Re(a_j c_j) over the pairs plus a_j c_j at DC and Nyquist,
    # so c_j = (alpha_j - i beta_j) / 2 for the weights of Re a_j and Im a_j,
    # laid out in `slots` with DC's weight moved to its Re slot.
    slots[:] = 0.0
    slots[1:][columns] = coeffs
    slots[:2] = slots[1], 0.0
    half = 0.5 * pairs.conj()
    half[self_paired] *= 2.0
    return RecoveryResult(
        recovered=np.fft.irfft(half, n=n, norm="ortho"),
        spectrum=np.concatenate((half, half[n - h : 0 : -1].conj())),
        support=support,
        iterations=len(picked),
        final_residual=history[-1],
        residual_history=np.asarray(history),
    )


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


def _aligned_copy(a) -> np.ndarray:
    """A C-ordered copy of the array a whose data starts on a 64-byte cache
    line, cut from an over-allocated byte buffer."""
    raw = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start : start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


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
    finite values, or a non-finite M0 entry, raises ValueError.

    M0 is copied once into a 64-byte-aligned buffer, so the speed of its
    BLAS products does not depend on where the heap placed the caller's
    array. Evaluating J at an iterate yields its residual r = M0 x - y, its
    circular differences d = D x and s = sqrt(d^2 + eps^2), which give the
    gradient M0^T r + lam D^T (d/s) without recomputation. These buffers and
    every slice view a step reads or writes are made once per solve, so a
    step is one M0 product (for J) and one M0^T product (for the gradient)
    plus O(N) ufunc passes into them. The floating-point operations are
    those of evaluating J and its gradient afresh at every iterate, in the
    same order, so the iterates are those of that loop bit for bit.
    """
    a = _aligned_copy(_matrix("m0", np.asarray(getattr(m0, "entries", m0), dtype=float)))
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

    r, d, s = np.empty(m), np.empty(n), np.empty(n)
    grad, w, tv_grad = np.empty(n), np.empty(n), np.empty(n)
    x_next, x_prev, d_head = x[1:], x[:-1], d[:-1]
    w_prev, w_next, tv_grad_tail = w[:-1], w[1:], tv_grad[1:]

    history = []
    while True:
        np.matmul(a, x, r)
        np.subtract(r, y, r)
        np.subtract(x_next, x_prev, d_head)
        d[-1] = x[0] - x[-1]
        np.multiply(d, d, s)
        np.add(s, eps_sq, s)
        np.sqrt(s, s)
        history.append(0.5 * r.dot(r) + lam * np.add.reduce(s))
        if len(history) > cfg.max_iters:
            break
        np.matmul(a_t, r, grad)
        np.divide(d, s, w)
        np.subtract(w_prev, w_next, tv_grad_tail)
        tv_grad[0] = w[-1] - w[0]
        np.multiply(tv_grad, lam_0d, tv_grad)
        np.add(grad, tv_grad, grad)
        if math.sqrt(grad.dot(grad)) <= grad_tol:
            break
        np.multiply(grad, step, grad)
        np.subtract(x, grad, x)

    return RecoveryResult(
        recovered=x,
        iterations=len(history) - 1,
        final_residual=float(np.linalg.norm(r)),
        objective_history=np.asarray(history),
    )


def solve(solver: str, sensing, m0, y, omp: OmpConfig, tv: TvConfig) -> RecoveryResult:
    """:func:`omp_recover` on the sensing matrix; for solver "tv", then
    :func:`tv_recover` on m0 started from the OMP reconstruction, which pins
    the transitions so the descent only flattens the ripples between them.
    solver is one of SOLVERS; another name raises ValueError listing them."""
    check_choice("solver", solver, SOLVERS)
    result = omp_recover(sensing, y, omp)
    return tv_recover(m0, y, tv, x_init=result.recovered) if solver == "tv" else result
