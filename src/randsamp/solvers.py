"""Recovery of sparse spectra and gradient-sparse signals from random samples.

Two solvers:

* :func:`omp_recover` -- orthogonal matching pursuit for real signals on the
  sensing matrix A = M0 Psi* of a real M0, stored real as the columns Re a_j
  and Im a_j. Greedily selects the frequency whose (normalized) column pair
  best correlates with the residual, takes bins j and N-j, then re-fits all
  selected frequencies by real least squares.
* :func:`tv_recover` -- gradient descent on a smoothed total-variation
  objective, for signals whose variation rather than spectrum is sparse:
  J(x) = 0.5 ||M0 x - y||^2 + lam * sum_n sqrt((x[n+1]-x[n])^2 + eps^2)
  with circular differences. The residual and differences computed to
  evaluate J at an accepted step are reused for the next gradient, so a step
  costs one M0 and one M0^T product plus O(N) in-place passes.

Both are single-threaded and deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    """The objective kept increasing through repeated step halvings."""

    def __init__(self, history_length: int):
        self.history_length = history_length
        super().__init__(
            f"objective still increasing after 10 step halvings ({history_length} accepted iterates)"
        )


@dataclass(frozen=True)
class OmpConfig:
    """Stopping rule for orthogonal matching pursuit.

    max_atoms: largest support size, in DFT bins, before stopping; a
        frequency adds its bins j and N-j (DC and Nyquist add one), so the
        final support can exceed it by one bin.
    residual_tol: stop once ||residual|| <= residual_tol * ||y||.
    """

    max_atoms: int = 16
    residual_tol: float = 1e-12

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be at least 1")
        if not 0.0 <= self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be nonnegative and finite, got {self.residual_tol}")


@dataclass(frozen=True)
class TvConfig:
    """Gradient-descent settings for the smoothed total-variation objective.

    step_size is dimensionless: the actual step is step_size / ||M0||_2^2,
    with the operator norm estimated by 20 power iterations. lam = None uses
    the data-scaled default 1e-2 * ||y||_2.
    """

    step_size: float = 1e-2
    lam: float | None = None
    epsilon: float = 1e-3
    max_iters: int = 10_000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.step_size, self.epsilon, self.grad_tol)):
            raise ValueError("step_size, epsilon and grad_tol must be positive and finite")
        if self.lam is not None and not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite (or None for the data-scaled default)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class RecoveryResult:
    """Output of a recovery run.

    recovered: real time-domain signal on the uniform grid.
    spectrum/support: selected DFT coefficients and bins (OMP only).
    residual_history: ||residual|| before the first and after each OMP
        iteration; objective_history: J at the start and after each accepted
        TV step.
    """

    recovered: np.ndarray
    spectrum: np.ndarray | None = None
    support: list[int] | None = None
    iterations: int = 0
    final_residual: float = 0.0
    residual_history: np.ndarray | None = None
    objective_history: np.ndarray | None = None


def _measurements(y, m: int) -> np.ndarray:
    """y as a float array, checked to hold M finite values."""
    y = np.asarray(y, dtype=float)
    if len(y) != m:
        raise ValueError("measurement length does not match matrix rows")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


def omp_recover(sensing, y, cfg: OmpConfig = OmpConfig()) -> RecoveryResult:
    """Greedy recovery of the real signal behind real measurements y.

    sensing is the real M x N sensing matrix of a real M0 (see
    :func:`~randsamp.fourier.sensing_matrix`): Re a_j in columns 0..N//2 and
    Im a_j, j = 1, 2, ..., in the columns after them. A complex matrix or a
    non-finite y raises ValueError. Per iteration: (1) pick the frequency j maximizing
    |<a_j/||a_j||, r>| (ties break to the lowest j) and add bins j and N-j, or
    one bin for DC and Nyquist; (2) least-squares re-fit y over the columns
    Re a_j and Im a_j of the selected frequencies (Re a_j alone for DC and
    Nyquist); (3) update the real residual. Stops when the support reaches
    cfg.max_atoms bins or the residual drops below cfg.residual_tol * ||y||.
    A support that outgrows the M measurements raises OverSelectionError, and
    a rank-deficient re-fit SingularSystemError. The spectrum is Hermitian by
    construction, and the time-domain output is its inverse real FFT.
    """
    a = np.asarray(sensing)
    if np.iscomplexobj(a):
        raise ValueError("sensing matrix must be real, with Re a_j and Im a_j in separate columns")
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    if cfg.max_atoms > n:
        raise ValueError("max_atoms cannot exceed the number of columns")
    h = n // 2 + 1
    with_im = slice(1, n - h + 1)  # frequencies j with a column Im a_j, at h + j - 1
    self_paired = [0] if n % 2 else [0, n // 2]  # bins that are their own partner
    sq_norms = np.einsum("ij,ij->j", a, a)
    sq_norms[with_im] += sq_norms[h:]
    col_norms = np.sqrt(sq_norms[:h])
    col_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    y_norm = float(np.linalg.norm(y))
    residual = y
    corr_im = np.zeros(h)
    picked: list[int] = []  # frequencies
    support: list[int] = []  # their DFT bins
    columns: list[int] = []  # their columns of a, one per real unknown
    coeffs = np.zeros(0)
    history = [y_norm]

    while np.linalg.norm(residual) > cfg.residual_tol * y_norm and len(support) < cfg.max_atoms:
        corr = residual @ a
        corr_im[with_im] = corr[h:]
        score = np.hypot(corr[:h], corr_im) / col_norms
        score[picked] = -1.0
        pick = int(np.argmax(score))
        picked.append(pick)
        paired = pick not in self_paired
        support += [pick, n - pick] if paired else [pick]
        columns += [pick, h + pick - 1] if paired else [pick]
        if len(support) > m:
            raise OverSelectionError(f"support size {len(support)} exceeds the {m} measurements")
        a_sub = a[:, columns]
        coeffs, _, rank, _ = np.linalg.lstsq(a_sub, y, rcond=None)
        if rank < len(columns):
            raise SingularSystemError(support)
        residual = y - a_sub @ coeffs
        history.append(float(np.linalg.norm(residual)))

    # y = sum_j 2 Re(a_j c_j) over the pairs plus a_j c_j at DC and Nyquist,
    # so c_j = (alpha_j - i beta_j) / 2 for the weights of Re a_j and Im a_j.
    w = np.zeros(n)
    w[columns] = coeffs
    half = 0.5 * w[:h] + 0j
    half.imag[with_im] = -0.5 * w[h:]
    half[self_paired] *= 2.0
    return RecoveryResult(
        recovered=np.fft.irfft(half, n=n, norm="ortho"),
        spectrum=np.concatenate((half, half[n - h : 0 : -1].conj())),
        support=support,
        iterations=len(picked),
        final_residual=float(np.linalg.norm(residual)),
        residual_history=np.asarray(history),
    )


def _circular_diff(x, out=None) -> np.ndarray:
    """D x with (D x)[n] = x[n+1] - x[n], n mod N, taken by slicing (no roll)."""
    if out is None:
        out = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=out[:-1])
    out[-1] = x[0] - x[-1]
    return out


def _circular_diff_adjoint(w, out=None) -> np.ndarray:
    """D^T w with (D^T w)[n] = w[n-1] - w[n], n mod N."""
    if out is None:
        out = np.empty_like(w)
    np.subtract(w[:-1], w[1:], out=out[1:])
    out[0] = w[-1] - w[0]
    return out


def _smoothed_magnitude(d, epsilon: float, out=None) -> np.ndarray:
    """sqrt(d^2 + epsilon^2), elementwise."""
    out = np.multiply(d, d, out=out)
    out += epsilon * epsilon
    return np.sqrt(out, out=out)


def total_variation(x, epsilon: float) -> float:
    """Smoothed circular TV: sum_n sqrt((x[n+1]-x[n])^2 + epsilon^2), n mod N."""
    d = _circular_diff(np.asarray(x, dtype=float))
    return float(np.sum(_smoothed_magnitude(d, epsilon)))


def tv_gradient(x, epsilon: float) -> np.ndarray:
    """Analytic gradient of :func:`total_variation`: D^T (d / s) with d = D x
    and s = sqrt(d^2 + epsilon^2)."""
    d = _circular_diff(np.asarray(x, dtype=float))
    return _circular_diff_adjoint(d / _smoothed_magnitude(d, epsilon))


def operator_norm_sq(entries) -> float:
    """Power-iteration estimate of ||A||_2^2 in 20 steps, started from the
    all-ones vector so the estimate is deterministic."""
    a = np.asarray(entries, dtype=float)
    v = np.ones(a.shape[1]) / np.sqrt(a.shape[1])
    for _ in range(20):
        w = a.T @ (a @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 1.0
        v = w / norm_w
    return float(v @ (a.T @ (a @ v)))


def tv_recover(m0, y, cfg: TvConfig = TvConfig(), x_init=None) -> RecoveryResult:
    """Gradient descent on the smoothed-TV objective.

    m0 may be an ObservationMatrix or a bare M x N array. Starts from
    x_init (default M0^T y) and takes fixed steps, halving the step whenever a
    proposal would increase the objective; ten consecutive failed halvings
    raise NonConvergenceError. Stops at cfg.max_iters accepted steps or when
    ||grad J|| <= cfg.grad_tol. A non-finite y raises ValueError.

    Evaluating J at a candidate yields its residual r = M0 x - y, its
    circular differences d = D x and s = sqrt(d^2 + eps^2); once the
    candidate is accepted these give the next gradient M0^T r + lam D^T (d/s)
    without recomputation. An accepted step therefore costs one M0 product
    (for J) and one M0^T product (for the gradient) plus O(N) in-place passes
    into buffers allocated once per solve; each step halving adds one M0
    product. The floating-point operations are those of evaluating J and its
    gradient afresh at every iterate, so the iterates are those of that loop.
    """
    a = np.asarray(getattr(m0, "entries", m0), dtype=float)
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    x = a.T @ y if x_init is None else np.array(x_init, dtype=float)
    if len(x) != n:
        raise ValueError("x_init length does not match matrix columns")

    lam = cfg.lam if cfg.lam is not None else 1e-2 * float(np.linalg.norm(y))
    step = cfg.step_size / operator_norm_sq(a)
    eps = cfg.epsilon

    def objective(r, s):
        return 0.5 * float(r @ r) + lam * float(s.sum())

    # State of the current iterate x; the candidate's goes into the *_c
    # buffers and the two sets swap on acceptance.
    r = np.subtract(a @ x, y)
    d = _circular_diff(x)
    s = _smoothed_magnitude(d, eps)
    x_c, r_c, d_c, s_c = (np.empty_like(v) for v in (x, r, d, s))
    grad, w, tv_grad = np.empty(n), np.empty(n), np.empty(n)

    current = objective(r, s)
    history = [current]
    iterations = 0
    for _ in range(cfg.max_iters):
        np.matmul(a.T, r, out=grad)
        _circular_diff_adjoint(np.divide(d, s, out=w), out=tv_grad)
        tv_grad *= lam
        grad += tv_grad
        if math.sqrt(grad @ grad) <= cfg.grad_tol:
            break
        halvings = 0
        while True:
            np.multiply(grad, step, out=x_c)
            np.subtract(x, x_c, out=x_c)
            np.matmul(a, x_c, out=r_c)
            r_c -= y
            _smoothed_magnitude(_circular_diff(x_c, out=d_c), eps, out=s_c)
            value = objective(r_c, s_c)
            if value <= current:
                break
            halvings += 1
            if halvings >= 10:
                raise NonConvergenceError(len(history))
            step *= 0.5
        x, x_c = x_c, x
        r, r_c = r_c, r
        d, d_c = d_c, d
        s, s_c = s_c, s
        current = value
        iterations += 1
        history.append(current)

    return RecoveryResult(
        recovered=x,
        iterations=iterations,
        final_residual=float(np.linalg.norm(r)),
        objective_history=np.asarray(history),
    )
