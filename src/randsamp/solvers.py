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
  with circular differences. The residual and differences computed to
  evaluate J at an accepted step are reused for the next gradient, so a step
  costs one M0 and one M0^T product plus O(N) in-place passes.

Both are single-threaded and deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def fit_budget(omp: OmpConfig, m: int, n: int) -> OmpConfig:
    """omp with its max_atoms capped to an M x N problem.

    OMP adds a frequency pair's two bins at once and so can overshoot the
    budget by one bin; the cap leaves room for that below M, where the
    over-selection guard would trip, and keeps the budget within N.
    """
    cap = min(omp.max_atoms, max(1, m - 1), n)
    return omp if cap == omp.max_atoms else replace(omp, max_atoms=cap)


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

    sensing is the real M x N sensing matrix of a real M0 in halfcomplex
    order (see :mod:`~randsamp.fourier`): Re a_0, then Re a_j and Im a_j in
    columns 2j - 1 and 2j. A complex matrix or a non-finite y raises
    ValueError. Per iteration: (1) pick the frequency j maximizing
    |<a_j/||a_j||, r>| (ties break to the lowest j) and add bins j and N-j,
    or one bin for DC and Nyquist; (2) orthogonalize its columns Re a_j and
    Im a_j (Re a_j alone for DC and Nyquist) against those selected before,
    by classical Gram-Schmidt applied twice, which extends a[:, S] = Q R over
    the selected columns S; (3) project y onto Q for the residual. Stops when
    the support reaches cfg.max_atoms bins or the residual drops below
    cfg.residual_tol * ||y||; back substitution in R c = Q^T y then gives the
    coefficients, whose residual is the last one tracked.
    A support that outgrows the M measurements raises OverSelectionError. A
    column whose orthogonal remainder is at most M * eps * max_j ||a[:, j]||,
    the rounding floor of a, raises SingularSystemError at that iteration.
    The spectrum is Hermitian by construction, and the time-domain output is
    its inverse real FFT.
    """
    a = np.asarray(sensing)
    if np.iscomplexobj(a):
        raise ValueError("sensing matrix must be real, with Re a_j and Im a_j in separate columns")
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    if cfg.max_atoms > n:
        raise ValueError("max_atoms cannot exceed the number of columns")
    h = n // 2 + 1
    self_paired = [0] if n % 2 else [0, n // 2]  # bins that are their own partner

    # Column c of a is slot c + 1 of `slots`, read as the complex `pairs`:
    # pair j holds the values of Re a_j and Im a_j, and the slots with no
    # column (DC's first, even-N Nyquist's last) stay zero.
    slots = np.zeros(2 * h)
    pairs = slots.view(complex)
    sq_norms = np.einsum("ij,ij->j", a, a)
    slots[1 : n + 1] = sq_norms
    col_norms = np.sqrt(pairs.real + pairs.imag)
    col_norms = np.where(col_norms > 0.0, col_norms, 1.0)
    singular_tol = m * np.finfo(float).eps * math.sqrt(sq_norms.max())
    y_norm = float(np.linalg.norm(y))
    residual = y
    basis = np.empty((min(cfg.max_atoms + 1, m), m))  # orthonormal rows, one per column picked
    r = np.zeros((len(basis), len(basis)))  # a[:, columns] = basis.T @ r, r upper triangular
    picked: list[int] = []  # frequencies
    support: list[int] = []  # their DFT bins
    columns: list[int] = []  # their columns of a, one per real unknown
    history = [y_norm]

    while history[-1] > cfg.residual_tol * y_norm and len(support) < cfg.max_atoms:
        np.matmul(residual, a, out=slots[1 : n + 1])
        score = np.abs(pairs) / col_norms
        score[picked] = -1.0
        pick = int(np.argmax(score))
        picked.append(pick)
        new = [c for c in (2 * pick - 1, 2 * pick) if 0 <= c < n]
        support += [pick, n - pick] if len(new) == 2 else [pick]
        if len(support) > m:
            raise OverSelectionError(f"support size {len(support)} exceeds the {m} measurements")
        for c in new:
            k = len(columns)
            q = basis[:k]
            projection = q @ a[:, c]
            v = a[:, c] - projection @ q
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
        history.append(float(np.linalg.norm(residual)))

    k = len(columns)  # r is triangular, so solve's LU is back substitution
    coeffs = np.linalg.solve(r[:k, :k], basis[:k] @ y)

    # y = sum_j 2 Re(a_j c_j) over the pairs plus a_j c_j at DC and Nyquist,
    # so c_j = (alpha_j - i beta_j) / 2 for the weights of Re a_j and Im a_j,
    # laid out in `slots` with DC's weight moved to its Re slot.
    slots[:] = 0.0
    slots[np.add(columns, 1)] = coeffs
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


def _circular_diff(x) -> np.ndarray:
    """D x with (D x)[n] = x[n+1] - x[n], n mod N, taken by slicing (no roll)."""
    out = np.empty_like(x)
    np.subtract(x[1:], x[:-1], out=out[:-1])
    out[-1] = x[0] - x[-1]
    return out


def _circular_diff_adjoint(w) -> np.ndarray:
    """D^T w with (D^T w)[n] = w[n-1] - w[n], n mod N."""
    out = np.empty_like(w)
    np.subtract(w[:-1], w[1:], out=out[1:])
    out[0] = w[-1] - w[0]
    return out


def _smoothed_magnitude(d, epsilon: float) -> np.ndarray:
    """sqrt(d^2 + epsilon^2), elementwise."""
    return np.sqrt(d * d + epsilon * epsilon)


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


def _aligned_copy(a) -> np.ndarray:
    """A C-ordered copy of the array a whose data starts on a 64-byte cache
    line, cut from an over-allocated byte buffer."""
    raw = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start : start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def tv_recover(m0, y, cfg: TvConfig = TvConfig(), x_init=None) -> RecoveryResult:
    """Gradient descent on the smoothed-TV objective.

    m0 may be an ObservationMatrix or a bare M x N array. Starts from
    x_init (default M0^T y) and takes fixed steps, halving the step whenever a
    proposal would increase the objective; ten consecutive failed halvings
    raise NonConvergenceError. Stops at cfg.max_iters accepted steps or when
    ||grad J|| <= cfg.grad_tol. A non-finite y, M0 entry or x_init raises
    ValueError.

    M0 is copied once into a 64-byte-aligned buffer, so the speed of its
    BLAS products does not depend on where the heap placed the caller's
    array. Evaluating J at a candidate yields its residual r = M0 x - y, its
    circular differences d = D x and s = sqrt(d^2 + eps^2); once the
    candidate is accepted these give the next gradient M0^T r + lam D^T (d/s)
    without recomputation. Two such state sets, their buffers and every
    slice view a step reads or writes are made once per solve, so a step is
    one M0 product (for J) and one M0^T product (for the gradient) plus O(N)
    ufunc passes into those buffers; each step halving adds one M0 product.
    The floating-point operations are those of evaluating J and its
    gradient afresh at every iterate, in the same order, so the iterates are
    those of that loop bit for bit.
    """
    a = _aligned_copy(np.asarray(getattr(m0, "entries", m0), dtype=float))
    if not np.isfinite(a).all():
        raise ValueError("m0 entries must be finite")
    y = _measurements(y, a.shape[0])
    m, n = a.shape
    x = a.T @ y if x_init is None else np.array(x_init, dtype=float)
    if len(x) != n:
        raise ValueError("x_init length does not match matrix columns")
    if not np.isfinite(x).all():
        raise ValueError("x_init must be finite")

    lam = cfg.lam if cfg.lam is not None else 1e-2 * float(np.linalg.norm(y))
    # The ufuncs take the scalars as 0-d arrays, which they convert faster
    # than Python floats, at the same values.
    lam_0d = np.array(lam)
    step = np.array(cfg.step_size / operator_norm_sq(a))
    eps_sq = np.array(cfg.epsilon * cfg.epsilon)
    a_t = a.T

    def new_state(x):
        """An iterate x with buffers for r, d and s, and the views of x and
        d that the circular difference reads and writes."""
        d = np.empty(n)
        return x, np.empty(m), d, np.empty(n), x[1:], x[:-1], d[:-1]

    def evaluate(state):
        """Fill r, d and s from the state's x; return J there."""
        x, r, d, s, x_next, x_prev, d_head = state
        np.matmul(a, x, r)
        np.subtract(r, y, r)
        np.subtract(x_next, x_prev, d_head)
        d[-1] = x[0] - x[-1]
        np.multiply(d, d, s)
        np.add(s, eps_sq, s)
        np.sqrt(s, s)
        return 0.5 * r.dot(r) + lam * np.add.reduce(s)

    # The current iterate's set and the candidate's; they swap on acceptance.
    current_state, candidate_state = new_state(x), new_state(np.empty(n))
    grad, w, tv_grad = np.empty(n), np.empty(n), np.empty(n)
    w_prev, w_next, tv_grad_tail = w[:-1], w[1:], tv_grad[1:]

    current = evaluate(current_state)
    history = [current]
    for _ in range(cfg.max_iters):
        x, r, d, s = current_state[:4]
        np.matmul(a_t, r, grad)
        np.divide(d, s, w)
        np.subtract(w_prev, w_next, tv_grad_tail)
        tv_grad[0] = w[-1] - w[0]
        np.multiply(tv_grad, lam_0d, tv_grad)
        np.add(grad, tv_grad, grad)
        if math.sqrt(grad.dot(grad)) <= cfg.grad_tol:
            break
        x_c = candidate_state[0]
        halvings = 0
        while True:
            np.multiply(grad, step, x_c)
            np.subtract(x, x_c, x_c)
            value = evaluate(candidate_state)
            if value <= current:
                break
            halvings += 1
            if halvings >= 10:
                raise NonConvergenceError(len(history))
            step *= 0.5
        current_state, candidate_state = candidate_state, current_state
        current = value
        history.append(current)

    x, r = current_state[:2]
    return RecoveryResult(
        recovered=x,
        iterations=len(history) - 1,
        final_residual=float(np.linalg.norm(r)),
        objective_history=np.asarray(history),
    )


def solve(solver: str, sensing, m0, y, omp: OmpConfig, tv: TvConfig) -> RecoveryResult:
    """:func:`omp_recover` on the sensing matrix; for solver "tv", then
    :func:`tv_recover` on m0 started from the OMP reconstruction, which pins
    the transitions so the descent only flattens the ripples between them."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    result = omp_recover(sensing, y, omp)
    return tv_recover(m0, y, tv, x_init=result.recovered) if solver == "tv" else result
