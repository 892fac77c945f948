"""Orthogonal matching pursuit for real signals, on groups of runs in lock-step.

:func:`omp_recover` recovers one run on the sensing matrix A = M0 Psi* of
its real M0, stored real in halfcomplex order (Re a_0, Re a_1, Im a_1,
Re a_2, Im a_2, ...). It is a group of one of the lock-step solve that
:func:`~randsamp.solvers.solve_group` runs on G runs of one M and N at
once, each step one stacked numpy call for the group. A run that stops or
fails keeps its slot and steps on with the group until the group's last run
stops; those later steps are not read. Each step greedily
selects the frequency whose (normalized) column pair best correlates with
the residual and takes bins j and N-j. Classical Gram-Schmidt applied twice
factors the selected columns as Q R; the residual is y minus its projection
onto Q, and back substitution in R gives the coefficients. A column whose
orthogonal remainder is at most M * eps times the largest column norm of A
ends its run with SingularSystemError.

The results, errors and settings of every solver are defined here, and
:mod:`~randsamp.solvers` holds them all with the TV descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .files import check_count
from .fourier import DenseSensing, PoissonSensing


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


def _measurements(y, m: int) -> np.ndarray:
    """y as a float array, checked to hold M finite values."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must hold the M={m} measurements, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-ordered float array whose data starts on a 64-byte
    cache line, cut from an over-allocated byte buffer."""
    nbytes = 8 * math.prod(shape)
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(float).reshape(shape)


def _aligned_rows(*shapes) -> list[np.ndarray]:
    """Uninitialised float arrays of the given shapes, cut from one buffer,
    each of whose rows (along the last axis) starts on a 64-byte cache line.
    An OpenBLAS dot kernel may sum a vector that starts off a 16-byte
    boundary in another order (OPENBLAS_CORETYPE=Prescott does), so each
    row is read as a fresh array would be, wherever it sits in the buffer."""
    padded = [(*lead, -(-length // 8) * 8) for *lead, length in shapes]
    sizes = [math.prod(shape) for shape in padded]
    whole, start, out = _aligned_empty((sum(sizes),)), 0, []
    for size, shape, full in zip(sizes, padded, shapes):
        out.append(whole[start : start + size].reshape(shape)[..., : full[-1]])
        start += size
    return out


def _group_sensing(sensing):
    """sensing as the reads of a lock-step solve of one run: a one-run
    PoissonSensing as it is, an array, checked to be a real 2-D matrix, in a
    DenseSensing."""
    if isinstance(sensing, PoissonSensing):
        if len(sensing.shape) != 2:
            raise ValueError(f"sensing must hold one run, got shape {sensing.shape}")
        return sensing
    a = np.asarray(sensing)
    if np.iscomplexobj(a):
        raise ValueError("sensing matrix must be real, with Re a_j and Im a_j in separate columns")
    if a.ndim != 2:
        raise ValueError(f"sensing must be a 2-D M x N matrix, got shape {a.shape}")
    return DenseSensing(a[None])


def omp_recover(sensing, y, cfg: OmpConfig = OmpConfig()) -> RecoveryResult:
    """Greedy recovery of the real signal behind real measurements y, by
    orthogonal matching pursuit; a failure is raised.

    sensing is the real M x N sensing matrix of a real M0 in halfcomplex
    order (see :mod:`~randsamp.fourier`): Re a_0, then Re a_j and Im a_j in
    columns 2j - 1 and 2j; either an array or the one-run
    :class:`~randsamp.fourier.PoissonSensing` that ``poisson_sensing``
    returns, which is read without forming the matrix. An array that is not
    2-D or is complex, an entry or column norm that is not finite, a y of
    other than M finite values, or a cfg.max_atoms above N raises
    ValueError giving the sizes. Per iteration: (1) pick the frequency j
    maximizing |<a_j/||a_j||, r>| (ties break to the lowest j) and add bins
    j and N-j, or one bin for DC and Nyquist; (2) orthogonalize its columns
    Re a_j and Im a_j against those selected before, by classical
    Gram-Schmidt applied twice, which extends a[:, S] = Q R over the
    selected columns S; DC and Nyquist take a zero row of Q with R's
    diagonal 1 in place of Im a_j, so that every run has two rows per
    frequency; (3) project y onto Q for the residual. The run stops when its
    support reaches cfg.max_atoms bins or its residual drops below
    cfg.residual_tol * ||y||; back substitution in R c = Q^T y then gives
    its coefficients, whose residual is the last one tracked. A support that
    outgrows the M measurements ends the run with OverSelectionError, and a
    column whose orthogonal remainder is at most M * eps * max_j ||a[:, j]||,
    the rounding floor of a, with SingularSystemError at that iteration.
    The spectrum is Hermitian by construction, and the time-domain output is
    its inverse real FFT.
    """
    a = _group_sensing(sensing)
    (outcome,) = _omp_group(a, _measurements(y, a.shape[-2])[None], cfg)
    if isinstance(outcome, RecoveryError):
        raise outcome
    return outcome


def _omp_group(a, ys, cfg: OmpConfig) -> list[RecoveryResult | RecoveryError]:
    """The pursuit of :func:`omp_recover` on G runs of one M and N in
    lock-step: run g's RecoveryResult, or the RecoveryError that ended it,
    at index g. a holds the G runs' sensing matrices as a DenseSensing or a
    PoissonSensing, and ys is G x M.

    Each step is one stacked numpy call for the whole group, the runs that
    have stopped among them, whose items are the products one run alone
    takes, on rows that start on a cache line wherever they sit; so a run's
    result does not depend on the runs solved with it.
    """
    g, m, n = (1, *a.shape) if len(a.shape) == 2 else a.shape
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (g, m):
        raise ValueError(f"ys must hold the M={m} measurements of each of the G={g} runs, got shape {ys.shape}")
    if not np.isfinite(ys).all():
        raise ValueError("measurements must be finite")
    if cfg.max_atoms > n:
        raise ValueError(f"max_atoms={cfg.max_atoms} exceeds the N={n} columns")
    outcomes, stopped = _omp_lock_step(a, ys, g, cfg)
    # Built once the solve's work arrays are freed.
    for ids, *ending in stopped:
        for i, result in zip(ids, _omp_results(*ending, n)):
            outcomes[i] = result
    return outcomes


def _omp_lock_step(a, ys, g: int, cfg: OmpConfig) -> tuple[list, list]:
    """The loop of :func:`_omp_group`: each run's RecoveryError, or None
    where it stopped, and for each number k of picks that runs stopped
    after, their ids and what :func:`_omp_results` takes. Every run keeps
    its slot until the group's last run stops. One that stops or fails
    takes a stop threshold, -1, and a budget, N + 1, that it cannot meet,
    and steps on with the others; its later steps write only past its first
    k picks and the rows of R, Q^T y and the history that they fill, which
    its result is read from. A failure is kept unraised: a traceback kept
    with it would hold the frames of the whole solve, its caller's list of
    outcomes among them, in a reference cycle."""
    m, n = a.shape[-2:]
    width = np.full(n // 2 + 1, 2)  # bins per frequency
    width[[0, n // 2] if n % 2 == 0 else [0]] = 1
    state, (rest, score, atom, here) = _omp_state(a, ys, g, cfg)
    col_norms, singular_tol, y, residual, basis, r, weights, history, stop, budget, is_picked, picks, bins = state
    outcomes: list = [None] * g
    taken: list = [None] * g  # the picks of each run that stopped
    going, it = g, 0
    ending = history[:, 0] <= stop

    while True:
        if np.count_nonzero(ending):
            for i in np.flatnonzero(ending):
                taken[i] = it
            stop[ending], budget[ending] = -1.0, n + 1
            going -= np.count_nonzero(ending)
        if not going:
            break

        np.abs(a.correlate(residual), out=score)
        np.divide(score, col_norms, out=score)
        np.putmask(score, is_picked, -1.0)
        pick = score.argmax(axis=1)
        is_picked[here, pick] = True
        picks[:, it] = pick
        wide = width[pick]
        bins += wide
        if 2 * it + 2 > m and np.count_nonzero(bins > m):
            for i in np.flatnonzero((bins > m) & (budget <= n)):  # runs still going
                outcomes[i] = OverSelectionError(f"support size {bins[i]} exceeds the {m} measurements")
                stop[i], budget[i], going = -1.0, n + 1, going - 1
        a.atom(pick, atom)
        single = wide == 1  # DC and Nyquist: a zero Im column
        if np.count_nonzero(single):
            atom.imag[single] = 0.0
        else:
            single = None
        singular = _orthonormalize(basis, r, atom, rest, 2 * it, single, singular_tol)
        if singular is not None:
            for i in np.flatnonzero(singular & (budget <= n)):  # runs still going
                outcomes[i] = SingularSystemError(_supports(picks[i : i + 1, : it + 1], n)[0])
                stop[i], budget[i], going = -1.0, n + 1, going - 1
        np.matmul(basis[:, 2 * it : 2 * it + 2], y[:, :, None], out=weights[:, 2 * it : 2 * it + 2, None])
        it += 1
        np.subtract(y, np.matmul(weights[:, None, : 2 * it], basis[:, : 2 * it])[:, 0], out=residual)
        history[:, it] = np.sqrt(np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0])
        ending = (history[:, it] <= stop) | (bins >= budget)

    stopped = []
    for k in {k for k in taken if k is not None}:
        ids = [i for i, one in enumerate(taken) if one == k]
        stopped.append((ids, r[ids, : 2 * k, : 2 * k], weights[ids, : 2 * k], picks[ids, :k], history[ids, : k + 1]))
    return outcomes, stopped


def _omp_state(a, ys, g: int, cfg: OmpConfig) -> tuple[list, list]:
    """The state arrays of a lock-step solve, in the order _omp_lock_step
    unpacks them, and its work arrays."""
    m, n = a.shape[-2:]
    h = n // 2 + 1
    # A run takes at most this many frequencies, the last of them one that
    # outgrows M: each adds two bins, but DC and Nyquist one.
    most = min(cfg.max_atoms + 3, m + 4) // 2

    sq_norms = a.sq_norms().reshape(g, n)
    if not np.isfinite(sq_norms).all():
        raise ValueError("sensing matrix entries and their column norms must be finite")
    # ||Re a_j||^2 + ||Im a_j||^2 per frequency, read from the halfcomplex
    # columns: Re a_0, then Re a_j and Im a_j side by side.
    full = (n - 1) // 2  # frequencies with both columns
    col_norms = np.empty((g, h))
    col_norms[:, 0] = sq_norms[:, 0]
    np.add(sq_norms[:, 1 : 2 * full : 2], sq_norms[:, 2 : 2 * full + 1 : 2], out=col_norms[:, 1 : full + 1])
    if n % 2 == 0:
        col_norms[:, -1] = sq_norms[:, -1]
    np.sqrt(col_norms, out=col_norms)
    col_norms[col_norms == 0.0] = 1.0
    singular_tol = m * np.finfo(float).eps * np.sqrt(sq_norms.max(axis=1))

    # Every float array of the solve is cut from one buffer, rows aligned.
    # basis: orthonormal rows, two per frequency, with a[:, columns] =
    # basis.T @ r, r upper triangular; weights: basis @ y; history:
    # ||residual|| before the first and after each step; atom: a run's pick,
    # whose Re and Im parts are the columns it adds.
    y, residual, basis, r, weights, history, rest, score, atom = _aligned_rows(
        (g, m), (g, m), (g, 2 * most, m), (g, 2 * most, 2 * most), (g, 2 * most), (g, most + 1), (g, 2, m), (g, h),
        (g, 2 * m),
    )
    y[...] = residual[...] = ys
    r[...] = 0.0
    history[:, 0] = np.sqrt(np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0])
    stop = cfg.residual_tol * history[:, 0]
    is_picked = np.zeros((g, h), dtype=bool)
    picks = np.empty((g, most), dtype=int)  # frequencies, in the order picked
    bins = np.zeros(g, dtype=int)  # support sizes
    budget = np.full(g, cfg.max_atoms)
    state = [col_norms, singular_tol, y, residual, basis, r, weights, history, stop, budget, is_picked, picks, bins]
    return state, [rest, score, atom.view(complex), np.arange(g)]


def _orthonormalize(basis, r, atom, rest, k: int, single, singular_tol):
    """Extend the k rows of every run's basis and R by the atom's Re and Im
    columns, rows k and k + 1, by classical Gram-Schmidt applied twice: the
    pair against the rows before, then Im against Re's new row. The runs in
    single, if not None, take a zero row k + 1 with R's diagonal 1. Returns
    the runs whose column fell to the rank floor singular_tol, or None."""
    q = basis[:, :k]
    pair = atom.view(float).reshape(*atom.shape, 2)  # M x 2 per run: Re a_j, Im a_j
    projection = np.matmul(q, pair)
    np.subtract(pair.transpose(0, 2, 1), np.matmul(projection.transpose(0, 2, 1), q), out=rest)
    correction = np.matmul(q, rest.transpose(0, 2, 1))
    rest -= np.matmul(correction.transpose(0, 2, 1), q)
    np.add(projection, correction, out=r[:, :k, k : k + 2])

    re, im, singular = rest[:, 0], rest[:, 1], None
    for row, column, q in ((k, re, None), (k + 1, im, basis[:, k : k + 1])):
        if q is not None:
            projection = np.matmul(q, column[:, :, None])
            column -= np.matmul(projection.transpose(0, 2, 1), q)[:, 0]
            correction = np.matmul(q, column[:, :, None])
            column -= np.matmul(correction.transpose(0, 2, 1), q)[:, 0]
            np.add(projection, correction, out=r[:, k : k + 1, row : row + 1])
        norm = np.sqrt(np.matmul(column[:, None, :], column[:, :, None])[:, 0, 0])
        if q is not None and single is not None:
            norm[single] = 1.0
        low = norm <= singular_tol
        if np.count_nonzero(low):
            singular = low if singular is None else singular | low
        if singular is not None:
            norm[singular] = 1.0  # a failed run's later steps are not read
        r[:, row, row] = norm
        np.divide(column, norm[:, None], out=basis[:, row])
    return singular


def _supports(picks, n: int) -> list[list[int]]:
    """Per row of picks, the DFT bins of its frequencies: j and N-j, or j
    alone for DC and Nyquist."""
    bins = np.stack((picks, n - picks), axis=-1).reshape(len(picks), -1)
    keep = np.ones(bins.shape, dtype=bool)
    keep[:, 1::2] = (picks != 0) & (2 * picks != n)
    return [row[kept].tolist() for row, kept in zip(bins, keep)]


def _omp_results(r, weights, picks, history, n: int) -> list[RecoveryResult]:
    """The results of runs that stopped after their len(picks[0]) picks,
    from their R, their weights Q^T y, picks and residual histories."""
    h = n // 2 + 1
    # r is triangular, so solve's LU is back substitution.
    coeffs = np.linalg.solve(r, weights[:, :, None])[:, :, 0]

    # y = sum_j 2 Re(a_j c_j) over the pairs plus a_j c_j at DC and Nyquist,
    # so c_j = (alpha_j - i beta_j) / 2 for the weights alpha_j, beta_j of
    # Re a_j and Im a_j; the weight of DC's and Nyquist's zero row of Q is
    # left out.
    spectrum = np.zeros((len(picks), n), dtype=complex)
    half = spectrum[:, :h]
    runs = np.arange(len(picks))[:, None]
    half.real[runs, picks] = coeffs[:, 0::2]
    half.imag[runs, picks] = np.where((picks != 0) & (2 * picks != n), coeffs[:, 1::2], 0.0)
    np.conjugate(half, out=half)
    half *= 0.5
    half[:, [0] if n % 2 else [0, n // 2]] *= 2.0
    np.conjugate(half[:, n - h : 0 : -1], out=spectrum[:, h:])
    recovered = np.fft.irfft(half, n=n, norm="ortho")
    return [
        RecoveryResult(
            recovered=recovered[d],
            spectrum=spectrum[d],
            support=support,
            iterations=picks.shape[1],
            final_residual=float(history[d, -1]),
            residual_history=history[d],
        )
        for d, support in enumerate(_supports(picks, n))
    ]
