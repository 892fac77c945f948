"""Observation matrices linking a uniform grid to off-grid sample times.

Three constructions of the M x N interpolation matrix whose rows are indexed
by sample times t_m and columns by grid index n. All share the kernel
argument theta = t_m / T - n, which places grid point n at time n*T: sample
times must be measured from the grid origin (subtract t0 first when the grid
does not start at zero). The :class:`ObservationMatrix` they return holds
the entries and the method and P tags only, as the CSV layout does.

* ``naive``     -- plain sinc(theta); ignores the periodicity that the DFT
                   imposes on a finite grid.
* ``truncated`` -- sinc periodized over a finite window of P grid repeats,
                   sum_{p=-P/2+1}^{P/2} sinc(theta + p N). Converges slowly
                   (~1/P) to the exact periodization. As
                   sin(pi (theta + p N)) = (-1)^(p N) sin(pi theta), it is
                   evaluated as (sin(pi theta) / pi) *
                   sum_p (-1)^(p N) / (theta + p N): one sine per entry plus
                   an O(P) sum with no trig. Terms +-p with p >= q, where
                   q N >= 2 max|theta|, are summed as one pair
                   2 theta / (theta^2 - (p N)^2), so the sum takes about P/2
                   reciprocal passes, the near-singular |p| < q terms singly.
                   The pairs go in blocks of consecutive p, and a large
                   build sums its two row halves on two threads when two
                   CPUs are available; each entry takes the same roundings
                   in the same order either way, so the matrix is bit for
                   bit the same on any number of CPUs.
* ``poisson``   -- the exact periodization in closed form: the Dirichlet
                   kernel sin(pi theta) / (N tan(pi theta / N)) for even N,
                   sin(pi theta) / (N sin(pi theta / N)) for odd N, with no
                   inner summation. By Poisson summation, row m is the
                   inverse real FFT of the Fourier atoms at u_m = t_m / T,
                   which ``fourier.PoissonSensing`` builds and holds.
                   :func:`periodized_sinc` evaluates the same kernel pointwise.

"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .files import check_choice, check_count, check_undersampled, csv_text, finite_field, grid_units, read_rows, write
from .fourier import PoissonSensing

# Distance from the nearest multiple of N below which the closed-form kernel
# switches to its removable-singularity limit (exactly 1 for either parity of N).
SINGULARITY_EPS = 1e-9

METHODS = ("naive", "truncated", "poisson")

# The truncated build's pairs ±p taken per pass, over groups of rows of about
# _CHUNK entries, whose 1 MB of scratch stays in a 2 MB L2 cache. Fewer p per
# pass leaves calls too small to hide a worker thread's hand-offs of the
# interpreter lock; more spends memory for little gain.
_PAIR_BLOCK = 8
_CHUNK = 16_384
# A truncated build sums its two row halves at once on two CPUs when M N is at
# least _SPLIT_SIZE and the pair work M N (P/2 - q), in divisions, exceeds
# _SPLIT_WORK. Below either, starting the thread and handing the interpreter
# lock back and forth cost more than the second CPU saves, as measured on a
# 2-core x86 host: at M N <= 4 096 two threads ran 1.3-3.1x slower at any P.
_SPLIT_SIZE = 8_192
_SPLIT_WORK = 1_000_000


@dataclass
class ObservationMatrix:
    """Dense M x N interpolation matrix of finite entries, tagged with how it
    was built: method is one of METHODS, and p_terms an even integer >= 2 for
    ``truncated`` and None for the other methods. A NaN or infinite entry
    raises ValueError naming the first one."""

    entries: np.ndarray
    method: str
    p_terms: int | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        _check_tags(self.method, self.p_terms)
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError(f"entries must be a nonempty 2-D array, got shape {self.entries.shape}")
        _check_finite(self.entries, "observation matrix ")
        check_undersampled(self.m, self.n_grid, stacklevel=3)  # past this method and the __init__ dataclass writes

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n_grid(self) -> int:
        return self.entries.shape[1]


def _check_finite(entries: np.ndarray, context: str) -> None:
    """Reject a matrix with a NaN or infinite entry, naming the first one
    after context."""
    if not np.isfinite(entries).all():
        i, j = np.argwhere(~np.isfinite(entries))[0]
        raise ValueError(f"{context}entry [{i}, {j}] is {float(entries[i, j])!r}, not finite")


def periodized_sinc(theta, n_grid: int):
    """Periodized sinc kernel sum_p sinc(theta + p*n_grid) for n_grid >= 2.

    Evaluated through the closed form sin(pi theta) / (n_grid tan(pi theta / n_grid))
    for even n_grid and sin(pi theta) / (n_grid sin(pi theta / n_grid)) for odd
    n_grid. Both have period n_grid, so they are taken at the exactly reduced
    argument theta - n_grid * round(theta / n_grid), which keeps full accuracy
    near theta = k n_grid for k != 0 (rounding in pi theta there costs up to
    ~1e-5 at n_grid ~ 1000 in the unreduced argument). Within
    SINGULARITY_EPS of a multiple of n_grid the removable singularity is
    replaced by its limit, which is 1 for either parity. Accepts scalars or
    arrays; n_grid must be an int or numpy integer.
    """
    check_count("n_grid", n_grid, 2)
    th = np.asarray(theta, dtype=float)
    delta = th - n_grid * np.round(th / n_grid)
    near = np.abs(delta) < SINGULARITY_EPS
    safe = np.where(near, 0.25, delta)
    denominator = np.tan if n_grid % 2 == 0 else np.sin
    out = np.sin(np.pi * safe) / (n_grid * denominator(np.pi * safe / n_grid))
    out = np.where(near, 1.0, out)
    return float(out) if np.ndim(theta) == 0 else out


def _theta(u, n_grid: int, out=None) -> np.ndarray:
    """The kernel arguments theta = u_m - n for the times u in grid units."""
    return np.subtract(u[:, None], np.arange(n_grid)[None, :], out=out)


def build_naive(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Single-period sinc interpolation matrix: entry (m, n) = sinc(t_m/T - n)."""
    return ObservationMatrix(np.sinc(_theta(grid_units(times, interval, n_grid), n_grid)), "naive")


def check_p_terms(p_terms) -> None:
    """Reject a truncation length that is missing or not an even integer >= 2."""
    if p_terms is None:
        raise ValueError("truncated method needs p_terms")
    check_count("p_terms", p_terms, 2, even=True)


def _check_tags(method: str, p_terms) -> None:
    """The rule of the tags: a truncated matrix has an even P >= 2, any other none."""
    check_choice("construction method", method, METHODS)
    if method == "truncated":
        check_p_terms(p_terms)
    elif p_terms is not None:
        raise ValueError(f"only the truncated method takes p_terms, got {p_terms} for {method!r}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scratch(rows: int, n_grid: int, q: int, half: int) -> np.ndarray:
    """The scratch of :func:`_sum_rows` for a part of the given rows."""
    return np.empty((max(1, min(_PAIR_BLOCK, half - q)), min(rows, max(1, _CHUNK // n_grid)) * n_grid))


def _sum_rows(u, theta, out, block, n_grid: int, q: int, half: int) -> None:
    """Write the truncated sum for the rows u (grid units) into out, before
    its sine factor: 2 theta sum_{p=q}^{P/2-1} (-1)^(p N) / (theta^2 - (p N)^2)
    plus the terms |p| < q and p = P/2 singly, in that order. theta holds the
    rows' kernel arguments, which hold their squares while the pairs are
    summed, and block is their _scratch. The rows go in groups of about
    _CHUNK entries, whose scratch stays in cache, and the pairs _PAIR_BLOCK
    consecutive p at a time: one subtraction, one division of the signs
    (-1)^(p N), the running sum added to the first term, and one reduce that
    adds the terms in order. So every entry takes the roundings of adding the
    terms one by one, as the sign's division is exact and a - b == a + (-b).
    """
    step = block.shape[1] // n_grid

    def signs(ps):
        return np.array([-1.0 if n_grid % 2 and p % 2 else 1.0 for p in ps])

    singles = [p for p in range(-half + 1, half + 1) if abs(p) < q or p == half]
    # errstate is per thread: a worker thread starts at numpy's defaults
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, len(u), step):
            rows = slice(lo, lo + step)
            th, acc = theta[rows].reshape(-1), out[rows].reshape(-1)
            acc.fill(0.0)
            if q < half:
                sq = np.multiply(th, th, out=th)[None, :]
                for first in range(q, half, _PAIR_BLOCK):
                    ps = range(first, min(first + _PAIR_BLOCK, half))
                    terms = block[: len(ps), : acc.size]
                    np.subtract(sq, np.array([float(p * n_grid) ** 2 for p in ps])[:, None], out=terms)
                    np.divide(signs(ps)[:, None], terms, out=terms)
                    np.add(acc, terms[0], out=terms[0])
                    np.add.reduce(terms, axis=0, out=acc)
                _theta(u[rows], n_grid, out=theta[rows])
            acc *= th
            acc *= 2.0
            buf = block[0, : acc.size]
            for p, sign in zip(singles, signs(singles)):
                np.add(th, p * n_grid, out=buf)
                np.divide(sign, buf, out=buf)
                acc += buf


def build_truncated(times, interval: float, n_grid: int, p_terms: int) -> ObservationMatrix:
    """Periodized sinc matrix truncated to p_terms repeats, p = -P/2+1 .. P/2.

    Uses sin(pi (theta + p N)) = (-1)^(p N) sin(pi theta) to evaluate
    (sin(pi theta) / pi) * sum_p (-1)^(p N) / (theta + p N): one sine per entry
    plus an O(P) sum with no trig in the loop. The terms p and -p, both in the
    window for 1 <= p < P/2 and of equal sign, are summed as one pair,
    1 / (theta + p N) + 1 / (theta - p N) = 2 theta / (theta^2 - (p N)^2), for
    every p >= q, the least integer >= 1 with q N >= 2 max|theta| over the
    build. There |theta^2 - (p N)^2| >= (3/4) (p N)^2, so the subtraction
    loses nothing, and a pair costs one reciprocal pass where two terms cost
    two; theta^2 is formed once, and the pair sum is scaled by 2 theta once.
    The pairs are summed in blocks of consecutive p, each block's terms
    added to the running sum in order. The near-singular terms |p| < q and
    the unpaired p = P/2 are summed singly. When two CPUs are available, M N
    is at least _SPLIT_SIZE and the pair work M N (P/2 - q) exceeds
    _SPLIT_WORK, the two halves of the rows are summed at once, the second in
    a worker thread whose exception is raised here. Each entry takes the same
    operations in the same order either way, so the matrix is bit for bit
    the same on any number of CPUs. The sine is taken of the exactly
    reduced argument r = theta - round(theta), so entries near a grid hit keep
    full accuracy. Exact hits (r == 0, or r subnormal, where 1 / r overflows)
    get the limit of the sum: 1 where theta + p N == 0 for a p in the window,
    else 0. p_terms must be an even int or numpy integer >= 2.
    """
    check_p_terms(p_terms)
    u = grid_units(times, interval, n_grid)
    theta = _theta(u, n_grid)
    half = p_terms // 2
    q = max(1, math.ceil(2.0 * max(theta.max(), -theta.min()) / n_grid))
    m = split = len(u)
    if m > 1 and theta.size >= _SPLIT_SIZE and theta.size * (half - q) > _SPLIT_WORK and _cpu_count() > 1:
        split = m // 2
    # The scratch is made in this thread, whose heap gives it back when freed
    # (a worker's own heap would keep it resident), and before entries, so
    # freeing it leaves a hole that the sine's arrays refill rather than a
    # heap top that glibc trims and then faults back in.
    scratch = [_scratch(rows, n_grid, q, half) for rows in (split, m - split) if rows]
    entries = np.empty_like(theta)
    worker, errors = None, []
    if split < m:

        def second_half(block):
            try:
                _sum_rows(u[split:], theta[split:], entries[split:], block, n_grid, q, half)
            except BaseException as exc:  # re-raised in the caller below
                errors.append(exc)

        worker = threading.Thread(target=second_half, args=(scratch.pop(),))
        worker.start()
    try:
        _sum_rows(u[:split], theta[:split], entries[:split], scratch[0], n_grid, q, half)
    finally:
        if worker is not None:
            worker.join()
    if errors:
        raise errors[0]
    del scratch  # the worker's went with its thread's arguments
    k = np.round(theta)
    r = theta - k
    sine = np.sin(np.pi * r)
    sine[k % 2 != 0] *= -1.0  # sin(pi theta) = (-1)^k sin(pi r)
    hit = np.abs(r) < np.finfo(float).tiny
    k_hit = k[hit]
    with np.errstate(over="ignore", invalid="ignore"):
        entries *= sine
        entries /= np.pi
    p_hit = -k_hit / n_grid
    entries[hit] = (k_hit % n_grid == 0) & (p_hit > -half) & (p_hit <= half)
    return ObservationMatrix(entries, "truncated", p_terms=p_terms)


def build_poisson(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Exact periodized sinc matrix, for either parity of n_grid.

    By Poisson summation, row m is the inverse DFT of the Fourier atoms
    e^{2 pi i j u_m / N} / sqrt(N) at u_m = t_m / T, conjugated:
    (1/N) sum_j e^{2 pi i j (u_m - n) / N} over the N frequencies nearest 0,
    the Nyquist term read as cos(pi (u_m - n)) for even N. So M0 is the
    inverse real FFT of the atoms of ``fourier.PoissonSensing``. Rows with
    u_m an exact integer are set to the exact unit vector, where the FFT
    leaves ~1e-17 off the diagonal.
    """
    u = grid_units(times, interval, n_grid)
    atoms = PoissonSensing(u, n_grid).atoms()[:, : n_grid // 2 + 1]
    entries = np.fft.irfft(atoms.conj(), n=n_grid, norm="ortho")
    on_grid = np.flatnonzero(u == np.round(u))
    entries[on_grid] = 0.0
    entries[on_grid, (u[on_grid] % n_grid).astype(int)] = 1.0
    return ObservationMatrix(entries, "poisson")


def build(method: str, times, interval: float, n_grid: int, p_terms: int | None = None) -> ObservationMatrix:
    """Build the matrix named by method (one of METHODS; another name
    raises ValueError listing them).

    p_terms is required by ``truncated`` and ignored by the other methods.
    """
    check_choice("construction method", method, METHODS)
    if method == "truncated":
        return build_truncated(times, interval, n_grid, p_terms)
    return (build_naive if method == "naive" else build_poisson)(times, interval, n_grid)


def save_matrix_csv(matrix: ObservationMatrix, path) -> None:
    """Write a matrix in the interchange layout:

    line 1: ``M,N,method,P``  (column names)
    line 2: the four values; P is empty unless method == truncated
    then M rows of N comma-separated entries, row-major, shortest
    round-trip decimals. A matrix whose entries were made non-finite after it
    was built, which :func:`load_matrix_csv` would refuse, raises ValueError
    naming the first one before the file is opened.
    """
    _check_finite(matrix.entries, f"cannot save {path}: ")
    meta = (matrix.m, matrix.n_grid, matrix.method, matrix.p_terms)
    write(csv_text("M,N,method,P", [meta, *matrix.entries]), path)


def load_matrix_csv(path) -> ObservationMatrix:
    """Read a matrix written by :func:`save_matrix_csv`.

    The layout stores the entries and the method and P tags, which is all an
    ObservationMatrix holds. A file that breaks the layout raises ValueError
    naming the file and, where there is one, the line; so does a file that
    cannot be opened or decoded, and line 2 whose P breaks the rule of the
    tags (see :class:`ObservationMatrix`).
    """
    rows = read_rows(path)
    if not rows or rows[0][1] != ["M", "N", "method", "P"]:
        raise ValueError(f"{path}: not a matrix CSV (missing M,N,method,P header)")
    if len(rows) == 1:
        raise ValueError(f"{path}: line {rows[0][0]}: header is not followed by the M,N,method,P values")
    no, fields = rows[1]
    meta = ",".join(fields)
    if len(fields) != 4:
        raise ValueError(f"{path}: line {no}: expected the 4 values M,N,method,P, found {len(fields)}")
    m_str, n_str, method, p_str = fields
    try:
        m, n = int(m_str), int(n_str)
        p = int(p_str) if p_str else None
    except ValueError:
        raise ValueError(f"{path}: line {no}: M, N and P must be integers, got {meta!r}") from None
    try:
        check_count("M", m, 1)
        check_count("N", n, 1)
        _check_tags(method, p)
    except ValueError as exc:
        raise ValueError(f"{path}: line {no}: {exc}") from None
    body = rows[2:]
    if len(body) != m:
        # the first row past M, or the file's last line when rows are missing
        no = body[m][0] if len(body) > m else rows[-1][0]
        raise ValueError(f"{path}: line {no}: expected {m} matrix rows, found {len(body)}")
    entries = np.empty((m, n))
    for i, (no, values) in enumerate(body):
        if len(values) != n:
            raise ValueError(f"{path}: line {no}: expected {n} entries, found {len(values)}")
        entries[i] = [finite_field(path, no, "entry", v) for v in values]
    return ObservationMatrix(entries, method, p_terms=p)
