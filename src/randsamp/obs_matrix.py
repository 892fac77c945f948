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
* ``poisson``   -- the exact periodization in closed form: the Dirichlet
                   kernel sin(pi theta) / (N tan(pi theta / N)) for even N,
                   sin(pi theta) / (N sin(pi theta / N)) for odd N, with no
                   inner summation. By Poisson summation, row m is the
                   inverse DFT of the Fourier atoms e^{2 pi i j u_m / N} /
                   sqrt(N) at u_m = t_m / T, with phases reduced exactly.
                   Each atom is the product of a coarse and a fine factor,
                   whose two small tables ``fourier.poisson_sensing`` holds;
                   a build forms their products and takes one inverse real
                   FFT.
                   :func:`periodized_sinc` evaluates the same kernel pointwise.

"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .files import csv_text, finite_field, read_rows, write

# Distance from the nearest multiple of N below which the closed-form kernel
# switches to its removable-singularity limit (exactly 1 for either parity of N).
SINGULARITY_EPS = 1e-9

METHODS = ("naive", "truncated", "poisson")


@dataclass
class ObservationMatrix:
    """Dense M x N interpolation matrix tagged with how it was built."""

    entries: np.ndarray
    method: str
    p_terms: int | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.method not in METHODS:
            raise ValueError(f"unknown construction method {self.method!r}")
        if self.entries.ndim != 2 or self.entries.size == 0:
            raise ValueError(f"entries must be a nonempty 2-D array, got shape {self.entries.shape}")
        if self.m > self.n_grid:
            message = f"M={self.m} exceeds N={self.n_grid}; expected the under-sampled regime M <= N"
            warnings.warn(message, stacklevel=3)  # past this method and the __init__ dataclass writes

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n_grid(self) -> int:
        return self.entries.shape[1]


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
    arrays.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    th = np.asarray(theta, dtype=float)
    delta = th - n_grid * np.round(th / n_grid)
    near = np.abs(delta) < SINGULARITY_EPS
    safe = np.where(near, 0.25, delta)
    denominator = np.tan if n_grid % 2 == 0 else np.sin
    out = np.sin(np.pi * safe) / (n_grid * denominator(np.pi * safe / n_grid))
    out = np.where(near, 1.0, out)
    return float(out) if np.ndim(theta) == 0 else out


def _check_args(times, interval: float, n_grid: int) -> np.ndarray:
    """Check the builder arguments and return the times in grid units, t / T."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not 0.0 < interval < math.inf:
        raise ValueError(f"interval must be positive and finite, got {interval}")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    with np.errstate(over="ignore"):
        u = times / interval
    if not np.all(np.isfinite(u)):
        raise ValueError(f"times / interval must be finite; interval {interval} overflows it")
    return u


def _kernel_args(times, interval: float, n_grid: int) -> np.ndarray:
    return _check_args(times, interval, n_grid)[:, None] - np.arange(n_grid)[None, :]


def build_naive(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Single-period sinc interpolation matrix: entry (m, n) = sinc(t_m/T - n)."""
    return ObservationMatrix(np.sinc(_kernel_args(times, interval, n_grid)), "naive")


def check_p_terms(p_terms) -> None:
    """Reject a truncation length that is not an even integer >= 2."""
    if p_terms < 2 or p_terms % 2 != 0:
        raise ValueError(f"p_terms must be an even integer >= 2, got {p_terms}")


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
    The near-singular terms |p| < q and the unpaired p = P/2 are summed
    singly. The sine is taken of the exactly reduced argument
    r = theta - round(theta), so entries near a grid hit keep full accuracy.
    Exact hits (r == 0, or r subnormal, where 1 / r overflows) get the limit
    of the sum: 1 where theta + p N == 0 for a p in the window, else 0.
    """
    check_p_terms(p_terms)
    theta = _kernel_args(times, interval, n_grid)
    half = p_terms // 2
    k = np.round(theta)
    r = theta - k
    sine = np.sin(np.pi * r)
    sine[k % 2 != 0] *= -1.0  # sin(pi theta) = (-1)^k sin(pi r)
    hit = np.abs(r) < np.finfo(float).tiny
    k_hit = k[hit]
    q = max(1, math.ceil(2.0 * max(theta.max(), -theta.min()) / n_grid))
    # k and r are spent: k now holds theta^2 and r the running sum.
    acc = r
    acc.fill(0.0)
    buf = np.empty_like(theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # theta^2 overflows only past |theta| ~ 1e154, where q >= P/2 leaves it unread
        sq = np.multiply(theta, theta, out=k)
        for p in range(q, half):
            np.subtract(sq, float(p * n_grid) ** 2, out=buf)
            np.reciprocal(buf, out=buf)
            if n_grid % 2 and p % 2:
                acc -= buf
            else:
                acc += buf
        acc *= theta
        acc *= 2.0
        for p in [p for p in range(-half + 1, half + 1) if abs(p) < q or p == half]:
            np.add(theta, p * n_grid, out=buf)
            np.reciprocal(buf, out=buf)
            if n_grid % 2 and p % 2:
                acc -= buf
            else:
                acc += buf
        entries = np.multiply(acc, sine, out=acc)
        entries /= np.pi
    p_hit = -k_hit / n_grid
    entries[hit] = (k_hit % n_grid == 0) & (p_hit > -half) & (p_hit <= half)
    return ObservationMatrix(entries, "truncated", p_terms=p_terms)


def _poisson_factors(u, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and fine factors of the Fourier atoms e^{2 pi i j u / N} /
    sqrt(N) at u = t / T, for j = 0..N//2. With B = ceil(sqrt(N//2 + 1)),
    atom b B + c is coarse[:, b] * fine[:, c]: coarse is the M x
    ceil((N//2 + 1) / B) table at j = b B, fine the M x B table at j = c,
    scaled by 1 / sqrt(N). With u = k + f, k = round(u), phase j u / N is
    ((j k mod N) + j f) / N, the product j k reduced exactly in integers.
    """
    k = np.round(u)
    f = u - k
    k %= n_grid  # exact, so the integer products below cannot overflow
    k = k.astype(np.int64)
    h = n_grid // 2 + 1
    b = math.isqrt(h - 1) + 1

    def table(j):
        phase = (2.0 * np.pi / n_grid) * (np.outer(k, j) % n_grid + np.outer(f, j))
        out = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
        return out

    return table(b * np.arange(-(-h // b))), table(np.arange(b)) / math.sqrt(n_grid)


def _poisson_atoms(coarse, fine) -> np.ndarray:
    """The M x W table, W >= N//2 + 1, of the atoms with column b B + c
    coarse[:, b] * fine[:, c], for the factors of :func:`_poisson_factors`."""
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(fine), -1)


def build_poisson(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Exact periodized sinc matrix, for either parity of n_grid.

    By Poisson summation, row m is the inverse DFT of the Fourier atoms
    e^{2 pi i j u_m / N} / sqrt(N) at u_m = t_m / T, conjugated:
    (1/N) sum_j e^{2 pi i j (u_m - n) / N} over the N frequencies nearest 0,
    the Nyquist term read as cos(pi (u_m - n)) for even N. So M0 is the
    inverse real FFT of the atoms whose factors ``fourier.poisson_sensing``
    holds, with phases reduced exactly. Rows with u_m an exact integer are
    set to the exact unit vector, where the FFT leaves ~1e-17 off the
    diagonal.
    """
    u = _check_args(times, interval, n_grid)
    atoms = _poisson_atoms(*_poisson_factors(u, n_grid))[:, : n_grid // 2 + 1]
    entries = np.fft.irfft(atoms.conj(), n=n_grid, norm="ortho")
    on_grid = np.flatnonzero(u == np.round(u))
    entries[on_grid] = 0.0
    entries[on_grid, (u[on_grid] % n_grid).astype(int)] = 1.0
    return ObservationMatrix(entries, "poisson")


def build(method: str, times, interval: float, n_grid: int, p_terms: int | None = None) -> ObservationMatrix:
    """Build the matrix named by method (one of METHODS).

    p_terms is required by ``truncated`` and ignored by the other methods.
    """
    if method == "naive":
        return build_naive(times, interval, n_grid)
    if method == "truncated":
        if p_terms is None:
            raise ValueError("truncated method needs p_terms")
        return build_truncated(times, interval, n_grid, p_terms)
    if method == "poisson":
        return build_poisson(times, interval, n_grid)
    raise ValueError(f"unknown construction method {method!r}")


def save_matrix_csv(matrix: ObservationMatrix, path) -> None:
    """Write a matrix in the interchange layout:

    line 1: ``M,N,method,P``  (column names)
    line 2: the four values; P is empty unless method == truncated
    then M rows of N comma-separated entries, row-major, shortest
    round-trip decimals.
    """
    meta = (matrix.m, matrix.n_grid, matrix.method, matrix.p_terms)
    write(csv_text("M,N,method,P", [meta, *matrix.entries]), path)


def load_matrix_csv(path) -> ObservationMatrix:
    """Read a matrix written by :func:`save_matrix_csv`.

    The layout stores the entries and the method and P tags, which is all an
    ObservationMatrix holds. A file that breaks the layout raises ValueError
    naming the file and, where there is one, the line; so does a file that
    cannot be opened or decoded.
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
    if m < 1 or n < 1 or method not in METHODS:
        raise ValueError(f"{path}: line {no}: expected M, N >= 1 and a method in {METHODS}, got {meta!r}")
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
