"""Observation matrices linking a uniform grid to off-grid sample times.

Three constructions of the M x N interpolation matrix whose rows are indexed
by sample times t_m and columns by grid index n. All share the kernel
argument theta = t_m / T - n, which places grid point n at time n*T: sample
times must be measured from the grid origin (subtract t0 first when the grid
does not start at zero).

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
                   inner summation. It is separable in (m, n): the numerator
                   sine is a row factor times the column sign (-1)^n, and
                   sin(pi theta / N) and cos(pi theta / N) follow by angle
                   subtraction from row and column tables. A build takes
                   M + N transcendentals plus a few elementwise M x N passes,
                   and overwrites one near-singular entry per row with
                   :func:`periodized_sinc`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Distance from the nearest multiple of N below which the closed-form kernel
# switches to its removable-singularity limit (exactly 1 for either parity of N).
SINGULARITY_EPS = 1e-9

METHODS = ("naive", "truncated", "poisson")


@dataclass
class ObservationMatrix:
    """Dense M x N interpolation matrix tagged with how it was built."""

    entries: np.ndarray
    method: str
    times: np.ndarray
    interval: float
    n_grid: int
    p_terms: int | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.method not in METHODS:
            raise ValueError(f"unknown construction method {self.method!r}")
        if self.entries.shape != (len(self.times), self.n_grid):
            raise ValueError("entries shape does not match times x grid")
        if self.m > self.n_grid:
            warnings.warn(
                f"M={self.m} exceeds N={self.n_grid}; expected the under-sampled regime M <= N",
                stacklevel=2,
            )

    @property
    def m(self) -> int:
        return self.entries.shape[0]


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
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if interval <= 0:
        raise ValueError("interval must be positive")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    return times


def _kernel_args(times, interval: float, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    times = _check_args(times, interval, n_grid)
    theta = times[:, None] / interval - np.arange(n_grid)[None, :]
    return times, theta


def build_naive(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Single-period sinc interpolation matrix: entry (m, n) = sinc(t_m/T - n)."""
    times, theta = _kernel_args(times, interval, n_grid)
    return ObservationMatrix(np.sinc(theta), "naive", times, interval, n_grid)


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
    times, theta = _kernel_args(times, interval, n_grid)
    half = p_terms // 2
    k = np.round(theta)
    r = theta - k
    sine = np.sin(np.pi * r)
    sine[k % 2 != 0] *= -1.0  # sin(pi theta) = (-1)^k sin(pi r)
    hit = np.abs(r) < np.finfo(float).tiny
    k_hit = k[hit]
    q = max(1, math.ceil(2.0 * max(theta.max(), -theta.min()) / n_grid))
    # k and r are spent: k now holds theta^2 and r the running sum.
    sq = np.multiply(theta, theta, out=k)
    acc = r
    acc.fill(0.0)
    buf = np.empty_like(theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    return ObservationMatrix(entries, "truncated", times, interval, n_grid, p_terms=p_terms)


def build_poisson(times, interval: float, n_grid: int) -> ObservationMatrix:
    """Exact periodized sinc matrix via the closed-form kernel, for either parity of n_grid.

    With u_m = t_m / T = k_m + f_m, k_m = round(u_m) and |f_m| <= 1/2 (both
    exact), the numerator is sin(pi theta) = (-1)^(k_m - n) sin(pi f_m), and
    angle subtraction gives
    sin(pi theta / N) = sin(pi u_m / N) cos(pi n / N) - cos(pi u_m / N) sin(pi n / N)
    (and cos(pi theta / N), which even N also needs, likewise). So a build
    evaluates M + N sines and cosines, and its M x N work is one pass per
    angle-subtraction formula plus a divide. In each row only column
    k_m mod N has theta within 1/2 of a multiple of N; that one entry is
    overwritten with periodized_sinc(f_m, N), which owns the singular limit.
    Every other entry has |sin(pi theta / N)| >= sin(pi / 2N), so the
    ~1e-16 absolute error of the subtraction stays below ~N * 1e-16.
    """
    times = _check_args(times, interval, n_grid)
    u = times / interval
    k = np.round(u)
    f = u - k
    row = np.sin(np.pi * f) / n_grid
    row[k % 2 != 0] *= -1.0
    col = np.arange(n_grid)
    su, cu = np.sin(np.pi / n_grid * u), np.cos(np.pi / n_grid * u)
    cos_sin_n = np.stack([np.cos(np.pi / n_grid * col), np.sin(np.pi / n_grid * col)])
    # Each M x N product below is one einsum pass over a two-term sum of
    # row x column products: elementwise, so no BLAS threads wake, and with
    # no M x N array per term. The column sign rides on the denominator,
    # which is (-1)^n sin(pi theta / N).
    entries = np.einsum("ki,kj->ij", np.stack([su, -cu]), cos_sin_n * (1.0 - 2.0 * (col % 2)))
    # On-grid rows give 0/0 at their overwritten entry.
    with np.errstate(divide="ignore", invalid="ignore"):
        if n_grid % 2:
            np.divide(row[:, None], entries, out=entries)
        else:
            numerator = np.einsum("ki,kj->ij", np.stack([cu, su]) * row, cos_sin_n)
            np.divide(numerator, entries, out=entries)
    entries[np.arange(len(u)), (k % n_grid).astype(int)] = periodized_sinc(f, n_grid)
    return ObservationMatrix(entries, "poisson", times, interval, n_grid)


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
    lines = ["M,N,method,P"]
    p = "" if matrix.p_terms is None else str(matrix.p_terms)
    lines.append(f"{matrix.m},{matrix.n_grid},{matrix.method},{p}")
    for row in matrix.entries:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_csv(path) -> ObservationMatrix:
    """Read a matrix written by :func:`save_matrix_csv`.

    The layout stores entries and tags only, so ``times`` and ``interval``
    come back as NaN placeholders.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "M,N,method,P":
        raise ValueError(f"{path}: not a matrix CSV (missing M,N,method,P header)")
    m_str, n_str, method, p_str = lines[1].split(",")
    m, n = int(m_str), int(n_str)
    p = int(p_str) if p_str else None
    entries = np.array([[float(v) for v in ln.split(",")] for ln in lines[2 : 2 + m]])
    if entries.shape != (m, n):
        raise ValueError(f"{path}: expected {m}x{n} entries, found {entries.shape}")
    return ObservationMatrix(entries, method, np.full(m, np.nan), float("nan"), n, p_terms=p)
