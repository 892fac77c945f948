"""The truncated periodized sinc matrix summed one repeat at a time, in one
piece: the plain form that randsamp.obs_matrix.build_truncated, which sums
blocks of repeats and may split the rows over two threads, is tested against
bit for bit. It takes the same arguments in grid units (interval 1)."""

import math

import numpy as np


def truncated_reference(times, n_grid: int, p_terms: int) -> np.ndarray:
    """The M x N entries sum_{p=-P/2+1}^{P/2} sinc(t_m - n + p N) at unit
    interval, as (sin(pi theta) / pi) sum_p (-1)^(p N) / (theta + p N) with
    the pairs +-p, p >= q, summed as 2 theta / (theta^2 - (p N)^2)."""
    theta = np.asarray(times, dtype=float)[:, None] - np.arange(n_grid)[None, :]
    half = p_terms // 2
    k = np.round(theta)
    r = theta - k
    sine = np.sin(np.pi * r)
    sine[k % 2 != 0] *= -1.0  # sin(pi theta) = (-1)^k sin(pi r)
    hit = np.abs(r) < np.finfo(float).tiny
    k_hit = k[hit]
    q = max(1, math.ceil(2.0 * max(theta.max(), -theta.min()) / n_grid))
    acc = np.zeros_like(theta)
    buf = np.empty_like(theta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sq = theta * theta
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
        entries = acc * sine / np.pi
    p_hit = -k_hit / n_grid
    entries[hit] = (k_hit % n_grid == 0) & (p_hit > -half) & (p_hit <= half)
    return entries
