"""Unitary DFT basis applied with ``np.fft``, plus the composed sensing matrix.

Convention: forward coefficients are
``X[k] = (1/sqrt(N)) sum_n x[n] exp(-2 pi j k n / N)`` for k = 0..N-1, with
negative frequencies stored at index N-k. This is ``np.fft.fft`` with
``norm="ortho"``; the adjoint is ``np.fft.ifft`` with the same norm and is the
exact inverse, so forward/adjoint round trips are the identity to machine
precision and Parseval holds without scale factors. Both cost O(N log N) and
no N x N matrix is formed; :func:`dft_matrix` is kept as the explicit
reference that tests compare the transforms against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix. Cached per size; the array is read-only."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k = np.arange(n)
    # Reduce k*n mod n before exponentiating; keeps phases in [0, 2 pi) so the
    # matrix is unitary to ~1e-15 even for large n.
    phase = np.mod(np.outer(k, k), n)
    mat = np.exp((-2j * np.pi / n) * phase) / np.sqrt(n)
    mat.setflags(write=False)
    return mat


def dft_forward(x) -> np.ndarray:
    """Unitary DFT coefficients of a length-N vector."""
    return np.fft.fft(x, norm="ortho")


def dft_adjoint(coeffs) -> np.ndarray:
    """Inverse of :func:`dft_forward`; maps coefficients back to samples."""
    return np.fft.ifft(coeffs, norm="ortho")


def sensing_matrix(m0) -> np.ndarray:
    """Compose an observation matrix with the adjoint DFT.

    Column j of the result is the observation matrix applied to the j-th
    inverse-transform basis vector, so (result @ dft_forward(x)) equals
    (m0.entries @ x) for any x. Since the adjoint DFT matrix is symmetric,
    this is the inverse transform of each row of M0.
    """
    return np.fft.ifft(m0.entries, axis=1, norm="ortho")
