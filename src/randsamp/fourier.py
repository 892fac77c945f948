"""Unitary DFT basis applied with ``np.fft``, plus the composed sensing matrix.

Convention: forward coefficients are
``X[k] = (1/sqrt(N)) sum_n x[n] exp(-2 pi j k n / N)`` for k = 0..N-1, with
negative frequencies stored at index N-k. This is ``np.fft.fft`` with
``norm="ortho"``; the adjoint is ``np.fft.ifft`` with the same norm and is the
exact inverse, so forward/adjoint round trips are the identity to machine
precision and Parseval holds without scale factors. Both cost O(N log N) and
no N x N matrix is formed.
"""

from __future__ import annotations

import numpy as np


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
    this is the inverse transform of each row of M0. M0 is real, so that
    transform is taken by ``np.fft.rfft``: columns 0..N//2 are the conjugate
    of the half spectrum, and column j > N//2 is the conjugate of column
    N - j, that is the unconjugated half spectrum read in reverse.
    """
    entries = m0.entries
    n = entries.shape[1]
    half = np.fft.rfft(entries, axis=1, norm="ortho")
    h = half.shape[1]
    out = np.empty(entries.shape, dtype=complex)
    np.conjugate(half, out=out[:, :h])
    out[:, h:] = half[:, n - h : 0 : -1]
    return out
