"""Unitary DFT basis applied with ``np.fft``, plus the real sensing matrix.

Convention: forward coefficients are
``X[k] = (1/sqrt(N)) sum_n x[n] exp(-2 pi j k n / N)`` for k = 0..N-1, with
negative frequencies stored at index N-k. This is ``np.fft.fft`` with
``norm="ortho"``; the adjoint is ``np.fft.ifft`` with the same norm and is the
exact inverse, so forward/adjoint round trips are the identity to machine
precision and Parseval holds without scale factors. Both cost O(N log N) and
no N x N matrix is formed.

The sensing matrix A = M0 Psi* of a real M0 has a_{N-j} = conj(a_j), so it
is stored real, M x N: Re a_j for j = 0..N//2, then Im a_j for j = 1, 2, ...
(the Im parts of DC and even-N Nyquist are zero and left out). For a
``poisson`` M0 the atoms a_j = e^{2 pi i j u / N} / sqrt(N), u = t / T, are
the one closed form: ``obs_matrix.build_poisson`` is their inverse real FFT,
and :func:`poisson_sensing` lays the same table out here.
"""

from __future__ import annotations

import numpy as np

from .obs_matrix import _poisson_atoms


def dft_forward(x) -> np.ndarray:
    """Unitary DFT coefficients of a length-N vector."""
    return np.fft.fft(x, norm="ortho")


def dft_adjoint(coeffs) -> np.ndarray:
    """Inverse of :func:`dft_forward`; maps coefficients back to samples."""
    return np.fft.ifft(coeffs, norm="ortho")


def poisson_sensing(times, interval: float, n_grid: int) -> np.ndarray:
    """Real sensing matrix of ``build_poisson(times, interval, n_grid)``: by
    Poisson summation, the atoms e^{2 pi i j u / N} / sqrt(N) at u = t / T,
    with phases reduced exactly. Times are measured from the grid origin, as
    for the builders.
    """
    atoms = _poisson_atoms(times, interval, n_grid)
    return np.concatenate((atoms.real, atoms.imag[:, 1 : n_grid - n_grid // 2]), axis=1)


def sensing_matrix(m0) -> np.ndarray:
    """Real M x N sensing matrix ``m0.entries @ R`` in the layout above, R
    being the Re and Im parts of the adjoint DFT's columns: from the atoms
    for a ``poisson`` matrix with finite times, else (e.g. times NaN, as
    ``load_matrix_csv`` gives) from the real FFT of M0's rows, whose bin j is
    the conjugate of a_j.
    """
    if m0.method == "poisson" and np.isfinite(m0.times).all():
        return poisson_sensing(m0.times, m0.interval, m0.n_grid)
    n = m0.n_grid
    half = np.fft.rfft(m0.entries, axis=1, norm="ortho")
    return np.concatenate((half.real, -half.imag[:, 1 : n - n // 2]), axis=1)
