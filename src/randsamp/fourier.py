"""Unitary DFT basis applied with ``np.fft``, plus the real sensing matrix.

Convention: forward coefficients are
``X[k] = (1/sqrt(N)) sum_n x[n] exp(-2 pi j k n / N)`` for k = 0..N-1, with
negative frequencies stored at index N-k. This is ``np.fft.fft`` with
``norm="ortho"``; the adjoint is ``np.fft.ifft`` with the same norm and is the
exact inverse, so forward/adjoint round trips are the identity to machine
precision and Parseval holds without scale factors. Both cost O(N log N) and
no N x N matrix is formed.

The sensing matrix A = M0 Psi* of a real M0 has a_{N-j} = conj(a_j), so it
is stored real, M x N, in FFTPACK halfcomplex column order:
Re a_0, Re a_1, Im a_1, Re a_2, Im a_2, ..., ending Re a_{N/2} for even N
and Im a_{(N-1)/2} for odd N (the Im parts of DC and even-N Nyquist are zero
and left out). Frequency j >= 1 thus sits in columns 2j - 1 and 2j. That is
the interleaved complex table of a_0..a_{N//2} read as floats from its
second slot, so both producers return a view of the complex table, with
Re a_0 copied into Im a_0's slot, and no second array is made.
:func:`sensing_matrix` takes it as the real FFT of M0's rows, for any M0. For
a ``poisson`` M0 the atoms a_j = e^{2 pi i j u / N} / sqrt(N), u = t / T, are
the one closed form: ``obs_matrix.build_poisson`` is their inverse real FFT,
and :func:`poisson_sensing` lays them out here from the sample times alone.
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


def _halfcomplex(atoms, n_grid: int) -> np.ndarray:
    """Real M x N view, in the halfcomplex layout above, of an M x W complex
    table whose column j is a_j, for W >= N//2 + 1. Overwrites Im a_0."""
    flat = atoms.view(float)
    flat[:, 1] = flat[:, 0]
    return flat[:, 1 : n_grid + 1]


def poisson_sensing(times, interval: float, n_grid: int) -> np.ndarray:
    """Real sensing matrix of ``build_poisson(times, interval, n_grid)``: by
    Poisson summation, the atoms e^{2 pi i j u / N} / sqrt(N) at u = t / T,
    with phases reduced exactly. Times are measured from the grid origin, as
    for the builders. A view of a fresh atom table.
    """
    return _halfcomplex(_poisson_atoms(times, interval, n_grid), n_grid)


def sensing_matrix(m0) -> np.ndarray:
    """Real M x N sensing matrix ``m0.entries @ R`` in the layout above, R
    being the Re and Im parts of the adjoint DFT's columns: the conjugated
    real FFT of M0's rows, whose bin j is a_j. For a ``poisson`` M0 it
    matches :func:`poisson_sensing` at the sample times to ~1e-16.
    """
    half = np.fft.rfft(m0.entries, axis=1, norm="ortho")
    return _halfcomplex(np.conjugate(half, out=half), m0.n_grid)
