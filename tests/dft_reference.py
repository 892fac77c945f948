"""The explicit unitary DFT matrix and the real basis of the sensing-matrix
layout: the dense references that the FFT-based transforms in randsamp.fourier
are tested against."""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix F with F[k, j] = exp(-2 pi i k j / n) / sqrt(n)."""
    k = np.arange(n)
    # Reduce k*j mod n before exponentiating; keeps phases in [0, 2 pi) so the
    # matrix is unitary to ~1e-15 even for large n.
    phase = np.mod(np.outer(k, k), n)
    return np.exp((-2j * np.pi / n) * phase) / np.sqrt(n)


def real_dft_basis(n: int) -> np.ndarray:
    """Real n x n basis R with sensing_matrix(m0) == m0.entries @ R: the real
    parts of columns 0..n//2 of conj(F), then the imaginary parts of columns
    1..n - n//2 - 1 (those of DC and even-n Nyquist are zero and left out)."""
    adjoint = dft_matrix(n).conj()
    h = n // 2 + 1
    return np.concatenate((adjoint[:, :h].real, adjoint[:, 1 : n - h + 1].imag), axis=1)
