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


def halfcomplex(half, n: int) -> np.ndarray:
    """Real n columns of the complex columns 0..n//2 of half, in halfcomplex
    order: Re 0, then Re j and Im j for j = 1, 2, ... (the Im part of
    even-n Nyquist is left out)."""
    columns = [half[:, 0].real]
    for j in range(1, n // 2 + 1):
        columns += [half[:, j].real, half[:, j].imag]
    return np.column_stack(columns)[:, :n]


def real_dft_basis(n: int) -> np.ndarray:
    """Real n x n basis R with sensing_matrix(m0) == m0.entries @ R: the
    columns of conj(F) in halfcomplex order."""
    return halfcomplex(dft_matrix(n).conj(), n)
