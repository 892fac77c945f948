"""The explicit unitary DFT matrix: the dense reference that the FFT-based
transforms in randsamp.fourier are tested against."""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix F with F[k, j] = exp(-2 pi i k j / n) / sqrt(n)."""
    k = np.arange(n)
    # Reduce k*j mod n before exponentiating; keeps phases in [0, 2 pi) so the
    # matrix is unitary to ~1e-15 even for large n.
    phase = np.mod(np.outer(k, k), n)
    return np.exp((-2j * np.pi / n) * phase) / np.sqrt(n)
