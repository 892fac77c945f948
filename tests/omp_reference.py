"""Orthogonal matching pursuit that re-solves the whole least-squares system
at every iteration: the plain form that randsamp.solvers.omp_recover, which
grows an orthonormal basis instead, is tested against. It reads the same
halfcomplex sensing layout and raises the same errors."""

import numpy as np

from randsamp.solvers import OverSelectionError, SingularSystemError


def omp_reference(a, y, max_atoms: int, residual_tol: float):
    """(support, iterations, recovered, ||residual||) of OMP on the real
    M x N sensing matrix a, whose frequency j has the columns Re a_j and,
    unless j is DC or even-N Nyquist, Im a_j at 2j - 1 and 2j (Re a_0 at 0)."""
    m, n = a.shape
    h = n // 2 + 1
    freq_columns = [list(range(max(2 * j - 1, 0), min(2 * j + 1, n))) for j in range(h)]
    starts = [cols[0] for cols in freq_columns]
    col_norms = np.sqrt(np.add.reduceat(np.sum(a * a, axis=0), starts))
    col_norms[col_norms == 0.0] = 1.0
    y_norm = np.linalg.norm(y)
    residual = y
    picked, support, columns = [], [], []
    coeffs = np.zeros(0)
    while np.linalg.norm(residual) > residual_tol * y_norm and len(support) < max_atoms:
        corr = residual @ a
        score = np.sqrt(np.add.reduceat(corr * corr, starts)) / col_norms
        score[picked] = -1.0
        pick = int(np.argmax(score))
        picked.append(pick)
        support += [pick, n - pick] if len(freq_columns[pick]) == 2 else [pick]
        columns += freq_columns[pick]
        if len(support) > m:
            raise OverSelectionError(f"support size {len(support)} exceeds the {m} measurements")
        a_sub = a[:, columns]
        coeffs, _, rank, _ = np.linalg.lstsq(a_sub, y, rcond=None)
        if rank < len(columns):
            raise SingularSystemError(support)
        residual = y - a_sub @ coeffs

    # A pair's weights alpha, beta of Re a_j and Im a_j give the coefficient
    # (alpha - i beta) / 2 of bin j; DC and Nyquist take their weight whole.
    half = np.zeros(h, dtype=complex)
    weights = dict(zip(columns, coeffs))
    for j in picked:
        re, *im = (weights[c] for c in freq_columns[j])
        half[j] = complex(re, -im[0]) / 2.0 if im else re
    return support, len(picked), np.fft.irfft(half, n=n, norm="ortho"), float(np.linalg.norm(residual))
