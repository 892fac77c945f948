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
second slot, with Re a_0 copied into Im a_0's slot, so no second array is
made. :func:`sensing_matrix` takes it as the real FFT of M0's rows, for any
M0, and returns such a view.

For a ``poisson`` M0 the atoms a_j = e^{2 pi i j u / N} / sqrt(N), u = t / T,
are the one closed form. :class:`PoissonSensing` builds and holds them, as
two small factor tables that OMP reads without forming the matrix, and
``obs_matrix.build_poisson`` is their inverse real FFT.
"""

from __future__ import annotations

import math

import numpy as np

from .files import grid_units


def dft_forward(x) -> np.ndarray:
    """Unitary DFT coefficients of a length-N vector."""
    return np.fft.fft(x, norm="ortho")


def dft_adjoint(coeffs) -> np.ndarray:
    """Inverse of :func:`dft_forward`; maps coefficients back to samples."""
    return np.fft.ifft(coeffs, norm="ortho")


def _halfcomplex(atoms, n_grid: int) -> np.ndarray:
    """Real view, in the halfcomplex layout above, of a complex array whose
    last axis holds a_j at index j, for at least N//2 + 1 indices.
    Overwrites Im a_0."""
    flat = atoms.view(float)
    flat[..., 1] = flat[..., 0]
    return flat[..., 1 : n_grid + 1]


class PoissonSensing:
    """Real M x N sensing matrix of a ``poisson`` M0 at the times u in grid
    units, held as the coarse and fine factor tables of its atoms: with
    B = ceil(sqrt(N//2 + 1)), atom j = b B + c is coarse[:, b] * fine[:, c],
    coarse being the M x ceil((N//2 + 1) / B) table at j = b B and fine the
    M x B table at j = c, scaled by 1 / sqrt(N). That is O(M sqrt(N))
    numbers in place of M N; ``np.asarray`` forms the dense matrix. With
    u = k + f, k = round(u), phase j u / N is ((j k mod N) + j f) / N, the
    product j k reduced exactly in integers.

    The three reads of :func:`~randsamp.solvers.omp_recover` cost
    O(M sqrt(N)) memory: a correlation is one complex product
    coarse^T diag(r) fine, and a column is the product of a coarse and a
    fine column. A correlation writes into work buffers the instance
    keeps, so one instance serves one solve at a time.
    """

    def __init__(self, u, n_grid: int):
        k = np.round(u)
        f = u - k
        k %= n_grid  # exact, so the integer products below cannot overflow
        k = k.astype(np.int64)
        h = n_grid // 2 + 1
        b = math.isqrt(h - 1) + 1

        def table(j):
            phase = (2.0 * np.pi / n_grid) * (np.outer(k, j) % n_grid + np.outer(f, j))
            out = np.empty(phase.shape, dtype=complex)
            np.cos(phase, out=out.real)
            np.sin(phase, out=out.imag)
            return out

        self.coarse, self.fine = table(b * np.arange(-(-h // b))), table(np.arange(b)) / math.sqrt(n_grid)
        self.n_grid = n_grid
        self.shape = (len(u), n_grid)
        self._scaled = np.empty_like(self.fine)
        self._correlations = np.empty((self.coarse.shape[1], b), dtype=complex)
        self._flat = self._correlations.reshape(-1).view(float)

    def atoms(self) -> np.ndarray:
        """The M x W table, W >= N//2 + 1, whose column j is atom j."""
        return (self.coarse[:, :, None] * self.fine[:, None, :]).reshape(len(self.fine), -1)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(_halfcomplex(self.atoms(), self.n_grid), dtype=dtype)

    def sq_norms(self) -> np.ndarray:
        """Squared norm of every column. Every atom has modulus 1 / sqrt(N),
        so sum |a_j|^2 = M / N, and ||Re a_j||^2 and ||Im a_j||^2 are half
        the sum and the difference of that and Re sum a_j^2."""
        m, n = self.shape
        square = (np.square(self.coarse).T @ np.square(self.fine)).real.reshape(-1)
        norms = np.empty(len(square), dtype=complex)
        np.add(m / n, square, out=norms.real)
        np.subtract(m / n, square, out=norms.imag)
        return 0.5 * _halfcomplex(norms, n)

    def correlate(self, r, out) -> None:
        """Write r @ A, the correlation of r with every column, into out."""
        np.multiply(self.fine, r[:, None], out=self._scaled)
        np.matmul(self.coarse.T, self._scaled, out=self._correlations)
        flat = self._flat
        flat[1] = flat[0]  # the halfcomplex layout, as _halfcomplex reads it
        out[:] = flat[1 : self.n_grid + 1]

    def column(self, c: int) -> np.ndarray:
        """Column c: Re a_j for c = 0 and c = 2j - 1, Im a_j for c = 2j. A
        strided view of a_j, as a column of the dense matrix is, so that the
        BLAS products OMP takes of it round alike."""
        j = (c + 1) // 2
        b = self.fine.shape[1]
        atom = self.coarse[:, j // b] * self.fine[:, j % b]
        return atom.imag if c and c % 2 == 0 else atom.real


def poisson_sensing(times, interval: float, n_grid: int) -> PoissonSensing:
    """Real sensing matrix of ``build_poisson(times, interval, n_grid)``: by
    Poisson summation, the atoms e^{2 pi i j u / N} / sqrt(N) at u = t / T,
    with phases reduced exactly. Times are measured from the grid origin, as
    for ``build_poisson``.
    """
    return PoissonSensing(grid_units(times, interval, n_grid), n_grid)


def sensing_matrix(m0) -> np.ndarray:
    """Real M x N sensing matrix ``m0.entries @ R`` in the layout above, R
    being the Re and Im parts of the adjoint DFT's columns: the conjugated
    real FFT of M0's rows, whose bin j is a_j. For a ``poisson`` M0 it
    matches :func:`poisson_sensing` at the sample times to ~1e-16.
    """
    half = np.fft.rfft(m0.entries, axis=1, norm="ortho")
    return _halfcomplex(np.conjugate(half, out=half), m0.n_grid)
