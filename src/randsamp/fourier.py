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
are the one closed form. :class:`PoissonSensing` builds and holds them, for
one run or a group of runs, as two small factor tables that OMP reads
without forming the matrix, and ``obs_matrix.build_poisson`` is their
inverse real FFT. :class:`DenseSensing` gives OMP the same reads of sensing
matrices held whole. A solve reads every run of its group at every step,
those that have stopped too, so neither is ever cut to a subset of its runs.
"""

from __future__ import annotations

import math

import numpy as np

from .files import check_undersampled, grid_units


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
    """Real M x N sensing matrices of ``poisson`` M0s at the times u in grid
    units: one run's, for u of shape (M,), or a group of G runs' of one M,
    for u of shape (G, M). ``shape`` is u.shape + (N,), and ``np.asarray``
    forms the dense matrices in it.

    A run's atoms are held as the coarse and fine factor tables of their
    products: with B = ceil(sqrt(N//2 + 1)), atom j = b B + c is
    coarse[:, b] * fine[:, c], coarse being the M x ceil((N//2 + 1) / B)
    table at j = b B and fine the M x B table at j = c, scaled by
    1 / sqrt(N). That is O(M sqrt(N)) numbers in place of M N. The G runs'
    tables are stacked as (G, M, .) arrays. With u = k + f, k = round(u),
    phase j u / N is ((j k mod N) + j f) / N, the product j k reduced
    exactly in integers.

    OMP's reads (see :mod:`~randsamp.omp`) take every run of the group at
    once and cost O(M sqrt(N)) memory per run: a correlation is
    coarse^T diag(r) fine, taken as one stacked real product over the group,
    an atom, a frequency's two columns, the product of a coarse and a fine
    column, and the column norms are known in closed form. An instance
    holds one group's tables and the work buffers of its correlations,
    which serve one solve at a time.
    """

    def __init__(self, u, n_grid: int):
        u = np.asarray(u, dtype=float)
        runs = u.reshape(-1, u.shape[-1])
        g, m = runs.shape
        h = n_grid // 2 + 1
        b = math.isqrt(h - 1) + 1
        c = -(-h // b)
        self.n_grid, self.shape = n_grid, u.shape + (n_grid,)
        # The tables of the g runs, and their correlations, fine tables
        # scaled by a residual and the real products of a correlation.
        shapes = ((g, m, c), (g, m, b), (g, c, b), (g, m, b), (g, 2 * c, b))
        # One allocation holds them all: freed whole, the allocator keeps it
        # for the next instance rather than handing its pages back.
        whole = np.empty(sum(math.prod(shape) for shape in shapes), dtype=complex)
        parts = np.split(whole, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        self.coarse, self.fine, self._correlations, self._scaled, products = (
            part.reshape(shape) for part, shape in zip(parts, shapes)
        )
        self._products = products.view(float)
        k = np.round(runs)
        f = runs - k
        k %= n_grid  # exact, so the integer products below cannot overflow
        k = k.astype(np.int64)
        phases, jks = np.empty((2, *self.fine.shape))  # the phases and the integer products j k
        for table, j in ((self.coarse, b * np.arange(c)), (self.fine, np.arange(b))):
            phase = phases.reshape(-1)[: table.size].reshape(table.shape)
            jk = jks.reshape(-1)[: table.size].view(np.int64).reshape(table.shape)
            np.multiply(k[:, :, None], j, out=jk)
            np.floor_divide(jk, n_grid, out=phase.view(np.int64))  # jk mod N, as jk - N floor(jk / N)
            np.multiply(phase.view(np.int64), n_grid, out=phase.view(np.int64))
            np.subtract(jk, phase.view(np.int64), out=jk)
            phase[...] = jk
            np.multiply(f[:, :, None], j, out=table.real)
            phase += table.real
            np.multiply(phase, 2.0 * np.pi / n_grid, out=phase)
            np.cos(phase, out=table.real)
            np.sin(phase, out=table.imag)
        # numpy divides a complex by a real as a product with its reciprocal
        np.multiply(self.fine.view(float), 1.0 / math.sqrt(n_grid), out=self.fine.view(float))

    def atoms(self) -> np.ndarray:
        """The table of shape shape[:-1] + (W,), W >= N//2 + 1, whose column j is atom j."""
        products = self.coarse[:, :, :, None] * self.fine[:, :, None, :]
        return products.reshape(self.shape[:-1] + (-1,))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(_halfcomplex(self.atoms(), self.n_grid), dtype=dtype)

    def pair_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Each frequency's column pair norm, sqrt(||Re a_j||^2 + ||Im a_j||^2)
        (Re a_j alone for DC and even-N Nyquist), of shape shape[:-2] +
        (N//2 + 1,), and the largest column norm, of shape shape[:-2]. Every
        atom has modulus 1 / sqrt(N), so each is sqrt(M / N), DC's column
        being the largest, but for the even-N Nyquist column Re a_{N/2}."""
        (g, m, _), n = self.fine.shape, self.n_grid
        norms = np.full((g, n // 2 + 1), math.sqrt(m / n))
        if n % 2 == 0:
            nyquist = np.empty((g, m), dtype=complex)
            self.atom(np.full(g, n // 2), nyquist)
            norms[:, -1] = np.sqrt(np.einsum("gm,gm->g", nyquist.real, nyquist.real))
        return norms.reshape(self.shape[:-2] + (-1,)), np.full(self.shape[:-2], math.sqrt(m / n))

    def correlate(self, r) -> np.ndarray:
        """The correlations of r with every column, as the complex pairs
        <a_j, r> = <Re a_j, r> + i <Im a_j, r> for j = 0..N//2 (the Im parts
        of DC and, for even N, Nyquist, which are no columns, read 0): r of
        shape shape[:-1], the result of shape shape[:-2] + (N//2 + 1,). The
        result is a view of a work buffer that the next call overwrites."""
        g, m, _ = self.fine.shape
        products = self._products
        np.multiply(self.fine, r.reshape(g, m, 1), out=self._scaled)
        # coarse^T diag(r) fine as one real product of the tables read as floats:
        # entry (2b + s, 2c + t) sums part s of coarse b times part t of scaled fine c.
        np.matmul(self.coarse.view(float).transpose(0, 2, 1), self._scaled.view(float), out=products)
        np.subtract(products[:, 0::2, 0::2], products[:, 1::2, 1::2], out=self._correlations.real)
        np.add(products[:, 0::2, 1::2], products[:, 1::2, 0::2], out=self._correlations.imag)
        pairs = self._correlations.reshape(g, -1)[:, : self.n_grid // 2 + 1]
        if self.n_grid % 2 == 0:  # DC's Im part is a sum of exact zeros
            pairs[:, -1].imag = 0.0
        return pairs.reshape(self.shape[:-2] + (-1,))

    def atom(self, j, out) -> None:
        """Write atom j[g] of run g into out[g], a complex array of shape
        (G, M): Re a_j and Im a_j are the columns 2j - 1 and 2j of the
        halfcomplex layout, and Re a_0 is column 0."""
        coarse, fine = np.divmod(j, self.fine.shape[2])
        runs = np.arange(len(j))
        np.multiply(self.coarse[runs, :, coarse], self.fine[runs, :, fine], out=out)


class DenseSensing:
    """OMP's reads, as on a :class:`PoissonSensing`, of a real G x M x N
    array a of sensing matrices in the layout above."""

    def __init__(self, a):
        self.a, self.shape = a, a.shape
        self._slots = np.zeros((a.shape[0], 2 * (a.shape[2] // 2 + 1)))  # column c at float c + 1 of the pairs

    def pair_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Each frequency's pair norm, of shape (G, N//2 + 1), and the
        largest column norm, of shape (G,), as on a PoissonSensing; an
        entry or a column norm that is not finite raises ValueError."""
        sq_norms = np.array([np.einsum("ij,ij->j", a, a) for a in self.a])
        if not np.isfinite(sq_norms).all():
            raise ValueError("sensing matrix entries and their column norms must be finite")
        # Re a_j's squared norm and Im a_j's side by side, as correlate lays
        # out their correlations, with a zero for the Im parts of DC and
        # Nyquist.
        slots = np.zeros(self._slots.shape)
        slots[:, 1 : self.shape[2] + 1] = sq_norms
        return np.sqrt(slots[:, 0::2] + slots[:, 1::2]), np.sqrt(sq_norms.max(axis=1))

    def correlate(self, r) -> np.ndarray:
        np.matmul(r[:, None, :], self.a, out=self._slots[:, None, 1 : self.shape[2] + 1])
        return self._slots.view(complex)

    def atom(self, j, out) -> None:
        runs, n = np.arange(len(j)), self.shape[2]
        out.real = self.a[runs, :, np.maximum(2 * j - 1, 0)]
        out.imag = self.a[runs, :, np.minimum(2 * j, n - 1)]  # not read for DC and Nyquist


def poisson_sensing(times, interval: float, n_grid: int) -> PoissonSensing:
    """Real sensing matrix of ``build_poisson(times, interval, n_grid)``: by
    Poisson summation, the atoms e^{2 pi i j u / N} / sqrt(N) at u = t / T,
    with phases reduced exactly. Times are measured from the grid origin, as
    for ``build_poisson``: M of them for one run, or a G x M array for a
    group of G runs, whose matrices are held stacked; times of another
    shape, or none, raise ValueError. More than N sample times per run
    warn, as for an observation matrix.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim not in (1, 2) or times.size == 0:
        shape = "M >= 1 sample times of one run or a G x M array of them for a group of G >= 1 runs"
        raise ValueError(f"times must be {shape}, got shape {times.shape}")
    u = grid_units(times.ravel() if times.ndim == 2 else times, interval, n_grid).reshape(times.shape)
    check_undersampled(times.shape[-1], n_grid, stacklevel=2)
    return PoissonSensing(u, n_grid)


def sensing_matrix(m0) -> np.ndarray:
    """Real M x N sensing matrix ``M0 @ R`` of m0, an ObservationMatrix or
    its M x N entries, in the layout above, R being the Re and Im parts of
    the adjoint DFT's columns: the conjugated real FFT of M0's rows, whose
    bin j is a_j. For a ``poisson`` M0 it matches :func:`poisson_sensing` at
    the sample times to ~1e-16. A list of G such M0s of one shape gives
    their matrices stacked, G x M x N, each as it would be alone; an empty
    list, or M0s that are not M x N matrices of one shape, raise ValueError.
    """
    if not isinstance(m0, list):
        return sensing_matrix([m0])[0]
    entries = [getattr(one, "entries", one) for one in m0]
    shapes = [np.shape(one) for one in entries]
    if len(set(shapes)) != 1 or len(shapes[0]) != 2:
        raise ValueError(f"a group's M0s must be one or more M x N matrices of one shape, got shapes {shapes}")
    shape = shapes[0]
    half = np.empty((len(m0), shape[0], shape[1] // 2 + 1), dtype=complex)
    for out, one in zip(half, entries):
        out[...] = np.fft.rfft(one, axis=1, norm="ortho")
    return _halfcomplex(np.conjugate(half, out=half), shape[1])
