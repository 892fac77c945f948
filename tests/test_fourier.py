import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, strategies as st

from dft_reference import dft_matrix, halfcomplex, real_dft_basis
from randsamp import fourier
from randsamp.fourier import dft_adjoint, dft_forward, poisson_sensing, sensing_matrix
from randsamp.obs_matrix import build, build_poisson
from randsamp.signals import TrigSignal, uniform_samples
from randsamp.solvers import OmpConfig, SingularSystemError, omp_recover


def brute_force_dft(x):
    """Independent O(N^2) loop evaluation of the unitary forward transform."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for idx in range(n):
            acc += x[idx] * np.exp(-2j * np.pi * k * idx / n)
        out[k] = acc / np.sqrt(n)
    return out


def test_forward_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(32)
    assert np.allclose(dft_forward(x), brute_force_dft(x), atol=1e-12)


def test_constant_vector():
    coeffs = dft_forward(np.full(64, 2.5))
    assert coeffs[0] == pytest.approx(2.5 * 8.0, abs=1e-12)
    assert np.all(np.abs(coeffs[1:]) < 1e-12)


def test_unit_impulse():
    x = np.zeros(16)
    x[0] = 1.0
    assert np.allclose(dft_forward(x), np.full(16, 0.25), atol=1e-14)


def test_trig_bin_support_and_magnitudes():
    grid = uniform_samples(TrigSignal(), 256, 1.0 / 800.0)
    coeffs = dft_forward(grid.values)
    # 50/100/200 Hz tones land on bins 16/32/64 (+ mirrors); the 400 Hz
    # cosine sits alone on the Nyquist bin 128.
    expected = {16: 2.4, 32: 4.8, 64: 0.8, 128: 14.4, 192: 0.8, 224: 4.8, 240: 2.4}
    for k, mag in expected.items():
        assert abs(coeffs[k]) == pytest.approx(mag, abs=1e-10)
    others = np.setdiff1d(np.arange(256), list(expected))
    assert np.max(np.abs(coeffs[others])) < 1e-12


def test_round_trip_and_parseval():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(64)
        coeffs = dft_forward(x)
        assert np.linalg.norm(dft_adjoint(coeffs) - x) < 1e-12
        assert abs(np.linalg.norm(coeffs) - np.linalg.norm(x)) < 1e-12


def test_real_input_conjugate_symmetry():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(33)
    coeffs = dft_forward(x)
    assert np.allclose(coeffs, np.conj(coeffs[(33 - np.arange(33)) % 33]), atol=1e-12)


def test_adjoint_of_impulse_is_constant():
    coeffs = np.zeros(25, dtype=complex)
    coeffs[0] = 1.0
    assert np.allclose(dft_adjoint(coeffs), np.full(25, 0.2), atol=1e-14)


def test_adjoint_of_symmetric_spectrum_is_real():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(40)
    back = dft_adjoint(dft_forward(x))
    assert np.max(np.abs(back.imag)) < 1e-12


def test_sensing_matrix_of_on_grid_times_is_adjoint_basis():
    # on-grid sample times make the observation matrix an identity, read
    # through the atoms (poisson) and through the real FFT (naive)
    for n in (16, 15):
        for method in ("poisson", "naive"):
            m0 = build(method, np.arange(float(n)), 1.0, n)
            assert np.allclose(sensing_matrix(m0), real_dft_basis(n), atol=1e-12)


@pytest.mark.parametrize("n", [16, 15])
def test_sensing_matrix_reads_bare_entries(n):
    # an M x N array is read as the entries of its ObservationMatrix, in the
    # one-run form as in the list form
    m0 = build("naive", np.sort(np.random.default_rng(n).uniform(0.0, float(n), size=7)), 1.0, n)
    a = sensing_matrix(m0)
    assert a.shape == (7, n)
    assert np.array_equal(sensing_matrix(m0.entries), a)
    assert np.array_equal(sensing_matrix([m0.entries, m0])[0], a)


def test_sensing_matrix_composition():
    rng = np.random.default_rng(21)
    times = np.sort(rng.uniform(0.0, 16.0, size=7))
    m0 = build_poisson(times, 1.0, 16)
    a = sensing_matrix(m0)
    basis = real_dft_basis(16)
    for _ in range(10):
        x = rng.standard_normal(16)
        lhs = a @ np.linalg.solve(basis, x)
        rhs = m0.entries @ x
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_column_norms_frozen_regression():
    rng = np.random.default_rng(123)
    times = np.sort(rng.uniform(0.0, 16.0, size=6))
    m0 = build_poisson(times, 1.0, 16)
    col_norms = np.linalg.norm(sensing_matrix(m0), axis=0)
    # every column norm is bounded by the total row energy of the matrix
    assert np.all(col_norms <= np.linalg.norm(m0.entries) + 1e-12)
    assert float(col_norms.max()) == pytest.approx(0.6123724356957946, rel=1e-12)


@st.composite
def sensing_cases(draw):
    """(times, N) with unit interval: N in [2, 64] of either parity and
    M <= 8 distinct sorted times, each on the grid or anywhere in [0, N)."""
    n = draw(st.integers(min_value=2, max_value=64))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    on_grid = st.integers(0, n - 1).map(float)
    anywhere = st.floats(0.0, float(n), exclude_max=True)
    times = draw(st.lists(st.one_of(on_grid, anywhere), min_size=m, max_size=m, unique=True))
    return np.sort(np.array(times)), n


@st.composite
def atom_cases(draw):
    """(times, interval, N): N in [2, 64] of either parity and M <= 8 times,
    each on the grid, within 1e-6 of it, or anywhere in [-2N, 3N) grid units,
    so that times outside one period [0, N T) occur on both sides."""
    n = draw(st.integers(min_value=2, max_value=64))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    grid_point = st.integers(-2 * n, 3 * n - 1)
    offset = st.sampled_from([-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6])
    near_grid = st.tuples(grid_point, offset).map(sum)
    anywhere = st.floats(-2.0 * n, 3.0 * n, exclude_max=True)
    u = draw(st.lists(st.one_of(grid_point.map(float), near_grid, anywhere), min_size=m, max_size=m))
    interval = draw(st.sampled_from([1.0, 1.0 / 800.0, 1e-7]))
    return np.array(u) * interval, interval, n


def exp_table_sensing(times, interval, n):
    """The sensing matrix of a poisson M0 as formed before it was held in
    factors: the coarse and fine atom tables as exp of the exactly reduced
    phases, their products in one M x W table, read in halfcomplex order."""
    u = np.asarray(times, dtype=float) / interval
    k = np.round(u)
    f = u - k
    k %= n
    h = n // 2 + 1
    b = math.isqrt(h - 1) + 1

    def table(j):
        return np.exp((2j * np.pi / n) * (np.outer(k, j) % n + np.outer(f, j)))

    fine = table(np.arange(b)) / math.sqrt(n)
    coarse = table(b * np.arange(-(-h // b)))
    return halfcomplex((coarse[:, :, None] * fine[:, None, :]).reshape(len(u), -1), n)


class TestPoissonSensing:
    @given(atom_cases())
    def test_atoms_match_real_fft_of_closed_form(self, case):
        times, interval, n = case
        via_fft = sensing_matrix(build_poisson(times, interval, n))
        atoms = np.asarray(poisson_sensing(times, interval, n))
        assert atoms.shape == (len(times), n)
        assert np.max(np.abs(atoms - via_fft)) <= 1e-12

    @pytest.mark.parametrize("n", [928, 927])
    def test_both_producers_return_agreeing_views(self, n):
        # sensing_matrix reads the halfcomplex layout in place from its
        # complex table
        times = np.sort(np.random.default_rng(n).uniform(0.0, float(n), size=93))
        via_atoms = np.asarray(poisson_sensing(times, 1.0, n))
        via_fft = sensing_matrix(build_poisson(times, 1.0, n))
        assert via_atoms.shape == via_fft.shape == (93, n)
        assert not via_fft.flags.owndata
        assert np.max(np.abs(via_atoms - via_fft)) <= 2e-16

    @given(atom_cases())
    def test_dense_form_is_the_one_product_table(self, case):
        # bit for bit the matrix of the atoms formed as exp of the reduced
        # phases, coarse times fine in one broadcast product
        times, interval, n = case
        assert np.array_equal(np.asarray(poisson_sensing(times, interval, n)), exp_table_sensing(times, interval, n))

    @pytest.mark.parametrize("n", [928, 927, 256, 240, 15])
    def test_operator_reads_match_its_dense_form(self, n):
        # correlations and column norms to rounding, every column (DC and,
        # for even N, Nyquist included) bit for bit
        rng = np.random.default_rng(n)
        times = rng.uniform(-float(n), 2.0 * n, size=min(93, n))
        op = poisson_sensing(times, 1.0, n)
        dense = np.asarray(op)
        assert op.shape == dense.shape == (len(times), n)
        r = rng.standard_normal(len(times))
        out = halfcomplex(op.correlate(r)[None], n)[0]
        assert np.max(np.abs(out - r @ dense)) <= 1e-15 * np.abs(r).sum() / math.sqrt(n)
        sq_norms = np.einsum("ij,ij->j", dense, dense)
        assert np.max(np.abs(op.sq_norms() - sq_norms)) <= 1e-14 * sq_norms.max()
        atom = np.empty((1, len(times)), dtype=complex)  # a_j, for the one run
        for c in range(n):
            op.atom(np.array([(c + 1) // 2]), atom)
            assert np.array_equal(atom[0].imag if c and c % 2 == 0 else atom[0].real, dense[:, c])

    def test_large_grid_held_in_factors(self):
        # M = N/10 at N = 2^16, where the dense matrix takes 3.4 GB: the
        # operator's own arrays stay under 64 MB, and one correlation matches
        # 50 columns whose atoms are evaluated directly
        n, m = 2**16, 6554
        rng = np.random.default_rng(16)
        u = rng.uniform(0.0, float(n), size=m)
        tracemalloc.start()
        op = poisson_sensing(u, 1.0, n)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert held < 64e6
        r = rng.standard_normal(m)
        out = halfcomplex(op.correlate(r)[None], n)[0]
        k = np.round(u)
        f = u - k
        k = (k % n).astype(np.int64)
        for c in [0, n - 1, *rng.choice(np.arange(1, n - 1), size=48, replace=False)]:
            j = (c + 1) // 2
            atom = np.exp((2j * np.pi / n) * ((j * k) % n + j * f)) / math.sqrt(n)
            column = atom.imag if c and c % 2 == 0 else atom.real
            assert abs(out[c] - r @ column) <= 1e-15 * np.abs(r).sum() / math.sqrt(n)

    def test_phases_reduced_exactly(self):
        # reference atoms from phases j u mod N taken in exact rational
        # arithmetic; an unreduced phase 2 pi j u / N (up to ~1e4 rad here)
        # would carry ~1e-13 of rounding into the atoms
        n, h = 928, 465
        u = np.random.default_rng(41).uniform(-4.0 * n, 6.0 * n, size=12)
        phase = np.array([[float(Fraction(v) * j % n) for j in range(h)] for v in u]) * (2 * np.pi / n)
        ref = halfcomplex(np.cos(phase) + 1j * np.sin(phase), n) / np.sqrt(n)
        assert np.max(np.abs(np.asarray(poisson_sensing(u, 1.0, n)) - ref)) <= 2e-15

    def test_argument_validation(self):
        for times, interval, n in (([np.nan], 1.0, 8), ([], 1.0, 8), ([0.5], 0.0, 8), ([0.5], 1.0, 1)):
            with pytest.raises(ValueError):
                poisson_sensing(times, interval, n)


def test_fourier_imports_nothing_from_obs_matrix():
    # obs_matrix builds M0 from fourier's atoms, never the other way round
    tree = ast.parse(Path(fourier.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    assert names and not [name for name in names if "obs_matrix" in name.split(".")]


class TestAgainstExplicitMatrix:
    @given(sensing_cases(), st.sampled_from(["naive", "truncated", "poisson"]), st.sampled_from([2, 20, 200]))
    def test_sensing_matrix_equals_dense_product(self, case, method, p_terms):
        times, n = case
        m0 = build(method, times, 1.0, n, p_terms=p_terms)
        dense = m0.entries @ real_dft_basis(n)
        assert np.max(np.abs(sensing_matrix(m0) - dense)) <= 1e-12

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
    def test_forward_and_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(dft_forward(x) - dft_matrix(n) @ x)) <= 1e-12
        assert np.max(np.abs(dft_adjoint(dft_forward(x)) - x)) <= 1e-12

    @given(sensing_cases(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_omp_on_real_signal_stays_real(self, case, seed):
        times, n = case
        assume(len(times) >= 2)
        m0 = build_poisson(times, 1.0, n)
        y = m0.entries @ np.random.default_rng(seed).standard_normal(n)
        cfg = OmpConfig(max_atoms=len(times) - 1, residual_tol=0.0)
        a = sensing_matrix(m0)
        try:
            res = omp_recover(a, y, cfg)
        except SingularSystemError:
            reject()
        support = set(res.support)
        assert support == {(n - j) % n for j in support}
        # exactly Hermitian, so its inverse real FFT drops nothing
        spectrum = res.spectrum
        assert np.array_equal(spectrum[1:], spectrum[:0:-1].conj())
        assert spectrum[0].imag == 0.0 and (n % 2 or spectrum[n // 2].imag == 0.0)
        assert np.array_equal(res.recovered, np.fft.irfft(spectrum[: n // 2 + 1], n=n, norm="ortho"))
