import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randsamp import obs_matrix
from randsamp.obs_matrix import (
    ObservationMatrix,
    build,
    build_naive,
    build_poisson,
    build_truncated,
    load_matrix_csv,
    periodized_sinc,
    save_matrix_csv,
)
from randsamp.signals import TrigSignal, uniform_samples
from truncated_reference import truncated_reference

# Golden values computed beforehand with the brute-force periodization
# sum_{|p| <= 1e6} sinc(theta + p*n), summed in symmetric pairs so the tail
# is O(1/p^2); accurate to ~1e-8.
BRUTE_FORCE_GOLDEN = {
    (0.5, 8): 0.6284174414893205,
    (2.3, 16): 0.10424728909913716,
    (-7.77, 10): 0.07842209112486608,
    (0.25, 256): 0.9003134913930231,
    (100.6, 256): 0.0012984963492745413,
}


def brute_periodized_sinc(theta, n, p_max=200_000):
    p = np.arange(1, p_max + 1, dtype=float)
    return float(np.sinc(theta) + np.sum(np.sinc(theta + p * n) + np.sinc(theta - p * n)))


class TestPeriodizedSinc:
    def test_matches_brute_force_golden_values(self):
        for (theta, n), expected in BRUTE_FORCE_GOLDEN.items():
            assert periodized_sinc(theta, n) == pytest.approx(expected, abs=1e-7)

    def test_fresh_brute_force_comparison(self):
        for theta, n in [(0.31, 4), (5.5, 12), (-0.125, 8)]:
            assert periodized_sinc(theta, n) == pytest.approx(
                brute_periodized_sinc(theta, n), abs=1e-6
            )

    def test_integer_arguments(self):
        assert periodized_sinc(0.0, 256) == 1.0
        assert abs(periodized_sinc(3.0, 256)) < 1e-12
        assert periodized_sinc(256.0, 256) == 1.0
        assert periodized_sinc(-512.0, 256) == 1.0

    def test_near_singularity_limit(self):
        for theta in (1e-10, 256.0 + 1e-10, -256.0 - 1e-10):
            assert periodized_sinc(theta, 256) == 1.0

    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_periodic_in_grid_length(self, theta):
        n = 16
        assert periodized_sinc(theta, n) == pytest.approx(periodized_sinc(theta + n, n), abs=1e-9)

    def test_array_input(self):
        theta = np.array([[0.0, 0.5], [3.0, 8.0]])
        out = periodized_sinc(theta, 8)
        assert out.shape == (2, 2)
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0

    def test_odd_grid_matches_brute_force_and_tiny_grid_rejected(self):
        for theta, n in [(0.31, 5), (5.5, 13), (-0.125, 9), (100.6, 927)]:
            assert periodized_sinc(theta, n) == pytest.approx(
                brute_periodized_sinc(theta, n), abs=1e-6
            )
        for k in (-2, -1, 0, 1, 3):
            assert periodized_sinc(k * 927.0, 927) == 1.0
            assert periodized_sinc(k * 15.0 + 1e-10, 15) == 1.0
        with pytest.raises(ValueError):
            periodized_sinc(0.5, 0)


class TestBuilders:
    def test_naive_on_grid_row_is_unit_vector(self):
        m0 = build_naive(np.array([2.0]), 1.0, 8)
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(m0.entries[0], expected, atol=1e-12)

    def test_naive_half_sample_value(self):
        m0 = build_naive(np.array([2.5]), 1.0, 8)
        assert m0.entries[0, 2] == pytest.approx(2.0 / np.pi, abs=1e-14)

    def test_naive_scales_with_interval(self):
        interval = 1.0 / 800.0
        m0 = build_naive(np.array([2.5 * interval]), interval, 8)
        assert m0.entries[0, 2] == pytest.approx(2.0 / np.pi, abs=1e-12)

    def test_truncated_two_terms_on_grid(self):
        m0 = build_truncated(np.array([3.0]), 1.0, 8, 2)
        expected = np.zeros(8)
        expected[3] = 1.0
        assert np.allclose(m0.entries[0], expected, atol=1e-12)

    def test_truncated_rejects_odd_terms(self):
        with pytest.raises(ValueError):
            build_truncated(np.array([0.5]), 1.0, 8, 3)
        with pytest.raises(ValueError):
            build_truncated(np.array([0.5]), 1.0, 8, 0)

    def test_build_dispatches_by_method(self):
        times = np.array([0.3, 2.0, 5.7])
        for method, direct in [
            ("naive", build_naive(times, 1.0, 8)),
            ("truncated", build_truncated(times, 1.0, 8, 20)),
            ("poisson", build_poisson(times, 1.0, 8)),
        ]:
            m0 = build(method, times, 1.0, 8, p_terms=20)
            assert m0.method == method
            assert np.array_equal(m0.entries, direct.entries)
        assert build("naive", times, 1.0, 8).p_terms is None
        with pytest.raises(ValueError, match="needs p_terms"):
            build("truncated", times, 1.0, 8)
        with pytest.raises(ValueError, match="unknown construction method"):
            build("bogus", times, 1.0, 8)

    def test_truncated_grid_hits_emit_no_runtime_warning(self):
        # theta = t - n is an exact integer at every entry, so each entry is
        # 1 where theta + p N == 0 for a p in the window and 0 elsewhere.
        # With P = 2 the window is p in {0, 1}: t = -N meets p = 1 at n = 0,
        # while t = N would need p = -1 and so gives an all-zero row.
        for n in (8, 9):
            times = np.array([0.0, 3.0, 7.0, -n, n])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                m0 = build_truncated(times, 1.0, n, 2)
            expected = np.zeros((5, n))
            expected[0, 0] = expected[1, 3] = expected[2, 7] = expected[3, 0] = 1.0
            assert np.array_equal(m0.entries, expected)

    def test_poisson_on_grid_rows_are_unit_vectors(self):
        times = np.array([0.0, 3.0, 7.0])
        m0 = build_poisson(times, 1.0, 16)
        expected = np.zeros((3, 16))
        expected[0, 0] = expected[1, 3] = expected[2, 7] = 1.0
        assert np.max(np.abs(m0.entries - expected)) < 1e-12

    def test_poisson_grid_hits_are_exact_unit_vectors_without_runtime_warning(self):
        # Rows whose u = t / T is an exact integer are set to the exact unit
        # vector at column u mod N.
        for n in (8, 9):
            times = np.array([0.0, 3.0, 7.0, -n, n, 2 * n - 1])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                m0 = build_poisson(times, 1.0, n)
            expected = np.zeros((6, n))
            expected[0, 0] = expected[1, 3] = expected[2, 7] = expected[3, 0] = 1.0
            expected[4, 0] = expected[5, n - 1] = 1.0
            assert np.array_equal(m0.entries, expected)

    def test_poisson_entries_bounded(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0.0, 256.0 / 800.0, size=64))
        m0 = build_poisson(times, 1.0 / 800.0, 256)
        assert np.all(np.isfinite(m0.entries))
        assert np.max(np.abs(m0.entries)) <= 1.0 + 1e-12

    def test_poisson_odd_grid(self):
        times = np.array([0.0, 3.0, 14.0, 2.5])
        m0 = build_poisson(times, 1.0, 15)
        expected = np.zeros((3, 15))
        expected[0, 0] = expected[1, 3] = expected[2, 14] = 1.0
        assert np.max(np.abs(m0.entries[:3] - expected)) < 1e-12
        brute = [brute_periodized_sinc(2.5 - n, 15) for n in range(15)]
        assert np.max(np.abs(m0.entries[3] - brute)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            build_naive(np.array([]), 1.0, 8)
        with pytest.raises(ValueError):
            build_naive(np.array([0.5]), 0.0, 8)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                build_poisson(np.array([0.5, bad]), 1.0, 8)
        with pytest.raises(ValueError):
            ObservationMatrix(np.zeros((2, 8)), "bogus")
        for bad in (np.zeros(8), np.zeros((0, 8)), np.zeros((2, 0)), np.zeros((1, 2, 8))):
            with pytest.raises(ValueError, match="nonempty 2-D"):
                ObservationMatrix(bad, "poisson")
        assert ObservationMatrix(np.zeros((2, 8)), "poisson").n_grid == 8

    @pytest.mark.parametrize("method", ["naive", "truncated", "poisson"])
    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_interval_must_be_finite(self, method, interval):
        # Unchecked, a NaN interval fills a NaN matrix and an infinite one
        # makes every row the unit vector e_0.
        with pytest.raises(ValueError, match="interval must be positive and finite"):
            build(method, np.array([0.5, 1.5]), interval, 8, p_terms=20)

    @pytest.mark.parametrize("method", ["naive", "truncated", "poisson"])
    def test_times_over_interval_must_be_finite(self, method):
        # 0.5 / 1e-320 overflows to inf, which once ended in an IndexError.
        with pytest.raises(ValueError, match="times / interval must be finite"):
            build(method, np.array([0.5]), 1e-320, 8, p_terms=20)

    @pytest.mark.parametrize("method", ["naive", "truncated", "poisson"])
    def test_grid_length_must_be_an_integer(self, method):
        # np.arange(8.5) has 9 entries, so a fractional N once gave a 2 x 9
        # matrix, the truncated one summing repeats p * 8.5 apart.
        times = np.array([0.5, 1.5])
        for bad in (8.5, 8.0, 1):
            with pytest.raises(ValueError, match=f"n_grid must be an integer >= 2, got {bad}"):
                build(method, times, 1.0, bad, p_terms=20)
        assert build(method, times, 1.0, np.int64(8), p_terms=20).entries.shape == (2, 8)

    def test_truncated_far_from_grid_is_quiet(self):
        # theta^2 would overflow there, but with q >= P/2 there are no pairs
        # and it is never formed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m0 = build_truncated(np.array([1e200]), 1.0, 8, 20)
        assert np.array_equal(m0.entries, np.zeros((1, 8)))

    def test_more_samples_than_grid_warns(self):
        # the warning names the line that made the matrix, not the <string>
        # __init__ that dataclass generates
        with pytest.warns(UserWarning, match="M=10 exceeds N=4") as record:
            build_naive(np.linspace(0.0, 3.0, 10), 1.0, 4)
        assert record[0].filename == build_naive.__code__.co_filename
        with pytest.warns(UserWarning, match="M=5 exceeds N=4") as record:
            ObservationMatrix(np.ones((5, 4)), "naive")
        assert record[0].filename == __file__


def sinc_sum(times, n, p_terms):
    """The truncated periodization summed term by term with np.sinc."""
    theta = np.asarray(times, dtype=float)[:, None] - np.arange(n)[None, :]
    out = np.zeros_like(theta)
    for p in range(-p_terms // 2 + 1, p_terms // 2 + 1):
        out += np.sinc(theta + p * n)
    return out


@st.composite
def truncated_cases(draw):
    """(times, N, P) with unit interval, so theta = t - n exactly. Times span
    three grid lengths on both sides of the window, so the least paired
    repeat q (q N >= 2 max|theta|) ranges up to 8, and include exact grid hits
    (theta an integer) and near-hits within 1e-9 of one. P = 4 has at most
    one +-p pair and P = 2000 a long run of them."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    hit = st.integers(-3 * n, 3 * n).map(float)
    near = st.tuples(hit, st.floats(-1e-9, 1e-9)).map(sum)
    anywhere = st.floats(-3.0 * n, 3.0 * n)
    times = draw(st.lists(st.one_of(hit, near, anywhere), min_size=m, max_size=m))
    return np.array(times), n, draw(st.sampled_from([2, 4, 20, 200, 2000]))


class TestTruncatedAgainstSincSum:
    @given(truncated_cases())
    def test_matches_term_by_term_sum(self, case):
        times, n, p_terms = case
        entries = build_truncated(times, 1.0, n, p_terms).entries
        assert np.all(np.isfinite(entries))
        assert np.max(np.abs(entries - sinc_sum(times, n, p_terms))) <= 1e-12


def split_times(m, n, seed):
    """m times across [-n, 2n): a third exact grid hits, a third within 1e-9
    of one, so both the paired and the single terms meet near-poles."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(-n, 2.0 * n, m)
    times[::3] = np.round(times[::3])
    times[1::3] = np.round(times[1::3]) + rng.uniform(-1e-9, 1e-9, len(times[1::3]))
    return times


class TestSplitBuild:
    """build_truncated sums the two row halves on two threads when two CPUs
    are available and the build is large enough; the bits must not depend on
    it. Each case here is large enough to split."""

    @pytest.fixture
    def parts(self, monkeypatch):
        """The row counts of the parts each build summed."""
        seen = []
        real = obs_matrix._sum_rows

        def counted(u, *rest):
            seen.append(len(u))
            real(u, *rest)

        monkeypatch.setattr(obs_matrix, "_sum_rows", counted)
        return seen

    @pytest.mark.parametrize("m, n, p_terms", [(64, 256, 200), (64, 256, 2000), (64, 255, 200),
                                               (64, 255, 2000), (93, 928, 200)])
    def test_matches_serial_reference_on_any_cpu_count(self, monkeypatch, parts, m, n, p_terms):
        times = split_times(m, n, seed=m + n + p_terms)
        expected = truncated_reference(times, n, p_terms)
        for cpus, halves in ((1, [m]), (2, [m // 2, m - m // 2])):
            monkeypatch.setattr(obs_matrix, "_cpu_count", lambda: cpus)
            parts.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                entries = build_truncated(times, 1.0, n, p_terms).entries
            assert sorted(parts) == sorted(halves)
            assert entries.tobytes() == expected.tobytes()

    def test_far_from_grid_is_quiet_in_both_threads(self, monkeypatch, parts):
        # Every repeat is near-singular there (q >= P/2), so such a build
        # has no pairs to split, and the split is forced. Each part sums its
        # single terms quietly, and every entry is an exact hit outside the
        # window.
        monkeypatch.setattr(obs_matrix, "_cpu_count", lambda: 2)
        monkeypatch.setattr(obs_matrix, "_SPLIT_WORK", -math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m0 = build_truncated(np.full(64, 1e200), 1.0, 256, 20)
        assert parts == [32, 32]
        assert np.array_equal(m0.entries, np.zeros((64, 256)))

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        times = split_times(64, 256, seed=1)
        real = obs_matrix._sum_rows

        def fails_on_second_half(u, *rest):
            if u[0] == times[32]:
                raise MemoryError("second half")
            real(u, *rest)

        monkeypatch.setattr(obs_matrix, "_cpu_count", lambda: 2)
        monkeypatch.setattr(obs_matrix, "_sum_rows", fails_on_second_half)
        with pytest.raises(MemoryError, match="second half"):
            build_truncated(times, 1.0, 256, 2000)


@st.composite
def window_times(draw):
    """(times, N, P) with unit interval, N in [2, 64] of either parity, M <= 8
    and times in [0, N), so every theta = t - n lies in (-N, N)."""
    n = draw(st.integers(min_value=2, max_value=64))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    anywhere = st.floats(0.0, float(n), exclude_max=True)
    hit = st.integers(0, n - 1).map(float)
    times = draw(st.lists(st.one_of(hit, anywhere), min_size=m, max_size=m))
    return np.array(times), n, draw(st.sampled_from([2, 4, 20, 200, 2000]))


class TestTruncatedAgainstClosedForm:
    @given(window_times())
    def test_gap_within_tail_bound(self, case):
        """The gap is the omitted tail, sum over p outside -P/2+1..P/2 of
        sinc(theta + p N), which is bounded by the tail of the sum.

        The omitted p are -P/2 alone plus the pairs +-p for p >= P/2 + 1. As
        (-1)^(p N) is equal for p and -p, a pair is
        sin(pi theta) / pi * (-1)^(p N) * 2 theta / (theta^2 - (p N)^2), and
        with |theta| < N <= p N its modulus is at most
        2 N / (pi (p^2 - 1) N^2). Summed by telescoping,
        sum_{p >= a} 1 / (p^2 - 1) = (1 / (a - 1) + 1 / a) / 2 < 2 / P for
        a = P/2 + 1, so the pairs add at most 4 / (pi N P). The lone term
        sinc(theta - P N / 2) has |theta - P N / 2| > N (P/2 - 1), so it is
        at most 1 / (pi N (P/2 - 1)) for P >= 4 and at most 1 for P = 2,
        where theta - N can vanish. The builds' own rounding adds ~1e-14,
        inside the 1e-12 slack. Measured over N = 2..64 and P in
        {2, 4, 20, 200, 2000}, |gap| * P reached 2.04 at P = 2 and 0.88 at
        P >= 4 (N = 2, P = 4), and the largest gap was 0.99 of its bound.
        """
        times, n, p_terms = case
        lone = 1.0 if p_terms == 2 else 1.0 / (np.pi * n * (p_terms / 2 - 1))
        bound = lone + 4.0 / (np.pi * n * p_terms)
        gap = build_truncated(times, 1.0, n, p_terms).entries - build_poisson(times, 1.0, n).entries
        assert np.max(np.abs(gap)) <= bound + 1e-12


def fourier_sum_kernel(theta, n):
    """The periodized sinc as a sum over the DFT bins: (1/N) sum_k
    exp(2 pi i k theta / N) over the symmetric bins |k| < N/2, plus the
    Nyquist term cos(pi theta) / N when N is even. The sines cancel in
    +-k pairs, so only the cosines are summed."""
    half = (n - 1) // 2
    k = np.arange(-half, half + 1)
    phase = 2.0 * np.pi * np.multiply.outer(theta, k) / n
    out = np.cos(phase).sum(axis=-1) / n
    if n % 2 == 0:
        out += np.cos(np.pi * theta) / n
    return out


@st.composite
def grid_times(draw):
    """(times, N) with unit interval, N in [2, 64] of either parity and M <= 8.
    Times are random in [-N, 2N], on the grid, or within 1e-3 of a grid point,
    so theta = t - n reaches the kernel's peaks at 0 and +-N from both sides."""
    n = draw(st.integers(min_value=2, max_value=64))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    hit = st.integers(-n, 2 * n).map(float)
    near = st.tuples(hit, st.floats(-1e-3, 1e-3)).map(sum)
    anywhere = st.floats(-float(n), 2.0 * n)
    times = draw(st.lists(st.one_of(hit, near, anywhere), min_size=m, max_size=m))
    return np.array(times), n


class TestClosedFormAgainstFourierSum:
    @given(grid_times())
    def test_matches_bin_sum(self, case):
        times, n = case
        theta = times[:, None] - np.arange(n)[None, :]
        entries = build_poisson(times, 1.0, n).entries
        assert np.max(np.abs(entries - fourier_sum_kernel(theta, n))) <= 1e-12


@st.composite
def kernel_cases(draw):
    """(times, interval, N), N in [2, 64] of either parity and M <= 8. In
    grid units u = t / T the times span [-2N, 2N] and include exact grid hits,
    hits +-1e-9, ties |u - round(u)| = 1/2 and u = N."""
    n = draw(st.integers(min_value=2, max_value=64))
    m = draw(st.integers(min_value=1, max_value=min(8, n)))
    hit = st.integers(-2 * n, 2 * n).map(float)
    near = st.tuples(hit, st.sampled_from([-1e-9, 1e-9])).map(sum)
    tie = hit.map(lambda h: h + 0.5)
    anywhere = st.floats(-2.0 * n, 2.0 * n)
    u = draw(st.lists(st.one_of(hit, near, tie, st.just(float(n)), anywhere), min_size=m, max_size=m))
    interval = draw(st.sampled_from([1.0, 1.0 / 800.0]))
    return np.array(u) * interval, interval, n


class TestClosedFormAgainstKernel:
    @given(kernel_cases())
    def test_matches_periodized_sinc(self, case):
        times, interval, n = case
        theta = times[:, None] / interval - np.arange(n)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            entries = build_poisson(times, interval, n).entries
        assert np.max(np.abs(entries - periodized_sinc(theta, n))) <= 1e-12


def exact_phase_row(u, n):
    """Row of the periodized sinc at u on a grid of N = n points: entry c is
    (1/N) times the fsum of 1, of 2 cos(2 pi ((k (u - c)) mod N) / N) for
    k = 1..(N-1)//2, and of cos(pi fmod(u - c, 2)) for even N. With u carrying
    at most 10 fractional bits and |u - c| < 2N, k (u - c) and its reductions
    are exact in float64, so each cosine is taken of an exactly reduced phase."""
    k = np.arange(1, (n - 1) // 2 + 1, dtype=float)
    row = []
    for col in range(n):
        d = u - col
        terms = [1.0, *(2.0 * np.cos(2.0 * np.pi * np.mod(k * d, n) / n))]
        if n % 2 == 0:
            terms.append(math.cos(math.pi * math.fmod(d, 2.0)))
        row.append(math.fsum(terms) / n)
    return np.array(row)


class TestClosedFormAgainstExactPhases:
    @pytest.mark.parametrize("n", [927, 928])
    def test_matches_exact_phase_reference(self, n):
        rng = np.random.default_rng(n)
        u = rng.integers(-n * 1024, 2 * n * 1024, size=6) / 1024.0
        entries = build_poisson(u, 1.0, n).entries
        reference = np.array([exact_phase_row(v, n) for v in u])
        assert np.max(np.abs(entries - reference)) <= 2e-15


class TestAgainstTruncationOracle:
    def test_truncation_converges_to_closed_form(self):
        # max |truncated(P) - poisson| shrinks with P and is tiny by P=1e4
        gaps = {p: [] for p in (2, 20, 200, 2000)}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            times = np.sort(rng.uniform(0.0, 16.0, size=8))
            exact = build_poisson(times, 1.0, 16).entries
            for p in gaps:
                approx = build_truncated(times, 1.0, 16, p).entries
                gaps[p].append(np.max(np.abs(approx - exact)))
        means = [float(np.mean(gaps[p])) for p in (2, 20, 200, 2000)]
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_closed_form_matches_large_truncation(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 16.0, size=4))
        exact = build_poisson(times, 1.0, 16).entries
        approx = build_truncated(times, 1.0, 16, 10_000).entries
        assert np.max(np.abs(approx - exact)) < 1e-3


class TestInterpolationFidelity:
    def test_on_grid_delta_reproduction(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(32)
        picks = np.array([1.0, 5.0, 20.0, 31.0])
        m0 = build_poisson(picks, 1.0, 32)
        out = m0.entries @ values
        ref = values[picks.astype(int)]
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-12

    def test_bandlimited_periodic_signal_interpolated_exactly(self):
        signal = TrigSignal()
        interval = 1.0 / 800.0
        grid = uniform_samples(signal, 256, interval)
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, 256 * interval, size=64))
        m0 = build_poisson(times, interval, 256)
        predicted = m0.entries @ grid.values
        actual = signal(times)
        assert np.linalg.norm(predicted - actual) / np.linalg.norm(actual) < 1e-10

    def test_naive_kernel_misses_periodic_contributions(self):
        # the single-period kernel leaves an O(1) interpolation error
        signal = TrigSignal()
        interval = 1.0 / 800.0
        grid = uniform_samples(signal, 256, interval)
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0.0, 256 * interval, size=64))
        m0 = build_naive(times, interval, 256)
        predicted = m0.entries @ grid.values
        actual = signal(times)
        assert np.linalg.norm(predicted - actual) / np.linalg.norm(actual) > 1e-3


class TestCsvInterchange:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 8.0, size=3))
        m0 = build_truncated(times, 1.0, 8, 20)
        path = tmp_path / "matrix.csv"
        save_matrix_csv(m0, path)
        loaded = load_matrix_csv(path)
        assert np.array_equal(loaded.entries, m0.entries)  # repr round-trips exactly
        assert loaded.method == "truncated"
        assert loaded.p_terms == 20
        assert loaded.n_grid == 8

    def test_poisson_header_has_empty_p(self, tmp_path):
        m0 = build_poisson(np.array([0.5]), 1.0, 8)
        path = tmp_path / "matrix.csv"
        save_matrix_csv(m0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "M,N,method,P"
        assert lines[1] == "1,8,poisson,"

    @pytest.mark.parametrize("content", [None, b"\xffM,N,method,P\n"], ids=["missing", "undecodable"])
    def test_unreadable_file_names_the_file(self, tmp_path, content):
        path = tmp_path / "matrix.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^cannot read {path}: "):
            load_matrix_csv(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("", "line 1: header is not followed by the M,N,method,P values"),
            ("1,2\n", "line 2: expected the 4 values M,N,method,P, found 2"),
            ("2,3,poisson,\n1,2,3\n1,2\n", "line 4: expected 3 entries, found 2"),
            ("1,2,poisson,\n1,abc\n", "line 3: entry 'abc' is not a number"),
            ("1,2,poisson,\n1,inf\n", "line 3: entry 'inf' is not finite"),
            ("2,2,poisson,\n1,2\nnan,4\n", "line 4: entry 'nan' is not finite"),
            ("1,2,poisson,\n1,2\n3,4\n", "line 4: expected 1 matrix rows, found 2"),
            ("2,2,poisson,\n1,2\n", "line 3: expected 2 matrix rows, found 1"),
            ("x,2,poisson,\n", "line 2: M, N and P must be integers, got 'x,2,poisson,'"),
            ("1,2,sinc,\n1,2\n", "line 2: unknown construction method 'sinc'; expected one of "
                                   "('naive', 'truncated', 'poisson')"),
            ("0,2,poisson,\n", "line 2: M must be an integer >= 1, got 0"),
            ("2,4,truncated,3\n1,2,3,4\n5,6,7,8\n", "line 2: p_terms must be an even integer >= 2, got 3"),
            ("2,4,truncated,\n1,2,3,4\n5,6,7,8\n", "line 2: truncated method needs p_terms"),
            ("2,4,poisson,20\n1,2,3,4\n5,6,7,8\n", "line 2: only the truncated method takes p_terms, got 20 "
                                                    "for 'poisson'"),
        ],
        ids=["header-only", "short-metadata", "short-row", "non-numeric", "infinite-entry",
             "nan-entry", "extra-rows",
             "missing-rows", "non-integer-size", "unknown-method", "zero-rows", "odd-p", "truncated-without-p",
             "p-without-truncated"],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("M,N,method,P\n" + body)
        with pytest.raises(ValueError) as info:
            load_matrix_csv(path)
        assert str(info.value) == f"{path}: {where}"
