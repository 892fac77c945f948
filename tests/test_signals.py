import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randsamp.signals import (
    GaussPulseSignal,
    RandomSampleSet,
    SquareSignal,
    TrigSignal,
    UniformSignal,
    draw_random_times,
    sample_at,
    uniform_samples,
)

TRIG = TrigSignal()
PULSE = GaussPulseSignal()


class TestTrig:
    def test_reference_values(self):
        assert TRIG(0.0) == 1.5
        # quarter/half-period arithmetic: 0.3*1 - 0.6 + 0 + 0.9
        assert TRIG(1.0 / 200.0) == pytest.approx(0.6, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(-0.01, 0.03, 17)
        assert np.array_equal(TRIG(t), np.array([TRIG(float(ti)) for ti in t]))

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_periodic_with_20ms(self, t):
        assert abs(TRIG(t) - TRIG(t + 0.02)) < 1e-12

    def test_custom_terms(self):
        one_tone = TrigSignal(sin_amps=(), sin_freqs=(), cos_amps=(2.0,), cos_freqs=(10.0,))
        assert one_tone(0.0) == 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TrigSignal(sin_freqs=(50.0, -1.0))
        with pytest.raises(ValueError):
            TrigSignal(sin_amps=(0.3,), sin_freqs=(50.0, 60.0))


class TestGaussPulse:
    def test_peak_value(self):
        assert PULSE(0.0) == 1.0

    def test_time_variance_frozen(self):
        # recomputed from v = -2 ln(10^(bwr/20)) / (pi^2 bw^2 fc^2)
        assert PULSE.time_variance == pytest.approx(1.5553376470623945e-10, rel=1e-12)

    def test_grid_points_matches_benchmark_config(self):
        # -60 dB support sampled at 10 MHz
        assert PULSE.grid_points(10e6) == 928

    @given(st.floats(min_value=-1e-3, max_value=1e-3))
    @settings(max_examples=200)
    def test_even_and_envelope_bounded(self, t):
        assert PULSE(t) == PULSE(-t)
        assert abs(PULSE(t)) <= PULSE.envelope(t) + 1e-15

    def test_negligible_beyond_cutoff(self):
        cut = PULSE.cutoff_time
        for t in (cut, 1.1 * cut, 2.0 * cut, -1.5 * cut):
            assert abs(PULSE(t)) <= 10.0 ** (-60.0 / 20.0) + 1e-15

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussPulseSignal(center_freq=0.0)
        with pytest.raises(ValueError):
            GaussPulseSignal(bandwidth=2.5)
        with pytest.raises(ValueError):
            GaussPulseSignal(bwr_db=6.0)
        with pytest.raises(ValueError):
            GaussPulseSignal(tpr_db=0.0)


class TestSquare:
    def test_segment_conventions(self):
        sq = SquareSignal(period=1.0, duty=0.5, amplitude=1.0)
        assert sq(0.0) == 1.0
        assert sq(0.75) == -1.0
        assert sq(1.0) == 1.0  # periodicity
        # a transition instant belongs to the segment it opens
        assert sq(0.5) == -1.0

    def test_duty_and_amplitude(self):
        sq = SquareSignal(period=2.0, duty=0.25, amplitude=3.0)
        assert sq(0.4) == 3.0
        assert sq(0.5) == -3.0
        assert sq(-0.1) == -3.0  # negative times wrap into the previous period

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SquareSignal(period=0.0)
        with pytest.raises(ValueError):
            SquareSignal(duty=1.0)


class TestUniformSamples:
    def test_trig_grid(self):
        grid = uniform_samples(TRIG, 256, 1.0 / 800.0)
        assert len(grid) == 256
        assert grid.values[0] == 1.5
        assert grid.times[1] == pytest.approx(1.0 / 800.0)

    def test_two_point_grid(self):
        grid = uniform_samples(TRIG, 2, 0.1, t0=0.05)
        assert np.array_equal(grid.values, TRIG(grid.times))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uniform_samples(TRIG, 1, 0.1)
        with pytest.raises(ValueError):
            uniform_samples(TRIG, 16, 0.0)
        with pytest.raises(ValueError, match="at least two samples"):
            UniformSignal(np.zeros(1), 0.1)
        with pytest.raises(ValueError, match="interval must be positive"):
            UniformSignal(np.zeros(4), -0.1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussPulseSignal(center_freq=math.nan),
        lambda: GaussPulseSignal(center_freq=math.inf),
        lambda: GaussPulseSignal(bwr_db=math.nan),
        lambda: GaussPulseSignal(tpr_db=math.nan),
        lambda: GaussPulseSignal(tpr_db=-math.inf),
        lambda: PULSE.grid_points(math.nan),
        lambda: PULSE.grid_points(0.0),
        lambda: SquareSignal(period=math.nan),
        lambda: SquareSignal(period=math.inf),
        lambda: SquareSignal(amplitude=math.nan),
        lambda: SquareSignal(amplitude=-math.inf),
        lambda: uniform_samples(TRIG, 4, math.nan),
        lambda: uniform_samples(TRIG, 4, math.inf),
        lambda: uniform_samples(TRIG, 4, 0.1, t0=math.nan),
        lambda: UniformSignal(np.zeros(4), math.nan),
        lambda: draw_random_times(4, math.nan),
        lambda: draw_random_times(4, math.inf),
        lambda: draw_random_times(4, 1.0, t0=math.nan),
        lambda: draw_random_times(4, 1e308, t0=1e308),
    ],
    ids=["fc-nan", "fc-inf", "bwr-nan", "tpr-nan", "tpr-neg-inf", "rate-nan", "rate-zero",
         "period-nan", "period-inf", "amplitude-nan", "amplitude-neg-inf", "interval-nan",
         "interval-inf", "t0-nan", "uniform-signal-interval-nan", "duration-nan", "duration-inf",
         "window-t0-nan", "window-end-overflows"],
)
def test_non_finite_parameter_rejected(make):
    # NaN slips past a `<= 0` test, and an infinite interval or window
    # degenerates the grid; each must be refused where it enters.
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "fields",
    [
        {"sin_freqs": (math.nan, 200.0)},
        {"cos_freqs": (100.0, math.inf)},
        {"sin_amps": (math.inf, 0.1)},
        {"cos_amps": (0.6, math.nan)},
    ],
    ids=["sin-freq-nan", "cos-freq-inf", "sin-amp-inf", "cos-amp-nan"],
)
def test_trig_non_finite_parameter_rejected(fields):
    # Unchecked, a NaN frequency evaluates to NaN and an infinite amplitude to inf.
    with pytest.raises(ValueError, match="finite"):
        TrigSignal(**fields)


@pytest.mark.parametrize(
    "fields",
    [
        {"center_freq": 1e-300},
        {"center_freq": 1e300},
        {"bwr_db": -1e300},
        {"tpr_db": -1e300},
        {"tpr_db": -1e-320},
    ],
    ids=["fc-tiny", "fc-huge", "bwr-huge", "tpr-huge", "tpr-tiny"],
)
def test_gauspuls_finite_parameters_with_degenerate_envelope_rejected(fields):
    # Each is finite, but gives an envelope variance or cutoff of 0 or inf.
    with pytest.raises(ValueError, match="positive and finite"):
        GaussPulseSignal(**fields)


def test_gauspuls_grid_past_float_range_rejected():
    with pytest.raises(ValueError, match="no finite grid"):
        GaussPulseSignal(center_freq=1e-150).grid_points(1e300)


class TestDrawRandomTimes:
    def test_deterministic(self):
        a = draw_random_times(64, 0.32, seed=42)
        b = draw_random_times(64, 0.32, seed=42)
        assert np.array_equal(a, b)

    def test_benchmark_size(self):
        times = draw_random_times(64, 256.0 / 800.0, seed=7)
        assert len(times) == 64
        assert np.all(np.diff(times) > 0)

    def test_single_time_in_window(self):
        t = draw_random_times(1, 2.0, t0=5.0, seed=0)
        assert t.shape == (1,)
        assert 5.0 <= t[0] < 7.0

    def test_strictly_increasing_within_window_many_seeds(self):
        # ordering and range hold for every seed, not just a lucky one
        for seed in range(1000):
            times = draw_random_times(16, 0.5, t0=-0.25, seed=seed)
            assert np.all(np.diff(times) > 0)
            assert times[0] >= -0.25 and times[-1] < 0.25

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            draw_random_times(0, 1.0)
        with pytest.raises(ValueError):
            draw_random_times(4, 0.0)


class TestSampleAt:
    def test_single_point(self):
        s = sample_at(TRIG, np.array([0.0]))
        assert s.values[0] == 1.5

    def test_matches_uniform_grid_bitwise(self):
        # same evaluation path as uniform_samples, so equality is exact
        interval, t0 = 1.0 / 800.0, 0.0
        grid = uniform_samples(TRIG, 256, interval, t0)
        s = sample_at(TRIG, t0 + np.arange(3) * interval)
        assert np.array_equal(s.values, grid.values[:3])

    def test_pulse_tail_consistent_with_direct_eval(self):
        t = np.array([1.2, 1.5, 2.0]) * PULSE.cutoff_time
        s = sample_at(PULSE, t)
        assert np.array_equal(s.values, PULSE(t))
        assert np.all(np.abs(s.values) < 1e-3)

    def test_metadata_carried(self):
        s = sample_at(TRIG, np.array([0.0, 0.1]), duration=0.32, seed=99)
        assert s.duration == 0.32 and s.seed == 99
        assert len(s) == 2

    def test_sample_set_shape_checks(self):
        with pytest.raises(ValueError, match="at least one sample time"):
            RandomSampleSet(np.zeros(0), np.zeros(0), duration=1.0)
        with pytest.raises(ValueError, match="equal length"):
            RandomSampleSet(np.array([0.1, 0.2]), np.zeros(3), duration=1.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            sample_at(TRIG, np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            sample_at(TRIG, np.array([0.2, 0.1]))
