"""Test-signal generators and sampling utilities.

Signals are frozen dataclasses that evaluate like functions: ``signal(t)``
accepts a float or an ndarray of times in seconds and returns amplitudes.
Grid indexing is 0-based throughout: sample ``n`` of a uniform grid lives at
``t0 + n * interval``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# Largest grid GaussPulseSignal.grid_points will size: 1 GiB of float64.
MAX_GRID_POINTS = 2**27
# Draws draw_random_times makes before it gives up on a window too narrow to
# hold m distinct doubles.
MAX_TIME_DRAWS = 100


def _as_times(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class TrigSignal:
    """Sum of sinusoids: sum_i a_i sin(2 pi f_i t) + sum_j b_j cos(2 pi g_j t).

    The defaults give the four-tone benchmark signal
    0.3 sin(2 pi 50 t) + 0.6 cos(2 pi 100 t) + 0.1 sin(2 pi 200 t) + 0.9 cos(2 pi 400 t),
    which is periodic with period 0.02 s.
    """

    sin_amps: tuple[float, ...] = (0.3, 0.1)
    sin_freqs: tuple[float, ...] = (50.0, 200.0)
    cos_amps: tuple[float, ...] = (0.6, 0.9)
    cos_freqs: tuple[float, ...] = (100.0, 400.0)

    def __post_init__(self):
        if len(self.sin_amps) != len(self.sin_freqs) or len(self.cos_amps) != len(self.cos_freqs):
            raise ValueError("amplitude and frequency tuples must have matching lengths")
        if not all(0.0 < f < math.inf for f in self.sin_freqs + self.cos_freqs):
            raise ValueError(f"all frequencies must be positive and finite, got {self.sin_freqs + self.cos_freqs}")
        if not all(math.isfinite(a) for a in self.sin_amps + self.cos_amps):
            raise ValueError(f"all amplitudes must be finite, got {self.sin_amps + self.cos_amps}")

    def __call__(self, t):
        tt = _as_times(t)
        out = np.zeros_like(tt)
        for a, f in zip(self.sin_amps, self.sin_freqs):
            out = out + a * np.sin(TWO_PI * f * tt)
        for a, f in zip(self.cos_amps, self.cos_freqs):
            out = out + a * np.cos(TWO_PI * f * tt)
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class GaussPulseSignal:
    """Gaussian-modulated cosine pulse exp(-t^2 / (2 v)) * cos(2 pi fc t).

    The envelope variance v is fixed by requiring the pulse spectrum to sit
    ``bwr_db`` decibels below its peak at the edges of the fractional
    bandwidth ``bandwidth`` (the usual -6 dB convention of gauspuls-style
    generators):

        v = -2 ln(10^(bwr_db/20)) / (pi^2 bandwidth^2 center_freq^2)

    ``tpr_db`` sets where the envelope is considered negligible; see
    :meth:`cutoff_time`.
    """

    center_freq: float = 50e3
    bandwidth: float = 0.6
    bwr_db: float = -6.0
    tpr_db: float = -60.0

    def __post_init__(self):
        if not 0.0 < self.center_freq < math.inf:
            raise ValueError(f"center_freq must be positive and finite, got {self.center_freq}")
        if not 0.0 < self.bandwidth < 2.0:
            raise ValueError("bandwidth must lie in (0, 2)")
        if not (-math.inf < self.bwr_db < 0.0 and -math.inf < self.tpr_db < 0.0):
            raise ValueError(
                f"bwr_db and tpr_db are attenuations and must be negative and finite, "
                f"got bwr_db={self.bwr_db}, tpr_db={self.tpr_db}"
            )
        # Finite parameters can still over- or underflow the envelope.
        with np.errstate(all="ignore"):
            try:
                envelope = (self.time_variance, self.cutoff_time)
            except OverflowError:  # center_freq**2 overflows, so the variance underflows
                envelope = (0.0, 0.0)
        if not all(0.0 < v < math.inf for v in envelope):
            raise ValueError(
                f"center_freq={self.center_freq}, bandwidth={self.bandwidth}, bwr_db={self.bwr_db} and "
                f"tpr_db={self.tpr_db} give envelope variance {envelope[0]} s^2 and cutoff {envelope[1]} s; "
                f"both must be positive and finite"
            )

    @property
    def time_variance(self) -> float:
        """Envelope variance v in s^2."""
        ref = 10.0 ** (self.bwr_db / 20.0)
        return float(-2.0 * np.log(ref) / (np.pi**2 * self.bandwidth**2 * self.center_freq**2))

    @property
    def cutoff_time(self) -> float:
        """Half-width of the interval outside which the envelope is below tpr_db."""
        tref = 10.0 ** (self.tpr_db / 20.0)
        return float(np.sqrt(-2.0 * self.time_variance * np.log(tref)))

    def grid_points(self, sample_rate: float) -> int:
        """Samples of [-cutoff_time, +cutoff_time] at sample_rate, endpoints included.

        Raises ValueError, before anything is allocated, when that count N
        exceeds MAX_GRID_POINTS (2**27, a 1 GiB float64 grid).
        """
        if not 0.0 < sample_rate < math.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
        span = 2.0 * self.cutoff_time * sample_rate
        if not math.isfinite(span):
            raise ValueError(f"cutoff_time {self.cutoff_time} s at sample_rate {sample_rate} Hz gives no finite grid")
        n = int(np.floor(span)) + 1
        if n > MAX_GRID_POINTS:
            raise ValueError(
                f"center_freq {self.center_freq} Hz at sample_rate {sample_rate} Hz gives a grid of N={n:.4g} points, "
                f"above the limit of {MAX_GRID_POINTS}"
            )
        return n

    def envelope(self, t):
        tt = _as_times(t)
        out = np.exp(-(tt * tt) / (2.0 * self.time_variance))
        return float(out) if np.ndim(t) == 0 else out

    def __call__(self, t):
        tt = _as_times(t)
        out = np.exp(-(tt * tt) / (2.0 * self.time_variance)) * np.cos(TWO_PI * self.center_freq * tt)
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class SquareSignal:
    """Periodic square wave: +amplitude on the first duty*period of each
    period, -amplitude on the rest. A transition instant belongs to the
    segment it opens, so signal(0) == +amplitude and
    signal(duty*period) == -amplitude.
    """

    period: float = 0.5
    duty: float = 0.5
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie strictly between 0 and 1")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")

    def __call__(self, t):
        phase = np.mod(_as_times(t) / self.period, 1.0)
        out = np.where(phase < self.duty, self.amplitude, -self.amplitude)
        return float(out) if np.ndim(t) == 0 else out


ContinuousSignal = TrigSignal | GaussPulseSignal | SquareSignal


@dataclass(frozen=True)
class UniformSignal:
    """N real samples on the uniform grid t0 + n*interval, n = 0..N-1."""

    values: np.ndarray
    interval: float
    origin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("a uniform signal needs at least two samples")
        _check_grid(self.interval, self.origin)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.origin + np.arange(len(self.values)) * self.interval


@dataclass(frozen=True)
class RandomSampleSet:
    """Signal values at strictly increasing sample times.

    ``duration`` and ``seed`` are bookkeeping carried from the time draw; they
    make a measurement reproducible without re-deriving it.
    """

    times: np.ndarray
    values: np.ndarray
    duration: float
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one sample time")
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def _check_grid(interval: float, origin: float) -> None:
    if not 0.0 < interval < math.inf:
        raise ValueError(f"interval must be positive and finite, got {interval}")
    if not math.isfinite(origin):
        raise ValueError(f"grid origin must be finite, got {origin}")


def grid_origin(signal) -> float:
    """Where a signal's grid starts unless told otherwise: at -cutoff_time for
    a pulse, so that the grid covers its support; at 0 for any other signal."""
    return -signal.cutoff_time if isinstance(signal, GaussPulseSignal) else 0.0


def uniform_samples(signal, n: int, interval: float, t0: float = 0.0) -> UniformSignal:
    """Evaluate ``signal`` on the n-point grid t0 + k*interval, k = 0..n-1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_grid(interval, t0)
    times = t0 + np.arange(n) * interval
    return UniformSignal(values=signal(times), interval=interval, origin=t0)


def draw_random_times(m: int, duration: float, t0: float = 0.0, seed: int = 0) -> np.ndarray:
    """Draw m i.i.d. uniform times on [t0, t0 + duration), sorted ascending.

    Deterministic for a given seed. Coincident values after sorting (a
    floating-point possibility) trigger a redraw of the whole set, so the
    result is strictly increasing while staying i.i.d. uniform. After
    MAX_TIME_DRAWS draws with a coincidence, ValueError is raised: the window
    then holds too few doubles for m distinct times.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if not math.isfinite(t0 + duration):
        raise ValueError(f"t0 and t0 + duration must be finite, got t0={t0}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TIME_DRAWS):
        times = np.sort(rng.uniform(t0, t0 + duration, size=m))
        if np.all(np.diff(times) > 0.0):
            return times
    raise ValueError(
        f"m={m} times drawn on [t0, t0 + duration) with t0={t0}, duration={duration} coincided in all "
        f"{MAX_TIME_DRAWS} draws; the window holds too few distinct floating-point values"
    )


def sample_at(signal, times, duration: float | None = None, seed: int | None = None) -> RandomSampleSet:
    """Evaluate ``signal`` at strictly increasing ``times``.

    ``duration``/``seed`` are attached as metadata; when duration is omitted
    it defaults to the sampled span.
    """
    times = _as_times(times)
    if duration is None:
        duration = float(times[-1] - times[0]) if len(times) > 1 else 0.0
    return RandomSampleSet(times=times, values=signal(times), duration=duration, seed=seed)
