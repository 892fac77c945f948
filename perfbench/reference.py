"""The benchmark's own references, written from the closed formulas of the
three presets rather than taken from ``randsamp.signals``.

Each reference gives the grid (N, origin, interval) and evaluates the
continuous signal at arbitrary times, so both the gridded truth and the
measurements the program should have taken can be checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Interior points are at least this many samples from any jump.
EDGE_GUARD = 5


@dataclass(frozen=True)
class Reference:
    n_grid: int
    t0: float
    interval: float
    evaluate: object  # callable: times (s) -> amplitudes
    grid: np.ndarray  # the signal on t0 + n * interval, n = 0..N-1
    jumps: tuple[int, ...] = ()  # grid indices n where the signal jumps between n-1 and n

    def edge_distance(self) -> np.ndarray:
        """Circular distance of every grid point from the nearest jump;
        larger than any grid index when there is no jump."""
        if not self.jumps:
            return np.full(self.n_grid, self.n_grid)
        d = np.abs(np.arange(self.n_grid)[:, None] - np.array(self.jumps)[None, :])
        return np.min(np.minimum(d, self.n_grid - d), axis=1)

    def interior(self) -> np.ndarray:
        return self.edge_distance() >= EDGE_GUARD


def _sampled(n_grid, t0, interval, evaluate) -> Reference:
    grid = evaluate(t0 + np.arange(n_grid) * interval)
    return Reference(n_grid, t0, interval, evaluate, grid)


def four_tone(t):
    t = np.asarray(t, dtype=float)
    w = 2.0 * math.pi * t
    return 0.3 * np.sin(50 * w) + 0.6 * np.cos(100 * w) + 0.1 * np.sin(200 * w) + 0.9 * np.cos(400 * w)


def trig_reference(rate: float = 800.0, n_grid: int = 256) -> Reference:
    return _sampled(n_grid, 0.0, 1.0 / rate, four_tone)


# Gaussian-modulated cosine: 50 kHz carrier, 60 % fractional bandwidth
# measured at -6 dB, support cut where the envelope falls to -60 dB.
PULSE_FC = 50e3
PULSE_BW = 0.6
PULSE_BW_DB = -6.0
PULSE_SUPPORT_DB = -60.0


def pulse_variance() -> float:
    """Envelope variance v of exp(-t^2 / (2 v)).

    The spectrum of that envelope is exp(-2 pi^2 v f^2); setting it to the
    -6 dB level at f = bw * fc / 2 gives v.
    """
    level = 10.0 ** (PULSE_BW_DB / 20.0)
    half_band = PULSE_BW * PULSE_FC / 2.0
    return -math.log(level) / (2.0 * math.pi**2 * half_band**2)


def pulse_half_support() -> float:
    """Time at which the envelope falls to the -60 dB level."""
    level = 10.0 ** (PULSE_SUPPORT_DB / 20.0)
    return math.sqrt(-2.0 * pulse_variance() * math.log(level))


def pulse_reference(rate: float) -> Reference:
    v = pulse_variance()
    half = pulse_half_support()

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t * t / (2.0 * v)) * np.cos(2.0 * math.pi * PULSE_FC * t)

    # Both ends of [-half, +half] on the grid when they fall on it.
    return _sampled(math.floor(2.0 * half * rate) + 1, -half, 1.0 / rate, evaluate)


def square_reference(rate: float = 240.0, n_grid: int = 240) -> Reference:
    """+1/-1 square wave with two periods across the grid, +1 first.

    On the grid the jumps fall exactly on grid points, so the gridded values
    come from integer arithmetic rather than from floating-point phases.
    """
    period = n_grid / (2.0 * rate)

    def evaluate(t):
        phase = np.mod(np.asarray(t, dtype=float) / period, 1.0)
        return np.where(phase < 0.5, 1.0, -1.0)

    quarter = n_grid // 4
    grid = np.where(np.arange(n_grid) % (2 * quarter) < quarter, 1.0, -1.0)
    return Reference(n_grid, 0.0, 1.0 / rate, evaluate, grid, jumps=(0, quarter, 2 * quarter, 3 * quarter))


def reference_for(config: dict) -> Reference:
    """Reference for one workload configuration (ExperimentConfig kwargs)."""
    preset = config["preset"]
    if preset == "trig":
        return trig_reference()
    if preset == "gauspuls":
        return pulse_reference(config.get("sample_rate", 10e6))
    return square_reference()
