"""randsamp: recover uniformly gridded signals from randomly timed samples.

The pieces, bottom up: test-signal generators and samplers (:mod:`.signals`),
three observation-matrix constructions linking the uniform grid to the random
sample times (:mod:`.obs_matrix`), the unitary DFT basis and the real
sensing matrix (:mod:`.fourier`), OMP and total-variation recovery
(:mod:`.solvers`), and a seeded benchmark harness (:mod:`.experiments`) with
a CLI front end (:mod:`.cli`). :mod:`.files` reads and writes their UTF-8
text files.
"""

from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    Reconstruction,
    RunRecord,
    derive_run_seed,
    reconstruct_once,
    relative_l2_error,
    resolve_plan,
    run_experiment,
    sweep_truncation,
)
from .fourier import dft_adjoint, dft_forward, poisson_sensing, sensing_matrix
from .obs_matrix import (
    ObservationMatrix,
    build,
    build_naive,
    build_poisson,
    build_truncated,
    load_matrix_csv,
    periodized_sinc,
    save_matrix_csv,
)
from .signals import (
    ContinuousSignal,
    GaussPulseSignal,
    RandomSampleSet,
    SquareSignal,
    TrigSignal,
    UniformSignal,
    draw_random_times,
    sample_at,
    uniform_samples,
)
from .solvers import (
    NonConvergenceError,
    OmpConfig,
    OverSelectionError,
    RecoveryError,
    RecoveryResult,
    SingularSystemError,
    TvConfig,
    omp_recover,
    total_variation,
    tv_gradient,
    tv_recover,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuousSignal",
    "ExperimentConfig",
    "ExperimentReport",
    "GaussPulseSignal",
    "NonConvergenceError",
    "ObservationMatrix",
    "OmpConfig",
    "OverSelectionError",
    "RandomSampleSet",
    "Reconstruction",
    "RecoveryError",
    "RecoveryResult",
    "RunRecord",
    "SingularSystemError",
    "SquareSignal",
    "TrigSignal",
    "TvConfig",
    "UniformSignal",
    "build",
    "build_naive",
    "build_poisson",
    "build_truncated",
    "derive_run_seed",
    "dft_adjoint",
    "dft_forward",
    "draw_random_times",
    "load_matrix_csv",
    "omp_recover",
    "periodized_sinc",
    "poisson_sensing",
    "reconstruct_once",
    "relative_l2_error",
    "resolve_plan",
    "run_experiment",
    "sample_at",
    "save_matrix_csv",
    "sensing_matrix",
    "sweep_truncation",
    "total_variation",
    "tv_gradient",
    "tv_recover",
    "uniform_samples",
]
