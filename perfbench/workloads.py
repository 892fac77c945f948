"""Workload definitions shared by the orchestrator and its child processes.

Plain data only (no numpy, no randsamp), so the orchestrating process stays
light and its clock starts before any library work.

One operation is one recovery run: draw -> sample -> build M0 -> recover ->
score. A round calls ``run_experiment`` once per configuration, each call
with ``runs_per_call`` runs under the round's master seed. A workload has
``input_rounds`` distinct master seeds, all derived from the benchmark seed;
the measuring process runs every one of them once and then cycles through
them again until the measuring window closes. Accuracy figures are taken
over the distinct rounds, so they are a pure function of the seed.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    # (label, ExperimentConfig keyword arguments); the first entry is the one
    # whose cold first run ends set-up.
    configs: tuple[tuple[str, dict], ...]
    runs_per_call: int
    input_rounds: int
    # The reference has jumps, so the interior error needs every run's
    # recovered signal and the replay covers every distinct round, not just
    # the first.
    replay_all: bool = False
    # (label, exception type, message) of a slice that fails today because of
    # a known fault in the program; its failures are counted, not treated as
    # wrong. A failure matches only with this exact message.
    known_failure: tuple[str, str, str] | None = None


TRUNCATION_P = (2, 20, 200, 2000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trig-sweep",
            configs=(
                ("naive", {"preset": "trig", "method": "naive"}),
                ("poisson", {"preset": "trig", "method": "poisson"}),
                *(
                    (f"truncated-{p}", {"preset": "trig", "method": "truncated", "p_terms": p})
                    for p in TRUNCATION_P
                ),
            ),
            runs_per_call=4,
            input_rounds=10,
        ),
        Workload(
            name="pulse",
            configs=(
                ("10MHz", {"preset": "gauspuls"}),
                ("9.99MHz", {"preset": "gauspuls", "sample_rate": 9.99e6}),
            ),
            runs_per_call=12,
            input_rounds=100,
            # periodized_sinc rejects odd N, so the first build raises.
            known_failure=("9.99MHz", "ValueError", "n_grid must be an even integer >= 2"),
        ),
        Workload(
            name="square-tv",
            configs=(("square", {"preset": "square"}),),
            runs_per_call=1,
            input_rounds=16,
            replay_all=True,
        ),
    )
}


def round_master_seed(wl: Workload, seed: int, round_index: int) -> int:
    """Master seed handed to the program for one round of a workload.

    A pure function of the benchmark seed: the program never sees ``seed``
    itself, only the 63-bit values derived from it here. Rounds past
    ``input_rounds`` reuse the seeds of the first ones.
    """
    return random.Random(f"{wl.name}/{seed}/{round_index % wl.input_rounds}").getrandbits(63)


def make_configs(rs, wl: Workload, master_seed: int):
    """(label, ExperimentConfig) per configuration of one round; ``rs`` is
    the imported randsamp package."""
    return [
        (label, rs.ExperimentConfig(runs=wl.runs_per_call, master_seed=master_seed, **kw))
        for label, kw in wl.configs
    ]


def run_key(config: str, master_seed: int, run_id: int) -> str:
    """Identifies one recovery run across the measured and replayed passes."""
    return f"{config}/{master_seed}/{run_id}"


@dataclass
class Tally:
    """What the measuring process's output says, read once for the end-to-end
    metrics and the correctness checks alike."""

    attempted: int = 0
    # (config, exception type or "solver failure", message) per failed run
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    # run key -> (error, exception type or None)
    outcomes: dict[str, tuple[float, str | None]] = field(default_factory=dict)
    # completed-run errors by config over the distinct rounds
    errors: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    # completed runs per second of timed calls, per round
    rates: list[float] = field(default_factory=list)
    # wall seconds of each run_experiment call, by config
    batch: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    @property
    def failed(self) -> int:
        return len(self.failures)


def tally(measured: dict, wl: Workload) -> Tally:
    t = Tally()
    for index, rnd in enumerate(measured["rounds"]):
        done, seconds = 0, 0.0
        for call in rnd["calls"]:
            label = call["config"]
            t.attempted += call["runs"]
            seconds += call["seconds"]
            t.batch[label].append(call["seconds"])
            for run_id in range(call["runs"]):
                key = run_key(label, rnd["master_seed"], run_id)
                if "error_type" in call:
                    t.outcomes[key] = (math.nan, call["error_type"])
                    t.failures.append((label, call["error_type"], call["message"]))
                    continue
                error = call["errors"][run_id]
                t.outcomes[key] = (error, None)
                if math.isnan(error):
                    t.failures.append((label, "solver failure", ""))
                else:
                    done += 1
                    if index < wl.input_rounds:
                        t.errors[label].append(error)
        t.rates.append(done / seconds)
    return t
