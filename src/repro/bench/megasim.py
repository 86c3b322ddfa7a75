"""Experiment `megasim`: simulator throughput at 100k agents.

The scale workload of the simulation core: 100k agents (steady benign
Poisson traffic plus a pulsing botnet) driven through
:class:`~repro.net.sim.fastsim.FastSimulation`, reporting request and
event throughput and the decision fingerprint (request count,
difficulty and score aggregates).

The >=25x gate against the callback reference simulator lives in
``benchmarks/test_bench_megasim.py``: it times the reference on the
same :func:`build_workload` output and requires both decision
fingerprints to agree exactly (:func:`_fingerprints_agree`).  Timing
randomness comes from different RNG streams, so latency distributions
agree statistically rather than bit for bit; the decision-stream
bit-parity claim is gated per golden-trace scenario by
``tests/replay/test_fastsim_parity.py``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.bench.results import ExperimentResult
from repro.core.framework import AIPoWFramework
from repro.net.sim import patterns
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE

__all__ = ["MegasimConfig", "run_megasim_throughput", "build_workload"]


@dataclasses.dataclass(frozen=True, slots=True)
class MegasimConfig:
    """Parameters of the megasim throughput experiment.

    The default is the acceptance-gate shape: 100k agents, one second
    of simulated traffic, ~100k requests.  ``benign_rate`` and the
    botnet pulse keep arrival instants scattered, so a per-event
    engine sees realistic batch sizes (mostly 1) while the calendar
    queue quantizes the same instants into thousand-agent cohorts.
    """

    agents: int = 100_000
    benign_fraction: float = 0.8
    benign_rate: float = 0.5
    bot_rate: float = 3.0
    duration: float = 1.0
    tick: float = 0.01
    max_difficulty: int = 16
    seed: int = 0xF457
    corpus_size: int = 4000
    corpus_seed: int = 7

    def __post_init__(self) -> None:
        if self.agents < 2:
            raise ValueError(f"agents must be >= 2, got {self.agents}")
        if not 0.0 < self.benign_fraction < 1.0:
            raise ValueError(
                f"benign_fraction must be in (0, 1), got {self.benign_fraction}"
            )
        if self.duration <= 0 or self.tick <= 0:
            raise ValueError("duration and tick must be > 0")

    @property
    def benign_agents(self) -> int:
        return int(self.agents * self.benign_fraction)

    @property
    def bot_agents(self) -> int:
        return self.agents - self.benign_agents


def build_workload(config: MegasimConfig):
    """Population + fire schedule + deciders of the megasim workload."""
    from repro.attacks import BotnetAttacker

    population = AgentPopulation.make(
        [
            (BENIGN_PROFILE, config.benign_agents),
            (MALICIOUS_PROFILE, config.bot_agents),
        ],
        seed=config.seed,
    )
    rng = np.random.default_rng(config.seed ^ 0x9E37)
    benign = np.arange(config.benign_agents, dtype=np.int64)
    bots = np.arange(config.benign_agents, config.agents, dtype=np.int64)
    fire_times, fire_agents = patterns.merge_schedules(
        patterns.poisson_fires(
            benign, config.benign_rate, config.duration, rng
        ),
        patterns.pulse_fires(
            bots,
            config.bot_rate,
            config.duration,
            rng,
            on_seconds=0.4,
            off_seconds=0.4,
        ),
    )
    deciders = {
        MALICIOUS_PROFILE.name: BotnetAttacker(
            max_difficulty=config.max_difficulty
        )
    }
    return population, fire_times, fire_agents, deciders


def make_framework(config: MegasimConfig) -> AIPoWFramework:
    """The DAbR + Policy 2 framework every megasim-shaped run uses."""
    train, _ = generate_corpus(
        size=config.corpus_size, seed=config.corpus_seed
    ).split()
    return AIPoWFramework(DAbRModel().fit(train), policy_2())


def _decision_fingerprint(report) -> dict:
    """Engine-independent decision aggregates of a report."""
    overall = report.metrics.overall
    return {
        "requests": overall.total,
        "difficulty_mean": overall.difficulties.mean,
        "difficulty_min": overall.difficulties.min,
        "difficulty_max": overall.difficulties.max,
        "score_mean": overall.scores.mean,
    }


def _fingerprints_agree(left: dict, right: dict) -> bool:
    """Counts and extremes exactly; means within accumulation noise.

    The engines fold identical decision values through different
    accumulation orders (sequential Welford vs numpy block merges), so
    means agree to ~1e-12, not bit for bit.
    """
    import math

    return (
        left["requests"] == right["requests"]
        and left["difficulty_min"] == right["difficulty_min"]
        and left["difficulty_max"] == right["difficulty_max"]
        and math.isclose(
            left["difficulty_mean"], right["difficulty_mean"], rel_tol=1e-9
        )
        and math.isclose(
            left["score_mean"], right["score_mean"], rel_tol=1e-9
        )
    )


def run_megasim_throughput(
    config: MegasimConfig | None = None,
) -> ExperimentResult:
    """Time FastSimulation on the megasim workload; tabulate it."""
    config = config or MegasimConfig()
    population, fire_times, fire_agents, deciders = build_workload(config)
    fast = FastSimulation(
        make_framework(config),
        seed=config.seed,
        solve_deciders=deciders,
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        tick=config.tick,
    )
    started = time.perf_counter()
    report = fast.run_fires(population, fire_times, fire_agents)
    wall = time.perf_counter() - started

    fingerprint = _decision_fingerprint(report)
    requests = report.requests
    events_per_s = report.events_processed / wall
    return ExperimentResult(
        experiment_id="megasim",
        title="Simulation core at scale - SoA/calendar-queue fastsim",
        headers=["engine", "requests", "wall_s", "requests_per_s", "events_per_s"],
        rows=[["fastsim", requests, wall, requests / wall, events_per_s]],
        notes=[
            f"{config.agents:,} agents ({config.benign_agents:,} benign "
            f"poisson + {config.bot_agents:,} pulsing bots)",
            f"mean difficulty {fingerprint['difficulty_mean']:.3f}; "
            f"cohorts up to {fast.largest_arrival_batch:,} requests, "
            f"tick {config.tick:g}s",
            "speedup over the callback reference simulator: gated >=25x "
            "by benchmarks/test_bench_megasim.py",
        ],
        extra={
            "fast_wall": wall,
            "fast_events_per_s": events_per_s,
            "decision_fingerprint": fingerprint,
        },
    )
