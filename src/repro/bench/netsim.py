"""Experiment `netsim`: lossy-link simulation throughput.

The link-substrate sibling of :mod:`repro.bench.megasim`: the same
shape of workload (steady benign Poisson traffic plus a pulsing
botnet) is pushed through a lossy mobile access network — per-agent
hashed RTTs, 2% request/solution loss, exponential-backoff retries —
on :class:`~repro.net.sim.fastsim.FastSimulation`, and the experiment
reports its throughput and network-layer outcome counters.

The link profile is deliberately loss/RTT-only (no bandwidth cap):
loss draws are hashed from request ids and retry schedules are exact
float arithmetic, so the *set of requests reaching admission* — and
therefore every admission decision — is identical on any engine even
under calendar-queue tick quantization.  A bandwidth-capped queue
would couple exits to tick-quantized arrival instants and break that
exactness; that regime is parity-tested separately at ``tick=None``
(see ``tests/replay/test_links_parity.py`` and DESIGN.md §1.6).

The >=5x gate against the callback reference simulator, with its
decision-fingerprint and request-leg give-up checks, lives in
``benchmarks/test_bench_netsim.py``.
"""

from __future__ import annotations

import dataclasses
import time

from repro.bench.megasim import (
    MegasimConfig,
    _decision_fingerprint,
    build_workload,
    make_framework,
)
from repro.bench.results import ExperimentResult
from repro.net.sim.fastsim import FastSimulation
from repro.net.sim.links import LinkSet, resolve_link_profile
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE

__all__ = ["NetsimConfig", "run_netsim_throughput"]


@dataclasses.dataclass(frozen=True, slots=True)
class NetsimConfig:
    """Parameters of the netsim throughput experiment.

    The default is the acceptance-gate shape: 40k agents on a lossy
    mobile access network, one second of simulated traffic.  Smaller
    than the megasim gate because the callback reference the gate
    times pays for every retransmission event too.
    """

    agents: int = 40_000
    link_profile: str = "lossy-mobile"
    duration: float = 1.0
    tick: float = 0.01
    seed: int = 0xF457
    link_seed: int = 0x11AB

    def __post_init__(self) -> None:
        if self.agents < 2:
            raise ValueError(f"agents must be >= 2, got {self.agents}")
        if self.duration <= 0 or self.tick <= 0:
            raise ValueError("duration and tick must be > 0")
        profile = resolve_link_profile(self.link_profile)
        if profile.bandwidth is not None:
            raise ValueError(
                f"link profile {self.link_profile!r} is bandwidth-capped; "
                "the netsim gate needs a loss/RTT-only profile so "
                "decisions stay exact under tick quantization"
            )

    def megasim_config(self) -> MegasimConfig:
        return MegasimConfig(
            agents=self.agents,
            duration=self.duration,
            tick=self.tick,
            seed=self.seed,
        )

    def link_set(self) -> LinkSet:
        """Both populations ride the same access-network profile."""
        return LinkSet(
            {
                BENIGN_PROFILE.name: self.link_profile,
                MALICIOUS_PROFILE.name: self.link_profile,
            },
            seed=self.link_seed,
        )


def run_netsim_throughput(
    config: NetsimConfig | None = None,
) -> ExperimentResult:
    """Time FastSimulation on the lossy-link workload; tabulate it."""
    config = config or NetsimConfig()
    mega = config.megasim_config()
    population, fire_times, fire_agents, deciders = build_workload(mega)
    fast = FastSimulation(
        make_framework(mega),
        seed=config.seed,
        solve_deciders=deciders,
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        tick=config.tick,
        links=config.link_set(),
    )
    started = time.perf_counter()
    report = fast.run_fires(population, fire_times, fire_agents)
    wall = time.perf_counter() - started

    fingerprint = _decision_fingerprint(report)
    stats = report.link_stats
    requests = report.requests
    events_per_s = report.events_processed / wall
    return ExperimentResult(
        experiment_id="netsim",
        title=(
            "Vectorized lossy-link substrate - fastsim over a lossy "
            "access network"
        ),
        headers=["engine", "requests", "wall_s", "requests_per_s", "events_per_s"],
        rows=[["fastsim", requests, wall, requests / wall, events_per_s]],
        notes=[
            f"{config.agents:,} agents behind {config.link_profile!r} "
            "links",
            f"mean difficulty {fingerprint['difficulty_mean']:.3f}",
            f"network: {stats.summary()}",
            "speedup over the callback reference simulator: gated >=5x "
            "by benchmarks/test_bench_netsim.py",
        ],
        extra={
            "fast_wall": wall,
            "fast_events_per_s": events_per_s,
            "decision_fingerprint": fingerprint,
            "link_stats": stats.as_dict(),
        },
    )
