"""Experiment `onset`: attack-onset dynamics and the adaptive surcharge.

The aggregate throttling experiment (`throttle`) averages over a whole
run; this one charts *dynamics*: a botnet ramps up mid-run, and we
track per-second benign latency and attacker served-rate under

* a **static** policy (the paper's Policy 2), and
* the same policy wrapped in a **load-adaptive** surcharge
  (:class:`~repro.policies.adaptive.LoadAdaptivePolicy`) driven by the
  server's queue backlog — the "amount of work inflicted by a puzzle is
  adaptive and can be tuned" claim, exercised end-to-end.
"""

from __future__ import annotations

import dataclasses
import math

from repro.attacks.botnet import BotnetAttacker
from repro.bench.results import ExperimentResult
from repro.core.framework import AIPoWFramework
from repro.metrics.timeseries import TimelineCollector
from repro.net.sim.fastsim import FastSimulation
from repro.net.sim.simulation import ServerModel, SimulationReport
from repro.policies.adaptive import LoadAdaptivePolicy
from repro.policies.linear import policy_2
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus
from repro.traffic.arrivals import poisson_arrivals, ramp_arrivals
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE
from repro.traffic.trace import Trace, TraceEntry

__all__ = ["OnsetConfig", "run_onset"]


@dataclasses.dataclass(frozen=True, slots=True)
class OnsetConfig:
    """Parameters of the onset experiment."""

    duration: float = 30.0
    attack_start: float = 10.0
    benign_clients: int = 15
    attacker_bots: int = 12
    peak_attack_rate: float = 15.0
    window: float = 3.0
    corpus_size: int = 2000
    seed: int = 97

    def __post_init__(self) -> None:
        if not 0.0 < self.attack_start < self.duration:
            raise ValueError("attack_start must fall inside the run")
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")


def _build_trace(config: OnsetConfig) -> Trace:
    """Benign steady-state plus a botnet ramping in at attack_start."""
    generator = WorkloadGenerator(seed=config.seed)
    benign = generator.population(BENIGN_PROFILE, config.benign_clients)
    bots = generator.population(MALICIOUS_PROFILE, config.attacker_bots)

    import random

    rng = random.Random(config.seed ^ 0xB00)
    entries: list[TraceEntry] = []
    for client in benign:
        for t in poisson_arrivals(
            client.profile.request_rate, config.duration, rng
        ):
            entries.append(
                TraceEntry(
                    request=generator.request_for(client, t),
                    profile=client.profile.name,
                    true_score=client.true_score,
                )
            )
    ramp_span = config.duration - config.attack_start
    for bot in bots:
        for t in ramp_arrivals(
            config.peak_attack_rate, ramp_span, rng, start=config.attack_start
        ):
            entries.append(
                TraceEntry(
                    request=generator.request_for(bot, t),
                    profile=bot.profile.name,
                    true_score=bot.true_score,
                )
            )
    return Trace(entries)


def _run_one(
    config: OnsetConfig, adaptive: bool
) -> tuple[TimelineCollector, SimulationReport]:
    """One policy's run: its per-window timeline and the run report."""
    train, _ = generate_corpus(size=config.corpus_size, seed=7).split()
    policy = policy_2()
    if adaptive:
        policy = LoadAdaptivePolicy(policy, max_surcharge=4, smoothing=0.2)
    framework = AIPoWFramework(DAbRModel().fit(train), policy)
    trace = _build_trace(config)
    profiles = {entry.request.client_ip: entry.profile for entry in trace}
    timeline = TimelineCollector(window=config.window).attach(
        framework.events,
        lambda response: profiles[response.decision.request.client_ip],
    )
    attacker = BotnetAttacker()
    simulation = FastSimulation(
        framework,
        seed=config.seed,
        solve_deciders={MALICIOUS_PROFILE.name: attacker.should_solve},
        patiences={
            BENIGN_PROFILE.name: BENIGN_PROFILE.patience,
            MALICIOUS_PROFILE.name: MALICIOUS_PROFILE.patience,
        },
        server_model=ServerModel(resource_cost=0.004),
    )
    report = simulation.run(trace, until=config.duration * 2)
    return timeline, report


def run_onset(config: OnsetConfig | None = None) -> ExperimentResult:
    """Chart per-window dynamics for static vs load-adaptive policies."""
    config = config or OnsetConfig()
    static, _ = _run_one(config, adaptive=False)
    adaptive, _ = _run_one(config, adaptive=True)

    def lookup(pairs: list[tuple[float, float]], start: float) -> float:
        for t, value in pairs:
            if abs(t - start) < 1e-9:
                return value
        return math.nan

    rows = []
    windows = [w for w, _ in static.request_rate("benign")]
    for start in windows:
        rows.append(
            [
                start,
                "attack" if start >= config.attack_start else "calm",
                lookup(static.latency_means("benign"), start) * 1000.0,
                lookup(adaptive.latency_means("benign"), start) * 1000.0,
                lookup(static.served_rate("malicious"), start),
                lookup(adaptive.served_rate("malicious"), start),
            ]
        )
    return ExperimentResult(
        experiment_id="onset",
        title=(
            "Attack onset - per-window benign latency and attacker "
            f"served-rate (attack ramps from t={config.attack_start:g}s)"
        ),
        headers=[
            "window_s", "phase",
            "benign_ms_static", "benign_ms_adaptive",
            "mal_served_ps_static", "mal_served_ps_adaptive",
        ],
        rows=rows,
        notes=[
            "adaptive = policy-2 + load surcharge (max +4 bits) driven by "
            "server backlog",
            "expected shape: under attack the adaptive column suppresses "
            "attacker served-rate below the static column",
        ],
        extra={
            "attack_start": config.attack_start,
            "windows": windows,
        },
    )
