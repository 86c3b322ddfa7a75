"""Closed-loop session bench: PoW's self-throttling effect.

Open-loop floods keep offering load no matter how slow responses get;
closed-loop clients slow *themselves* down when puzzles are hard.  This
bench quantifies the self-throttling ratio — the per-session served
rate at high vs low difficulty — which is the mechanism behind the
framework's gentle handling of real (closed-loop) users.
"""

from __future__ import annotations

import random

from repro.core.framework import AIPoWFramework
from repro.net.sim.closedloop import SessionSpec
from repro.net.sim.fastsim import FastSimulation
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import make_population
from repro.traffic.profiles import BENIGN_PROFILE


def _run(difficulty: int, seed: int = 11) -> float:
    rng = random.Random(seed)
    clients = make_population(BENIGN_PROFILE, 8, rng)
    sessions = [
        SessionSpec(client=c, exchanges=10, think_time=0.2) for c in clients
    ]
    framework = AIPoWFramework(ConstantModel(0.0), FixedPolicy(difficulty))
    report = FastSimulation(framework, seed=seed).run_sessions(sessions)
    return report.throughput


def test_closed_loop_self_throttling(benchmark):
    def compare() -> tuple[float, float]:
        return _run(difficulty=1), _run(difficulty=14)

    easy, hard = benchmark.pedantic(compare, iterations=1, rounds=3)
    assert hard < easy
    benchmark.extra_info["throughput_easy_per_s"] = round(easy, 2)
    benchmark.extra_info["throughput_hard_per_s"] = round(hard, 2)
    benchmark.extra_info["self_throttle_ratio"] = round(easy / hard, 2)


def test_closed_loop_simulation_cost(benchmark):
    """Raw engine cost of the session-driven path."""
    result = benchmark(lambda: _run(difficulty=6))
    assert result > 0
