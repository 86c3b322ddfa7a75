"""Bench: FastSimulation vs the callback reference simulator.

The acceptance gate of the million-agent simulation core: at 100k
agents the SoA/calendar-queue engine must simulate the identical
workload at least 25x faster than the callback reference simulator
(``tests/reference_sim.py``), while making exactly the same admission
decisions.  The plain gate test enforces the ratio in the tier-1
suite; the pytest-benchmark variants archive the absolute engine costs
for the nightly regression check (BENCH_baseline.json).
"""

from __future__ import annotations

import time

import pytest

from reference_sim import Simulation
from repro.bench.megasim import (
    MegasimConfig,
    _decision_fingerprint,
    _fingerprints_agree,
    build_workload,
    make_framework,
    run_megasim_throughput,
)
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2

MIN_SPEEDUP = 25.0


def test_megasim_25x_gate_at_100k_agents():
    """The tentpole gate: >=25x at 100k agents, decisions identical.

    The reference's decision aggregates (request counts, difficulty
    stats, mean score) must match FastSimulation's exactly; a mismatch
    fails before any ratio is checked.
    """
    config = MegasimConfig(agents=100_000)
    result = run_megasim_throughput(config)
    population, fire_times, fire_agents, deciders = build_workload(config)
    reference = Simulation(
        make_framework(config),
        seed=config.seed,
        solve_deciders={
            name: decider.should_solve for name, decider in deciders.items()
        },
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
    )
    trace = population.to_trace(fire_times, fire_agents)
    started = time.perf_counter()
    reference_report = reference.run(trace)
    reference_wall = time.perf_counter() - started

    fingerprint = result.extra["decision_fingerprint"]
    reference_fingerprint = _decision_fingerprint(reference_report)
    assert _fingerprints_agree(reference_fingerprint, fingerprint), (
        "engines disagree on admission decisions: "
        f"{reference_fingerprint} vs {fingerprint}"
    )
    speedup = reference_wall / result.extra["fast_wall"]
    assert speedup >= MIN_SPEEDUP, (
        f"fastsim speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x "
        f"floor (reference {reference_wall:.2f}s, "
        f"fastsim {result.extra['fast_wall']:.2f}s)"
    )


@pytest.fixture(scope="module")
def gate_workload(fitted_dabr):
    config = MegasimConfig(agents=100_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    return config, population, fire_times, fire_agents, deciders


def test_fastsim_100k_agents(benchmark, gate_workload, fitted_dabr):
    """Archive the vectorized engine's cost on the 100k gate workload."""
    config, population, fire_times, fire_agents, deciders = gate_workload

    def run():
        simulation = FastSimulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders=deciders,
            tick=config.tick,
        )
        return simulation.run_fires(population, fire_times, fire_agents)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == fire_times.size
    benchmark.extra_info["requests"] = report.requests
    benchmark.extra_info["events"] = report.events_processed


def test_callback_reference_20k_agents(benchmark, fitted_dabr):
    """Archive the callback reference's cost at a fifth of the gate scale.

    20k agents keeps the nightly benchmark round affordable while
    still tracking the reference engine's per-request cost (which is
    what the speedup ratio divides by).
    """
    config = MegasimConfig(agents=20_000)
    population, fire_times, fire_agents, deciders = build_workload(config)
    trace = population.to_trace(fire_times, fire_agents)

    def run():
        simulation = Simulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders={
                name: attacker.should_solve
                for name, attacker in deciders.items()
            },
        )
        return simulation.run(trace)

    report = benchmark.pedantic(run, iterations=1, rounds=2)
    assert report.requests == len(trace)
    benchmark.extra_info["requests"] = report.requests
