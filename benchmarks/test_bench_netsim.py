"""Bench: FastSimulation's lossy-link substrate vs the callback reference.

The acceptance gate of the link substrate: at 40k agents behind a
lossy mobile access network the vectorized engine must simulate the
identical workload — same losses, same retries, same admission
decisions — at least 5x faster than the callback reference simulator
(``tests/reference_sim.py``).  The floor leaves headroom for slow CI
runners.  The pytest-benchmark variant archives the absolute fastsim
cost for the nightly regression check (BENCH_baseline.json).
"""

from __future__ import annotations

import time

from reference_sim import Simulation
from repro.bench.megasim import (
    _decision_fingerprint,
    _fingerprints_agree,
    build_workload,
    make_framework,
)
from repro.bench.netsim import NetsimConfig, run_netsim_throughput
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import policy_2

MIN_SPEEDUP = 5.0


def test_netsim_5x_gate_at_40k_agents():
    """The link-substrate gate: >=5x at 40k agents, decisions identical.

    The two engines' decision aggregates must match exactly and their
    request-leg link give-ups must agree; a mismatch fails before any
    ratio is checked.
    """
    config = NetsimConfig(agents=40_000)
    result = run_netsim_throughput(config)
    mega = config.megasim_config()
    population, fire_times, fire_agents, deciders = build_workload(mega)
    reference = Simulation(
        make_framework(mega),
        seed=config.seed,
        solve_deciders={
            name: decider.should_solve for name, decider in deciders.items()
        },
        hash_rates={p.name: p.hash_rate for p in population.profiles},
        patiences={p.name: p.patience for p in population.profiles},
        links=config.link_set(),
    )
    trace = population.to_trace(fire_times, fire_agents)
    started = time.perf_counter()
    reference_report = reference.run(trace)
    reference_wall = time.perf_counter() - started

    fingerprint = result.extra["decision_fingerprint"]
    reference_fingerprint = _decision_fingerprint(reference_report)
    assert _fingerprints_agree(reference_fingerprint, fingerprint), (
        "engines disagree on admission decisions under loss: "
        f"{reference_fingerprint} vs {fingerprint}"
    )
    # Request-leg network outcomes are hash-keyed and exact on both
    # engines; solution-leg crossing counts are solve-timing-coupled
    # and only agree statistically (DESIGN.md §1.6).
    fast_stats = result.extra["link_stats"]
    reference_stats = reference_report.link_stats.as_dict()
    assert (
        fast_stats["request_give_ups"] == reference_stats["request_give_ups"]
    ), (
        "engines disagree on request-leg link give-ups: "
        f"{reference_stats} vs {fast_stats}"
    )
    speedup = reference_wall / result.extra["fast_wall"]
    assert speedup >= MIN_SPEEDUP, (
        f"fastsim lossy-link speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (reference {reference_wall:.2f}s, "
        f"fastsim {result.extra['fast_wall']:.2f}s)"
    )


def test_fastsim_lossy_40k_agents(benchmark, fitted_dabr):
    """Archive the vectorized engine's cost on the lossy 40k workload."""
    config = NetsimConfig(agents=40_000)
    mega = config.megasim_config()
    population, fire_times, fire_agents, deciders = build_workload(mega)

    def run():
        simulation = FastSimulation(
            AIPoWFramework(fitted_dabr, policy_2()),
            seed=config.seed,
            solve_deciders=deciders,
            tick=config.tick,
            links=config.link_set(),
        )
        return simulation.run_fires(population, fire_times, fire_agents)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == fire_times.size
    assert report.link_stats is not None and report.link_stats.lost > 0
    benchmark.extra_info["requests"] = report.requests
    benchmark.extra_info["events"] = report.events_processed
    benchmark.extra_info["link_stats"] = report.link_stats.as_dict()
