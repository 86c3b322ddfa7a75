"""Simulator substrate benches: event throughput and full-run cost.

Not a paper artifact — these keep the substrate honest (a slow
simulator silently caps the experiment sizes everything else uses).
"""

from __future__ import annotations

from reference_sim import EventEngine
from repro.core.framework import AIPoWFramework
from repro.net.sim.fastsim import FastSimulation
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE


def test_engine_event_throughput(benchmark):
    """Reference engine overhead: schedule + dispatch of 10k no-op events."""

    def run_10k():
        engine = EventEngine()
        for i in range(10_000):
            engine.schedule_at(float(i % 100), lambda: None)
        engine.run()
        return engine.processed_count

    assert benchmark(run_10k) == 10_000


def test_simulation_requests_per_second(benchmark):
    """Full pipeline cost per simulated request."""
    generator = WorkloadGenerator(seed=31)
    clients = generator.population(BENIGN_PROFILE, 20)
    trace = generator.open_loop_trace(clients, duration=60.0)
    framework = AIPoWFramework(ConstantModel(3.0), FixedPolicy(10))

    def run():
        return FastSimulation(framework, seed=1).run(trace)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == len(trace)
    benchmark.extra_info["simulated_requests"] = report.requests
