"""Property-based invariants of the simulator.

The one invariant everything downstream relies on: requests are
conserved — every submitted request reaches exactly one terminal
outcome, for any workload mix, any policy, any seed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus
from repro.net.sim.fastsim import FastSimulation
from repro.policies.linear import LinearPolicy
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    benign=st.integers(1, 8),
    malicious=st.integers(1, 8),
    difficulty=st.integers(0, 14),
    pow_enabled=st.booleans(),
)
def test_requests_are_conserved(
    seed, benign, malicious, difficulty, pow_enabled
):
    generator = WorkloadGenerator(seed=seed)
    trace, _ = generator.mixed_trace(
        [(BENIGN_PROFILE, benign), (MALICIOUS_PROFILE, malicious)],
        duration=3.0,
    )
    framework = AIPoWFramework(ConstantModel(5.0), FixedPolicy(difficulty))
    report = FastSimulation(
        framework, seed=seed ^ 0x5555, pow_enabled=pow_enabled
    ).run(trace)

    overall = report.metrics.overall
    assert overall.total == len(trace)
    assert sum(overall.outcomes.values()) == len(trace)
    # Per-class totals partition the whole.
    per_class = sum(
        report.metrics.for_class(c).total
        for c in report.metrics.class_names()
    )
    assert per_class == len(trace)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    base=st.integers(0, 6),
    score=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_latency_floor_holds_for_any_policy(seed, base, score):
    """No served response can undercut the physical network floor."""
    generator = WorkloadGenerator(seed=seed)
    clients = generator.population(BENIGN_PROFILE, 3)
    trace = generator.open_loop_trace(clients, duration=2.0)
    framework = AIPoWFramework(ConstantModel(score), LinearPolicy(base=max(base, 1)))
    report = FastSimulation(framework, seed=seed).run(trace)
    overall = report.metrics.overall
    if len(overall.served_latencies):
        floor = framework.config.timing.network_overhead
        assert overall.served_latencies.min() >= floor * 0.99


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_all_outcomes_are_terminal_statuses(seed):
    generator = WorkloadGenerator(seed=seed)
    trace, _ = generator.mixed_trace(
        [(BENIGN_PROFILE, 2), (MALICIOUS_PROFILE, 2)], duration=2.0
    )
    framework = AIPoWFramework(ConstantModel(9.0), FixedPolicy(12))
    simulation = FastSimulation(
        framework,
        seed=seed,
        solve_deciders={"malicious": lambda d: d < 10},
        patiences={"benign": 0.5, "malicious": 0.5},
    )
    report = simulation.run(trace)
    seen = {
        status
        for status, count in report.metrics.overall.outcomes.items()
        if count
    }
    assert seen <= {
        ResponseStatus.SERVED,
        ResponseStatus.ABANDONED,
        ResponseStatus.EXPIRED,
    }
