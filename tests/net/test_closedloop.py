"""Tests for closed-loop session simulation (``FastSimulation.run_sessions``)."""

from __future__ import annotations

import random

import pytest

from repro.core.framework import AIPoWFramework
from repro.net.sim.closedloop import SessionSpec
from repro.net.sim.fastsim import FastSimulation
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import make_population
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE


def make_sessions(count=4, exchanges=5, profile=BENIGN_PROFILE, think=0.5):
    rng = random.Random(17)
    clients = make_population(profile, count, rng)
    return [
        SessionSpec(client=c, exchanges=exchanges, think_time=think)
        for c in clients
    ]


def fixed_framework(difficulty=4):
    return AIPoWFramework(ConstantModel(0.0), FixedPolicy(difficulty))


class TestSessions:
    def test_all_exchanges_complete(self):
        sessions = make_sessions(count=3, exchanges=4)
        report = FastSimulation(fixed_framework(), seed=1).run_sessions(
            sessions
        )
        assert report.completed_exchanges == 12
        assert report.metrics.overall.total == 12
        assert report.sessions == 3

    def test_deterministic(self):
        def run():
            report = FastSimulation(fixed_framework(), seed=2).run_sessions(
                make_sessions()
            )
            return (
                report.completed_exchanges,
                report.duration,
                report.metrics.overall.latencies.median(),
            )

        assert run() == run()

    def test_zero_think_time(self):
        sessions = make_sessions(count=1, exchanges=3, think=0.0)
        report = FastSimulation(fixed_framework(), seed=3).run_sessions(
            sessions
        )
        assert report.completed_exchanges == 3

    def test_empty_sessions_rejected(self):
        with pytest.raises(ValueError):
            FastSimulation(fixed_framework()).run_sessions([])

    def test_spec_validation(self):
        rng = random.Random(1)
        client = make_population(BENIGN_PROFILE, 1, rng)[0]
        with pytest.raises(ValueError):
            SessionSpec(client=client, exchanges=0)
        with pytest.raises(ValueError):
            SessionSpec(client=client, think_time=-1.0)
        with pytest.raises(ValueError):
            SessionSpec(client=client, start=-1.0)


class TestClosedLoopDynamics:
    def test_harder_puzzles_stretch_session_duration(self):
        def duration(difficulty: int) -> float:
            report = FastSimulation(
                fixed_framework(difficulty), seed=4
            ).run_sessions(make_sessions(count=2, exchanges=5, think=0.1))
            return report.duration

        assert duration(14) > duration(2)

    def test_pow_self_throttles_closed_loop_offered_load(self):
        """The closed-loop effect: latency reduces the client's own rate.

        The same client population completes fewer exchanges per second
        when puzzles are hard — no patience or refusal involved.
        """

        def throughput(difficulty: int) -> float:
            report = FastSimulation(
                fixed_framework(difficulty), seed=5
            ).run_sessions(make_sessions(count=4, exchanges=8, think=0.2))
            return report.throughput

        assert throughput(15) < throughput(1) / 2

    def test_impatient_profile_abandons(self):
        rng = random.Random(6)
        clients = make_population(MALICIOUS_PROFILE, 2, rng)  # patience 10 s
        sessions = [
            SessionSpec(client=c, exchanges=3, think_time=0.1)
            for c in clients
        ]
        simulation = FastSimulation(
            fixed_framework(22), seed=6,
            hash_rates={"malicious": 1_000.0},
        )
        report = simulation.run_sessions(sessions)
        from repro.core.records import ResponseStatus

        outcomes = report.metrics.overall.outcomes
        assert outcomes[ResponseStatus.ABANDONED] > 0

    def test_sessions_continue_after_abandonment(self):
        """An abandoned exchange still advances the session loop."""
        rng = random.Random(7)
        clients = make_population(MALICIOUS_PROFILE, 1, rng)
        sessions = [SessionSpec(client=clients[0], exchanges=4)]
        simulation = FastSimulation(
            fixed_framework(26), seed=7,
            hash_rates={"malicious": 100.0},
        )
        report = simulation.run_sessions(sessions)
        assert report.completed_exchanges == 4
