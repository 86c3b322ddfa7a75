"""Tests for channel models and the solve-time model."""

from __future__ import annotations

import random

import pytest

from repro.core.config import TimingConfig
from repro.net.sim.channel import (
    FixedDelayChannel,
    LognormalChannel,
    UniformJitterChannel,
)
from repro.net.sim.solvetime import SolveTimeModel


class TestChannels:
    def test_fixed_delay_constant(self):
        channel = FixedDelayChannel(0.005)
        rng = random.Random(1)
        assert all(
            channel.one_way_delay(rng) == 0.005 for _ in range(10)
        )

    def test_fixed_default_sums_to_overhead(self):
        timing = TimingConfig()
        channel = FixedDelayChannel()
        rng = random.Random(1)
        four_crossings = sum(channel.one_way_delay(rng) for _ in range(4))
        assert four_crossings == pytest.approx(timing.network_overhead)

    def test_uniform_jitter_bounds(self):
        channel = UniformJitterChannel(base=0.01, jitter=0.005)
        rng = random.Random(2)
        for _ in range(200):
            delay = channel.one_way_delay(rng)
            assert 0.01 <= delay <= 0.015

    def test_lognormal_positive_and_spread(self):
        channel = LognormalChannel(median=0.01, sigma=0.5)
        rng = random.Random(3)
        delays = [channel.one_way_delay(rng) for _ in range(500)]
        assert all(d > 0 for d in delays)
        assert max(delays) > 2 * min(delays)  # heavy-tailed spread

    def test_lognormal_median_approx(self):
        channel = LognormalChannel(median=0.01, sigma=0.3)
        rng = random.Random(4)
        delays = sorted(channel.one_way_delay(rng) for _ in range(2001))
        assert delays[1000] == pytest.approx(0.01, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDelayChannel(-0.1)
        with pytest.raises(ValueError):
            UniformJitterChannel(base=-1)
        with pytest.raises(ValueError):
            LognormalChannel(median=0.0)


class TestChannelContract:
    """The documented ``Channel`` contract (see channel.py docstring).

    Every shipped channel's batch hook must return float64 of shape
    ``(count,)`` with finite non-negative values — link composition
    adds these to hash-derived float64 link delays, and a narrower
    dtype would make the scalar and vectorized engines round
    differently.
    """

    CHANNELS = (
        FixedDelayChannel(0.005),
        FixedDelayChannel(0.0),  # zero delay is legal, not clamped away
        UniformJitterChannel(base=0.01, jitter=0.005),
        LognormalChannel(median=0.01, sigma=0.5),
    )

    @pytest.mark.parametrize(
        "channel", CHANNELS, ids=lambda c: type(c).__name__
    )
    def test_delay_array_dtype_and_shape(self, channel):
        import numpy as np

        for count in (0, 1, 257):
            delays = channel.delay_array(
                np.random.default_rng(11), count
            )
            assert delays.shape == (count,)
            assert delays.dtype == np.float64

    @pytest.mark.parametrize(
        "channel", CHANNELS, ids=lambda c: type(c).__name__
    )
    def test_delays_finite_and_non_negative(self, channel):
        import numpy as np

        delays = channel.delay_array(np.random.default_rng(12), 2000)
        assert np.all(np.isfinite(delays))
        assert np.all(delays >= 0.0)
        rng = random.Random(12)
        scalars = [channel.one_way_delay(rng) for _ in range(200)]
        assert all(0.0 <= d < float("inf") for d in scalars)

    def test_engines_clamp_negative_delays_at_zero(self):
        """A misbehaving third-party channel cannot schedule the past.

        Both engines clamp every drawn delay at zero (the documented
        backstop), so a negative-delay channel degrades to zero delay
        instead of corrupting the event order.
        """
        import numpy as np

        from reference_sim import Simulation
        from repro.core.framework import AIPoWFramework
        from repro.net.sim.fastsim import FastSimulation
        from repro.policies.table import FixedPolicy
        from repro.reputation.ensemble import ConstantModel
        from repro.traffic.generator import WorkloadGenerator
        from repro.traffic.profiles import BENIGN_PROFILE

        class NegativeDelayChannel:
            def one_way_delay(self, rng):
                return -0.5

            def delay_array(self, rng, count):
                return np.full(count, -0.5, dtype=np.float64)

        workload, _ = WorkloadGenerator(seed=13).mixed_trace(
            [(BENIGN_PROFILE, 20)], duration=3.0
        )
        assert workload, "clamp test needs a non-empty workload"
        for engine in (Simulation, FastSimulation):
            report = engine(
                AIPoWFramework(ConstantModel(0.0), FixedPolicy(1)),
                channel=NegativeDelayChannel(),
                seed=6,
            ).run(workload)
            served = report.metrics.overall
            assert served.total == len(workload)
            assert served.latencies.min() >= 0.0


class TestSolveTimeModel:
    def test_default_hash_rate_from_timing(self):
        timing = TimingConfig(seconds_per_attempt=1e-5)
        model = SolveTimeModel(timing)
        assert model.default_hash_rate == pytest.approx(1e5)

    def test_sample_deterministic_with_rng(self):
        model = SolveTimeModel()
        a = model.sample(8, random.Random(5))
        b = model.sample(8, random.Random(5))
        assert a == b

    def test_sample_time_consistent_with_attempts(self):
        model = SolveTimeModel()
        sample = model.sample(6, random.Random(6))
        assert sample.seconds == pytest.approx(
            sample.attempts / model.default_hash_rate
        )

    def test_hash_rate_override_scales_time(self):
        model = SolveTimeModel()
        slow = model.sample(8, random.Random(7), hash_rate=1000.0)
        fast = model.sample(8, random.Random(7), hash_rate=2000.0)
        assert slow.attempts == fast.attempts
        assert slow.seconds == pytest.approx(2 * fast.seconds)

    def test_mean_and_median_analytics(self):
        model = SolveTimeModel(TimingConfig(seconds_per_attempt=1e-6))
        assert model.mean_seconds(10) == pytest.approx(1024e-6)
        assert model.median_seconds(10) < model.mean_seconds(10)

    def test_invalid_hash_rate_rejected(self):
        model = SolveTimeModel()
        with pytest.raises(ValueError):
            model.sample(4, random.Random(1), hash_rate=0.0)

    def test_mean_sample_converges(self):
        model = SolveTimeModel()
        rng = random.Random(8)
        n = 3000
        mean = sum(model.sample(6, rng).attempts for _ in range(n)) / n
        assert mean == pytest.approx(2**6, rel=0.15)
