"""``sim-flood``: the ``congestion-coupled-flood`` campaign, repeated.

Each run cycles through :data:`SEEDS` campaign seeds derived from the
workload seed and runs the campaign through ``run_campaign`` (the
vectorized :class:`~repro.net.sim.fastsim.FastSimulation`) until the
run's time is up.  Two probes record what the engine already measures:
the per-cohort phase times it hands to its ``PhaseTimer`` and the moment
the campaign's set-up ends and the engine starts (``run_fires``).  The
phase probe also runs the host-speed reference every
:data:`TICK_EVERY` cohorts; the time those ticks take is taken back out
of the engine time.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from array import array

import numpy as np

from repro.net.sim.fastsim import FastSimulation
from repro.obs.registry import PhaseTimer
from repro.replay.campaign import CAMPAIGNS, run_campaign

from perfbench.metrics import Outcome, layer_metrics, ms_percentiles
from perfbench.procs import vm_hwm_mb
from perfbench.speed import Speedometer
from perfbench.tracing import Tracer

CAMPAIGN = "congestion-coupled-flood"
SEEDS = 3
#: Phase-timer calls between two host-speed reference ticks.
TICK_EVERY = 50
PHASES = ("arrive", "fifo", "solve", "xmit", "xmitsol")


class Probe:
    """Class-level hooks on the engine's own timing calls."""

    def __init__(self, speed: Speedometer) -> None:
        #: ``phase -> (moments, seconds, items)`` of the cohorts of the
        #: phases the end-to-end latencies come from.
        self.cohorts = {
            phase: (array("d"), array("d"), array("q"))
            for phase in ("arrive", "solve")
        }
        self.calls = 0
        self.engine_started: float | None = None
        #: Wall seconds the speed reference took inside the engine.
        self.tick_s = 0.0
        #: Off in traced campaigns, whose spans would count the ticks.
        self.ticking = True
        #: Off once the measured campaigns are done.
        self.recording = True
        self._speed = speed
        self._saved = []

    def install(self) -> None:
        probe = self
        observe = PhaseTimer.observe
        run_fires = FastSimulation.run_fires

        def observed(timer, phase, seconds, items=0):
            series = probe.cohorts.get(phase)
            if series is not None and probe.recording:
                series[0].append(time.perf_counter())
                series[1].append(seconds)
                series[2].append(items)
            probe.calls += 1
            ticking = probe.ticking and probe.recording
            if ticking and probe.calls % TICK_EVERY == 0:
                start = time.perf_counter()
                probe._speed.tick()
                probe.tick_s += time.perf_counter() - start
            return observe(timer, phase, seconds, items)

        def started(simulation, *args, **kwargs):
            probe.engine_started = time.perf_counter()
            return run_fires(simulation, *args, **kwargs)

        self._saved = [(PhaseTimer, "observe", observe),
                       (FastSimulation, "run_fires", run_fires)]
        PhaseTimer.observe = observed
        FastSimulation.run_fires = started

    def per_request_ms(self, phase: str, speed: Speedometer) -> dict:
        """p50 and p90, in ms at nominal speed, of each item's cohort time.

        Every request waits for its whole cohort, as a request waits for
        its whole batch in the in-process workloads.
        """
        moments, seconds, items = self.cohorts[phase]
        scaled = np.array(speed.scale(zip(moments, seconds)))
        return ms_percentiles(np.repeat(scaled, items), (50, 90))

    def uninstall(self) -> None:
        for cls, name, original in self._saved:
            setattr(cls, name, original)
        self._saved = []


@dataclasses.dataclass
class Campaign:
    """One campaign run's figures."""

    seed: int
    #: ``(moment, seconds)`` from ``run_campaign`` entry to engine start.
    setup: tuple[float, float]
    wall_s: float
    engine_started: float
    engine_s: float
    events: int
    requests: int
    served: int
    phases: dict
    links: dict
    difficulty: dict

    @property
    def fingerprint(self) -> tuple[int, int, int]:
        return self.events, self.requests, self.served


def run_one(seed: int, probe: Probe, tracer: Tracer | None) -> Campaign:
    campaign = dataclasses.replace(CAMPAIGNS[CAMPAIGN], seed=seed)
    probe.engine_started = None
    probe.ticking = tracer is None
    ticks_before = probe.tick_s
    start = time.perf_counter()
    if tracer is None:
        run = run_campaign(campaign)
    else:
        with tracer.installed(), tracer.span("bench"), \
                tracer.span("sim.campaign"):
            run = run_campaign(campaign)
    wall = time.perf_counter() - start
    extra = run.result.extra
    return Campaign(
        seed=seed,
        setup=(probe.engine_started, probe.engine_started - start),
        wall_s=wall,
        engine_started=probe.engine_started,
        engine_s=extra["wall_seconds"] - (probe.tick_s - ticks_before),
        events=extra["events"],
        requests=extra["requests"],
        served=extra["served"],
        phases=extra["phase_timings"],
        links=extra["link_stats"],
        difficulty={row[0]: row[3] for row in run.result.rows},
    )


def sim_flood(ctx) -> Outcome:
    """Campaigns until time is up; simulated give-ups are not failures."""
    rng = random.Random(ctx.seed)
    seeds = [rng.randrange(1, 2**31) for _ in range(SEEDS)]
    speed = Speedometer()
    probe = Probe(speed)
    tracer = Tracer()
    plain: list[Campaign] = []
    traced: list[Campaign] = []
    probe.install()
    try:
        deadline = time.perf_counter() + ctx.seconds
        index = 0
        while time.perf_counter() < deadline:
            seed = seeds[index % SEEDS]
            index += 1
            plain.append(run_one(seed, probe, None))
            if ctx.trace:
                traced.append(run_one(seed, probe, tracer))
        rss_mb = vm_hwm_mb()
        # The determinism re-run below is not part of the measurement.
        probe.recording = False
        runs = plain + traced
        if len({c.seed for c in runs}) == len(runs):
            runs.append(run_one(seeds[0], probe, None))
    finally:
        probe.uninstall()

    by_seed: dict[int, set] = {}
    for c in runs:
        by_seed.setdefault(c.seed, set()).add(c.fingerprint)
    first = runs[0]
    ctx.note(f"campaign seed {first.seed}: events, requests, served "
             f"{first.fingerprint}")
    outcome = Outcome(
        checks={
            "events, requests and served repeat for a seed":
                all(len(prints) == 1 for prints in by_seed.values()),
        },
        attempted=sum(c.requests for c in plain),
        failed=0,
        slowdown=speed.slowdown,
    )
    if ctx.trace:
        arrive = sum(c.phases["arrive"]["items"] for c in traced)
        cohorts = sum(c.phases["arrive"]["cohorts"] for c in traced)
        count = len(traced)
        metrics = layer_metrics(tracer, arrive)
        metrics.update({
            "bench.trace_overhead":
                sum(c.wall_s for c in traced)
                / sum(c.wall_s for c in plain[:count]) - 1.0,
            "core.batch_size": arrive / cohorts,
            "policies.mean_difficulty.benign": first.difficulty["benign"],
            "policies.mean_difficulty.malicious":
                first.difficulty["malicious"],
            "sim.events": sum(c.events for c in traced) / count,
            "sim.arrival_cohorts": cohorts / count,
            "sim.link_retries":
                sum(c.links["retries"] for c in traced) / count,
            "sim.link_lost": sum(c.links["lost"] for c in traced) / count,
            "sim.link_queue_dropped":
                sum(c.links["queue_dropped"] for c in traced) / count,
        })
        for phase in PHASES:
            metrics[f"sim.{phase}_s"] = sum(
                c.phases[phase]["seconds"] for c in traced
            ) / count
        outcome.layers = metrics
        ctx.keep_spans(tracer)
    else:
        # At nominal host speed (see perfbench.speed).
        engine_s = sum(
            c.engine_s / speed.between(
                c.engine_started, c.engine_started + c.engine_s
            )
            for c in plain
        )
        admit = probe.per_request_ms("arrive", speed)
        redeem = probe.per_request_ms("solve", speed)
        arrive = sum(c.phases["arrive"]["items"] for c in plain)
        outcome.e2e = {
            "setup_s": statistics.median(
                speed.scale(c.setup for c in plain)
            ),
            "admissions_per_s": arrive / engine_s,
            "admit_ms.p50": admit[50],
            "admit_ms.p90": admit[90],
            "redeem_ms.p50": redeem[50],
            "redeem_ms.p90": redeem[90],
            "peak_rss_mb": rss_mb,
            "sim_events_per_s": sum(c.events for c in plain) / engine_s,
        }
    return outcome
