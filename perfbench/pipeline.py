"""In-process pipeline workloads: ``inproc-attack`` and ``remote-returning``.

Both drive an :class:`~repro.core.framework.AIPoWFramework` built by
:class:`~repro.core.spec.FrameworkSpec` (DAbR, score cache, feedback)
through ``challenge_batch`` in batches of :data:`BATCH`, then redeem
each puzzle.  Only the two server calls are timed; the client-side
solve between them is not.  ``inproc-attack`` keeps the admission state
in memory; ``remote-returning`` keeps it on one ``repro state serve``
subprocess.

A run repeats one fixed stream, drawn from the seed, in *rounds* on
fresh admission state until its time is up.  Every round does the same
work whatever the host's speed, so a faster host adds rounds rather
than changing what a round measures, and every round must reach the
same decisions.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import Counter

from repro.core.spec import FrameworkSpec
from repro.obs.registry import MetricsRegistry
from repro.state.net import RemoteStateStore

from perfbench import traffic
from perfbench.echo import NOMINAL_S as ECHO_NOMINAL_S, EchoReference
from perfbench.metrics import Outcome, layer_metrics, ms_percentiles
from perfbench.procs import vm_hwm_mb
from perfbench.speed import Speedometer
from perfbench.tracing import Tracer

BATCH = 64
POOL = 256
BOT_SHARE = 0.12
#: Requests per round of ``inproc-attack``.
INPROC_ROUND = 32 * BATCH
#: Timed requests per round of ``remote-returning`` (after the warm-up).
REMOTE_ROUND = 12 * BATCH
#: Minimum set-ups per run; the median is reported.
SETUPS = 3
#: State-server starts per run of ``remote-returning``.  A start is
#: mostly interpreter start-up, which spreads more than a build.
SERVER_STARTS = 5
#: Host-speed reference calls after each state-server start.
START_TICKS = 20
STATE_BANNER = r"serving admission state on (\S+?);"

Decision = tuple[float, int]


class Ledger:
    """Timings and verdicts of the batches one drive recorded.

    Durations are kept with the ``time.perf_counter`` moment they ended,
    so each can be scaled by the host speed at that moment.
    """

    def __init__(self) -> None:
        #: ``(moment, seconds, requests)`` per ``challenge_batch`` call.
        self.admits: list[tuple[float, float, int]] = []
        #: ``(moment, seconds)`` per ``redeem`` call.
        self.redeems: list[tuple[float, float]] = []
        self.server_s = 0.0
        self.batches = 0
        self.pairs = 0
        self.failed = 0
        self.statuses: Counter = Counter()


def drive(framework, arrivals, ledger: Ledger) -> list[Decision]:
    """Admit ``arrivals`` as one batch, solve, redeem; record in ``ledger``.

    Returns the ``(score, difficulty)`` decisions in request order.  A
    batch whose admission raises counts every request as failed; a
    redeem that raises or gives an unexpected verdict counts one.
    """
    requests = [arrival.request for arrival in arrivals]
    start = time.perf_counter()
    try:
        challenges = framework.challenge_batch(
            requests, [request.timestamp for request in requests]
        )
    except (ConnectionError, OSError, RuntimeError):
        ledger.failed += len(arrivals)
        return []
    end = time.perf_counter()
    ledger.server_s += end - start
    ledger.batches += 1
    ledger.admits.append((end, end - start, len(arrivals)))
    solutions = [
        traffic.solution_for(arrival, challenge.puzzle)
        for arrival, challenge in zip(arrivals, challenges)
    ]
    for arrival, challenge, solution in zip(arrivals, challenges, solutions):
        start = time.perf_counter()
        try:
            response = framework.redeem(
                challenge,
                solution,
                now=arrival.request.timestamp + traffic.SOLVE_GAP,
            )
        except (ConnectionError, OSError, RuntimeError):
            ledger.failed += 1
            continue
        end = time.perf_counter()
        ledger.server_s += end - start
        ledger.redeems.append((end, end - start))
        status = response.status.value
        ledger.statuses[status] += 1
        if status == traffic.expected_status(arrival):
            ledger.pairs += 1
        else:
            ledger.failed += 1
    return [
        (c.decision.reputation_score, c.decision.difficulty)
        for c in challenges
    ]


def drive_all(framework, arrivals, ledger: Ledger) -> list[Decision]:
    """:func:`drive` over ``arrivals`` in batches of :data:`BATCH`."""
    decisions: list[Decision] = []
    for i in range(0, len(arrivals), BATCH):
        decisions += drive(framework, arrivals[i:i + BATCH], ledger)
    return decisions


def replay(arrivals) -> tuple[list[Decision], Ledger]:
    """Untimed in-process reference over ``arrivals``, same batching."""
    ledger = Ledger()
    decisions = drive_all(FrameworkSpec().build(), arrivals, ledger)
    return decisions, ledger


def mean_difficulty(arrivals, decisions, malicious: bool) -> float:
    values = [
        difficulty
        for arrival, (_, difficulty) in zip(arrivals, decisions)
        if arrival.malicious == malicious
    ]
    return statistics.fmean(values) if values else 0.0


def cache_hit_ratio(framework) -> float:
    """Hit ratio of the score cache in ``framework``'s model chain."""
    node = framework.model
    while node is not None and not hasattr(node, "hits"):
        base = getattr(node, "base", None)
        node = base if base is not None else getattr(node, "inner", None)
    if node is None or node.hits + node.misses == 0:
        return 0.0
    return node.hits / (node.hits + node.misses)


@dataclasses.dataclass
class Rounds:
    """What the rounds of one run recorded."""

    plain: Ledger
    traced: Ledger
    #: Untimed warm-up batches, kept for their verdicts.
    warm: Ledger
    tracer: Tracer
    speed: Speedometer
    #: ``(moment, seconds)`` per pipeline build.
    setups: list[tuple[float, float]]
    #: Decision digest of each round (warm-up and timed part).
    digests: list[str]
    #: Decisions of the first round, in stream order.
    decisions: list[Decision]
    hit_ratio: float = 0.0

    @property
    def failed(self) -> int:
        return self.plain.failed + self.traced.failed + self.warm.failed

    def statuses(self) -> Counter:
        return self.plain.statuses + self.traced.statuses + self.warm.statuses


def run_rounds(ctx, build, warmup, stream, speed: Speedometer,
               ticks: int) -> Rounds:
    """Repeat ``warmup`` then ``stream`` on fresh pipelines until time's up.

    ``build()`` returns a pipeline on empty admission state and is timed
    as set-up.  Warm-up batches are untimed.  With ``ctx.trace`` every
    other timed batch runs with the layer wrappers installed, under a
    root span, into the ``traced`` ledger; the rest go to ``plain``, so
    the two interleave over the same stream and their cost per admission
    gives the tracing overhead.  ``speed`` runs its reference work
    ``ticks`` times after every timed batch.
    """
    rounds = Rounds(Ledger(), Ledger(), Ledger(), Tracer(), speed,
                    [], [], [])
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while not rounds.digests or time.perf_counter() < deadline:
        start = time.perf_counter()
        framework = build()
        end = time.perf_counter()
        rounds.setups.append((end, end - start))
        decisions = drive_all(framework, warmup, rounds.warm)
        for i in range(0, len(stream), BATCH):
            arrivals = stream[i:i + BATCH]
            if ctx.trace and index % 2 == 1:
                with rounds.tracer.installed(), rounds.tracer.span("bench"):
                    decisions += drive(framework, arrivals, rounds.traced)
            else:
                decisions += drive(framework, arrivals, rounds.plain)
            index += 1
            speed.tick(ticks)
        rounds.digests.append(traffic.decision_digest(decisions))
        if len(rounds.digests) == 1:
            rounds.decisions = decisions
            rounds.hit_ratio = cache_hit_ratio(framework)
    while len(rounds.setups) < SETUPS:
        start = time.perf_counter()
        build()
        end = time.perf_counter()
        rounds.setups.append((end, end - start))
    return rounds


def e2e_metrics(ledger: Ledger, setup_s: float, rss_mb: float,
                speed: Speedometer) -> dict:
    """End-to-end figures, timings at nominal host speed (:mod:`speed`)."""
    admits = speed.scale((moment, s) for moment, s, _ in ledger.admits)
    redeems = speed.scale(ledger.redeems)
    per_request = [
        seconds
        for seconds, (_, _, count) in zip(admits, ledger.admits)
        for _ in range(count)
    ]
    admit = ms_percentiles(per_request, (50, 90))
    redeem = ms_percentiles(redeems, (50, 90))
    rate = ledger.pairs / (sum(admits) + sum(redeems))
    return {
        "setup_s": setup_s,
        "admissions_per_s": rate,
        "admit_ms.p50": admit[50],
        "admit_ms.p90": admit[90],
        "redeem_ms.p50": redeem[50],
        "redeem_ms.p90": redeem[90],
        "peak_rss_mb": rss_mb,
        # Four protocol events per exchange (request, puzzle, solution,
        # verdict), the units the simulator counts per request.
        "sim_events_per_s": 4 * rate,
    }


def trace_metrics(rounds: Rounds, arrivals) -> dict:
    """Per-layer metrics of an interleaved traced run."""
    plain, traced = rounds.plain, rounds.traced
    metrics = layer_metrics(rounds.tracer, traced.pairs)
    plain_cost = plain.server_s / max(1, plain.pairs)
    traced_cost = traced.server_s / max(1, traced.pairs)
    metrics.update({
        "bench.trace_overhead": traced_cost / plain_cost - 1.0,
        "core.batch_size": traced.pairs / max(1, traced.batches),
        "failed_ratio":
            rounds.failed / (len(arrivals) * len(rounds.digests)),
        "reputation.cache_hit_ratio": rounds.hit_ratio,
        "policies.mean_difficulty.benign":
            mean_difficulty(arrivals, rounds.decisions, False),
        "policies.mean_difficulty.malicious":
            mean_difficulty(arrivals, rounds.decisions, True),
    })
    return metrics


def inproc_attack(ctx) -> Outcome:
    """Returning benign pool plus fresh-IP bot flood, state in memory."""
    stream = traffic.Mix(ctx.seed, BOT_SHARE, POOL).take(INPROC_ROUND)
    rounds = run_rounds(
        ctx, lambda: FrameworkSpec().build(), [], stream, Speedometer(), 2
    )
    checks = {}
    if len(rounds.digests) == 1:
        reference, _ = replay(stream)
        rounds.digests.append(traffic.decision_digest(reference))
        checks["decisions equal an untimed replay"] = (
            len(set(rounds.digests)) == 1
        )
    else:
        checks["every round reaches the same decisions"] = (
            len(set(rounds.digests)) == 1
        )
    statuses = rounds.statuses()
    checks.update({
        "every verdict as expected": rounds.failed == 0,
        "served and rejected paths both ran":
            statuses["served"] > 0 and statuses["rejected"] > 0,
    })
    ctx.note(f"{len(rounds.digests)} rounds of {len(stream)} requests, "
             f"decision digests {sorted(set(rounds.digests))}")
    outcome = Outcome(
        checks=checks,
        attempted=len(stream) * len(rounds.digests),
        failed=rounds.failed,
        slowdown=rounds.speed.slowdown,
    )
    if ctx.trace:
        outcome.layers = trace_metrics(rounds, stream)
        ctx.keep_spans(rounds.tracer)
    else:
        outcome.e2e = e2e_metrics(
            rounds.plain,
            statistics.median(rounds.speed.scale(rounds.setups)),
            vm_hwm_mb(),
            rounds.speed,
        )
    return outcome


class _StateServer:
    """One state server and a store client with its own counters."""

    def __init__(self, ctx) -> None:
        # The load's own core: client and server take turns, and a
        # round trip between two virtual CPUs costs a wake-up through
        # the hypervisor that varies run to run by tens of percent.
        self.process = ctx.server(
            ["state", "serve", "--bind", "127.0.0.1:0"], STATE_BANNER,
            ctx.load_cpu,
        )
        self.registry = MetricsRegistry()
        self.store = RemoteStateStore(
            self.process.match.group(1), registry=self.registry
        )
        self.store.ping()

    def close(self) -> None:
        self.store.close()
        self.process.stop()

    def round_trips(self) -> Counter:
        counter = self.registry.get("netstore_client_requests_total")
        return Counter(counter.as_dict()) if counter else Counter()

    def counter(self, name: str) -> float:
        counter = self.registry.get(name)
        return counter.total() if counter else 0


def remote_returning(ctx) -> Outcome:
    """Returning benign clients only, state on one state server.

    Set-up time is the median of :data:`SERVER_STARTS` state-server
    starts, each timed from spawn to a pipeline built on it.  A start is
    interpreter start-up, CPU work, so it is scaled by the CPU reference
    ticked right after it, not by the round-trip one.  Each round clears the
    server's store, builds a fresh pipeline on it, warms every pool
    client once, then times :data:`REMOTE_ROUND` requests.  The host's
    speed comes from round trips to an echo server on the same CPU
    (:mod:`perfbench.echo`), since wake-ups, not CPU work, set most of
    a round trip's cost here.
    """
    timings, server, cpu_speed = [], None, Speedometer()
    for _ in range(SERVER_STARTS):
        if server is not None:
            server.close()
        start = time.perf_counter()
        server = _StateServer(ctx)
        FrameworkSpec().build(server.store)
        end = time.perf_counter()
        timings.append((end, end - start))
        cpu_speed.tick(START_TICKS)

    def build():
        server.store.clear()
        return FrameworkSpec().build(server.store)

    mix = traffic.Mix(ctx.seed, 0.0, POOL)
    warmup = mix.warmup()
    stream = mix.take(REMOTE_ROUND)
    echo = ctx.enter(EchoReference(ctx.load_cpu))
    speed = Speedometer(
        work=echo.round_trip, clock=time.perf_counter, nominal=ECHO_NOMINAL_S
    )
    trips_before = server.round_trips()
    cpu_before = server.process.cpu_seconds()
    rounds = run_rounds(ctx, build, warmup, stream, speed, 20)
    cpu = server.process.cpu_seconds() - cpu_before
    trips = server.round_trips() - trips_before
    # Each round's ``clear`` resets the store; it is set-up, not
    # admission traffic.
    del trips["clear"]
    rss_mb = server.process.peak_rss_mb()
    retries = server.counter("netstore_client_retries_total")
    timeouts = server.counter("netstore_client_timeouts_total")
    server.close()

    reference, _ = replay(warmup + stream)
    expected = traffic.decision_digest(reference)
    ctx.note(f"{len(rounds.digests)} rounds of {len(warmup)} warm-up and "
             f"{len(stream)} timed requests, decision digests "
             f"{sorted(set(rounds.digests))}, in-process replay {expected}")
    outcome = Outcome(
        checks={
            "decisions equal the in-process replay":
                set(rounds.digests) == {expected},
            "every verdict as expected": rounds.failed == 0,
        },
        attempted=len(warmup + stream) * len(rounds.digests),
        failed=rounds.failed,
        slowdown=rounds.speed.slowdown,
    )
    if ctx.trace:
        metrics = trace_metrics(rounds, warmup + stream)
        _, calls, _ = rounds.tracer.layer_totals()
        # Round trips and server CPU of whole rounds, warm-up included,
        # per request of a round.
        per = 1 / (len(warmup + stream) * len(rounds.digests))
        metrics.update({
            "state.round_trips_per_admission": sum(trips.values()) * per,
            "state.rtt_us": metrics["state.self_s"]
            / max(1, calls.get("state", 0)) * 1e6,
            "state.retries": retries,
            "state.timeouts": timeouts,
            "state.server_cpu_us_per_admission": cpu * per * 1e6,
        })
        for op, count in trips.items():
            metrics[f"state.round_trips.{op}"] = count * per
        outcome.layers = metrics
        ctx.keep_spans(rounds.tracer)
    else:
        outcome.e2e = e2e_metrics(
            rounds.plain,
            statistics.median(cpu_speed.scale(timings)),
            rss_mb,
            rounds.speed,
        )
    return outcome
