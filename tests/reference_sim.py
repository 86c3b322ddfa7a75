"""Callback-engine reference simulator: the oracle FastSimulation is held to.

The production simulator (:class:`repro.net.sim.fastsim.FastSimulation`)
settles whole same-timestep cohorts over arrays.  This module keeps the
original formulation of the same model, one Python callback per request
leg on a heap-ordered :class:`EventEngine`, for two jobs only:

* **decision parity**: the parity suites
  (``tests/replay/test_fastsim_parity.py``,
  ``tests/replay/test_links_parity.py``) require FastSimulation's
  admission decision stream to be bit-identical to this one on every
  golden-trace scenario and link profile;
* **speed reference**: the megasim (>=25x) and netsim (>=5x) gates in
  ``benchmarks/`` time FastSimulation against this engine on the same
  workload.

:class:`Simulation` is the open-loop (trace-driven) reference;
:class:`ClosedLoopSimulation` derives from it and reuses its FIFO
server, delay draws, link lookups, arrival batching and terminal
emission, changing only what a closed-loop session does differently.

Requests reaching the server at the same simulated instant are
admitted through :meth:`AIPoWFramework.challenge_batch` as one batch;
FIFO costs are still charged per request, in arrival order, and each
puzzle is stamped with its own FIFO-derived issue time.  Scoring and
delay draws happen at the arrival instant rather than each request's
(at most milliseconds-later) issue time.
"""

from __future__ import annotations

import dataclasses
import heapq
import ipaddress
import itertools
import math
import random
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework, Challenge
from repro.core.records import ClientRequest, ResponseStatus, ServedResponse
from repro.metrics.collector import MetricsCollector
from repro.net.sim.channel import Channel, FixedDelayChannel
from repro.net.sim.closedloop import ClosedLoopReport, SessionSpec
from repro.net.sim.links import LinkSet
from repro.net.sim.simulation import ServerModel, SimulationReport
from repro.net.sim.solvetime import SolveTimeModel
from repro.policies.adaptive import LoadAdaptivePolicy
from repro.traffic.trace import Trace, TraceEntry

__all__ = [
    "ClosedLoopSimulation",
    "EventEngine",
    "ScheduledEvent",
    "Simulation",
]

#: Decides whether a client solves a puzzle of the given difficulty.
SolveDecider = Callable[[int], bool]


@dataclasses.dataclass(order=True)
class ScheduledEvent:
    """Heap entry: (time, seq) orders events; callback rides along."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(compare=False, default=False)
    _engine: "EventEngine | None" = dataclasses.field(
        compare=False, default=None, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Idempotent; the owning engine keeps a live pending counter and
        compacts its heap when cancelled entries pile up, so cancelling
        is O(1) amortised even over very long closed-loop runs.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._on_cancel()


class EventEngine:
    """Time-ordered callback executor.

    The simulated clock (:attr:`now`) only moves forward, and only as
    events are processed.  Scheduling into the past raises
    :class:`~repro.core.errors.SimulationError` — such bugs silently
    corrupt results if tolerated.
    """

    #: Compaction floor: tiny heaps are never worth rebuilding.
    _COMPACT_MIN = 64

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._pending = 0
        self.processed_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def clock(self) -> float:
        """Callable form of :attr:`now` (drop-in for ``time.time``)."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-executed (and not cancelled) events.

        Maintained as a live counter (O(1)); the heap itself may
        briefly hold more entries than this until compaction sweeps
        the cancelled ones out.
        """
        return self._pending

    def _on_cancel(self) -> None:
        self._pending -= 1
        # Compact once cancelled entries outnumber live ones: a long
        # closed-loop run cancelling timeouts would otherwise leak the
        # whole history into the heap.
        if (
            len(self._heap) >= self._COMPACT_MIN
            and self._pending * 2 < len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)

    def schedule_at(
        self, when: float, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if not math.isfinite(when):
            raise SimulationError(f"event time must be finite, got {when!r}")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        event = ScheduledEvent(
            time=when, seq=next(self._seq), callback=callback, _engine=self
        )
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._pending -= 1
            # Detach so a late cancel() of an executed event cannot
            # drive the pending counter negative.
            event._engine = None
            self._now = event.time
            event.callback()
            self.processed_count += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or event cap.

        ``until`` advances the clock to exactly that time if the queue
        drains earlier, which keeps duration-based rate computations
        honest.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                return
            next_event = self._heap[0]
            if next_event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and next_event.time > until:
                self._now = until
                return
            self.step()
            executed += 1
        if until is not None and self._now < until:
            self._now = until


class Simulation:
    """Open-loop reference: replays a trace over the modelled network.

    Parameters match :class:`~repro.net.sim.fastsim.FastSimulation`'s
    open-loop subset (``framework``, ``channel``, ``server_model``,
    ``seed``, ``pow_enabled``, ``solve_deciders``, ``hash_rates``,
    ``patiences``, ``load_reference``, ``recorder``, ``links``); timing
    randomness comes from ``random.Random(seed)``.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 1234,
        pow_enabled: bool = True,
        solve_deciders: Mapping[str, SolveDecider] | None = None,
        hash_rates: Mapping[str, float] | None = None,
        patiences: Mapping[str, float] | None = None,
        load_reference: float = 0.1,
        recorder=None,
        links: LinkSet | None = None,
    ) -> None:
        if load_reference <= 0:
            raise ValueError(
                f"load_reference must be > 0, got {load_reference}"
            )
        self.framework = framework
        timing = framework.config.timing
        self.channel = channel or FixedDelayChannel(timing.network_overhead / 4)
        self.server_model = server_model or ServerModel()
        self.solve_time = SolveTimeModel(timing)
        self.engine = EventEngine()
        self.rng = random.Random(seed)
        self.pow_enabled = pow_enabled
        self.solve_deciders = dict(solve_deciders or {})
        self.hash_rates = dict(hash_rates or {})
        self.patiences = dict(patiences or {})
        self.load_reference = load_reference
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(framework.events)
        self.links = links
        self._link_session = links.session() if links is not None else None
        self._link_cache: dict[tuple[str, str], tuple[int, float]] = {}
        self._entry_rids: dict[int, int] = {}
        self._next_rid = 0
        #: Open-loop servers feed their backlog to a load-adaptive policy.
        self._observe_load = True
        self._server_busy_until = 0.0
        self._cpu_free_at: dict[str, float] = {}
        self._profiles: dict[str, str] = {}
        self.metrics = MetricsCollector(classifier=self._classify)
        self._requests = 0
        self._arrival_batch: list[TraceEntry] = []
        #: Number of same-timestep arrival batches drained so far.
        self.arrival_batches = 0
        #: Size of the largest same-timestep arrival batch seen.
        self.largest_arrival_batch = 0

    # ------------------------------------------------------------------
    # Shared machinery (the closed-loop subclass reuses all of it)
    # ------------------------------------------------------------------
    def _classify(self, response: ServedResponse) -> str:
        return self._profiles.get(response.decision.request.client_ip, "unknown")

    def _register(self, ip: str, profile: str, true_score: float) -> None:
        self._profiles[ip] = profile
        if self.recorder is not None:
            self.recorder.register_source(ip, profile, true_score)

    def _server_complete(self, arrival: float, cost: float) -> float:
        """FIFO server: when work arriving at ``arrival`` finishes.

        Open-loop runs also feed the backlog-derived load signal to a
        :class:`LoadAdaptivePolicy`, when one is installed.
        """
        backlog = max(0.0, self._server_busy_until - arrival)
        start = max(arrival, self._server_busy_until)
        self._server_busy_until = start + cost
        policy = self.framework.policy
        if self._observe_load and isinstance(policy, LoadAdaptivePolicy):
            policy.observe_load(backlog / self.load_reference)
        return self._server_busy_until

    def _delay(self) -> float:
        # Channel contract backstop: a negative delay would schedule
        # an event before its cause.
        return max(0.0, self.channel.one_way_delay(self.rng))

    def _link_of(self, profile: str, ip: str) -> tuple[int, float]:
        """``(queue_id, base_delay)`` of one client under :attr:`links`.

        Calls the same vectorized hash kernels as FastSimulation on
        one-element arrays, so the reference's delays are bit-identical
        to the SoA path's by construction.
        """
        if self.links is None:
            return -1, 0.0
        key = (profile, ip)
        hit = self._link_cache.get(key)
        if hit is None:
            qid = int(self.links.queue_ids([profile])[0])
            base = 0.0
            if qid >= 0:
                base = float(
                    self.links.base_delays(
                        np.array(
                            [int(ipaddress.ip_address(ip))], dtype=np.int64
                        ),
                        np.array([qid], dtype=np.int64),
                    )[0]
                )
            hit = (qid, base)
            self._link_cache[key] = hit
        return hit

    def _finish(
        self,
        challenge: Challenge,
        status: ResponseStatus,
        now: float,
        attempts: int = 0,
    ) -> None:
        """Emit a terminal outcome for one request."""
        response = ServedResponse(
            decision=challenge.decision,
            status=status,
            latency=max(0.0, now - challenge.decision.request.timestamp),
            solve_attempts=attempts,
            body=(
                f"resource:{challenge.decision.request.resource}"
                if status is ResponseStatus.SERVED
                else ""
            ),
        )
        self.metrics.observe(response)
        self.framework.events.emit(
            EventKind.RESPONSE_SERVED, now, response=response
        )

    def _on_server_receive(self, entry: TraceEntry) -> None:
        # Coalesce every arrival sharing this simulated instant into one
        # admission batch.  The drain callback is scheduled at the same
        # timestamp when the first arrival lands; FIFO ordering among
        # equal timestamps guarantees it runs after all of them have
        # registered, so the batch is complete when it fires.
        self._arrival_batch.append(entry)
        if len(self._arrival_batch) == 1:
            self.engine.schedule_at(self.engine.now, self._drain_arrivals)

    def _drain_arrivals(self) -> None:
        """Admit all same-timestep arrivals through the batch pipeline.

        Per-request FIFO costs are charged in arrival order (so each
        request keeps its own completion time and the backlog signal
        for load-adaptive policies sees every request), then the whole
        batch is scored/issued via
        :meth:`AIPoWFramework.challenge_batch` with one puzzle
        timestamp per request.
        """
        batch, self._arrival_batch = self._arrival_batch, []
        now = self.engine.now
        self.arrival_batches += 1
        self.largest_arrival_batch = max(
            self.largest_arrival_batch, len(batch)
        )
        requests = [entry.request for entry in batch]

        if not self.pow_enabled:
            dones = [
                self._server_complete(now, self.server_model.resource_cost)
                for _ in batch
            ]
            challenges = self.framework.challenge_batch(requests, now=now)
            for entry, done, challenge in zip(batch, dones, challenges):
                # Server->client legs add the client's link propagation
                # delay but are modelled lossless (the uplink is the
                # constrained direction).
                _, base = self._link_of(
                    entry.profile, entry.request.client_ip
                )
                self.engine.schedule_at(
                    done + self._delay() + base,
                    lambda c=challenge: self._finish(
                        c, ResponseStatus.SERVED, self.engine.now
                    ),
                )
            return

        issue_times = [
            self._server_complete(now, self.server_model.challenge_cost)
            for _ in batch
        ]
        challenges = self.framework.challenge_batch(
            requests, now=issue_times
        )
        for entry, issue_at, challenge in zip(batch, issue_times, challenges):
            _, base = self._link_of(entry.profile, entry.request.client_ip)
            self.engine.schedule_at(
                issue_at + self._delay() + base,
                lambda e=entry, c=challenge: self._on_client_receive_puzzle(
                    e, c
                ),
            )

    # ------------------------------------------------------------------
    # Open-loop request lifecycle
    # ------------------------------------------------------------------
    def submit(self, entry: TraceEntry) -> None:
        """Schedule one trace entry's arrival at its request timestamp."""
        self._register(
            entry.request.client_ip, entry.profile, entry.true_score
        )
        self._requests += 1
        rid = self._next_rid
        self._next_rid += 1
        qid, _ = self._link_of(entry.profile, entry.request.client_ip)
        if qid < 0:
            self.engine.schedule_at(
                entry.request.timestamp + self._delay(),
                lambda: self._on_server_receive(entry),
            )
            return
        # Linked clients enter their uplink at the submit instant; the
        # crossing (loss, queueing, retries) decides when — and
        # whether — the request arrives.  The loss hash is keyed on
        # the submission index, which matches FastSimulation's request
        # index for the same workload.
        self._entry_rids[id(entry)] = rid
        self.engine.schedule_at(
            entry.request.timestamp,
            lambda: self._transmit_request(entry, rid, 1),
        )

    def _transmit_request(
        self, entry: TraceEntry, rid: int, attempt: int
    ) -> None:
        """One request-leg uplink crossing (scalar mirror of the SoA path).

        Give-ups are counted in :attr:`SimulationReport.link_stats`
        only — the request was never admitted, so there is no decision
        to aggregate.  A retry that would start past the client's
        patience window gives up instead.
        """
        now = self.engine.now
        qid, base = self._link_of(entry.profile, entry.request.client_ip)
        profile = self.links.profile_of_queue(qid)
        session = self._link_session
        stats = session.stats
        stats.crossings += 1
        lost = bool(
            self.links.crossing_lost(
                [rid], [attempt], leg=0, loss_rate=profile.loss_rate
            )[0]
        )
        if lost:
            stats.lost += 1
        else:
            exits, accepted = session.cross(qid, now, 1)
            if accepted:
                self.engine.schedule_at(
                    float(exits[0]) + base + self._delay(),
                    lambda: self._on_server_receive(entry),
                )
                return
            stats.queue_dropped += 1
        retry_at = now + profile.backoff * 2.0 ** (attempt - 1)
        patience = self.patiences.get(entry.profile, 30.0)
        if attempt < 1 + profile.max_retries and (
            retry_at - entry.request.timestamp
        ) <= patience:
            stats.retries += 1
            self.engine.schedule_at(
                retry_at,
                lambda: self._transmit_request(entry, rid, attempt + 1),
            )
        else:
            stats.request_give_ups += 1

    def _transmit_solution(
        self,
        entry: TraceEntry,
        challenge: Challenge,
        attempts: int,
        rid: int,
        attempt: int,
    ) -> None:
        """One solution-leg uplink crossing.

        The client already sank the solving work, so it retries until
        ``max_retries`` regardless of patience (TTL expiry punishes
        lateness); a final give-up is recorded as ABANDONED — the
        puzzle was issued and solved, so the decision exists.
        """
        now = self.engine.now
        qid, base = self._link_of(entry.profile, entry.request.client_ip)
        profile = self.links.profile_of_queue(qid)
        session = self._link_session
        stats = session.stats
        stats.crossings += 1
        lost = bool(
            self.links.crossing_lost(
                [rid], [attempt], leg=1, loss_rate=profile.loss_rate
            )[0]
        )
        if lost:
            stats.lost += 1
        else:
            exits, accepted = session.cross(qid, now, 1)
            if accepted:
                self.engine.schedule_at(
                    float(exits[0]) + base + self._delay(),
                    lambda: self._on_server_receive_solution(
                        challenge, attempts
                    ),
                )
                return
            stats.queue_dropped += 1
        if attempt < 1 + profile.max_retries:
            stats.retries += 1
            self.engine.schedule_at(
                now + profile.backoff * 2.0 ** (attempt - 1),
                lambda: self._transmit_solution(
                    entry, challenge, attempts, rid, attempt + 1
                ),
            )
        else:
            stats.solution_give_ups += 1
            self._finish(
                challenge, ResponseStatus.ABANDONED, now, attempts=attempts
            )

    def _on_client_receive_puzzle(
        self, entry: TraceEntry, challenge: Challenge
    ) -> None:
        now = self.engine.now
        difficulty = challenge.decision.difficulty
        profile = entry.profile

        decider = self.solve_deciders.get(profile)
        if decider is not None and not decider(difficulty):
            self._finish(challenge, ResponseStatus.ABANDONED, now)
            return

        ip = entry.request.client_ip
        patience = self.patiences.get(profile, 30.0)
        hash_rate = self.hash_rates.get(profile)
        sample = self.solve_time.sample(difficulty, self.rng, hash_rate)
        start = max(now, self._cpu_free_at.get(ip, 0.0))
        solve_end = start + sample.seconds

        if solve_end - now > patience:
            give_up_at = now + patience
            self._cpu_free_at[ip] = give_up_at
            self.engine.schedule_at(
                give_up_at,
                lambda: self._finish(
                    challenge,
                    ResponseStatus.ABANDONED,
                    self.engine.now,
                    attempts=sample.attempts,
                ),
            )
            return

        self._cpu_free_at[ip] = solve_end
        qid, _ = self._link_of(profile, ip)
        if qid >= 0:
            # The solution enters the uplink the instant solving ends;
            # the crossing decides the submit time.
            rid = self._entry_rids[id(entry)]
            self.engine.schedule_at(
                solve_end,
                lambda: self._transmit_solution(
                    entry, challenge, sample.attempts, rid, 1
                ),
            )
            return
        self.engine.schedule_at(
            solve_end + self._delay(),
            lambda: self._on_server_receive_solution(
                challenge, sample.attempts
            ),
        )

    def _on_server_receive_solution(
        self, challenge: Challenge, attempts: int
    ) -> None:
        now = self.engine.now
        expired = (
            challenge.puzzle.age(now) > self.framework.config.pow.ttl
        )
        cost = self.server_model.verify_cost
        if not expired:
            cost += self.server_model.resource_cost
        done = self._server_complete(now, cost)
        status = (
            ResponseStatus.EXPIRED if expired else ResponseStatus.SERVED
        )
        ip = challenge.decision.request.client_ip
        _, base = self._link_of(self._profiles.get(ip, ""), ip)
        self.engine.schedule_at(
            done + self._delay() + base,
            lambda: self._finish(challenge, status, self.engine.now, attempts),
        )

    def run(self, trace: Trace, until: float | None = None) -> SimulationReport:
        """Replay ``trace`` to completion (or ``until``) and report."""
        for entry in trace:
            self.submit(entry)
        self.engine.run(until=until)
        return SimulationReport(
            metrics=self.metrics,
            duration=self.engine.now,
            requests=self._requests,
            events_processed=self.engine.processed_count,
            link_stats=(
                self._link_session.stats if self._link_session else None
            ),
        )


class ClosedLoopSimulation(Simulation):
    """Closed-loop reference: sessions of request -> solve -> response -> think.

    Differs from the open-loop reference only where a session does:
    the server feeds no load signal, a client abandons when its solve
    sample alone exceeds its profile's patience (its CPU is otherwise
    idle), solutions are not TTL-checked, and every terminal outcome
    schedules the session's next exchange after an exponential think
    time.  Only delay-only link profiles are defined here.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 4321,
        hash_rates: Mapping[str, float] | None = None,
        recorder=None,
        links: LinkSet | None = None,
    ) -> None:
        if links is not None and not links.delay_only:
            raise ValueError(
                "closed-loop runs support delay-only link profiles; "
                "lossy or bandwidth-capped links need the open-loop "
                "simulations"
            )
        super().__init__(
            framework,
            channel=channel,
            server_model=server_model,
            seed=seed,
            hash_rates=hash_rates,
            recorder=recorder,
            links=links,
        )
        self._observe_load = False
        self._sessions: dict[int, tuple[SessionSpec, int]] = {}
        self._completed = 0

    @property
    def admission_batches(self) -> int:
        return self.arrival_batches

    @property
    def largest_admission_batch(self) -> int:
        return self.largest_arrival_batch

    def add_session(self, session: SessionSpec) -> None:
        """Register a session; its first request fires at ``session.start``."""
        client = session.client
        self._register(client.ip, client.profile.name, client.true_score)
        self.engine.schedule_at(
            session.start,
            lambda: self._begin_exchange(session, session.exchanges),
        )

    def _begin_exchange(self, session: SessionSpec, remaining: int) -> None:
        now = self.engine.now
        client = session.client
        entry = TraceEntry(
            request=ClientRequest(
                client_ip=client.ip,
                resource="/session",
                timestamp=now,
                features=client.features,
            ),
            profile=client.profile.name,
            true_score=client.true_score,
        )
        self._sessions[id(entry.request)] = (session, remaining)
        _, base = self._link_of(entry.profile, client.ip)
        self.engine.schedule_at(
            now + self._delay() + base,
            lambda: self._on_server_receive(entry),
        )

    def _on_client_receive_puzzle(
        self, entry: TraceEntry, challenge: Challenge
    ) -> None:
        now = self.engine.now
        profile = self._sessions[id(entry.request)][0].client.profile
        rate = self.hash_rates.get(profile.name, profile.hash_rate)
        sample = self.solve_time.sample(
            challenge.decision.difficulty, self.rng, rate
        )
        if sample.seconds > profile.patience:
            self.engine.schedule_at(
                now + profile.patience,
                lambda: self._finish(
                    challenge,
                    ResponseStatus.ABANDONED,
                    self.engine.now,
                    sample.attempts,
                ),
            )
            return
        _, base = self._link_of(profile.name, entry.request.client_ip)
        self.engine.schedule_at(
            now + sample.seconds + self._delay() + base,
            lambda: self._redeem(challenge, sample.attempts),
        )

    def _redeem(self, challenge: Challenge, attempts: int) -> None:
        cost = self.server_model.verify_cost + self.server_model.resource_cost
        done = self._server_complete(self.engine.now, cost)
        ip = challenge.decision.request.client_ip
        _, base = self._link_of(self._profiles[ip], ip)
        self.engine.schedule_at(
            done + self._delay() + base,
            lambda: self._finish(
                challenge, ResponseStatus.SERVED, self.engine.now, attempts
            ),
        )

    def _finish(
        self,
        challenge: Challenge,
        status: ResponseStatus,
        now: float,
        attempts: int = 0,
    ) -> None:
        super()._finish(challenge, status, now, attempts)
        session, remaining = self._sessions.pop(
            id(challenge.decision.request)
        )
        self._completed += 1
        if remaining > 1:
            think = (
                self.rng.expovariate(1.0 / session.think_time)
                if session.think_time > 0
                else 0.0
            )
            self.engine.schedule_at(
                now + think,
                lambda: self._begin_exchange(session, remaining - 1),
            )

    def run(
        self, sessions: Sequence[SessionSpec], until: float | None = None
    ) -> ClosedLoopReport:
        """Drive ``sessions`` to completion (or ``until``)."""
        if not sessions:
            raise ValueError("need at least one session")
        for session in sessions:
            self.add_session(session)
        self.engine.run(until=until)
        return ClosedLoopReport(
            metrics=self.metrics,
            duration=self.engine.now,
            sessions=len(sessions),
            completed_exchanges=self._completed,
        )
