"""The simulator: SoA agent state, cohort event dispatch.

A callback event loop pays a Python closure, a heap operation and a
per-event dispatch for every request, which caps campaign scale at
thousands of agents.  This module expresses the network/server/solve
model over arrays instead:

* **state** is struct-of-arrays (:class:`~repro.net.sim.agents.AgentPopulation`
  plus per-run vectors: per-address CPU-free times, per-fire solve
  finish times, pending puzzle difficulties);
* **scheduling** is a bucketed calendar queue
  (:class:`~repro.net.sim.calendar.CalendarQueue`) that dequeues whole
  same-timestep *cohorts* instead of single events;
* **admission** drives each cohort through the framework's batch
  pipeline.  When anything (a recorder, a tracer, a timeline) listens
  on the event bus this is
  :meth:`~repro.core.framework.AIPoWFramework.challenge_batch`, and
  every terminal outcome goes back onto the bus as one
  ``RESPONSE_SERVED`` event stamped with its completion time.  When
  nothing listens it is the object-free
  :meth:`~repro.core.framework.AIPoWFramework.difficulties_for_scores`
  array kernel, which builds no per-request object at all.  Models
  whose scores react to response outcomes (behavioural feedback) are
  rejected loudly; agent-driven runs model feedback with
  :class:`FastFeedback`;
* **solving** is vectorised geometric sampling (the numpy counterpart
  of :func:`repro.pow.solver.sample_attempts`).

No per-request Python closure exists on the hot path.

The model
---------
* **network**: each leg of the request/challenge/solution/response
  exchange crosses a :class:`~repro.net.sim.channel.Channel`, plus an
  optional per-agent access link (:mod:`repro.net.sim.links`);
* **server**: one FIFO queue with distinct costs for issuing a
  challenge, verifying a solution and serving the resource
  (:class:`~repro.net.sim.simulation.ServerModel`); its backlog feeds a
  :class:`~repro.policies.adaptive.LoadAdaptivePolicy` in open-loop runs;
* **client CPU**: per-address serialisation, so a client grinding one
  puzzle cannot grind another at the same time, which is how PoW
  throttles flooding sources;
* **outcomes**: clients abandon puzzles that exceed their patience,
  per-profile solve deciders let attack models refuse puzzles outright,
  and solutions arriving after the puzzle TTL expire.

Fidelity contract
-----------------
Admission **decision streams** (request order, scores, difficulties:
everything :meth:`~repro.core.records.DecisionRecord.canonical`
compares) are bit-identical to the callback reference simulator kept
in the test tree (``tests/reference_sim.py``); the parity matrix in
``tests/replay/test_fastsim_parity.py`` gates this on every
golden-trace scenario.  *Timing* randomness (channel jitter, solve
draws) comes from a numpy generator, so latency samples are
deterministic per seed but agree with the reference statistically, not
bit for bit.  One corollary: a load-adaptive policy's decisions are a
function of queue timing, so under solving traffic they inherit the
timing stream's seed-sensitivity; the engines still interleave load
observations with decisions identically, which the parity suite pins
down with deterministic-timing workloads.

With ``tick`` set, event times are quantized up onto a grid, merging
near-simultaneous events into large cohorts: the knob the
million-agent scenarios use.  ``tick=None`` keeps exact times (cohorts
form only at genuinely equal instants, exactly like the reference's
same-timestep arrival batching).
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Mapping, Sequence

import numpy as np

from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus, ServedResponse
from repro.metrics.collector import MetricsCollector
from repro.net.sim import kernels
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import Channel, FixedDelayChannel
from repro.net.sim.closedloop import ClosedLoopReport
from repro.net.sim.links import LinkSet
from repro.net.sim.simulation import ServerModel, SimulationReport
from repro.policies.adaptive import LoadAdaptivePolicy

__all__ = [
    "FastSimulation",
    "FastFeedback",
    "sample_attempts_array",
    "collector_from_buffers",
]

_STATUS_CODES = tuple(ResponseStatus)
_SERVED = _STATUS_CODES.index(ResponseStatus.SERVED)


def sample_attempts_array(
    difficulties: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Geometric attempt counts for a difficulty vector.

    Vectorised inverse-CDF sampling, the array sibling of
    :func:`repro.pow.solver.sample_attempts`: ``ceil(ln U / ln(1 -
    2**-d))`` with difficulty 0 solving on the first attempt.
    """
    d = np.asarray(difficulties, dtype=np.float64)
    attempts = np.ones(d.shape, dtype=np.float64)
    mask = d > 0
    if mask.any():
        # RNG consumption (one uniform per positive difficulty) is
        # owned here; the kernel itself is stream-free.
        u = rng.random(int(mask.sum()))
        attempts[mask] = kernels.geometric_attempts(d[mask], u)
    return attempts


class _OutcomeBuffers:
    """Per-(class, status) outcome accumulator, array-chunk based."""

    def __init__(self) -> None:
        self._chunks: dict[tuple[str, int], list[tuple]] = {}
        self.count = 0

    def record(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        status: ResponseStatus | np.ndarray,
        latency: np.ndarray,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """Fold one terminal cohort into the buffers.

        ``status`` is either one :class:`ResponseStatus` for the whole
        cohort or an int-code array (indexes into ``ResponseStatus``
        declaration order) for mixed served/expired cohorts.
        """
        if latency.size == 0:
            return
        self.count += int(latency.size)
        if isinstance(status, ResponseStatus):
            status_codes = np.full(
                latency.size, _STATUS_CODES.index(status), dtype=np.int8
            )
        else:
            status_codes = status
        for cid in np.unique(class_ids):
            cmask = class_ids == cid
            for code in np.unique(status_codes[cmask]):
                mask = cmask & (status_codes == code)
                key = (class_names[cid], int(code))
                self._chunks.setdefault(key, []).append(
                    (
                        latency[mask],
                        scores[mask],
                        difficulties[mask],
                        attempts[mask],
                    )
                )

    def fill(self, collector: MetricsCollector) -> MetricsCollector:
        """Bulk-fill a :class:`MetricsCollector` from the buffers.

        Chunks are concatenated per (class, status) first so each
        accumulator sees a handful of large arrays instead of one call
        per cohort — at a million outcomes the difference is the whole
        report cost.
        """
        overall: dict[int, list[tuple]] = {}
        for (name, code), chunks in self._chunks.items():
            merged = tuple(
                np.concatenate([chunk[j] for chunk in chunks])
                for j in range(4)
            )
            overall.setdefault(code, []).append(merged)
            self._fill_one(collector.for_class(name), code, merged)
        for code, parts in overall.items():
            merged = tuple(
                np.concatenate([part[j] for part in parts])
                for j in range(4)
            )
            self._fill_one(collector.overall, code, merged)
        return collector

    def export_rows(
        self, class_names: Sequence[str]
    ) -> tuple[np.ndarray, ...]:
        """Flatten the buffers into parallel outcome-row arrays.

        Returns ``(class_ids, status_codes, latency, scores,
        difficulties, attempts)`` — the flat-array transport format the
        parallel driver writes into shared memory.  Feeding the rows
        back through :meth:`record` on the other side rebuilds
        equivalent buffers: per-(class, status) counts and extremes are
        exact; means can differ by accumulation order only.
        """
        cids: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        cols: tuple[list, list, list, list] = ([], [], [], [])
        name_to_cid = {name: i for i, name in enumerate(class_names)}
        for (name, code), chunks in sorted(
            self._chunks.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            for chunk in chunks:
                k = int(chunk[0].size)
                cids.append(np.full(k, name_to_cid[name], dtype=np.int32))
                codes.append(np.full(k, code, dtype=np.int8))
                for j in range(4):
                    cols[j].append(chunk[j])
        if not cids:
            return (
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int8),
                np.empty(0),
                np.empty(0),
                np.empty(0),
                np.empty(0),
            )
        return (
            np.concatenate(cids),
            np.concatenate(codes),
            *(np.concatenate(col) for col in cols),
        )

    @staticmethod
    def _fill_one(metrics, code: int, merged: tuple) -> None:
        latency, scores, difficulties, attempts = merged
        status = _STATUS_CODES[code]
        metrics.outcomes[status] += int(latency.size)
        metrics.latencies.extend_array(latency)
        if status is ResponseStatus.SERVED:
            metrics.served_latencies.extend_array(latency)
        metrics.scores.add_array(scores)
        metrics.difficulties.add_array(difficulties)
        metrics.attempts.add_array(attempts)


def collector_from_buffers(buffers: _OutcomeBuffers) -> MetricsCollector:
    """A real :class:`MetricsCollector` built from vectorised buffers."""
    return buffers.fill(MetricsCollector())


class FastFeedback:
    """Array-form behavioural feedback for agent-driven runs.

    The batch port of
    :class:`~repro.reputation.feedback.FeedbackReputationModel`'s
    offset table: one offset slot per *agent* (the SoA world has no IP
    strings), decayed with the same half-life and moved by the same
    reward step on served exchanges, clamped to the same bounds.
    Updates are applied per outcome cohort (counts folded in one step),
    which matches the sequential rule exactly because the clamp is
    monotone and within-cohort decay is zero.

    The modeled simulator never produces REJECTED/REPLAYED verdicts
    (sampled solutions always verify), so only the *reward* direction
    moves: this is exactly the surface a feedback-poisoning adversary
    farms, and what the ``poison-ramp`` scenario measures.
    """

    def __init__(self, n_agents: int, config=None) -> None:
        from repro.reputation.feedback import FeedbackConfig

        self.config = config or FeedbackConfig()
        self.offset = np.zeros(n_agents, dtype=np.float64)
        self.updated_at = np.zeros(n_agents, dtype=np.float64)

    def _decay(self, agents: np.ndarray, now: float) -> None:
        half_life = self.config.half_life
        if np.isinf(half_life):
            self.updated_at[agents] = now
            return
        elapsed = np.maximum(0.0, now - self.updated_at[agents])
        self.offset[agents] *= 0.5 ** (elapsed / half_life)
        self.updated_at[agents] = now

    def offsets_for(self, agents: np.ndarray, now: float) -> np.ndarray:
        """Current decayed offsets for ``agents`` (read-only)."""
        self._decay(agents, now)
        return self.offset[agents]

    def observe_served(self, agents: np.ndarray, now: float) -> None:
        """Fold one cohort of served exchanges into the offsets."""
        if agents.size == 0:
            return
        uniq, counts = np.unique(agents, return_counts=True)
        self._decay(uniq, now)
        self.offset[uniq] = np.maximum(
            self.offset[uniq] - self.config.reward_step * counts,
            -self.config.max_reward,
        )


@dataclasses.dataclass
class _OpenLoopState:
    """Run-long open-loop context, carried across :meth:`~FastSimulation.step` calls.

    Everything that used to live as locals of the monolithic open-loop
    driver; hoisting it onto the engine is what lets the parallel
    driver (:mod:`repro.net.sim.parsim`) advance a run in bounded time
    epochs with barriers in between.
    """

    ts: np.ndarray
    class_names: Sequence[str]
    class_ids: np.ndarray
    agent_ids: np.ndarray
    cpu_free: np.ndarray
    hash_rate: np.ndarray
    patience: np.ndarray
    get_scores: object
    requests_of: object
    until: float | None
    feedback: "FastFeedback | None"
    link_qids: np.ndarray | None
    link_base: np.ndarray | float
    n: int
    model: ServerModel
    ttl: float


class FastSimulation:
    """Cohort-vectorized simulation over the calendar-queue scheduler.

    Drives three workload shapes through one engine:

    * :meth:`run`: an open-loop :class:`~repro.traffic.trace.Trace`;
    * :meth:`run_fires`: a SoA fire schedule over an
      :class:`AgentPopulation` (the million-agent path: no request
      objects anywhere);
    * :meth:`run_sessions`: closed-loop
      :class:`~repro.net.sim.closedloop.SessionSpec` sessions.

    Parameters
    ----------
    framework:
        The configured server pipeline.  Its
        :attr:`~repro.core.config.FrameworkConfig.timing` provides the
        default hash rate and channel delay.
    channel:
        One-way delay model; defaults to the calibrated fixed delay.
    server_model:
        FIFO service costs.
    seed:
        Seed for all randomness this run introduces (delays, solve
        sampling).
    pow_enabled:
        When False, the server skips the whole PoW exchange and serves
        every request directly: the "no defense" baseline.
    solve_deciders:
        Optional per-profile hooks; refusing a puzzle makes that client
        drop it (counted as ABANDONED).
    hash_rates / patiences:
        Optional per-profile hash-rate (evaluations/second) and
        patience (seconds a client grinds one puzzle before
        abandoning; default 30 s) overrides.
    load_reference:
        Server backlog (seconds of queued work) that counts as load
        1.0 when feeding a :class:`LoadAdaptivePolicy`.
    recorder:
        Optional :class:`~repro.replay.TraceRecorder`, attached to the
        framework's event bus; submitted requests register their
        profile and ground-truth score with it.
    tick:
        Cohort quantization grid, ``None`` for exact times.
    admission:
        ``"auto"``/``"framework"``/``"array"``; auto picks the
        object-free array kernel whenever nothing subscribes to
        admission or response events.
    links:
        Optional :class:`~repro.net.sim.links.LinkSet` assigning
        per-population access links (per-agent RTT, loss, shared
        bandwidth, retries); network-layer outcomes land in
        :attr:`SimulationReport.link_stats`.
    phase_timer:
        Optional :class:`~repro.obs.registry.PhaseTimer` accumulating
        wall time, cohort counts and item counts per event kind
        (``arrive``, ``xmit``, ``xmitsol``, ``solve``, plus the nested
        ``fifo`` sub-phase); ``None`` keeps the hot loop to a single
        no-op check per cohort.
    decision_log:
        When True, every open-loop admission cohort appends ``(when,
        idx, scores, difficulties)`` to :attr:`decisions`: the bitwise
        decision-stream probe the parallel driver's parity tests
        compare.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 1234,
        pow_enabled: bool = True,
        solve_deciders: Mapping[str, object] | None = None,
        hash_rates: Mapping[str, float] | None = None,
        patiences: Mapping[str, float] | None = None,
        load_reference: float = 0.1,
        recorder=None,
        tick: float | None = None,
        admission: str = "auto",
        links: LinkSet | None = None,
        phase_timer=None,
        decision_log: bool = False,
    ) -> None:
        if load_reference <= 0:
            raise ValueError(
                f"load_reference must be > 0, got {load_reference}"
            )
        if admission not in ("auto", "framework", "array"):
            raise ValueError(f"unknown admission mode {admission!r}")
        if admission == "array" and recorder is not None:
            raise ValueError(
                "array admission emits no events, so a recorder would "
                "capture nothing; use admission='framework' (or 'auto', "
                "which picks it whenever a recorder is attached)"
            )
        self.framework = framework
        timing = framework.config.timing
        self.channel = channel or FixedDelayChannel(timing.network_overhead / 4)
        self.server_model = server_model or ServerModel()
        self.pow_enabled = pow_enabled
        self.solve_deciders = dict(solve_deciders or {})
        self.hash_rates = dict(hash_rates or {})
        self.patiences = dict(patiences or {})
        self.load_reference = load_reference
        self.recorder = recorder
        self.tick = tick
        self.links = links
        self.phase_timer = phase_timer
        self._decision_log = decision_log
        self._admission_request = admission
        self.default_hash_rate = 1.0 / timing.seconds_per_attempt
        self.rng = np.random.default_rng(seed)
        self._pyrng = random.Random(seed ^ 0x5A17)
        if recorder is not None:
            recorder.attach(framework.events)

        #: Same-timestep admission cohorts drained, and the largest.
        self.arrival_batches = 0
        self.largest_arrival_batch = 0
        self.events_processed = 0
        self._reset()

    # Closed-loop spellings of the batching telemetry.
    @property
    def admission_batches(self) -> int:
        return self.arrival_batches

    @property
    def largest_admission_batch(self) -> int:
        return self.largest_arrival_batch

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _reset(self, observe_load: bool = True) -> None:
        self._queue = CalendarQueue(tick=self.tick)
        self._busy_until = 0.0
        self._now = 0.0
        self._buffers = _OutcomeBuffers()
        #: Per-cohort admission decisions, only kept when the engine
        #: was built with ``decision_log=True``.
        self.decisions: list[tuple] | None = (
            [] if self._decision_log else None
        )
        self._open: _OpenLoopState | None = None
        #: Framework mode only: the issued ``Challenge`` per request
        #: (per session in closed loop) until its outcome is emitted.
        self._challenges: list | None = None
        self._observe_load = observe_load
        self._link_session = (
            self.links.session() if self.links is not None else None
        )
        #: Network-layer outcome counters of the last run (``None``
        #: when the run carries no links).
        self.link_stats = (
            self._link_session.stats if self._link_session else None
        )
        self.arrival_batches = 0
        self.largest_arrival_batch = 0
        self.events_processed = 0

    def _bind_links(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        packed_ips: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-request ``(queue_id, base_delay)`` under :attr:`links`.

        Queue ids come from the class's link assignment (``-1`` = no
        link); base delays are hash-derived from the packed address, so
        they match the reference simulator's per-IP lookups bit-for-bit.
        """
        qids = self.links.queue_ids(class_names)[class_ids]
        return qids, self.links.base_delays(packed_ips, qids)

    def _admission_mode(self) -> str:
        # Stateful scorers (behavioural feedback) update from
        # RESPONSE_SERVED events; this engine settles outcomes per
        # cohort, ahead of their completion instants, and array mode
        # pre-scores requests, so their offsets would drift from the
        # sequential model.  Reject loudly.
        if self._stateful_scoring():
            raise ValueError(
                "the model's scores react to response outcomes, which "
                "the vectorized engine settles per cohort; model "
                "feedback with FastFeedback in an agent-driven run"
            )
        if self._admission_request != "auto":
            return self._admission_request
        events = self.framework.events
        listened = any(
            events.has_subscribers(kind)
            for kind in (
                EventKind.REQUEST_RECEIVED,
                EventKind.SCORED,
                EventKind.POLICY_APPLIED,
                EventKind.PUZZLE_ISSUED,
                EventKind.RESPONSE_SERVED,
            )
        )
        return "framework" if listened else "array"

    def _stateful_scoring(self) -> bool:
        """True when any model in the wrapper chain drifts mid-run.

        A stateful scorer (behavioural feedback) may sit *inside* a
        transparent wrapper (a score cache), and pre-scoring agents
        once would then silently ignore its mid-run offset changes.
        """
        return any(
            getattr(node, "scoring_is_stateful", False)
            for node in _walk_model_chain(self.framework.model)
        )

    def _delays(self, count: int) -> np.ndarray | float:
        """``count`` one-way delay draws (a scalar for fixed channels).

        The shipped channels expose ``delay_array`` (one numpy draw
        per cohort); third-party scalar-only channels fall back to a
        per-draw Python loop — correct, but it reintroduces per-event
        Python calls, so large-scale runs should use a batch-capable
        channel.
        """
        if isinstance(self.channel, FixedDelayChannel):
            return max(0.0, self.channel.delay)
        batch = getattr(self.channel, "delay_array", None)
        if batch is not None:
            drawn = np.asarray(batch(self.rng, count), dtype=np.float64)
        else:
            drawn = np.fromiter(
                (
                    self.channel.one_way_delay(self._pyrng)
                    for _ in range(count)
                ),
                dtype=np.float64,
                count=count,
            )
        # Channel contract backstop: a negative delay would schedule
        # an event before its cause.
        return np.maximum(0.0, drawn)

    def _fifo(self, at: float, costs: np.ndarray | float, count: int) -> np.ndarray:
        """FIFO completion times for ``count`` arrivals at ``at``.

        Vectorised form of the scalar FIFO recurrence: every item
        starts at ``max(arrival, busy)`` and the backlog only ever
        grows within a same-instant cohort.  In open-loop runs it feeds
        the backlog signal to a load-adaptive policy exactly once per
        request (the closed-loop server model has no load signal).

        Computed as one running sum seeded with the cohort's start
        time — the same left-associated additions the scalar
        recurrence performs — so completion times are bit-identical to
        the scalar recurrence, not merely ULP-close (they feed the load
        signal and the TTL-expiry comparison, where one ULP can flip a
        decision).
        """
        started = (
            time.perf_counter() if self.phase_timer is not None else 0.0
        )
        start = max(at, self._busy_until)
        dones = kernels.fifo_running_sum(start, costs, count)
        policy = self.framework.policy
        if self._observe_load and isinstance(policy, LoadAdaptivePolicy):
            busy_before = np.empty(count)
            busy_before[0] = self._busy_until
            busy_before[1:] = dones[:-1]
            backlogs = np.maximum(0.0, busy_before - at) / self.load_reference
            for value in backlogs:
                policy.observe_load(float(value))
        self._busy_until = float(dones[-1])
        if self.phase_timer is not None:
            # Nested inside the dispatch phases, so "fifo" time is a
            # sub-phase of (mostly) "arrive", not a disjoint share.
            self.phase_timer.observe(
                "fifo", time.perf_counter() - started, items=count
            )
        return dones

    def _solve_schedule(
        self,
        agents: np.ndarray,
        cpu_free: np.ndarray,
        receipt: np.ndarray,
        seconds: np.ndarray,
        patience: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-address CPU serialisation with patience abandonment.

        Returns ``(solve_end, abandoned)``.  An abandoning client's CPU
        frees at ``receipt + patience`` (it ground until giving up),
        as in the sequential model.  Agents appearing more than once
        in a cohort fall back to a sequential recurrence for exactly
        the duplicated positions, preserving FIFO CPU hand-off.
        """
        start = np.maximum(receipt, cpu_free[agents])
        solve_end = start + seconds
        abandoned = kernels.patience_mask(solve_end, receipt, patience)
        give_up = receipt + patience
        release = np.where(abandoned, give_up, solve_end)
        uniq, inverse, counts = np.unique(
            agents, return_inverse=True, return_counts=True
        )
        if uniq.size == agents.size:
            cpu_free[agents] = release
            return solve_end, abandoned
        single = counts[inverse] == 1
        cpu_free[agents[single]] = release[single]
        for i in np.nonzero(~single)[0].tolist():
            agent = agents[i]
            s = max(receipt[i], cpu_free[agent])
            e = s + seconds[i]
            if (e - receipt[i]) > patience[i]:
                abandoned[i] = True
                cpu_free[agent] = receipt[i] + patience[i]
            else:
                abandoned[i] = False
                solve_end[i] = e
                cpu_free[agent] = e
        return solve_end, abandoned

    def _admit_framework(
        self, idx: np.ndarray, requests, now
    ) -> tuple[np.ndarray, np.ndarray]:
        """Framework-mode cohort admission: ``(scores, difficulties)``.

        One :meth:`AIPoWFramework.challenge_batch` call (full
        per-request events for recorders and tracers) with the
        decisions pulled back into arrays; the challenges are kept
        under ``idx`` until :meth:`_respond` emits their outcomes.
        """
        challenges = self.framework.challenge_batch(requests, now=now)
        for i, challenge in zip(idx.tolist(), challenges):
            self._challenges[i] = challenge
        scores = np.array(
            [c.decision.reputation_score for c in challenges]
        )
        difficulties = np.array(
            [c.decision.difficulty for c in challenges], dtype=np.float64
        )
        return scores, difficulties

    def _record(
        self,
        class_names: Sequence[str],
        idx: np.ndarray,
        cids: np.ndarray,
        status: ResponseStatus | np.ndarray,
        finish: np.ndarray,
        started: np.ndarray,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """Fold one terminal cohort into the report.

        ``started`` holds each request's own timestamp (when its
        client sent it), so latency is ``finish - started``; in
        framework mode the outcomes also go onto the bus
        (:meth:`_respond`).
        """
        self._touch(finish)
        latency = np.maximum(0.0, finish - started)
        self._buffers.record(
            class_names, cids, status, latency, scores, difficulties,
            attempts,
        )
        if self._challenges is not None:
            self._respond(idx, status, finish, latency, attempts)

    def _respond(
        self,
        idx: np.ndarray,
        status: ResponseStatus | np.ndarray,
        finish: np.ndarray,
        latency: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """One ``RESPONSE_SERVED`` per outcome, stamped at ``finish``."""
        if isinstance(status, ResponseStatus):
            statuses = [status] * int(idx.size)
        else:
            statuses = [_STATUS_CODES[code] for code in status.tolist()]
        emit = self.framework.events.emit
        challenges = self._challenges
        for i, st, at, lat, att in zip(
            idx.tolist(), statuses, finish.tolist(), latency.tolist(),
            attempts.tolist(),
        ):
            decision = challenges[i].decision
            challenges[i] = None
            response = ServedResponse(
                decision=decision,
                status=st,
                latency=lat,
                solve_attempts=int(att),
                body=(
                    f"resource:{decision.request.resource}"
                    if st is ResponseStatus.SERVED
                    else ""
                ),
            )
            emit(EventKind.RESPONSE_SERVED, at, response=response)

    def _decide_solve(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        difficulties: np.ndarray,
    ) -> np.ndarray:
        """Per-profile solve/refuse decisions, batch where possible."""
        from repro.attacks.base import decide_batch

        solve = np.ones(difficulties.size, dtype=bool)
        if not self.solve_deciders:
            return solve
        for cid in np.unique(class_ids):
            decider = self.solve_deciders.get(class_names[cid])
            if decider is None:
                continue
            mask = class_ids == cid
            solve[mask] = decide_batch(decider, difficulties[mask])
        return solve

    def _mask_until(
        self, until: float | None, finish: np.ndarray, *arrays: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Drop terminals past ``until`` (their events would not fire)."""
        if until is None:
            return (finish, *arrays)
        keep = finish <= until
        return (finish[keep], *(a[keep] for a in arrays))

    def _touch(self, *times) -> None:
        for value in times:
            if np.isscalar(value):
                if value > self._now:
                    self._now = float(value)
            elif getattr(value, "size", 0):
                peak = float(np.max(value))
                if peak > self._now:
                    self._now = peak

    # ------------------------------------------------------------------
    # Open-loop: traces and fire schedules
    # ------------------------------------------------------------------
    def run(self, trace, until: float | None = None) -> SimulationReport:
        """Replay an open-loop trace to completion (or ``until``)."""
        entries = list(trace)
        class_names: list[str] = []
        class_index: dict[str, int] = {}
        agent_index: dict[str, int] = {}
        n = len(entries)
        ts = np.empty(n)
        class_ids = np.empty(n, dtype=np.int32)
        agent_ids = np.empty(n, dtype=np.int64)
        packed = np.empty(n, dtype=np.int64) if self.links is not None else None
        if packed is not None:
            import ipaddress
        for i, entry in enumerate(entries):
            ts[i] = entry.request.timestamp
            cid = class_index.setdefault(entry.profile, len(class_names))
            if cid == len(class_names):
                class_names.append(entry.profile)
            class_ids[i] = cid
            agent_ids[i] = agent_index.setdefault(
                entry.request.client_ip, len(agent_index)
            )
            if packed is not None:
                packed[i] = int(
                    ipaddress.ip_address(entry.request.client_ip)
                )
            if self.recorder is not None:
                self.recorder.register_source(
                    entry.request.client_ip, entry.profile, entry.true_score
                )
        link_qids = link_base = None
        if packed is not None:
            link_qids, link_base = self._bind_links(
                class_names, class_ids, packed
            )

        mode = self._admission_mode()
        scores = None
        if mode == "array" and n:
            from repro.reputation.base import model_score_requests

            scores = model_score_requests(
                self.framework.model, [e.request for e in entries]
            )

        requests_of = (
            None
            if mode == "array"
            else (lambda idx: [entries[i].request for i in idx.tolist()])
        )
        return self._run_open_loop(
            ts=ts,
            class_names=class_names,
            class_ids=class_ids,
            agent_ids=agent_ids,
            n_agents=len(agent_index),
            scores=scores,
            requests_of=requests_of,
            until=until,
            link_qids=link_qids,
            link_base=link_base,
        )

    def run_fires(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None = None,
        feedback: FastFeedback | None = None,
    ) -> SimulationReport:
        """Drive a SoA fire schedule — the million-agent hot path.

        Agents are scored once (features are fixed at mint time);
        per-fire admission is a gather plus the policy's array kernel.
        ``feedback`` threads a :class:`FastFeedback` offset table into
        scoring and outcome observation.
        """
        return self._run_open_loop(
            **self._fires_kwargs(
                population, fire_times, fire_agents, until, feedback
            )
        )

    # ------------------------------------------------------------------
    # Stepped execution (the parallel driver's epoch API)
    # ------------------------------------------------------------------
    def start_fires(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None = None,
        feedback: FastFeedback | None = None,
    ) -> None:
        """Prime the stepped engine with a fire schedule.

        ``start_fires`` + repeated :meth:`step` + :meth:`finish` is the
        epoch-sliced spelling of :meth:`run_fires`: draining the
        calendar queue in consecutive bounded windows visits exactly
        the cohorts an unbounded drain would, in the same (time, FIFO)
        order — see :meth:`CalendarQueue.drain_until` — so the two
        spellings produce bit-identical decision streams and reports.
        """
        self._start_open_loop(
            **self._fires_kwargs(
                population, fire_times, fire_agents, until, feedback
            )
        )

    def step(self, bound: float | None) -> bool:
        """Process every cohort with quantized time ``<= bound``.

        Returns True while events remain past ``bound`` (the caller
        should step again with a later bound), False once the run is
        over — queue drained, or every remaining cohort lies beyond
        the run's ``until`` horizon.  ``bound=None`` runs to the end.
        """
        if self._open is None:
            raise ValueError("step() before start_fires()")
        return self._step_open_loop(bound)

    def finish(self) -> SimulationReport:
        """The report of a stepped run (after :meth:`step` returned False)."""
        if self._open is None:
            raise ValueError("finish() before start_fires()")
        return self._finish_open_loop()

    def _fires_kwargs(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None,
        feedback: FastFeedback | None,
    ) -> dict:
        """The open-loop engine arguments for a SoA fire schedule."""
        fire_agents = np.asarray(fire_agents, dtype=np.int64)
        fire_times = np.asarray(fire_times, dtype=np.float64)
        mode = self._admission_mode()
        if feedback is not None and mode != "array":
            raise ValueError(
                "FastFeedback offsets only enter scoring on the array "
                "admission path; this run resolved to framework "
                "admission (recorder/subscribers attached), where the "
                "offsets would update but never influence a decision"
            )
        base_scores = None
        if mode == "array":
            schema = _scoring_schema(self.framework.model)
            if schema.names != population.schema.names:
                raise ValueError(
                    "population schema does not match the scoring "
                    f"model's: {population.schema.names} vs "
                    f"{schema.names}"
                )
            base_scores = population.score_with(
                _innermost_batch_scorer(self.framework.model)
            )
        class_ids = population.profile_id[fire_agents].astype(np.int32)
        link_qids = link_base = None
        if self.links is not None:
            # Per-agent link state is SoA: one hash-derived base delay
            # and one queue id per agent, gathered per fire.
            agent_qids, agent_base = self._bind_links(
                population.profile_names,
                population.profile_id,
                population.packed_ips(),
            )
            link_qids = agent_qids[fire_agents]
            link_base = agent_base[fire_agents]
        per_fire_scores = None
        if base_scores is not None and feedback is None:
            per_fire_scores = base_scores[fire_agents]

        def score_hook(idx: np.ndarray, at: float) -> np.ndarray:
            gathered = base_scores[fire_agents[idx]]
            if feedback is None:
                return gathered
            offsets = feedback.offsets_for(fire_agents[idx], at)
            return np.clip(gathered + offsets, 0.0, 10.0)

        requests_of = None
        if mode == "framework":
            from repro.core.records import ClientRequest

            names = population.schema.names
            rows = population.features
            if self.recorder is not None:
                # Recorder runs are object-world by construction
                # (framework admission), so materialising every
                # agent's address for source metadata is in budget.
                profile_names = population.profile_names
                true = population.true_scores
                for agent, ip in enumerate(population.ip_strings()):
                    self.recorder.register_source(
                        ip,
                        profile_names[population.profile_id[agent]],
                        float(true[agent]),
                    )

            def requests_of(idx: np.ndarray):  # noqa: F811 - mode-specific
                agents = fire_agents[idx]
                ips = population.ip_strings(agents)
                return [
                    ClientRequest(
                        client_ip=ip,
                        resource="/index.html",
                        timestamp=float(fire_times[i]),
                        features=dict(
                            zip(names, rows[agent].tolist())
                        ),
                    )
                    for i, agent, ip in zip(idx.tolist(), agents.tolist(), ips)
                ]

        return dict(
            ts=fire_times,
            class_names=list(population.profile_names),
            class_ids=class_ids,
            agent_ids=fire_agents,
            n_agents=len(population),
            scores=per_fire_scores,
            score_hook=None if per_fire_scores is not None or mode != "array" else score_hook,
            requests_of=requests_of,
            until=until,
            feedback=feedback,
            link_qids=link_qids,
            link_base=link_base,
        )

    def _run_open_loop(self, **kwargs) -> SimulationReport:
        """The shared open-loop engine behind :meth:`run`/:meth:`run_fires`."""
        self._start_open_loop(**kwargs)
        self._step_open_loop(None)
        return self._finish_open_loop()

    def _start_open_loop(
        self,
        *,
        ts: np.ndarray,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        agent_ids: np.ndarray,
        n_agents: int,
        scores: np.ndarray | None,
        requests_of,
        until: float | None,
        score_hook=None,
        feedback: FastFeedback | None = None,
        link_qids: np.ndarray | None = None,
        link_base: np.ndarray | None = None,
    ) -> None:
        """Reset run state and push the initial arrival schedule."""
        self._reset()
        n = int(ts.size)
        if requests_of is not None:  # framework admission
            self._challenges = [None] * n
        cpu_free = np.zeros(n_agents)
        hash_rate = self._per_class(class_names, self.hash_rates, self.default_hash_rate)
        patience = self._per_class(class_names, self.patiences, 30.0)
        if link_base is None:
            link_base = 0.0  # broadcasts as "no extra propagation"

        # Arrival times: one channel crossing per submitted request.
        # _push_grouped stable-sorts them, so equal-instant arrivals
        # keep trace order — the exact cohorts the reference's
        # arrival batching forms.  Linked requests instead enter their
        # uplink at the submit instant ("xmit"); the crossing decides
        # when — and whether — they arrive.
        if n:
            all_idx = np.arange(n, dtype=np.int64)
            if self._link_session is not None:
                linked = link_qids >= 0
                plain = all_idx[~linked]
                if plain.size:
                    self._push_grouped(
                        ts[plain] + self._delays(int(plain.size)),
                        "arrive",
                        (plain,),
                    )
                wired = all_idx[linked]
                if wired.size:
                    self._push_grouped(
                        ts[wired],
                        "xmit",
                        (wired, np.ones(wired.size, dtype=np.int64)),
                    )
            else:
                self._push_grouped(
                    ts + self._delays(n), "arrive", (all_idx,)
                )

        get_scores = score_hook
        if get_scores is None and scores is not None:
            get_scores = lambda idx, at: scores[idx]  # noqa: E731

        self._open = _OpenLoopState(
            ts=ts,
            class_names=class_names,
            class_ids=class_ids,
            agent_ids=agent_ids,
            cpu_free=cpu_free,
            hash_rate=hash_rate,
            patience=patience,
            get_scores=get_scores,
            requests_of=requests_of,
            until=until,
            feedback=feedback,
            link_qids=link_qids,
            link_base=link_base,
            n=n,
            model=self.server_model,
            ttl=self.framework.config.pow.ttl,
        )

    def _step_open_loop(self, bound: float | None) -> bool:
        """Drain cohorts up to ``bound``; True while events remain."""
        st = self._open
        until = st.until
        timer = self.phase_timer
        while self._queue:
            peek = self._queue.peek_time()
            if until is not None and peek > until:
                return False
            if bound is not None and peek > bound:
                return True
            when, segments = self._queue.pop_cohort()
            self._touch(when)
            for kind, payload in _merge_segments(segments):
                started = time.perf_counter() if timer is not None else 0.0
                if kind == "arrive":
                    self._process_arrivals(
                        when,
                        payload,
                        ts=st.ts,
                        class_names=st.class_names,
                        class_ids=st.class_ids,
                        agent_ids=st.agent_ids,
                        cpu_free=st.cpu_free,
                        hash_rate=st.hash_rate,
                        patience=st.patience,
                        get_scores=st.get_scores,
                        requests_of=st.requests_of,
                        until=until,
                        link_qids=st.link_qids,
                        link_base=st.link_base,
                    )
                elif kind == "xmit":
                    self._process_xmit(
                        when,
                        payload,
                        ts=st.ts,
                        class_ids=st.class_ids,
                        patience=st.patience,
                        link_qids=st.link_qids,
                        link_base=st.link_base,
                    )
                elif kind == "xmitsol":
                    self._process_xmitsol(
                        when,
                        payload,
                        ts=st.ts,
                        class_ids=st.class_ids,
                        class_names=st.class_names,
                        link_qids=st.link_qids,
                        link_base=st.link_base,
                    )
                else:  # solution
                    self._process_solutions(
                        when,
                        payload,
                        ts=st.ts,
                        class_ids=st.class_ids,
                        class_names=st.class_names,
                        agent_ids=st.agent_ids,
                        ttl=st.ttl,
                        model=st.model,
                        until=until,
                        feedback=st.feedback,
                        link_base=st.link_base,
                    )
                if timer is not None:
                    items = (
                        payload.size
                        if isinstance(payload, np.ndarray)
                        else payload[0].size
                    )
                    timer.observe(
                        kind,
                        time.perf_counter() - started,
                        items=int(items),
                    )
        return False

    def _finish_open_loop(self) -> SimulationReport:
        st = self._open
        duration = st.until if st.until is not None else self._now
        return SimulationReport(
            metrics=collector_from_buffers(self._buffers),
            duration=duration,
            requests=st.n,
            events_processed=self.events_processed,
            link_stats=self.link_stats,
        )

    def _process_arrivals(
        self,
        when: float,
        idx: np.ndarray,
        *,
        ts: np.ndarray,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        agent_ids: np.ndarray,
        cpu_free: np.ndarray,
        hash_rate: np.ndarray,
        patience: np.ndarray,
        get_scores,
        requests_of,
        until: float | None,
        link_qids: np.ndarray | None = None,
        link_base: np.ndarray | float = 0.0,
    ) -> None:
        k = int(idx.size)
        self.arrival_batches += 1
        self.largest_arrival_batch = max(self.largest_arrival_batch, k)
        self.events_processed += k + 1  # arrivals + the drain
        cids = class_ids[idx]
        model = self.server_model
        # Server->client legs add the agent's propagation delay but are
        # modelled lossless (the uplink is the constrained direction).
        base = link_base[idx] if isinstance(link_base, np.ndarray) else 0.0

        # Decision order matters for stateful (load-adaptive) policies:
        # the cohort's FIFO costs, which feed the policy's load signal,
        # are charged *before* the batch admission, as the sequential
        # model charges each request before deciding it.
        if not self.pow_enabled:
            dones = self._fifo(when, model.resource_cost, k)
            if get_scores is not None:
                cohort_scores = get_scores(idx, when)
                difficulties = self.framework.difficulties_for_scores(
                    cohort_scores
                ).astype(np.float64)
            else:
                cohort_scores, difficulties = self._admit_framework(
                    idx, requests_of(idx), now=when
                )
            if self.decisions is not None:
                self.decisions.append(
                    (when, idx.copy(), cohort_scores.copy(),
                     difficulties.copy())
                )
            finish = dones + self._delays(k) + base
            self.events_processed += k
            out = self._mask_until(
                until, finish, idx, cids, cohort_scores, difficulties,
                ts[idx],
            )
            finish, idx_m, cids_m, scores_m, diffs_m, ts_m = out
            self._record(
                class_names, idx_m, cids_m, ResponseStatus.SERVED, finish,
                ts_m, scores_m, diffs_m, np.zeros(finish.size),
            )
            return

        issue = self._fifo(when, model.challenge_cost, k)
        if get_scores is not None:
            cohort_scores = get_scores(idx, when)
            difficulties = self.framework.difficulties_for_scores(
                cohort_scores
            ).astype(np.float64)
        else:
            cohort_scores, difficulties = self._admit_framework(
                idx, requests_of(idx), now=[float(t) for t in issue]
            )
        if self.decisions is not None:
            self.decisions.append(
                (when, idx.copy(), cohort_scores.copy(), difficulties.copy())
            )

        receipt = issue + self._delays(k) + base
        self.events_processed += k  # puzzle deliveries
        solve = self._decide_solve(class_names, cids, difficulties)

        refused = ~solve
        if refused.any():
            out = self._mask_until(
                until,
                receipt[refused],
                idx[refused],
                cids[refused],
                cohort_scores[refused],
                difficulties[refused],
                ts[idx][refused],
            )
            finish, idx_m, cids_m, scores_m, diffs_m, ts_m = out
            self._record(
                class_names, idx_m, cids_m, ResponseStatus.ABANDONED,
                finish, ts_m, scores_m, diffs_m, np.zeros(finish.size),
            )

        if not solve.any():
            return
        s_idx = idx[solve]
        s_receipt = receipt[solve]
        s_diff = difficulties[solve]
        s_scores = cohort_scores[solve]
        s_cids = cids[solve]
        attempts = sample_attempts_array(s_diff, self.rng)
        seconds = attempts / hash_rate[s_cids]
        solve_end, abandoned = self._solve_schedule(
            agent_ids[s_idx], cpu_free, s_receipt, seconds, patience[s_cids]
        )

        if abandoned.any():
            give_up = s_receipt[abandoned] + patience[s_cids][abandoned]
            out = self._mask_until(
                until,
                give_up,
                s_idx[abandoned],
                s_cids[abandoned],
                s_scores[abandoned],
                s_diff[abandoned],
                ts[s_idx][abandoned],
                attempts[abandoned],
            )
            finish, idx_m, cids_m, scores_m, diffs_m, ts_m, attempts_m = out
            self._record(
                class_names, idx_m, cids_m, ResponseStatus.ABANDONED,
                finish, ts_m, scores_m, diffs_m, attempts_m,
            )

        solving = ~abandoned
        if not solving.any():
            return
        payload = (
            s_idx[solving],
            issue[solve][solving],
            attempts[solving],
            s_diff[solving],
            s_scores[solving],
        )
        if self._link_session is not None:
            # Linked agents enter their uplink the instant solving
            # ends; the crossing (loss, queue) decides the submit time.
            on_link = link_qids[payload[0]] >= 0
            if on_link.any():
                self._push_grouped(
                    solve_end[solving][on_link],
                    "xmitsol",
                    tuple(col[on_link] for col in payload)
                    + (np.ones(int(on_link.sum()), dtype=np.int64),),
                )
            off_link = ~on_link
            if off_link.any():
                submit = (
                    solve_end[solving][off_link]
                    + self._delays(int(off_link.sum()))
                )
                self._push_grouped(
                    submit,
                    "solve",
                    tuple(col[off_link] for col in payload),
                )
            return
        submit = solve_end[solving] + self._delays(int(solving.sum()))
        self._push_grouped(submit, "solve", payload)

    def _process_solutions(
        self,
        when: float,
        payload: tuple,
        *,
        ts: np.ndarray,
        class_ids: np.ndarray,
        class_names: Sequence[str],
        agent_ids: np.ndarray,
        ttl: float,
        model: ServerModel,
        until: float | None,
        feedback: FastFeedback | None,
        link_base: np.ndarray | float = 0.0,
    ) -> None:
        idx, issued_at, attempts, difficulties, scores = payload
        k = int(idx.size)
        self.events_processed += k
        expired = kernels.ttl_mask(when, issued_at, ttl)
        costs = model.verify_cost + np.where(
            expired, 0.0, model.resource_cost
        )
        dones = self._fifo(when, costs, k)
        base = link_base[idx] if isinstance(link_base, np.ndarray) else 0.0
        finish = dones + self._delays(k) + base
        self.events_processed += k  # terminal responses
        status_codes = np.where(
            expired,
            _STATUS_CODES.index(ResponseStatus.EXPIRED),
            _SERVED,
        ).astype(np.int8)
        cids = class_ids[idx]
        out = self._mask_until(
            until,
            finish,
            idx,
            cids,
            scores,
            difficulties,
            ts[idx],
            attempts,
            status_codes,
        )
        finish, idx_m, cids_m, scores_m, diffs_m, ts_m, attempts_m, codes_m = out
        self._record(
            class_names, idx_m, cids_m, codes_m, finish, ts_m, scores_m,
            diffs_m, attempts_m,
        )
        if feedback is not None:
            feedback.observe_served(
                agent_ids[idx_m[codes_m == _SERVED]], when
            )

    # ------------------------------------------------------------------
    # Link crossings
    # ------------------------------------------------------------------
    def _process_xmit(
        self,
        when: float,
        payload: tuple,
        *,
        ts: np.ndarray,
        class_ids: np.ndarray,
        patience: np.ndarray,
        link_qids: np.ndarray,
        link_base: np.ndarray,
    ) -> None:
        """Request-leg uplink crossings: loss, queueing, retry, give-up.

        Requests the network swallows here were never admitted — they
        carry no score or difficulty — so give-ups land in
        :attr:`link_stats`, not the metrics.  A retry that would start
        past the client's patience window gives up instead: nobody
        retransmits a page request they have stopped waiting for.
        """
        idx, attempt = payload
        k = int(idx.size)
        self.events_processed += k
        session = self._link_session
        stats = session.stats
        stats.crossings += k
        qids = link_qids[idx]
        for qid in np.unique(qids):
            pos = np.nonzero(qids == qid)[0]
            profile = self.links.profile_of_queue(int(qid))
            lost = self.links.crossing_lost(
                idx[pos], attempt[pos], leg=0, loss_rate=profile.loss_rate
            )
            stats.lost += int(lost.sum())
            surv = pos[~lost]
            exits, accepted = session.cross(
                int(qid), when, int(surv.size)
            )
            stats.queue_dropped += int(surv.size) - accepted
            deliv = idx[surv[:accepted]]
            if deliv.size:
                self._push_grouped(
                    exits + link_base[deliv] + self._delays(int(deliv.size)),
                    "arrive",
                    (deliv,),
                )
            # Failed = lost + tail-dropped, in original crossing order
            # (a same-instant retry cohort re-enters the queue in the
            # order the reference simulator would process it).
            failed = np.zeros(pos.size, dtype=bool)
            failed[np.nonzero(lost)[0]] = True
            failed[np.nonzero(~lost)[0][accepted:]] = True
            if not failed.any():
                continue
            f_pos = pos[failed]
            f_idx = idx[f_pos]
            f_att = attempt[f_pos]
            retry_at = when + profile.backoff * 2.0 ** (
                f_att.astype(np.float64) - 1.0
            )
            can = (f_att < 1 + profile.max_retries) & (
                (retry_at - ts[f_idx]) <= patience[class_ids[f_idx]]
            )
            stats.retries += int(can.sum())
            stats.request_give_ups += int((~can).sum())
            if can.any():
                self._push_grouped(
                    retry_at[can], "xmit", (f_idx[can], f_att[can] + 1)
                )

    def _process_xmitsol(
        self,
        when: float,
        payload: tuple,
        *,
        ts: np.ndarray,
        class_ids: np.ndarray,
        class_names: Sequence[str],
        link_qids: np.ndarray,
        link_base: np.ndarray,
    ) -> None:
        """Solution-leg uplink crossings.

        Same loss/queue/retry mechanics as the request leg, with two
        differences: the client already sank the solving work, so it
        retries until ``max_retries`` regardless of patience (TTL
        expiry — not impatience — punishes lateness), and a final
        give-up *is* recorded in the metrics as ABANDONED: the puzzle
        was issued and solved, so scores and difficulties exist.
        """
        idx, issued_at, attempts, difficulties, scores, attempt = payload
        k = int(idx.size)
        self.events_processed += k
        session = self._link_session
        stats = session.stats
        stats.crossings += k
        qids = link_qids[idx]
        for qid in np.unique(qids):
            pos = np.nonzero(qids == qid)[0]
            profile = self.links.profile_of_queue(int(qid))
            lost = self.links.crossing_lost(
                idx[pos], attempt[pos], leg=1, loss_rate=profile.loss_rate
            )
            stats.lost += int(lost.sum())
            surv = pos[~lost]
            exits, accepted = session.cross(
                int(qid), when, int(surv.size)
            )
            stats.queue_dropped += int(surv.size) - accepted
            deliv = surv[:accepted]
            if deliv.size:
                submit = (
                    exits
                    + link_base[idx[deliv]]
                    + self._delays(int(deliv.size))
                )
                self._push_grouped(
                    submit,
                    "solve",
                    (
                        idx[deliv],
                        issued_at[deliv],
                        attempts[deliv],
                        difficulties[deliv],
                        scores[deliv],
                    ),
                )
            failed = np.zeros(pos.size, dtype=bool)
            failed[np.nonzero(lost)[0]] = True
            failed[np.nonzero(~lost)[0][accepted:]] = True
            if not failed.any():
                continue
            f_pos = pos[failed]
            f_att = attempt[f_pos]
            can = f_att < 1 + profile.max_retries
            stats.retries += int(can.sum())
            give_up = f_pos[~can]
            if give_up.size:
                stats.solution_give_ups += int(give_up.size)
                g_idx = idx[give_up]
                self._record(
                    class_names,
                    g_idx,
                    class_ids[g_idx],
                    ResponseStatus.ABANDONED,
                    np.full(give_up.size, when),
                    ts[g_idx],
                    scores[give_up],
                    difficulties[give_up],
                    attempts[give_up],
                )
            retry = f_pos[can]
            if retry.size:
                retry_at = when + profile.backoff * 2.0 ** (
                    attempt[retry].astype(np.float64) - 1.0
                )
                self._push_grouped(
                    retry_at,
                    "xmitsol",
                    (
                        idx[retry],
                        issued_at[retry],
                        attempts[retry],
                        difficulties[retry],
                        scores[retry],
                        attempt[retry] + 1,
                    ),
                )

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    def run_sessions(self, sessions, until: float | None = None):
        """Drive closed-loop sessions to completion (or ``until``)."""
        sessions = list(sessions)
        if not sessions:
            raise ValueError("need at least one session")
        if self.links is not None and not self.links.delay_only:
            # Closed-loop exchanges have no request identity to key
            # loss hashes on and no give-up semantics; only the
            # propagation-delay part of a link is defined here.
            raise ValueError(
                "closed-loop runs support delay-only link profiles; "
                "lossy or bandwidth-capped links need the open-loop "
                "runs (run/run_fires)"
            )
        # The closed-loop server model has no load signal.
        self._reset(observe_load=False)
        m = len(sessions)
        class_names: list[str] = []
        class_index: dict[str, int] = {}
        cids = np.empty(m, dtype=np.int32)
        start = np.empty(m)
        think = np.empty(m)
        exchanges = np.empty(m, dtype=np.int64)
        rate = np.empty(m)
        patience = np.empty(m)
        for i, session in enumerate(sessions):
            profile = session.client.profile
            cid = class_index.setdefault(profile.name, len(class_names))
            if cid == len(class_names):
                class_names.append(profile.name)
            cids[i] = cid
            start[i] = session.start
            think[i] = session.think_time
            exchanges[i] = session.exchanges
            rate[i] = self.hash_rates.get(profile.name, profile.hash_rate)
            patience[i] = profile.patience
            if self.recorder is not None:
                self.recorder.register_source(
                    session.client.ip,
                    profile.name,
                    session.client.true_score,
                )

        base = np.zeros(m)
        if self.links is not None:
            import ipaddress

            packed = np.array(
                [int(ipaddress.ip_address(s.client.ip)) for s in sessions],
                dtype=np.int64,
            )
            qids = self.links.queue_ids(class_names)[cids]
            base = self.links.base_delays(packed, qids)

        mode = self._admission_mode()
        scores = None
        requests = None
        if mode == "array":
            # The schema must be the *scoring* model's — a transparent
            # wrapper (score cache) declares none, and falling back to
            # the default would vectorize features in the wrong column
            # order for a custom-schema model.
            scorer = _innermost_batch_scorer(self.framework.model)
            schema = _scoring_schema(self.framework.model)
            matrix = schema.vectorize_batch(
                [s.client.features for s in sessions]
            )
            scores = np.asarray(
                scorer.score_batch(matrix), dtype=np.float64
            )
        else:
            from repro.core.records import ClientRequest

            self._challenges = [None] * m

            def requests(idx: np.ndarray, begin_ts: np.ndarray):
                return [
                    ClientRequest(
                        client_ip=sessions[i].client.ip,
                        resource="/session",
                        timestamp=float(t),
                        features=sessions[i].client.features,
                    )
                    for i, t in zip(idx.tolist(), begin_ts.tolist())
                ]

        completed = 0
        model = self.server_model

        # First exchange of every session.
        begin = start.copy()
        arrive = begin + self._delays(m) + base
        remaining = exchanges.copy()
        self._push_grouped(
            arrive,
            "cl_arrive",
            (np.arange(m, dtype=np.int64), begin, remaining),
        )

        while self._queue:
            peek = self._queue.peek_time()
            if until is not None and peek > until:
                break
            when, segments = self._queue.pop_cohort()
            self._touch(when)
            for kind, payload in _merge_segments(segments):
                if kind == "cl_arrive":
                    idx, begin_ts, rem = payload
                    k = int(idx.size)
                    self.arrival_batches += 1
                    self.largest_arrival_batch = max(
                        self.largest_arrival_batch, k
                    )
                    self.events_processed += k + 1
                    issue = self._fifo(when, model.challenge_cost, k)
                    if scores is not None:
                        cohort_scores = scores[idx]
                        difficulties = self.framework.difficulties_for_scores(
                            cohort_scores
                        ).astype(np.float64)
                    else:
                        cohort_scores, difficulties = self._admit_framework(
                            idx,
                            requests(idx, begin_ts),
                            now=[float(t) for t in issue],
                        )
                    receipt = issue + self._delays(k) + base[idx]
                    self.events_processed += k
                    attempts = sample_attempts_array(difficulties, self.rng)
                    seconds = attempts / rate[idx]
                    # Closed-loop clients abandon on expected grind time
                    # alone (their CPU is otherwise idle): sample
                    # exceeding patience ends the exchange at
                    # receipt + patience.
                    abandoned = seconds > patience[idx]
                    if abandoned.any():
                        finish = receipt[abandoned] + patience[idx][abandoned]
                        completed += self._finish_sessions(
                            when,
                            class_names,
                            cids,
                            idx[abandoned],
                            begin_ts[abandoned],
                            rem[abandoned],
                            ResponseStatus.ABANDONED,
                            finish,
                            cohort_scores[abandoned],
                            difficulties[abandoned],
                            attempts[abandoned],
                            think,
                            until,
                            base,
                        )
                    solving = ~abandoned
                    if solving.any():
                        submit = (
                            receipt[solving]
                            + seconds[solving]
                            + self._delays(int(solving.sum()))
                            + base[idx[solving]]
                        )
                        self._push_grouped(
                            submit,
                            "cl_redeem",
                            (
                                idx[solving],
                                begin_ts[solving],
                                rem[solving],
                                attempts[solving],
                                cohort_scores[solving],
                                difficulties[solving],
                            ),
                        )
                else:  # cl_redeem
                    idx, begin_ts, rem, attempts, cohort_scores, difficulties = payload
                    k = int(idx.size)
                    self.events_processed += k
                    dones = self._fifo(
                        when,
                        model.verify_cost + model.resource_cost,
                        k,
                    )
                    finish = dones + self._delays(k) + base[idx]
                    completed += self._finish_sessions(
                        when,
                        class_names,
                        cids,
                        idx,
                        begin_ts,
                        rem,
                        ResponseStatus.SERVED,
                        finish,
                        cohort_scores,
                        difficulties,
                        attempts,
                        think,
                        until,
                        base,
                    )

        duration = until if until is not None else self._now
        return ClosedLoopReport(
            metrics=collector_from_buffers(self._buffers),
            duration=duration,
            sessions=m,
            completed_exchanges=completed,
        )

    def _finish_sessions(
        self,
        when: float,
        class_names: Sequence[str],
        cids: np.ndarray,
        idx: np.ndarray,
        begin_ts: np.ndarray,
        rem: np.ndarray,
        status: ResponseStatus,
        finish: np.ndarray,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
        think: np.ndarray,
        until: float | None,
        base: np.ndarray,
    ) -> int:
        out = self._mask_until(
            until, finish, idx, begin_ts, rem, scores, difficulties, attempts
        )
        finish, idx, begin_ts, rem, scores, difficulties, attempts = out
        self.events_processed += int(finish.size)
        self._record(
            class_names, idx, cids[idx], status, finish, begin_ts, scores,
            difficulties, attempts,
        )
        again = rem - 1 > 0
        if again.any():
            pauses = np.where(
                think[idx[again]] > 0,
                self.rng.exponential(np.maximum(think[idx[again]], 1e-300)),
                0.0,
            )
            next_begin = finish[again] + pauses
            arrive = (
                next_begin
                + self._delays(int(again.sum()))
                + base[idx[again]]
            )
            self._push_grouped(
                arrive,
                "cl_arrive",
                (idx[again], next_begin, rem[again] - 1),
            )
        return int(finish.size)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _push_grouped(
        self, times: np.ndarray, kind: str, payload: tuple
    ) -> None:
        """Push payload columns grouped into per-bucket segments.

        Grouping uses integer bucket *indices* (``ceil(t / tick)``) but
        each segment is pushed at its earliest member's raw time —
        quantization onto the grid happens exactly once, inside
        :class:`CalendarQueue`, so events are never bumped a second
        tick by re-quantizing an already-on-grid value.
        """
        if times.size == 0:
            return
        order = np.argsort(times, kind="stable")
        times = times[order]
        payload = tuple(column[order] for column in payload)
        if self.tick is None:
            keyed = times
        else:
            keyed = np.ceil(times / self.tick)
        boundaries = np.nonzero(np.diff(keyed))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [times.size]])
        if kind == "arrive":
            # The only single-column event kind; everything else
            # ("solve", "xmit*", "cl_*") carries a tuple payload.
            for lo, hi in zip(starts, ends):
                self._queue.push(float(times[lo]), (kind, payload[0][lo:hi]))
        else:
            for lo, hi in zip(starts, ends):
                self._queue.push(
                    float(times[lo]),
                    (kind, tuple(col[lo:hi] for col in payload)),
                )

    @staticmethod
    def _per_class(
        class_names: Sequence[str],
        overrides: Mapping[str, float],
        default: float,
    ) -> np.ndarray:
        return np.array(
            [float(overrides.get(name, default)) for name in class_names]
        )


def _merge_segments(segments: list) -> list:
    """Concatenate adjacent same-kind segments of one cohort.

    Segments pop in push order (the heap's seq order); merging only
    *adjacent* runs keeps that order — arrivals still precede
    same-instant solutions pushed later, and vice versa.
    """
    merged: list = []
    for kind, payload in segments:
        if merged and merged[-1][0] == kind:
            prev = merged[-1][1]
            if isinstance(prev, tuple):
                merged[-1] = (
                    kind,
                    tuple(
                        np.concatenate([a, b])
                        for a, b in zip(prev, payload)
                    ),
                )
            else:
                merged[-1] = (kind, np.concatenate([prev, payload]))
        else:
            merged.append((kind, payload))
    return merged


def _walk_model_chain(model):
    """Yield ``model`` and each wrapped model, outermost first.

    The one traversal rule for model wrapper chains (``.base`` for
    feedback wrappers, ``.inner`` for caches), cycle-guarded.  Every
    chain inspection in this module goes through it so the rule cannot
    drift between them.
    """
    node, seen = model, set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        node = getattr(node, "base", None) or getattr(node, "inner", None)


def _scoring_schema(model):
    """The feature schema of the model that actually scores.

    Transparent wrappers (score caches) declare no ``schema`` but may
    still be the node providing ``score_batch``, so schema and scorer
    must be resolved independently.
    """
    for node in _walk_model_chain(model):
        schema = getattr(node, "schema", None)
        if schema is not None:
            return schema
    from repro.reputation.features import DEFAULT_SCHEMA

    return DEFAULT_SCHEMA


def _innermost_batch_scorer(model):
    """Unwrap score-transparent wrappers down to a ``score_batch`` model.

    A :class:`~repro.reputation.caching.CachedModel` returns the same
    values as its base (the cache changes cost, not scores), so the
    array path scores through the base directly.  Stateful wrappers
    (behavioural feedback) advertise ``scoring_is_stateful`` and are
    rejected by the engine before this is ever called.
    """
    for node in _walk_model_chain(model):
        if hasattr(node, "score_batch"):
            return node
    raise TypeError(
        f"model {type(model).__name__} exposes no score_batch anywhere "
        "in its wrapper chain; use framework admission"
    )
