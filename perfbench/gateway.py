"""``gateway-attack``: closed-loop clients against ``repro serve --gateway``.

Two clients each run one exchange at a time over loopback, in lockstep
from one thread: open a connection from the client's own
``127.0.0.0/8`` address, send the request, wait for the puzzle, solve
it, send the solution, wait for the verdict.  A caller cannot solve
before its puzzle arrives, so the loop is closed.  Connections end with
a reset (``SO_LINGER`` 0) once the verdict is in, so back-to-back runs
do not pile up TIME_WAIT sockets on the shared loopback; the count at
the start of each run is still recorded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import re
import socket
import statistics
import struct
import time
from collections import Counter

from repro.core.errors import ProtocolError
from repro.net.live import protocol
from repro.pow.puzzle import Puzzle

from perfbench import traffic
from perfbench.metrics import Outcome, layer_metrics, ms_percentiles
from perfbench.pipeline import BOT_SHARE, POOL, SETUPS, replay
from perfbench.procs import time_wait_sockets
from perfbench.speed import Speedometer
from perfbench.tracing import Tracer

CLIENTS = 2
#: Timed exchanges per round.
GATEWAY_ROUND = 1000
GATEWAY_ARGS = ["serve", "--gateway", "--host", "127.0.0.1", "--port", "0"]
IO_TIMEOUT = 10.0
#: Sequential exchanges before each round's timed load, not timed.
WARMUP = 20
#: Host-speed reference calls before the first round and after each
#: one, to scale the gateway start-up times.
ROUND_TICKS = 20
BANNER = r"serving AI-assisted PoW on ([\d.]+):(\d+) "
SHUTDOWN = re.compile(
    r"admitted (\d+) in (\d+) batches \(mean size ([\d.]+)\), shed (\d+)"
)
_LINGER_RESET = struct.pack("ii", 1, 0)
#: Status of an exchange that has not ended yet.
INCOMPLETE = "incomplete"


class Exchange:
    """Timings and verdict of one client exchange."""

    __slots__ = ("arrival", "status", "puzzled", "connect_s", "admit_s",
                 "redeem_s", "total_s", "traced")

    def __init__(self, arrival: traffic.Arrival, traced: bool) -> None:
        self.arrival = arrival
        self.status = INCOMPLETE
        #: Whether the gateway answered the request with a puzzle.
        self.puzzled = False
        self.connect_s = self.admit_s = self.redeem_s = None
        self.total_s = 0.0
        self.traced = traced


def _line(reader) -> str:
    raw = reader.readline(protocol.MAX_LINE_BYTES + 1)
    if not raw.endswith(b"\n"):
        raise ProtocolError("connection closed mid-frame")
    return raw[:-1].decode("ascii")


def _send(sock: socket.socket, line: str) -> float:
    """Send one frame; returns the moment it was sent."""
    sock.sendall((line + "\n").encode("ascii"))
    return time.perf_counter()


class _Client:
    """One client's connection through the steps of its exchange."""

    def __init__(self, arrival: traffic.Arrival, traced: bool) -> None:
        self.result = Exchange(arrival, traced)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.reader = None
        self.puzzle: Puzzle | None = None
        self.solution = None
        #: Moment the latest frame was sent.
        self.sent = 0.0

    @property
    def alive(self) -> bool:
        return self.result.status == INCOMPLETE

    def step(self, action) -> None:
        """Run ``action(self)`` unless an earlier step ended the exchange."""
        if not self.alive:
            return
        try:
            action(self)
        except (OSError, ProtocolError) as exc:
            self.result.status = f"error: {exc}"
            self.close()

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        self.sock.close()


def _connect(address):
    def action(client: _Client) -> None:
        request = client.result.arrival.request
        sock = client.sock
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RESET)
        sock.settimeout(IO_TIMEOUT)
        sock.bind((request.client_ip, 0))
        start = time.perf_counter()
        sock.connect(address)
        client.result.connect_s = time.perf_counter() - start
        client.reader = sock.makefile("rb")
    return action


def _request(client: _Client) -> None:
    request = client.result.arrival.request
    client.sent = _send(client.sock, protocol.encode_request(
        request.resource, request.features))


def _puzzle(client: _Client) -> None:
    reply = _line(client.reader)
    result = client.result
    result.admit_s = time.perf_counter() - client.sent
    if not reply.startswith("PUZZLE "):
        _, reason = protocol.parse_reply(reply)
        result.status = "shed" if reason.startswith("shed") else reason
        client.close()
        return
    client.puzzle = Puzzle.from_wire(reply)
    result.puzzled = True


def _solution(client: _Client) -> None:
    client.sent = _send(client.sock, client.solution.to_wire())


def _verdict(client: _Client) -> None:
    reply = _line(client.reader)
    result = client.result
    result.redeem_s = time.perf_counter() - client.sent
    ok, body = protocol.parse_reply(reply)
    result.status = "served" if ok else body


def run_lockstep(address, arrivals, tracer: Tracer | None):
    """Run one exchange per arrival, in lockstep; spans go to ``tracer``.

    Each arrival is its own client on its own connection: all connect,
    all send their request, all read their puzzle, all solve, all send
    their solution, all read their verdict.  Every client waits for its
    own reply before its next step, so the loop is closed, and lockstep
    lets the gateway batch the requests together.  Two client threads
    sharing the benchmark's CPU would instead wake each other up late by
    a varying part of a millisecond, which spread the gateway's redeem
    tail by more than its bound from run to run.
    """
    span = tracer.span if tracer is not None else (
        lambda _layer: contextlib.nullcontext()
    )
    started = time.perf_counter()
    clients = [_Client(arrival, tracer is not None) for arrival in arrivals]
    try:
        with span("gateway.connect"):
            for client in clients:
                client.step(_connect(address))
        with span("gateway.admit"):
            for client in clients:
                client.step(_request)
            for client in clients:
                client.step(_puzzle)
        for client in clients:
            if client.alive:
                ip = client.result.arrival.request.client_ip
                if client.result.arrival.malicious:
                    client.solution = traffic.bogus_solution(
                        client.puzzle, ip
                    )
                else:
                    with span("pow.client_solve"):
                        client.solution = traffic.honest_solution(
                            client.puzzle, ip
                        )
        with span("gateway.redeem"):
            for client in clients:
                client.step(_solution)
            for client in clients:
                client.step(_verdict)
    finally:
        for client in clients:
            client.close()
    total = time.perf_counter() - started
    for client in clients:
        client.result.total_s = total
    return [client.result for client in clients]


@dataclasses.dataclass
class Round:
    """One gateway process serving one pass over the round's stream."""

    #: ``(moment, seconds)`` from spawn to banner.
    setup: tuple[float, float]
    exchanges: list[Exchange]
    #: Exchanges of the timed part, after the warm-up.
    load: list[Exchange]
    #: ``time.perf_counter`` moments the timed part started and ended.
    started: float
    ended: float
    cpu_s: float
    rss_mb: float
    #: ``(admitted, batches, mean batch size, shed)`` from the shutdown line.
    shutdown: tuple[int, int, float, int]


def serve_round(ctx, warmup, stream, tracer: Tracer,
                speed: Speedometer) -> Round:
    """Start a gateway, run ``warmup`` then ``stream`` through it, stop it.

    The warm-up runs one exchange at a time, untimed.  The stream runs
    :data:`CLIENTS` exchanges at a time, in lockstep (see
    :func:`run_lockstep`).
    """
    start = time.perf_counter()
    # Its own core: the gateway works while the clients solve.
    server = ctx.server(GATEWAY_ARGS, BANNER, ctx.spare_cpu)
    end = time.perf_counter()
    address = (server.match.group(1), int(server.match.group(2)))
    warm = [ex for arrival in warmup
            for ex in run_lockstep(address, [arrival], None)]

    load: list[Exchange] = []
    cpu_before = server.cpu_seconds()
    started = time.perf_counter()
    for index in range(0, len(stream), CLIENTS):
        arrivals = stream[index:index + CLIENTS]
        if ctx.trace and index // CLIENTS % 2 == 1:
            with tracer.span("bench"):
                load += run_lockstep(address, arrivals, tracer)
        else:
            load += run_lockstep(address, arrivals, None)
    ended = time.perf_counter()
    cpu_s = server.cpu_seconds() - cpu_before
    rss_mb = server.peak_rss_mb()
    line = SHUTDOWN.search("\n".join(server.stop()))
    speed.tick(ROUND_TICKS)
    if line is None:
        raise RuntimeError("gateway printed no shutdown summary")
    return Round(
        setup=(end, end - start),
        exchanges=warm + load,
        load=load,
        started=started,
        ended=ended,
        cpu_s=cpu_s,
        rss_mb=rss_mb,
        shutdown=(int(line.group(1)), int(line.group(2)),
                  float(line.group(3)), int(line.group(4))),
    )


def gateway_attack(ctx) -> Outcome:
    """Returning benign pool plus fresh-IP bots through the gateway.

    Each round starts a fresh gateway (timed as set-up), so every round
    serves the same stream on empty admission state.
    """
    time_wait = time_wait_sockets()
    ctx.note(f"TIME_WAIT sockets at start: {time_wait}")
    mix = traffic.Mix(ctx.seed, BOT_SHARE, POOL)
    warmup = mix.take(WARMUP)
    stream = mix.take(GATEWAY_ROUND)
    tracer, speed = Tracer(), Speedometer()
    speed.tick(ROUND_TICKS)
    rounds: list[Round] = []
    deadline = time.perf_counter() + ctx.seconds
    while len(rounds) < SETUPS or time.perf_counter() < deadline:
        rounds.append(serve_round(ctx, warmup, stream, tracer, speed))

    _, reference = replay(warmup + stream)
    expected = dict(reference.statuses)
    exchanges = [ex for r in rounds for ex in r.exchanges]
    load = [ex for r in rounds for ex in r.load]
    failed = sum(
        ex.status != traffic.expected_status(ex.arrival) for ex in exchanges
    )
    pairs = sum(
        ex.status == traffic.expected_status(ex.arrival) for ex in load
    )
    verdicts = [dict(Counter(ex.status for ex in r.exchanges)) for r in rounds]
    ctx.note(f"{len(rounds)} rounds of {len(warmup)} warm-up and "
             f"{len(stream)} timed exchanges; gateway verdicts {verdicts}, "
             f"in-process reference {expected}")
    outcome = Outcome(
        checks={
            "every honest exchange served, every bot rejected": failed == 0,
            "verdict counts equal the in-process reference":
                all(v == expected for v in verdicts),
            "gateway admitted every puzzle the clients got": all(
                r.shutdown[0] == sum(ex.puzzled for ex in r.exchanges)
                for r in rounds
            ),
        },
        attempted=len(exchanges),
        failed=failed,
        slowdown=speed.slowdown,
    )
    connect = ms_percentiles([ex.connect_s for ex in load
                              if ex.connect_s is not None], (50,))
    admit = ms_percentiles([ex.admit_s for ex in load
                            if ex.admit_s is not None], (99,))
    redeem = ms_percentiles([ex.redeem_s for ex in load
                             if ex.redeem_s is not None], (99,))
    admitted = sum(r.shutdown[0] for r in rounds)
    batches = sum(r.shutdown[1] for r in rounds)
    if ctx.trace:
        metrics = layer_metrics(tracer, sum(ex.traced for ex in load))
        plain = [ex.total_s for ex in load if not ex.traced]
        traced = [ex.total_s for ex in load if ex.traced]
        metrics.update({
            "bench.trace_overhead":
                statistics.fmean(traced) / statistics.fmean(plain) - 1.0,
            "failed_ratio": failed / len(exchanges),
            "core.batch_size": admitted / batches,
            "gateway.connect_ms.p50": connect[50],
            "gateway.admit_ms.p99": admit[99],
            "gateway.redeem_ms.p99": redeem[99],
            "gateway.batch_size.mean": admitted / batches,
            "gateway.shed": sum(r.shutdown[3] for r in rounds),
            "gateway.server_cpu_us_per_admission":
                sum(r.cpu_s for r in rounds) / max(1, pairs) * 1e6,
            "gateway.time_wait_at_start": time_wait,
        })
        outcome.layers = metrics
        ctx.keep_spans(tracer)
    else:
        # Exchanges as measured, not scaled to nominal host speed: the
        # clients mostly wait on the batch window's timer and on the
        # other process, which the CPU reference in perfbench.speed does
        # not track.  Gateway start-up is CPU work and is scaled.
        admit = ms_percentiles(
            [ex.admit_s for ex in load if ex.puzzled], (50, 90)
        )
        redeem = ms_percentiles(
            [ex.redeem_s for ex in load if ex.redeem_s is not None], (50, 90)
        )
        rate = pairs / sum(r.ended - r.started for r in rounds)
        outcome.e2e = {
            "setup_s": statistics.median(
                speed.scale(r.setup for r in rounds)
            ),
            "admissions_per_s": rate,
            "admit_ms.p50": admit[50],
            "admit_ms.p90": admit[90],
            "redeem_ms.p50": redeem[50],
            "redeem_ms.p90": redeem[90],
            "peak_rss_mb": max(r.rss_mb for r in rounds),
            "sim_events_per_s": 4 * rate,
        }
    return outcome
