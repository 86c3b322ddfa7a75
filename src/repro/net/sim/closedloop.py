"""Closed-loop client sessions: the session spec and the run report.

Open-loop traces offer load on a fixed schedule regardless of how the
server responds.  Real users are closed-loop: they wait for a page,
think, then click again, so PoW-induced latency *reduces a closed-loop
client's own offered load*, an effect the open-loop model cannot show.
:meth:`~repro.net.sim.fastsim.FastSimulation.run_sessions` drives
:class:`SessionSpec` sessions, each repeating (request -> solve ->
response -> think) for a fixed number of exchanges, over the same
framework, channel, solve-time and server-queue models as the open-loop
runs, so results are directly comparable.
"""

from __future__ import annotations

import dataclasses

from repro.metrics.collector import MetricsCollector
from repro.traffic.generator import SimClientSpec

__all__ = ["SessionSpec", "ClosedLoopReport"]


@dataclasses.dataclass(frozen=True, slots=True)
class SessionSpec:
    """One closed-loop client session.

    Parameters
    ----------
    client:
        The concrete client (address, features, profile).
    exchanges:
        Number of request/response cycles the session attempts.
    think_time:
        Mean seconds between receiving a response and the next request
        (exponentially distributed).
    start:
        Session start time.
    """

    client: SimClientSpec
    exchanges: int = 10
    think_time: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.exchanges < 1:
            raise ValueError(f"exchanges must be >= 1, got {self.exchanges}")
        if self.think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {self.think_time}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")


@dataclasses.dataclass
class ClosedLoopReport:
    """Outcome of a closed-loop run."""

    metrics: MetricsCollector
    duration: float
    sessions: int
    completed_exchanges: int

    @property
    def throughput(self) -> float:
        """Served exchanges per second of simulated time."""
        served = self.metrics.overall.served
        return served / self.duration if self.duration > 0 else 0.0
