"""Open-loop simulation value types: the server cost model and the report.

The simulator itself is :class:`~repro.net.sim.fastsim.FastSimulation`;
these two records are shared by it and the parallel driver
(:mod:`repro.net.sim.parsim`).
"""

from __future__ import annotations

import dataclasses

from repro.metrics.collector import MetricsCollector
from repro.net.sim.links import LinkStats

__all__ = ["ServerModel", "SimulationReport"]


@dataclasses.dataclass(frozen=True, slots=True)
class ServerModel:
    """Server-side work costs, in seconds of FIFO service time.

    ``challenge_cost`` covers scoring, policy lookup and puzzle
    generation; ``verify_cost`` the lightweight solution check;
    ``resource_cost`` the actual work of serving the requested resource
    — the expensive step a DDoS tries to trigger en masse.
    """

    challenge_cost: float = 0.0002
    verify_cost: float = 0.0001
    resource_cost: float = 0.002

    def __post_init__(self) -> None:
        for field in ("challenge_cost", "verify_cost", "resource_cost"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")


@dataclasses.dataclass
class SimulationReport:
    """Outcome of one simulation run.

    ``link_stats`` carries the network-layer outcome counters of a
    link-enabled run (:class:`~repro.net.sim.links.LinkStats`) and is
    ``None`` on ideal-network runs.  Requests the network swallowed
    before admission appear only there — they never reach the metrics.
    """

    metrics: MetricsCollector
    duration: float
    requests: int
    events_processed: int
    link_stats: LinkStats | None = None

    @property
    def served(self) -> int:
        return self.metrics.overall.served

    @property
    def goodput(self) -> float:
        """Served responses per second of simulated time."""
        return self.served / self.duration if self.duration > 0 else 0.0
