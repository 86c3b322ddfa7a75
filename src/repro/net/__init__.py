"""Network substrates: the simulator, the live server, and the gateway.

``repro.net.sim`` provides the deterministic environment used for every
paper experiment; ``repro.net.live`` provides a real TCP server/client
pair exercising the same framework code path with real hashing;
``repro.net.gateway`` provides the asyncio micro-batching front-end
that serves the same protocol through ``challenge_batch``.
"""

from repro.net.gateway import GatewayServer, LoadGenerator
from repro.net.live import LiveClient, LiveServer
from repro.net.sim import (
    FastSimulation,
    FixedDelayChannel,
    ServerModel,
    SimulationReport,
    SolveTimeModel,
)

__all__ = [
    "FastSimulation",
    "SimulationReport",
    "ServerModel",
    "SolveTimeModel",
    "FixedDelayChannel",
    "LiveServer",
    "LiveClient",
    "GatewayServer",
    "LoadGenerator",
]
