"""Discrete-event simulation of the framework's network environment."""

from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import (
    Channel,
    FixedDelayChannel,
    LognormalChannel,
    UniformJitterChannel,
)
from repro.net.sim.closedloop import ClosedLoopReport, SessionSpec
from repro.net.sim.fastsim import FastFeedback, FastSimulation
from repro.net.sim.simulation import ServerModel, SimulationReport
from repro.net.sim.solvetime import SolveSample, SolveTimeModel

__all__ = [
    "CalendarQueue",
    "Channel",
    "FixedDelayChannel",
    "UniformJitterChannel",
    "LognormalChannel",
    "SolveTimeModel",
    "SolveSample",
    "AgentPopulation",
    "FastFeedback",
    "FastSimulation",
    "SimulationReport",
    "ServerModel",
    "ClosedLoopReport",
    "SessionSpec",
]
