"""Fastsim-vs-callback decision parity on every golden-trace scenario.

The vectorized engine's acceptance gate: for each of the shipped
golden-trace campaign scenarios, running the identical workload
through the callback reference engine and through the fast engine must
produce bit-identical admission decision streams — same request order,
same float scores, same difficulties, same policy/model names.  The
fast stream is additionally diffed against the *shipped* golden trace
(minus protocol-probe decisions, which run outside the simulator), so
the vectorized engine is pinned to the exact recordings PR 4's replay
harness gates.
"""

from __future__ import annotations

import pathlib

import pytest

from reference_sim import Simulation
from repro.attacks import make_attacker
from repro.net.sim.fastsim import FastSimulation
from repro.replay import TraceRecorder, diff_decisions
from repro.replay.campaign import CAMPAIGNS, _PROFILES
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.trace import Trace

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
GOLDEN_SCENARIOS = sorted(
    path.name.removesuffix(".trace.jsonl")
    for path in GOLDEN_DIR.glob("*.trace.jsonl")
)
#: Open-loop simulator per engine name.
ENGINES = {"callback": Simulation, "fast": FastSimulation}


def _campaign_decisions(name: str, engine: str):
    """The campaign's simulator decision stream under ``engine``."""
    campaign = CAMPAIGNS[name]
    generator = WorkloadGenerator(seed=campaign.seed)
    populations = [
        (_PROFILES[profile], count)
        for profile, count in campaign.populations
    ]
    workload, clients = generator.mixed_trace(
        populations, duration=campaign.duration
    )
    framework = campaign.spec.build()
    recorder = TraceRecorder(
        sources={
            client.ip: (client.profile.name, client.true_score)
            for client in clients
        }
    )
    deciders = {
        profile: make_attacker(spec).should_solve
        for profile, spec in campaign.attackers.items()
    }
    simulation = ENGINES[engine](
        framework,
        seed=campaign.seed ^ 0x5CE4,
        solve_deciders=deciders,
        patiences={
            profile.name: profile.patience for profile, _ in populations
        },
        recorder=recorder,
    )
    simulation.run(workload)
    return recorder.trace(seed=campaign.seed).decisions()


def test_golden_scenarios_present():
    assert len(GOLDEN_SCENARIOS) >= 6, GOLDEN_SCENARIOS
    assert set(GOLDEN_SCENARIOS) <= set(CAMPAIGNS)


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_fastsim_matches_callback_decisions(name):
    """The matrix cell: scenario x engine -> one decision stream."""
    callback = _campaign_decisions(name, "callback")
    fast = _campaign_decisions(name, "fast")
    assert callback, f"{name} produced no decisions"
    report = diff_decisions(callback, fast)
    assert report.identical, (
        f"{name}: fastsim diverged from the callback engine:\n"
        f"{report.render()}"
    )


def _array_kernel_stream(framework, trace, seed, **sim_kwargs):
    """Per-request (score, difficulty) stream of the array admission path.

    Array-mode admission emits no events (that is the point), so the
    kernel's decisions are captured by spying on
    ``difficulties_for_scores`` — cohorts arrive in request order, so
    the concatenated capture is the decision stream.
    """
    import numpy as np

    captured: list[tuple] = []
    original = framework.difficulties_for_scores

    def spy(scores):
        difficulties = original(scores)
        captured.append(
            (np.array(scores, dtype=np.float64), difficulties.copy())
        )
        return difficulties

    framework.difficulties_for_scores = spy
    FastSimulation(
        framework, seed=seed, admission="array", **sim_kwargs
    ).run(trace)
    scores = np.concatenate([s for s, _ in captured])
    difficulties = np.concatenate([d for _, d in captured])
    return scores, difficulties


def test_array_admission_kernel_matches_callback_decisions():
    """The object-free array path is bit-identical too.

    The recorder-based matrix above always routes fastsim through
    framework admission (the recorder subscribes to admission events);
    this covers the array kernel — the hot path of every scale
    campaign.
    """
    from repro.core.framework import AIPoWFramework
    from repro.policies.linear import policy_2
    from repro.reputation.dabr import DAbRModel
    from repro.reputation.dataset import generate_corpus

    def build():
        train, _ = generate_corpus(size=1500, seed=7).split()
        return AIPoWFramework(DAbRModel().fit(train), policy_2())

    generator = WorkloadGenerator(seed=21)
    workload, clients = generator.mixed_trace(
        [(_PROFILES["benign"], 6), (_PROFILES["malicious"], 6)],
        duration=3.0,
    )

    recorder = TraceRecorder(
        sources={c.ip: (c.profile.name, c.true_score) for c in clients}
    )
    Simulation(build(), seed=3, recorder=recorder).run(workload)
    reference = recorder.trace().decisions()

    scores, difficulties = _array_kernel_stream(build(), workload, seed=3)
    assert len(reference) == len(scores)
    assert [d.score for d in reference] == scores.tolist()
    assert [d.difficulty for d in reference] == difficulties.tolist()


def test_array_kernel_load_adaptive_observation_order():
    """Load observations interleave with decisions like the callback.

    A load-adaptive policy couples decisions to *queue timing*; with
    solving traffic that timing depends on the engines' (different)
    RNG streams, so bit parity is only defined when timing is
    deterministic.  Refusing deciders give exactly that: no solutions,
    so the backlog is a pure function of the challenge costs — and the
    surcharge each cohort sees pins down whether the engine observes
    the cohort's own load *before* deciding, as the callback does.
    """
    from repro.core.framework import AIPoWFramework
    from repro.net.sim.simulation import ServerModel
    from repro.policies.adaptive import LoadAdaptivePolicy
    from repro.policies.table import FixedPolicy
    from repro.reputation.ensemble import ConstantModel

    def build():
        return AIPoWFramework(
            ConstantModel(2.0),
            LoadAdaptivePolicy(FixedPolicy(4), max_surcharge=8),
        )

    generator = WorkloadGenerator(seed=31)
    workload, clients = generator.mixed_trace(
        [(_PROFILES["malicious"], 8)], duration=2.0
    )
    refuse = {"malicious": lambda d: False}
    # A heavy challenge cost makes the backlog (and therefore the
    # surcharge) climb across the run.
    server = ServerModel(challenge_cost=0.02)

    recorder = TraceRecorder(
        sources={c.ip: (c.profile.name, c.true_score) for c in clients}
    )
    Simulation(
        build(),
        server_model=server,
        seed=5,
        solve_deciders=refuse,
        recorder=recorder,
    ).run(workload)
    reference = recorder.trace().decisions()
    assert reference
    # The scenario must actually exercise the surcharge.
    assert max(d.difficulty for d in reference) > 4

    scores, difficulties = _array_kernel_stream(
        build(), workload, seed=5, server_model=server, solve_deciders=refuse
    )
    assert [d.score for d in reference] == scores.tolist()
    assert [d.difficulty for d in reference] == difficulties.tolist()


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_fastsim_matches_shipped_golden_trace(name):
    """The fast engine reproduces the recorded golden decisions.

    Golden traces also carry protocol-probe decisions (driven through
    the framework *after* the simulation); those are excluded — the
    engines only own the simulator's share of the stream.
    """
    golden = Trace.load_jsonl(GOLDEN_DIR / f"{name}.trace.jsonl")
    recorded = [
        entry.decision
        for entry in golden
        if entry.decision is not None and entry.profile != "probe"
    ]
    assert recorded, f"{name} carries no simulator decisions"
    fast = _campaign_decisions(name, "fast")
    report = diff_decisions(recorded, fast)
    assert report.identical, (
        f"{name}: fastsim diverged from the shipped golden trace:\n"
        f"{report.render()}"
    )
