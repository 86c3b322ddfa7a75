"""Campaign runner: named adversarial workloads and their golden traces."""

from __future__ import annotations

import pytest

from repro.core.errors import ComponentNotFoundError
from repro.core.spec import FrameworkSpec
from repro.replay import (
    CAMPAIGNS,
    CampaignSpec,
    ScaleSpec,
    run_campaign,
    spec_hash,
)
from repro.traffic.trace import Trace


class TestRegistry:
    def test_catalogue_covers_the_attack_surface(self):
        assert len(CAMPAIGNS) >= 5
        kinds = set()
        for campaign in CAMPAIGNS.values():
            for attacker in campaign.attackers.values():
                kinds.add(attacker["kind"])
        assert {"flood", "botnet", "adaptive"} <= kinds
        probes = {c.protocol_probe for c in CAMPAIGNS.values()}
        assert {"replay", "precompute"} <= probes

    def test_specs_are_replay_safe(self):
        """Campaign recipes must keep decisions a pure function of
        requests: no behavioural feedback, no randomized policies."""
        for campaign in CAMPAIGNS.values():
            assert campaign.spec.feedback is False, campaign.name
            assert campaign.spec.policy != "policy-3", campaign.name

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ComponentNotFoundError):
            run_campaign("no-such-campaign")


class TestSpecValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                name="x", description="d", populations=(("alien", 3),)
            )

    def test_empty_populations_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", description="d", populations=())

    def test_typoed_attacker_profile_rejected(self):
        """Regression: a typoed attacker key used to be ignored,
        silently recording an attack-free 'attack' trace."""
        with pytest.raises(ValueError, match="matches no population"):
            CampaignSpec(
                name="x",
                description="d",
                populations=(("malicious", 3),),
                attackers={"malicous": {"kind": "flood"}},
            )

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", description="d", protocol_probe="ddos")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", description="d", duration=0.0)


class TestRuns:
    def test_run_is_deterministic(self):
        """Two runs agree on every deterministic decision field (puzzle
        seeds are CSPRNG-fresh each run, by design)."""
        first = run_campaign("flood-burst")
        second = run_campaign("flood-burst")
        assert [d.canonical() for d in first.trace.decisions()] == [
            d.canonical() for d in second.trace.decisions()
        ]

    def test_every_request_decided(self):
        run = run_campaign("flood-burst")
        assert len(run.trace) == run.result.extra["requests"]
        assert all(
            e.decision is not None and e.decision.verdict == "admit"
            for e in run.trace
        )

    def test_trace_header_names_campaign_and_recipe(self):
        run = run_campaign("flood-burst")
        header = run.trace.header
        assert header.meta["campaign"] == "flood-burst"
        assert header.config_hash == spec_hash(
            CAMPAIGNS["flood-burst"].spec
        )
        assert FrameworkSpec(**header.meta["spec"]) == (
            CAMPAIGNS["flood-burst"].spec
        )

    def test_record_path_writes_loadable_trace(self, tmp_path):
        path = tmp_path / "golden.jsonl"
        run = run_campaign("benign-baseline", record_path=path)
        loaded = Trace.load_jsonl(path)
        assert len(loaded) == len(run.trace)
        assert loaded.decisions() == run.trace.decisions()

    def test_attack_classes_appear_in_result(self):
        run = run_campaign("flood-burst")
        classes = {row[0] for row in run.result.rows}
        assert {"benign", "malicious"} <= classes

    def test_replay_probe_defense_holds(self):
        run = run_campaign("replay-probe")
        assert run.probe_outcome is not None
        assert run.probe_outcome.attack == "replay"
        assert run.probe_outcome.succeeded is False
        # The probe's own admissions were recorded too.
        assert any(e.profile == "probe" for e in run.trace)

    def test_precompute_probe_defense_holds(self):
        run = run_campaign("precompute-probe")
        assert run.probe_outcome is not None
        assert run.probe_outcome.attack == "precomputation"
        assert run.probe_outcome.succeeded is False
        assert sum(1 for e in run.trace if e.profile == "probe") == 4


    def test_tracer_spans_reach_respond(self):
        """Every sampled span closes on its terminal response."""
        from repro.obs.tracing import RequestTracer

        tracer = RequestTracer(sample_every=1)
        run = run_campaign("flood-burst", tracer=tracer)
        spans = tracer.drain()
        assert len(spans) == run.result.extra["requests"]
        assert {span["outcome"] for span in spans} == {"served", "denied"}
        assert all(span["stages"][-1]["stage"] == "respond" for span in spans)


class TestScaleSpecs:
    """Large-scale campaigns: validation and the vectorized run path."""

    def test_scenario_suite_ships_large_scale_entries(self):
        scaled = {
            name
            for name, campaign in CAMPAIGNS.items()
            if campaign.scale is not None
        }
        assert {
            "flash-crowd-1m",
            "flash-crowd-100k",
            "pulse-botnet-100k",
            "diurnal-stealth-mix",
            "poison-ramp-250k",
        } <= scaled
        assert CAMPAIGNS["flash-crowd-1m"].agents == 1_000_000
        assert CAMPAIGNS["flash-crowd-100k"].agents == 100_000

    def test_unknown_pattern_kind_rejected(self):
        with pytest.raises(ValueError, match="pattern kind"):
            ScaleSpec(patterns={"benign": {"kind": "tsunami"}})

    def test_misspelled_pattern_parameter_rejected(self):
        """A typo'd key must fail loudly, not silently run on defaults."""
        with pytest.raises(ValueError, match="wavegap"):
            ScaleSpec(
                patterns={"benign": {"kind": "flash", "wavegap": 2.0}}
            )

    def test_inapplicable_pattern_parameter_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ScaleSpec(patterns={"benign": {"kind": "flash", "rate": 5.0}})

    def test_flash_waves_must_fit_campaign_duration(self):
        with pytest.raises(ValueError, match="past the"):
            CampaignSpec(
                name="x",
                description="x",
                duration=2.0,
                populations=(("benign", 10),),
                scale=ScaleSpec(
                    patterns={
                        "benign": {
                            "kind": "flash",
                            "waves": 3,
                            "wave_gap": 5.0,
                        }
                    }
                ),
            )

    def test_scale_feedback_conflicts_with_framework_feedback(self):
        with pytest.raises(ValueError, match="feedback=False"):
            CampaignSpec(
                name="x",
                description="x",
                spec=FrameworkSpec(feedback=True),
                populations=(("benign", 10),),
                scale=ScaleSpec(feedback=True),
            )

    def test_pattern_profile_must_match_population(self):
        with pytest.raises(ValueError, match="matches no"):
            CampaignSpec(
                name="x",
                description="x",
                populations=(("benign", 10),),
                scale=ScaleSpec(patterns={"stealth": {"kind": "flash"}}),
            )

    def test_protocol_probe_incompatible_with_scale(self):
        with pytest.raises(ValueError, match="probe"):
            CampaignSpec(
                name="x",
                description="x",
                populations=(("benign", 10),),
                protocol_probe="replay",
                scale=ScaleSpec(),
            )

    def test_scale_campaign_refuses_record_path(self, tmp_path):
        with pytest.raises(ValueError, match="large-scale"):
            run_campaign(
                "flash-crowd-100k", record_path=tmp_path / "t.jsonl"
            )

    def test_small_scale_campaign_runs_vectorized(self):
        """A down-scaled flash crowd exercises the whole mega path."""
        campaign = CampaignSpec(
            name="mini-flash",
            description="tiny vectorized smoke",
            duration=2.0,
            seed=99,
            populations=(("benign", 400), ("malicious", 100)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 16}},
            scale=ScaleSpec(
                tick=0.01,
                patterns={
                    "benign": {"kind": "flash", "waves": 2, "jitter": 0.05},
                    "malicious": {"kind": "ramp", "rate": 4.0},
                },
                server=(1e-5, 5e-6, 5e-5),
            ),
        )
        run = run_campaign(campaign)
        assert run.trace is None
        assert run.result.extra["agents"] == 500
        assert run.result.extra["requests"] > 800
        assert run.result.extra["served"] > 0
        classes = {row[0] for row in run.result.rows}
        assert {"benign", "malicious"} <= classes
        assert any("vectorized engine" in note for note in run.result.notes)

    def test_scale_campaign_resolves_to_array_admission(self, monkeypatch):
        """Nothing attached: the scale path builds no request objects."""
        from repro.net.sim.fastsim import FastSimulation

        modes = []
        resolve = FastSimulation._admission_mode

        def spy(simulation):
            modes.append(resolve(simulation))
            return modes[-1]

        monkeypatch.setattr(FastSimulation, "_admission_mode", spy)
        run_campaign(
            CampaignSpec(
                name="mini-array",
                description="admission-mode probe",
                duration=1.0,
                seed=97,
                populations=(("benign", 100), ("malicious", 50)),
                attackers={"malicious": {"kind": "flood"}},
                scale=ScaleSpec(server=(1e-5, 5e-6, 5e-5)),
            )
        )
        assert modes == ["array"]

    def test_feedback_scale_campaign_farms_offsets(self):
        campaign = CampaignSpec(
            name="mini-poison",
            description="tiny feedback-farming smoke",
            duration=2.0,
            seed=98,
            populations=(("benign", 100), ("malicious", 200)),
            attackers={"malicious": {"kind": "botnet", "max_difficulty": 20}},
            scale=ScaleSpec(
                tick=0.01,
                patterns={"malicious": {"kind": "poisson", "rate": 5.0}},
                server=(1e-5, 5e-6, 5e-5),
                feedback=True,
            ),
        )
        run = run_campaign(campaign)
        note = next(
            n for n in run.result.notes if "feedback offsets" in n
        )
        # Farming is reported for the attacking population only (200
        # bots), not the benign clients who also earn offsets by
        # being served.
        assert "of 200 attacking clients" in note
