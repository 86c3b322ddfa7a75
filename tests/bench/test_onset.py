"""Tests for the attack-onset dynamics experiment."""

from __future__ import annotations

import math

import pytest

from repro.bench.onset import OnsetConfig, _run_one, run_onset


@pytest.fixture(scope="module")
def result():
    return run_onset(
        OnsetConfig(
            duration=20.0,
            attack_start=8.0,
            benign_clients=10,
            attacker_bots=8,
            window=4.0,
            corpus_size=1500,
        )
    )


def test_windows_cover_the_run(result):
    windows = [row[0] for row in result.rows]
    assert windows == sorted(windows)
    assert windows[0] == 0.0


def test_phases_labelled(result):
    phases = {row[1] for row in result.rows}
    assert phases == {"calm", "attack"}


def test_attack_brings_malicious_traffic(result):
    calm_rates = [
        row[4] for row in result.rows
        if row[1] == "calm" and not math.isnan(row[4])
    ]
    attack_rates = [
        row[4] for row in result.rows
        if row[1] == "attack" and not math.isnan(row[4])
    ]
    assert attack_rates, "attack windows must show malicious traffic"
    peak_attack = max(attack_rates)
    peak_calm = max(calm_rates) if calm_rates else 0.0
    assert peak_attack > peak_calm


def test_adaptive_suppresses_attacker_served_rate(result):
    """Summed over attack windows, the surcharge serves fewer attack
    requests than the static policy."""
    static_total = sum(
        row[4] for row in result.rows
        if row[1] == "attack" and not math.isnan(row[4])
    )
    adaptive_total = sum(
        row[5] for row in result.rows
        if row[1] == "attack" and not math.isnan(row[5])
    )
    assert adaptive_total < static_total


def test_config_validation():
    with pytest.raises(ValueError):
        OnsetConfig(attack_start=50.0, duration=20.0)
    with pytest.raises(ValueError):
        OnsetConfig(window=0.0)


def test_timeline_totals_match_report():
    """The bus-fed timeline sees every outcome the report counts."""
    config = OnsetConfig(
        duration=12.0,
        attack_start=4.0,
        benign_clients=4,
        attacker_bots=4,
        window=3.0,
        corpus_size=600,
    )
    timeline, report = _run_one(config, adaptive=True)
    assert set(timeline.classes()) == set(report.metrics.class_names())
    for cls in timeline.classes():
        metrics = report.metrics.for_class(cls)
        requests = sum(rate for _, rate in timeline.request_rate(cls))
        served = sum(rate for _, rate in timeline.served_rate(cls))
        assert round(requests * config.window) == metrics.total
        assert round(served * config.window) == metrics.served
