"""Result assembly shared by the workloads."""

from __future__ import annotations

import dataclasses

import numpy as np

#: Top-level layers whose self times, with ``bench.unattributed_s``,
#: add up to ``bench.wall_s``.
LAYERS = ("core", "reputation", "policies", "pow", "state", "gateway", "sim")

#: Per-admission self time, in microseconds, of one span layer.
_PER_ADMISSION_US = {
    "reputation.score_us": "reputation",
    "reputation.feedback_us": "reputation.feedback",
    "policies.difficulty_us": "policies",
    "pow.generate_us": "pow.generate",
    "pow.verify_us": "pow.verify",
    "pow.replay_us": "pow.replay",
    "core.challenge_self_us": "core.challenge",
    "core.redeem_self_us": "core.redeem",
    "core.events_us": "core.events",
}


@dataclasses.dataclass
class Outcome:
    """One workload run: its checks, counts and metrics."""

    checks: dict[str, bool]
    attempted: int
    failed: int
    e2e: dict[str, float] = dataclasses.field(default_factory=dict)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Mean host slowdown over the run (:mod:`perfbench.speed`).
    slowdown: float = 1.0

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def ms_percentiles(seconds: list[float], points) -> dict[int, float]:
    """Percentiles of durations given in seconds, in milliseconds."""
    values = np.percentile(np.asarray(seconds, dtype=np.float64), points)
    return {p: float(v) * 1e3 for p, v in zip(points, values)}


def layer_metrics(tracer, admissions: int) -> dict[str, float]:
    """Self time per layer from ``tracer``'s spans.

    Raises ``RuntimeError`` when the self times and the unattributed
    remainder do not add up to the wall time of the root spans.
    """
    self_s, _, wall = tracer.layer_totals()
    by_top: dict[str, float] = {}
    for layer, seconds in self_s.items():
        top = layer.split(".", 1)[0]
        by_top[top] = by_top.get(top, 0.0) + seconds
    unknown = set(by_top) - set(LAYERS) - {"bench"}
    if unknown:
        raise RuntimeError(f"spans of unknown layers {sorted(unknown)}")
    metrics = {f"{top}.self_s": by_top.get(top, 0.0) for top in LAYERS}
    metrics["bench.unattributed_s"] = by_top.get("bench", 0.0)
    metrics["bench.wall_s"] = wall
    total = sum(by_top.values())
    if abs(total - wall) > 1e-9 * max(1.0, wall):
        raise RuntimeError(
            f"layer self times sum to {total!r}s, wall is {wall!r}s"
        )
    per = 1e6 / max(1, admissions)
    for name, layer in _PER_ADMISSION_US.items():
        metrics[name] = self_s.get(layer, 0.0) * per
    metrics["pow.client_solve_s"] = self_s.get("pow.client_solve", 0.0)
    return metrics
