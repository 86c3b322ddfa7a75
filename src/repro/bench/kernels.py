"""Experiment `kernels`: per-cohort array-kernel microbenchmarks.

After vectorization the fastsim hot loop bottoms out in a handful of
small per-cohort numpy kernels (:mod:`repro.net.sim.kernels`): the FIFO
running sum, geometric solve sampling, and the patience/TTL comparison
masks.  This experiment times each one, so the per-cohort floor of the
simulator is a measured number.

Timings report the *minimum* over ``repeats`` invocations: the floor
is the cost of the work itself, everything above it is scheduler noise,
and a microbenchmark wants the former.

CLI: ``python -m repro kernels [--size N] [--repeats N]``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.bench.results import ExperimentResult
from repro.net.sim import kernels

__all__ = ["KernelBenchConfig", "run_kernel_microbench"]


@dataclasses.dataclass(frozen=True, slots=True)
class KernelBenchConfig:
    """Microbench shape: elements per call, timed repeats, input seed."""

    size: int = 100_000
    repeats: int = 30
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def _kernel_inputs(config: KernelBenchConfig) -> dict[str, tuple]:
    """Deterministic, realistically-shaped arguments per kernel."""
    rng = np.random.default_rng(config.seed)
    n = config.size
    costs = rng.uniform(1e-5, 1e-3, n)
    difficulties = rng.integers(1, 24, n).astype(np.float64)
    uniforms = rng.random(n)
    receipt = rng.uniform(0.0, 10.0, n)
    solve_end = receipt + rng.uniform(0.0, 5.0, n)
    patience = np.full(n, 2.5)
    issued_at = rng.uniform(0.0, 10.0, n)
    return {
        "fifo_running_sum": (3.7, costs, n),
        "geometric_attempts": (difficulties, uniforms),
        "patience_mask": (solve_end, receipt, patience),
        "ttl_mask": (7.0, issued_at, 5.0),
    }


def run_kernel_microbench(
    config: KernelBenchConfig | None = None,
) -> ExperimentResult:
    """Time every kernel; tabulate the best of ``repeats`` calls."""
    config = config or KernelBenchConfig()
    inputs = _kernel_inputs(config)
    rows = []
    timings: dict[str, float] = {}
    for kernel_name, fn in kernels.KERNELS.items():
        args = inputs[kernel_name]
        fn(*args)  # warm up
        best = min(_timed(fn, args) for _ in range(config.repeats))
        timings[kernel_name] = best
        rows.append(
            [
                kernel_name,
                config.size,
                best * 1e6,
                config.size / best if best > 0 else float("inf"),
            ]
        )
    return ExperimentResult(
        experiment_id="kernels",
        title="Per-cohort kernel microbench",
        headers=["kernel", "elements", "best_us", "elements_per_s"],
        rows=rows,
        notes=[
            f"{config.size:,} elements per call, min over "
            f"{config.repeats} repeats",
        ],
        extra={"best_seconds": timings},
    )


def _timed(fn, args: tuple) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started
