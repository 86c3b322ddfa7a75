#!/usr/bin/env python3
"""Steadiness check: repeated runs of one workload, spread and trend.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload gateway-attack --runs 10

Runs the benchmark ``--runs`` times back to back, each with another
seed, and reports for every end-to-end metric its median, the distance
between the first and third quartile as a share of the median (the
spread), and Kendall's tau between run order and value.  A metric is
flagged when its spread exceeds a third of its bound (``SPREAD``), when
it exceeds the bound itself (``OVER``), or when it moves monotonically
across consecutive runs (``TREND``, ``|tau| >= 0.6``), which spread
alone does not show: a slow drift, such as sockets piling up between
runs, keeps each run close to its neighbour.  Setup time is checked for
trend only; its spread is not gated.  The run index and the TIME_WAIT
count each run logged at its start are listed too.  Exits 1 when any
metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREND_TAU = 0.6


def kendall_tau(values: list[float]) -> float:
    """Kendall's tau between run order and ``values`` (ties count 0)."""
    n = len(values)
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            score += (values[j] > values[i]) - (values[j] < values[i])
    pairs = n * (n - 1) / 2
    return score / pairs if pairs else 0.0


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"seed {seed} failed its checks:\n{done.stderr}")
    return result, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        result, stderr = run_once(args.workload, seed, spec["run_seconds"])
        diag = " ".join(
            f"{m.group(1)}={m.group(2)}"
            for m in re.finditer(r"(run index|TIME_WAIT sockets at start)"
                                 r":? (\d+)", stderr)
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        figures = " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: {diag} {figures}", flush=True)

    flagged = False
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'tau':>6}  flags")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        share = spread(series)
        tau = kendall_tau(series)
        flags = []
        if name != "setup_s":
            if share > bound:
                flags.append("OVER")
            elif share > bound / 3:
                flags.append("SPREAD")
        if abs(tau) >= TREND_TAU:
            flags.append("TREND")
        flagged |= bool(flags)
        print(f"{name:<20} {statistics.median(series):>12.5g} "
              f"{share:>8.3f} {bound:>6.2f} {tau:>6.2f}  {' '.join(flags)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
