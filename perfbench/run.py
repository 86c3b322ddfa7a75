#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload inproc-attack --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with per-layer spans and reports
the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; diagnostics go to
standard error.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.procs import ServerProcess, pin_load  # noqa: E402


class Context:
    """What a workload needs from the runner."""

    def __init__(self, args, stack: contextlib.ExitStack) -> None:
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workload = args.workload
        #: CPUs of the load and of a spare core, for servers to run on
        #: (see :func:`perfbench.procs.pin_load`).
        self.load_cpu, self.spare_cpu = pin_load()
        self._stack = stack

    def enter(self, resource):
        """Enter ``resource``'s context until the run ends."""
        return self._stack.enter_context(resource)

    def server(self, args: list[str], banner: str, cpu: int | None):
        """Start ``python -m repro <args>`` on ``cpu`` until the run ends."""
        return self.enter(ServerProcess(self.root, args, banner, cpu=cpu))

    def note(self, message: str) -> None:
        print(f"perfbench {self.workload}: {message}", file=sys.stderr,
              flush=True)

    def keep_spans(self, tracer) -> None:
        """Write the traced run's spans out, one file per workload."""
        path = STATE_DIR / f"spans-{self.workload}.jsonl"
        tracer.dump(path)
        self.note(f"{len(tracer.spans)} spans -> {path.relative_to(ROOT)}")


def _run_index(workload: str, seed: int) -> int:
    """Count this run in the checkout's run log; returns its index."""
    log = STATE_DIR / "runs.jsonl"
    index = 0
    if log.exists():
        with open(log, encoding="utf-8") as lines:
            index = sum(json.loads(line)["workload"] == workload
                        for line in lines)
    with open(log, "a", encoding="utf-8") as out:
        out.write(json.dumps({"workload": workload, "seed": seed,
                              "run_index": index}) + "\n")
    return index


def _stop(_signum, _frame):
    raise SystemExit(143)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(names)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _stop)
    STATE_DIR.mkdir(exist_ok=True)

    from perfbench.gateway import gateway_attack
    from perfbench.pipeline import inproc_attack, remote_returning
    from perfbench.sim import sim_flood

    workloads = {
        "inproc-attack": inproc_attack,
        "remote-returning": remote_returning,
        "gateway-attack": gateway_attack,
        "sim-flood": sim_flood,
    }
    with contextlib.ExitStack() as stack:
        ctx = Context(args, stack)
        index = _run_index(args.workload, args.seed)
        ctx.note(f"run index {index}, seed {args.seed}")
        outcome = workloads[args.workload](ctx)
    ctx.note(f"host slowdown {outcome.slowdown:.4f}")
    if args.trace:
        outcome.layers["bench.run_index"] = index
        outcome.layers["bench.slowdown"] = outcome.slowdown

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome.layers if args.trace else outcome.e2e
    metrics = {}
    unmeasured = []
    for metric in declared:
        name = metric["name"]
        if name not in measured:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {name}")
            # A layer this workload does not exercise did no work.
            unmeasured.append(name)
        metrics[name] = {"value": measured.get(name, 0),
                         "unit": metric["unit"]}
    undeclared = set(measured) - set(metrics)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(undeclared)}")
    if unmeasured:
        ctx.note(f"layers not exercised, reported as 0: "
                 f"{', '.join(unmeasured)}")
    for check, passed in outcome.checks.items():
        ctx.note(f"check {'ok  ' if passed else 'FAIL'} {check}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
