"""In-memory spans around calls into the system's layers.

The traced run installs class-level wrappers on public methods of each
layer (:data:`TARGETS`); every wrapped call records one span with its
layer, start, end and the span that was open when it began (its
parent, tracked per thread).  A layer's self time is the time its spans
cover minus the time their child spans cover, so the self times of all
layers plus the benchmark's own remainder (``bench.unattributed_s``)
add up exactly to the wall time of the root spans.

Nothing here touches the program's source: the wrappers are installed
on the imported classes and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

#: ``(module, class, method, layer)`` for every wrapped public method.
TARGETS = (
    ("repro.core.framework", "AIPoWFramework", "challenge_batch",
     "core.challenge"),
    ("repro.core.framework", "AIPoWFramework", "redeem", "core.redeem"),
    ("repro.core.events", "EventBus", "emit", "core.events"),
    ("repro.core.spec", "FrameworkSpec", "build", "core.setup"),
    ("repro.reputation.caching", "CachedModel", "score_requests",
     "reputation"),
    ("repro.reputation.feedback", "FeedbackReputationModel",
     "score_requests", "reputation"),
    ("repro.reputation.base", "BaseReputationModel", "score_requests",
     "reputation"),
    ("repro.reputation.base", "BaseReputationModel", "score_batch",
     "reputation"),
    ("repro.reputation.feedback", "FeedbackReputationModel", "observe",
     "reputation.feedback"),
    ("repro.reputation.caching", "CachedModel", "invalidate",
     "reputation.feedback"),
    ("repro.policies.base", "BasePolicy", "difficulty_batch", "policies"),
    ("repro.pow.generator", "PuzzleGenerator", "generate_batch",
     "pow.generate"),
    ("repro.pow.verifier", "PuzzleVerifier", "verify", "pow.verify"),
    ("repro.pow.verifier", "ReplayCache", "check_and_add", "pow.replay"),
    ("repro.pow.solver", "HashSolver", "solve", "pow.client_solve"),
    # Every public RemoteNamespace op is one ``_request`` (one round
    # trip); wrapping the public ``items`` generator would time only
    # its creation, not the pages it fetches.
    ("repro.state.net", "RemoteNamespace", "_request", "state"),
    ("repro.net.sim.agents", "AgentPopulation", "make", "sim.setup"),
    ("repro.net.sim.fastsim", "FastSimulation", "run_fires", "sim"),
)


class Tracer:
    """Span recorder; spans are ``(id, parent, layer, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[type, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record the enclosed block as one span of ``layer``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, layer, start, end))

    def _wrap(self, method, layer: str):
        tracer = self

        @functools.wraps(method)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, layer, start, end))

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` method in place."""
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, cls_name, method, layer in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer))
            else:
                wrapped = self._wrap(original, layer)
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_totals(self) -> tuple[dict, dict, float]:
        """``(self_seconds, calls, wall)`` per layer; wall of root spans.

        Root spans (those without a parent) belong to the benchmark; the
        part of them no child covers is reported under ``bench``.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        wall = 0.0
        for span_id, parent, layer, start, end in self.spans:
            duration = end - start
            self_s[layer] += duration - covered[span_id]
            calls[layer] += 1
            if not parent:
                wall += duration
        return dict(self_s), dict(calls), wall

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "start": start, "end": end,
                }) + "\n")
