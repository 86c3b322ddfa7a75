"""GatewayMetrics must stay bit-identical to the pre-registry version.

The registry migration replaced the two private ``SampleSet`` fields
with histogram series, keeping ``summary()`` (and therefore the
cluster aggregation and every golden trace) unchanged.  This test
vendors the replaced implementation verbatim and drives both through
randomized flush/shed workloads, asserting equality — not approximate,
bit-identical: batch sizes are integers, so the series' running
``sum/count`` mean is exact and equals ``np.mean`` over the retained
samples.  The series themselves retain no samples; the bounded-memory
test pins that down.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import GatewayMetrics, aggregate_gateway_summaries
from repro.metrics.histogram import SampleSet
from repro.obs.registry import MetricsRegistry


class ReferenceGatewayMetrics:
    """The pre-migration GatewayMetrics, vendored as the oracle."""

    def __init__(self) -> None:
        self.batch_sizes = SampleSet()
        self.queue_depths = SampleSet()
        self.shed_reasons: dict[str, int] = {}
        self.admitted_count = 0
        self.shed_count = 0

    def observe_flush(self, batch_size, queue_depth, admitted=None):
        self.batch_sizes.add(batch_size)
        self.queue_depths.add(queue_depth)
        self.admitted_count += batch_size if admitted is None else admitted

    def observe_shed(self, reason, queue_depth=None):
        self.shed_count += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        if queue_depth is not None:
            self.queue_depths.add(float(queue_depth))

    def summary(self) -> dict:
        batches = len(self.batch_sizes)
        return {
            "admitted": self.admitted_count,
            "shed": self.shed_count,
            "shed_reasons": dict(self.shed_reasons),
            "flushes": batches,
            "mean_batch_size": (
                self.batch_sizes.mean() if batches else 0.0
            ),
            "max_queue_depth": (
                self.queue_depths.max() if len(self.queue_depths) else 0.0
            ),
        }


flush_op = st.tuples(
    st.just("flush"),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=0, max_value=2000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=600)),
)
shed_op = st.tuples(
    st.just("shed"),
    st.sampled_from(["queue full", "policy", "shutdown"]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2000)),
)


def apply(metrics, operations) -> None:
    for operation in operations:
        if operation[0] == "flush":
            _, batch, depth, admitted = operation
            metrics.observe_flush(batch, depth, admitted=admitted)
        else:
            _, reason, depth = operation
            metrics.observe_shed(reason, queue_depth=depth)


class TestSummaryRegression:
    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(flush_op, shed_op), min_size=0, max_size=40
        )
    )
    def test_summary_bit_identical_to_reference(self, operations):
        reference = ReferenceGatewayMetrics()
        migrated = GatewayMetrics()
        apply(reference, operations)
        apply(migrated, operations)
        assert migrated.summary() == reference.summary()
        assert migrated.admitted_count == reference.admitted_count
        assert migrated.shed_count == reference.shed_count
        assert migrated.shed_reasons == reference.shed_reasons
        assert migrated.mean_batch_size == (
            reference.batch_sizes.mean()
            if len(reference.batch_sizes)
            else 0.0
        )

    @settings(max_examples=20, deadline=None)
    @given(
        workloads=st.lists(
            st.lists(st.one_of(flush_op, shed_op), max_size=20),
            min_size=1,
            max_size=4,
        )
    )
    def test_aggregation_bit_identical_to_reference(self, workloads):
        reference_summaries = []
        migrated_summaries = []
        for operations in workloads:
            reference = ReferenceGatewayMetrics()
            migrated = GatewayMetrics()
            apply(reference, operations)
            apply(migrated, operations)
            reference_summaries.append(reference.summary())
            migrated_summaries.append(migrated.summary())
        assert aggregate_gateway_summaries(
            migrated_summaries
        ) == aggregate_gateway_summaries(reference_summaries)


class TestRegistryExposure:
    def test_shared_registry_sees_gateway_series(self):
        registry = MetricsRegistry()
        metrics = GatewayMetrics(registry=registry)
        metrics.observe_flush(4, 10)
        metrics.observe_shed("queue full", queue_depth=512)
        assert registry.get("gateway_admitted_total").value() == 4
        assert registry.get("gateway_flushes_total").value() == 1
        assert registry.get("gateway_shed_total").as_dict() == {
            "queue full": 1
        }
        depths = registry.get("gateway_queue_depth").labels()
        assert depths.max() == 512.0

    def test_private_registry_keeps_instances_isolated(self):
        first, second = GatewayMetrics(), GatewayMetrics()
        first.observe_flush(8, 8)
        assert second.admitted_count == 0
        assert second.summary()["flushes"] == 0


class TestBoundedMemory:
    def test_retained_memory_stays_o_buckets(self):
        """A flood of flushes and sheds must not grow the series.

        Each series keeps bucket counts plus sum/count/min/max; a
        retained-sample implementation keeps one Python float per
        observation (600k allocated blocks, about 19 MB, over this
        loop).  ``sys.getallocatedblocks`` counts live interpreter
        allocations without tracing every one.
        """
        import gc
        import sys

        metrics = GatewayMetrics()
        # Create every series (and the shed label) before measuring.
        metrics.observe_flush(1, 1)
        metrics.observe_shed("queue full", queue_depth=1)
        gc.collect()
        before = sys.getallocatedblocks()
        for i in range(200_000):
            metrics.observe_flush(1 + i % 512, i % 4096)
            metrics.observe_shed("queue full", queue_depth=i % 4096)
        gc.collect()
        retained = sys.getallocatedblocks() - before
        assert metrics.summary()["flushes"] == 200_001
        assert retained < 1_000, f"{retained:,} blocks retained"
