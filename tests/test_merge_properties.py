"""Property tests: confidence accumulators must merge like a monoid.

Table 3, the ablations and the seed-stability study sum per-benchmark
confidence matrices with :meth:`ConfidenceMatrix.merge`, so the summed
Spec/PVN must not depend on how the record stream was split or on the
order the benchmarks are folded in.  Checked here with hypothesis over
arbitrary record streams and cut points.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ConfidenceMatrix, MetricsCollector

_RECORDS = st.lists(
    st.tuples(
        st.sampled_from([0x10, 0x20, 0x30]),
        st.booleans(),
        st.booleans(),
    ),
    max_size=50,
)


def _matrix(records):
    matrix = ConfidenceMatrix()
    for _, low, mis in records:
        matrix.record(low, mis)
    return matrix


class TestMetricsCollectorMerge:
    @given(
        records=_RECORDS,
        data=st.data(),
        per_pc=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmented_recording_merges_exactly(self, records, data, per_pc):
        cut = data.draw(st.integers(min_value=0, max_value=len(records)))
        monolithic = MetricsCollector(track_per_pc=per_pc)
        for pc, low, mis in records:
            monolithic.record(pc, low, mis)

        first = MetricsCollector(track_per_pc=per_pc)
        second = MetricsCollector(track_per_pc=per_pc)
        for pc, low, mis in records[:cut]:
            first.record(pc, low, mis)
        for pc, low, mis in records[cut:]:
            second.record(pc, low, mis)
        merged = first.merge(second)

        assert merged.overall.as_dict() == monolithic.overall.as_dict()
        assert {
            pc: m.as_dict() for pc, m in merged.per_pc.items()
        } == {pc: m.as_dict() for pc, m in monolithic.per_pc.items()}


class TestConfidenceMatrixMerge:
    @given(streams=st.lists(_RECORDS, min_size=1, max_size=4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_order_does_not_change_the_sum(self, streams, data):
        monolithic = _matrix([r for stream in streams for r in stream])
        order = data.draw(st.permutations(range(len(streams))))
        total = ConfidenceMatrix()
        for i in order:
            total = total.merge(_matrix(streams[i]))
        assert total.as_dict() == monolithic.as_dict()
