"""Tests for branch traces: records, stats, merging, serialisation."""

from hypothesis import given, strategies as st

from repro.vm.tracing import BranchClass, BranchRecord, BranchTrace, TraceStats


def _sample_trace():
    trace = BranchTrace()
    trace.append(10, BranchClass.CONDITIONAL, True, 20, 3)
    trace.append(10, BranchClass.CONDITIONAL, False, 20, 1)
    trace.append(30, BranchClass.UNCONDITIONAL_KNOWN, True, 5, 0)
    trace.append(40, BranchClass.UNCONDITIONAL_UNKNOWN, True, 77, 2)
    trace.append(50, BranchClass.RETURN, True, 31, 4)
    trace.total_instructions = 15
    return trace


def test_len_and_indexing():
    trace = _sample_trace()
    assert len(trace) == 5
    record = trace[0]
    assert record.site == 10
    assert record.taken is True
    assert record.gap == 3


def test_record_equality():
    a = BranchRecord(1, 0, True, 2, 3)
    b = BranchRecord(1, 0, True, 2, 3)
    c = BranchRecord(1, 0, False, 2, 3)
    assert a == b
    assert a != c


def test_record_classification():
    trace = _sample_trace()
    assert trace[0].is_conditional
    assert trace[2].target_known
    assert not trace[3].target_known
    assert trace[4].target_known  # returns are known-target (RAS)


def test_stats():
    stats = _sample_trace().stats()
    assert stats.conditional == 2
    assert stats.conditional_taken == 1
    assert stats.unconditional == 3
    assert stats.unconditional_known == 2  # jump + return
    assert stats.unconditional_unknown == 1
    assert stats.branches == 5
    assert stats.taken_fraction == 0.5
    assert abs(stats.known_fraction - 2 / 3) < 1e-12
    assert abs(stats.control_fraction - 5 / 15) < 1e-12


def test_stats_empty():
    stats = BranchTrace().stats()
    assert stats.taken_fraction == 0.0
    assert stats.known_fraction == 0.0
    assert stats.control_fraction == 0.0


def test_stats_merge():
    a = _sample_trace().stats()
    b = _sample_trace().stats()
    a.merge(b)
    assert a.branches == 10
    assert a.total_instructions == 30


def test_extend():
    a = _sample_trace()
    b = _sample_trace()
    a.extend(b)
    assert len(a) == 10
    assert a.total_instructions == 30
    assert a[5] == b[0]


def test_roundtrip_arrays():
    trace = _sample_trace()
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    assert len(rebuilt) == len(trace)
    assert rebuilt.total_instructions == trace.total_instructions
    for index in range(len(trace)):
        assert rebuilt[index] == trace[index]


def _columns(trace):
    return (trace.sites, trace.classes, trace.takens, trace.targets,
            trace.gaps, trace.total_instructions)


def test_loaded_trace_builds_lists_on_first_use():
    trace = _sample_trace()
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    assert "sites" not in vars(rebuilt)
    assert len(rebuilt) == len(trace)
    assert rebuilt.stats().conditional == 2
    assert "sites" not in vars(rebuilt)
    assert _columns(rebuilt) == _columns(trace)
    assert all(type(taken) is int for taken in rebuilt.takens)


def test_extend_merges_unbuilt_and_built_traces_alike():
    from repro.kernels.encode import EncodedTrace

    def loaded():
        return BranchTrace.from_arrays(_sample_trace().to_arrays())

    expected = _sample_trace()
    for _ in range(2):
        expected.extend(_sample_trace())
    unbuilt = loaded()
    unbuilt.extend(loaded())
    unbuilt.extend(loaded())
    assert "sites" not in vars(unbuilt)
    assert len(EncodedTrace.of(unbuilt)) == 15
    mixed = loaded()
    mixed.extend(_sample_trace())
    mixed.extend(loaded())
    for merged in (unbuilt, mixed):
        assert _columns(merged) == _columns(expected)
        assert EncodedTrace.of(merged).total_instructions == 45
    mixed.append(60, BranchClass.CONDITIONAL, False, 61, 0)
    assert len(mixed) == 16
    assert len(EncodedTrace.of(mixed)) == 16


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=100),
), max_size=50))
def test_roundtrip_property(records):
    trace = BranchTrace()
    for site, branch_class, taken, target, gap in records:
        trace.append(site, branch_class, taken, target, gap)
    trace.total_instructions = sum(gap for *_, gap in records) + len(records)
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    assert list(rebuilt.records()) == list(trace.records())
    assert rebuilt.total_instructions == trace.total_instructions


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=3),
    st.booleans(),
), max_size=200))
def test_stats_totals_property(events):
    """Class counts always partition the record count."""
    trace = BranchTrace()
    for branch_class, taken in events:
        trace.append(0, branch_class, taken, 0, 0)
    stats = trace.stats()
    assert stats.branches == len(events)
    assert (stats.conditional_taken + stats.conditional_not_taken
            + stats.unconditional_known + stats.unconditional_unknown
            == len(events))


def test_trace_stats_repr():
    assert "TraceStats" in repr(_sample_trace().stats())
