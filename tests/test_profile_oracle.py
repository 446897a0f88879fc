"""The trace-derived profile against an independent oracle.

:func:`~repro.profiling.profile_program` derives a whole
:class:`~repro.profiling.Profile` from the branch traces of its runs:
block counts from the fetch segments, branch statistics from the record
columns.  The oracle here measures the same things directly, the way
the paper's probes did:

* block counts by counting leaders in the address stream of
  ``Machine(address_trace=True)`` runs, which always take the reference
  interpreter;
* branch statistics with a plain Python loop over ``trace.records()``.

The oracle's dicts are filled in probe order (leaders in ``frozenset``
order, sites in first-appearance order), so the layout comparison also
shows that trace layout does not depend on the profile's dict order.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.benchmarksuite import BENCHMARK_NAMES, get_benchmark
from repro.cfg import ControlFlowGraph
from repro.kernels.encode import EncodedTrace
from repro.lang import compile_source
from repro.opt import optimize
from repro.profiling import Profile, profile_program, profile_trace
from repro.traceopt import build_fs_program
from repro.vm import BranchClass, BranchTrace, Machine

from tests.test_fuzz_fs_pipeline import programs


def _fold_records(profile, trace):
    """The branch-statistics fold as a per-record Python loop."""
    execs = profile.branch_execs
    taken_counts = profile.branch_taken
    edges = profile.edge_counts
    for site, branch_class, taken, target, _ in trace.records():
        if branch_class == BranchClass.CONDITIONAL:
            execs[site] = execs.get(site, 0) + 1
            if taken:
                taken_counts[site] = taken_counts.get(site, 0) + 1
                edges[(site, target)] = edges.get((site, target), 0) + 1
        elif branch_class != BranchClass.RETURN:
            edges[(site, target)] = edges.get((site, target), 0) + 1
    profile.total_instructions += trace.total_instructions


def _oracle(program, suite, max_instructions=200_000_000):
    leaders = ControlFlowGraph.from_program(program).leaders
    profile = Profile()
    profile.block_counts = dict.fromkeys(frozenset(leaders), 0)
    outputs = []
    for streams in suite:
        result = Machine(program, inputs=streams, trace=True,
                         address_trace=True,
                         max_instructions=max_instructions).run()
        reached = Counter(result.addresses)
        for leader in profile.block_counts:
            profile.block_counts[leader] += reached[leader]
        _fold_records(profile, result.trace)
        profile.runs += 1
        outputs.append(result.output)
    return profile, outputs


def _assert_same_profile(derived, oracle):
    assert derived.block_counts == oracle.block_counts
    assert derived.branch_execs == oracle.branch_execs
    assert derived.branch_taken == oracle.branch_taken
    assert derived.edge_counts == oracle.edge_counts
    assert derived.runs == oracle.runs
    assert derived.total_instructions == oracle.total_instructions


def _assert_same_layout(program, derived, oracle):
    mine = build_fs_program(program, derived)
    theirs = build_fs_program(program, oracle)
    assert mine.program.instructions == theirs.program.instructions
    assert mine.program.labels == theirs.program.labels
    assert ([table.entries for table in mine.program.jump_tables]
            == [table.entries for table in theirs.program.jump_tables])


@pytest.mark.slow
@pytest.mark.parametrize("scale", [0.05, 0.1])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_profile_matches_oracle_battery(name, scale):
    spec = get_benchmark(name)
    program = compile_source(spec.source, name=name)
    suite = spec.input_suite(scale=scale, runs=spec.runs)
    derived, outputs = profile_program(program, suite)
    oracle, oracle_outputs = _oracle(program, suite)
    assert outputs == oracle_outputs
    _assert_same_profile(derived, oracle)
    _assert_same_layout(program, derived, oracle)


@settings(max_examples=30, deadline=None)
@given(programs())
def test_hypothesis_profile_matches_oracle(source):
    program, _ = optimize(compile_source(source, "fuzz"))
    derived, _ = profile_program(program, [[]], max_instructions=2_000_000)
    oracle, _ = _oracle(program, [[]], max_instructions=2_000_000)
    _assert_same_profile(derived, oracle)
    _assert_same_layout(program, derived, oracle)


def test_branch_free_run_counts_entry_block():
    """A run without a single branch is one tail segment from entry."""
    from repro.isa import assemble

    program = assemble("func main:\n    li r1, 1\n    puti r1\n    halt\n")
    derived, _ = profile_program(program, [[], []])
    oracle, _ = _oracle(program, [[], []])
    _assert_same_profile(derived, oracle)
    assert derived.block_counts == {program.entry: 2}


def test_profile_trace_matches_record_loop():
    program = compile_source(get_benchmark("wc").source, name="wc")
    streams = get_benchmark("wc").input_suite(scale=0.05, runs=1)[0]
    trace = Machine(program, inputs=streams, trace=True).run().trace
    oracle = Profile()
    _fold_records(oracle, trace)
    derived = profile_trace(trace)
    assert derived.branch_execs == oracle.branch_execs
    assert derived.branch_taken == oracle.branch_taken
    assert derived.edge_counts == oracle.edge_counts
    assert derived.total_instructions == oracle.total_instructions


def test_encoding_tracks_branch_free_extend():
    """Extending by a branch-free run changes the instruction total
    only; the memoized encoding must notice."""
    trace = BranchTrace()
    trace.append(4, BranchClass.UNCONDITIONAL_KNOWN, True, 9, 3)
    trace.total_instructions = 10
    assert EncodedTrace.of(trace).total_instructions == 10
    branch_free = BranchTrace()
    branch_free.total_instructions = 7
    trace.extend(branch_free)
    assert len(trace) == 1
    assert EncodedTrace.of(trace).total_instructions == 17


def test_saved_columns_after_branch_free_extend(tmp_path):
    from repro.kernels.encode import load_columns, save_columns

    trace = Machine(compile_source("""
        int main() { int i; for (i = 0; i < 3; i = i + 1) { } return 0; }
    """, "t"), trace=True).run().trace
    EncodedTrace.of(trace)
    branch_free = BranchTrace()
    branch_free.total_instructions = 5
    trace.extend(branch_free)
    loaded = load_columns(save_columns(EncodedTrace.of(trace), tmp_path))
    assert loaded.total_instructions == trace.total_instructions
