"""Unit tests for the vectorized kernel package's building blocks.

The differential battery (test_kernels_equivalence.py) establishes the
end-to-end bit-identity contract; these tests pin the pieces it is
built from: the segmented scan primitives against straightforward
dict-based references, engine resolution and every one of its scalar
fallbacks (the overflow screen included), the cold start of every
simulation, trace-encoding memoization, and the stats plumbing.
"""

import numpy as np
import pytest

from repro.kernels import (
    AUTO_THRESHOLD,
    EncodedTrace,
    kernel_for,
    resolve_engine,
    simulate_vector,
    supports,
)
from repro.kernels import scan
from repro.predictors import (
    Bimodal,
    CounterBTB,
    GShare,
    SimpleBTB,
    Tournament,
    simulate,
)
from repro.vm.tracing import BranchClass, BranchTrace


def _random_keys(rng, n, n_groups):
    return rng.integers(0, n_groups, size=n, dtype=np.int64)


# -- scan primitives vs dict-based references ----------------------------


def test_previous_index_matches_reference():
    rng = np.random.default_rng(7)
    for n, n_groups in ((0, 1), (1, 1), (50, 3), (300, 17)):
        keys = _random_keys(rng, n, n_groups)
        got = scan.previous_index(scan.Groups(keys))
        last = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == last.get(key, -1)
            last[key] = index


def test_last_marked_index_matches_reference():
    rng = np.random.default_rng(11)
    for n, n_groups in ((0, 1), (1, 1), (80, 4), (300, 13)):
        keys = _random_keys(rng, n, n_groups)
        marked = rng.random(n) < 0.4
        got = scan.last_marked_index(scan.Groups(keys), marked)
        last_mark = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == last_mark.get(key, -1)
            if marked[index]:
                last_mark[key] = index


def test_running_total_matches_reference():
    rng = np.random.default_rng(13)
    keys = _random_keys(rng, 200, 9)
    values = rng.integers(-3, 4, size=200)
    got = scan.running_total(scan.Groups(keys), values)
    totals = {}
    for index, key in enumerate(keys.tolist()):
        totals[key] = totals.get(key, 0) + int(values[index])
        assert got[index] == totals[key]


def test_exclusive_states_matches_reference():
    """Random mixes of saturating steps and allocations, per group.

    Every predictor transition is a clamped add; this drives the
    doubling scan with adversarial mixes and checks the pre-record
    state against a plain dict interpreter.
    """
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = int(rng.integers(1, 400))
        keys = _random_keys(rng, n, int(rng.integers(1, 9)))
        deltas = rng.integers(-2, 3, size=n).astype(np.int32)
        lows = np.zeros(n, dtype=np.int32)
        highs = rng.integers(1, 8, size=n).astype(np.int32)
        # Sprinkle allocations: delta 0, low == high == constant.
        allocate = rng.random(n) < 0.2
        constants = rng.integers(0, 8, size=n).astype(np.int32)
        deltas[allocate] = 0
        lows[allocate] = constants[allocate]
        highs[allocate] = constants[allocate]
        init = int(rng.integers(0, 4))

        got = scan.exclusive_states(scan.Groups(keys), deltas, lows,
                                    highs, init)
        state = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == state.get(key, init), \
                "trial %d record %d" % (trial, index)
            after = int(np.clip(state.get(key, init) + deltas[index],
                                lows[index], highs[index]))
            state[key] = after


def test_scan_primitives_empty():
    groups = scan.Groups(np.zeros(0, dtype=np.int64))
    empty = np.zeros(0, dtype=np.int64)
    assert scan.previous_index(groups).shape == (0,)
    assert scan.last_marked_index(groups, empty).shape == (0,)
    assert scan.running_total(groups, empty).shape == (0,)
    assert scan.exclusive_states(groups, empty, empty, empty, 0).shape \
        == (0,)


# -- trace encoding ------------------------------------------------------


def _small_trace(n=10):
    trace = BranchTrace()
    for index in range(n):
        trace.append(index % 3, BranchClass.CONDITIONAL, index % 2 == 0,
                     50 + index % 3, 1)
    trace.total_instructions = 2 * n
    return trace


def test_encoded_trace_memoized_on_trace():
    trace = _small_trace()
    first = EncodedTrace.of(trace)
    assert EncodedTrace.of(trace) is first
    # Appending invalidates the cached encoding (keyed on length).
    trace.append(9, BranchClass.RETURN, True, 1, 0)
    second = EncodedTrace.of(trace)
    assert second is not first
    assert len(second) == len(trace)


def test_encoded_trace_roundtrip_from_arrays():
    trace = _small_trace()
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    encoded = EncodedTrace.of(rebuilt)
    # from_arrays stashes the encoding: no re-encoding on first use.
    assert rebuilt._encoded is encoded
    assert np.array_equal(encoded.sites, np.asarray(trace.sites))
    assert np.array_equal(encoded.takens,
                          np.asarray(trace.takens, dtype=bool))
    assert encoded.total_instructions == trace.total_instructions


def test_encoded_trace_memoizes_derived_structures():
    encoded = EncodedTrace.of(_small_trace())
    assert encoded.site_groups() is encoded.site_groups()
    assert encoded.set_groups(4) is encoded.set_groups(4)
    assert encoded.set_groups(4) is not encoded.set_groups(8)
    assert encoded.unique_sites() is encoded.unique_sites()
    mask = encoded.classes == BranchClass.CONDITIONAL
    assert encoded.subset("conditional", mask) \
        is encoded.subset("conditional", mask)


# -- engine resolution ---------------------------------------------------


def _big_trace():
    trace = BranchTrace()
    for index in range(AUTO_THRESHOLD):
        trace.append(index % 5, BranchClass.CONDITIONAL, index % 3 == 0,
                     9, 1)
    trace.total_instructions = 2 * AUTO_THRESHOLD
    return trace


def test_resolve_engine_explicit_choices():
    trace = _big_trace()
    assert resolve_engine("scalar", SimpleBTB(16), trace) == "scalar"
    assert resolve_engine("vector", SimpleBTB(16), trace) == "vector"
    # Explicit vector wins regardless of trace size.
    assert resolve_engine("vector", SimpleBTB(16), _small_trace()) \
        == "vector"


def test_resolve_engine_auto_threshold():
    assert resolve_engine("auto", SimpleBTB(16), _small_trace()) \
        == "scalar"
    assert resolve_engine("auto", SimpleBTB(16), _big_trace()) \
        == "vector"


def test_resolve_engine_scalar_fallbacks():
    trace = _big_trace()
    # flush_interval needs a per-record hook.
    assert resolve_engine("vector", SimpleBTB(16), trace,
                          flush_interval=100) == "scalar"
    # No kernel for the tournament meta-predictor.
    assert not supports(Tournament())
    assert resolve_engine("vector", Tournament(), trace) == "scalar"
    # A warm predictor still takes the kernel: every run starts cold.
    warm = SimpleBTB(16)
    simulate(warm, _small_trace(), engine="scalar")
    assert resolve_engine("vector", warm, trace) == "vector"
    assert resolve_engine(None, warm, trace) == "vector"


def _reusable_predictors():
    return (("SBTB", lambda: SimpleBTB(16)),
            ("CBTB", lambda: CounterBTB(entries=16)),
            ("gshare", lambda: GShare(history_bits=4, table_bits=6)),
            ("bimodal", lambda: Bimodal(table_bits=6, entries=16)),
            ("tournament", Tournament))


@pytest.mark.parametrize("engine", [None, "scalar", "vector"])
def test_reused_predictor_starts_cold(engine):
    """Two back-to-back simulate() calls on one predictor agree with
    each other and with a fresh predictor, on every engine."""
    trace = _big_trace()
    assert len(trace) >= AUTO_THRESHOLD
    for label, make in _reusable_predictors():
        predictor = make()
        first = simulate(predictor, trace, engine=engine)
        second = simulate(predictor, trace, engine=engine)
        assert first == second, label
        assert first == simulate(make(), trace, engine="scalar"), label


@pytest.mark.parametrize("engine", [None, "scalar", "vector"])
def test_reused_cycle_simulator_starts_cold(engine):
    from repro.pipeline import PipelineConfig
    from repro.pipeline.cycle_sim import CycleSimulator

    trace = _big_trace()
    for label, make in _reusable_predictors():
        simulator = CycleSimulator(PipelineConfig(2, 2, 2), make(),
                                   engine=engine)
        first = simulator.run(trace)
        second = simulator.run(trace)
        assert first.cycles == second.cycles, label
        assert first.squashed_by_class == second.squashed_by_class, label


def test_reused_predictor_starts_cold_after_fallback():
    """An overflowing run on the scalar fallback leaves the predictor
    warm; the next call must still start cold."""
    trace = _capacity_trace(n_sites=5, repeats=AUTO_THRESHOLD // 5 + 1)
    predictor = SimpleBTB(entries=4)
    first = simulate(predictor, trace)
    assert first == simulate(predictor, trace)
    assert first == simulate(predictor, trace, engine="vector")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        resolve_engine("warp", SimpleBTB(16), _small_trace())


def test_simulate_vector_rejects_unsupported():
    assert kernel_for(Tournament()) is None
    with pytest.raises(ValueError):
        simulate_vector(Tournament(), _small_trace())


def test_vector_engine_never_mutates_predictor():
    predictor = SimpleBTB(entries=16)
    stats = simulate(predictor, _big_trace(), engine="vector")
    assert stats.total == AUTO_THRESHOLD
    assert predictor.occupancy == 0


# -- stats plumbing ------------------------------------------------------


def test_vector_stats_on_empty_and_returns_only_traces():
    empty = BranchTrace()
    stats = simulate_vector(SimpleBTB(16), empty)
    assert stats.total == 0 and stats.correct == 0

    returns = BranchTrace()
    for _ in range(5):
        returns.append(3, BranchClass.RETURN, True, 7, 1)
    returns.total_instructions = 10
    stats = simulate_vector(SimpleBTB(16), returns)
    reference = simulate(SimpleBTB(16), returns, engine="scalar")
    assert stats == reference
    assert stats.total == 5 and stats.correct == 5
    assert stats.by_class_total == {BranchClass.RETURN: 5}
    assert stats.buffer_accesses == 0


def test_prediction_stats_equality_and_dict():
    trace = _small_trace()
    scalar = simulate(SimpleBTB(16), trace, engine="scalar")
    vector = simulate(SimpleBTB(16), trace, engine="vector")
    assert scalar == vector
    assert scalar.as_dict() == vector.as_dict()
    assert scalar != object()
    vector.correct += 1
    assert scalar != vector


# -- eviction screen boundary --------------------------------------------


def _capacity_trace(n_sites, repeats=6):
    """Round-robin taken conditionals over ``n_sites`` distinct sites."""
    trace = BranchTrace()
    for _ in range(repeats):
        for site in range(n_sites):
            trace.append(site, BranchClass.CONDITIONAL, True,
                         100 + site, 1)
    trace.total_instructions = 3 * n_sites * repeats
    return trace


def _spy_scalar_fallbacks(monkeypatch):
    """Record every simulate() that fell back from a kernel."""
    from repro import kernels

    calls = []
    real = kernels.count_fallback

    def spy():
        calls.append(True)
        real()

    monkeypatch.setattr(kernels, "count_fallback", spy)
    return calls


def test_eviction_screen_exact_at_capacity(monkeypatch):
    """occupancy == ways fills the buffer without evicting: the screen
    must keep the closed-form path, and send the run to the scalar
    loop only one distinct site later."""
    from repro.kernels import tables

    calls = _spy_scalar_fallbacks(monkeypatch)

    full = _capacity_trace(n_sites=2)
    enc = EncodedTrace.of(full)
    assert tables.cbtb_kernel(CounterBTB(entries=2), enc) is not None
    assert simulate(CounterBTB(entries=2), full, engine="vector") \
        == simulate(CounterBTB(entries=2), full, engine="scalar")
    assert not calls, "exactly-full set must stay closed-form"

    over = _capacity_trace(n_sites=3)
    assert tables.cbtb_kernel(CounterBTB(entries=2),
                              EncodedTrace.of(over)) is None
    assert simulate(CounterBTB(entries=2), over, engine="vector") \
        == simulate(CounterBTB(entries=2), over, engine="scalar")
    assert calls, "overflowing set must take the scalar path"


def test_eviction_screen_exact_at_capacity_sbtb(monkeypatch):
    from repro.kernels import tables

    calls = _spy_scalar_fallbacks(monkeypatch)

    full = _capacity_trace(n_sites=4)
    assert tables.sbtb_kernel(SimpleBTB(entries=4),
                              EncodedTrace.of(full)) is not None
    assert simulate(SimpleBTB(entries=4), full, engine="vector") \
        == simulate(SimpleBTB(entries=4), full, engine="scalar")
    assert not calls
    over = _capacity_trace(n_sites=5)
    assert tables.sbtb_kernel(SimpleBTB(entries=4),
                              EncodedTrace.of(over)) is None
    assert simulate(SimpleBTB(entries=4), over, engine="vector") \
        == simulate(SimpleBTB(entries=4), over, engine="scalar")
    assert calls


def test_eviction_screen_exact_at_capacity_target_store(monkeypatch):
    calls = _spy_scalar_fallbacks(monkeypatch)
    for make in (lambda: GShare(history_bits=2, table_bits=4, entries=4),
                 lambda: Bimodal(table_bits=4, entries=4)):
        full = _capacity_trace(n_sites=4)
        assert kernel_for(make())(make(), EncodedTrace.of(full)) \
            is not None
        assert simulate(make(), full, engine="vector") \
            == simulate(make(), full, engine="scalar")
        assert not calls
        over = _capacity_trace(n_sites=5)
        assert simulate(make(), over, engine="vector") \
            == simulate(make(), over, engine="scalar")
        assert calls
        calls.clear()

