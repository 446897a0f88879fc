"""Differential replay: production vs oracle, lockstep, with shrinking.

The engine drives a production predictor and its reference oracle
through the same branch trace record by record.  After every record it
compares the two predictions (direction, buffer hit, scored
correctness, predicted target) and — because both sides expose their
buffer in canonical replacement order — the complete predictor state.
The first mismatch comes back as a :class:`Divergence` carrying the
record index and both sides' view; :func:`shrink_trace` then
delta-debugs the failing trace down to a minimal reproducer (with
:func:`ddmin`, which shrinks any list — the VM battery uses it on
programs).
"""

import random

from repro.predictors.base import is_correct
from repro.predictors.cbtb import CounterBTB
from repro.vm.tracing import BranchClass, BranchTrace


class Divergence:
    """One production/oracle disagreement.

    Attributes:
        kind: what disagreed — ``direction``, ``hit``, ``correctness``,
            ``target``, ``state``, or a cycle-level aggregate
            (``cycles``, ``squashed_cycles``, ...).
        index: record index within the trace (None for aggregates).
        record: the :class:`~repro.vm.tracing.BranchRecord`-style tuple
            at ``index`` (None for aggregates).
        production / oracle: the two disagreeing values.
    """

    __slots__ = ("kind", "index", "record", "production", "oracle")

    def __init__(self, kind, index, record, production, oracle):
        self.kind = kind
        self.index = index
        self.record = record
        self.production = production
        self.oracle = oracle

    def describe(self):
        where = ("record %d %r" % (self.index, self.record)
                 if self.index is not None else "aggregate")
        return "%s diverged at %s: production=%r oracle=%r" % (
            self.kind, where, self.production, self.oracle)

    def __repr__(self):
        return "Divergence(%s)" % self.describe()


def production_state(predictor):
    """The production buffer as ((key, value), ...) in replacement order.

    Mirrors the oracle ``state()`` snapshots: per set LRU-first, sets
    concatenated.  Non-buffered schemes snapshot as ().
    """
    cache = getattr(predictor, "_cache", None)
    if cache is None:
        return ()
    if isinstance(predictor, CounterBTB):
        return tuple((key, (cache.peek(key).counter, cache.peek(key).target))
                     for key in cache.lru_order())
    # SimpleBTB (and anything storing plain values): snapshot verbatim.
    return tuple((key, cache.peek(key)) for key in cache.lru_order())


def _compare_predictions(index, record, mine, theirs, taken, target):
    if bool(mine.taken) != bool(theirs.taken):
        return Divergence("direction", index, record,
                          mine.taken, theirs.taken)
    if mine.hit != theirs.hit:
        return Divergence("hit", index, record, mine.hit, theirs.hit)
    mine_correct = is_correct(mine, taken, target)
    theirs_correct = is_correct(theirs, taken, target)
    if mine_correct != theirs_correct:
        return Divergence("correctness", index, record,
                          mine_correct, theirs_correct)
    # Sentinel "statically encoded" targets compare equal to anything,
    # so this only fires on a concrete target mismatch between buffers.
    if mine.taken and not (mine.target == theirs.target):
        return Divergence("target", index, record,
                          mine.target, theirs.target)
    return None


def replay_divergence(production, oracle, trace, ras_returns=True,
                      compare_state=True):
    """Run both sides over ``trace``; return the first Divergence or None.

    Mirrors :func:`repro.predictors.base.simulate`'s record handling:
    with ``ras_returns`` (the default) return records never reach
    either predictor.  With ``compare_state`` the full buffer snapshot
    is compared after every update — this is what makes replay
    *bit-for-bit*: two runs that agree on every snapshot make identical
    decisions forever after.
    """
    for index, record in enumerate(trace.records()):
        site, branch_class, taken, target, _gap = record
        if branch_class == BranchClass.RETURN and ras_returns:
            continue
        mine = production.predict(site, branch_class)
        theirs = oracle.predict(site, branch_class)
        divergence = _compare_predictions(index, record, mine, theirs,
                                          taken, target)
        if divergence is not None:
            return divergence
        production.update(site, branch_class, taken, target)
        oracle.update(site, branch_class, taken, target)
        if compare_state:
            mine_state = production_state(production)
            theirs_state = oracle.state()
            if theirs_state and mine_state != theirs_state:
                return Divergence("state", index, record,
                                  mine_state, theirs_state)
    return None


def engine_check(make_predictor, trace, ras_returns=True,
                 conditional_only=False):
    """Compare a batch kernel against the scalar reference on one trace.

    Runs a fresh predictor from ``make_predictor`` through its kernel
    and through the scalar loop and compares the two
    ``PredictionStats`` field for field — the bit-identity contract of
    :mod:`repro.kernels`.  Returns ``(exercised, divergence)``:
    ``exercised`` is False when no kernel ran, because the predictor
    has none or its overflow screen declined the trace (a vector
    ``simulate()`` would then run the reference against itself);
    ``divergence`` is an aggregate :class:`Divergence` or None.
    """
    from repro.kernels import simulate_vector, supports
    from repro.predictors.base import simulate

    if not supports(make_predictor()):
        return False, None
    vector = simulate_vector(make_predictor(), trace,
                             conditional_only=conditional_only,
                             ras_returns=ras_returns)
    if vector is None:
        return False, None
    scalar = simulate(make_predictor(), trace, engine="scalar",
                      conditional_only=conditional_only,
                      ras_returns=ras_returns)
    if scalar != vector:
        return True, Divergence("engine", None, None, scalar.as_dict(),
                                vector.as_dict())
    return True, None


def engine_divergence(make_predictor, trace, ras_returns=True,
                      conditional_only=False):
    """The divergence half of :func:`engine_check` (None when equal
    or when no kernel ran)."""
    return engine_check(make_predictor, trace, ras_returns=ras_returns,
                        conditional_only=conditional_only)[1]


def cycle_divergence(config, make_production, make_oracle, trace,
                     ras_returns=True, engine=None):
    """Compare the production cycle simulator against the interpreter.

    Args:
        config: :class:`~repro.pipeline.config.PipelineConfig`.
        make_production / make_oracle: zero-argument factories producing
            *fresh* predictor instances (each side must start cold).
        trace: the branch trace to replay.
        engine: forwarded to :class:`CycleSimulator` — the conformance
            harness pins ``"vector"`` to drive the batch cycle kernel
            against the oracle interpreter on every seed, regardless of
            the auto threshold.

    Returns the first aggregate :class:`Divergence` or None.
    """
    from repro.conformance.oracles import OracleCycleInterpreter
    from repro.pipeline.cycle_sim import CycleSimulator

    fast = CycleSimulator(config, make_production(),
                          ras_returns=ras_returns,
                          engine=engine).run(trace)
    slow = OracleCycleInterpreter(config, make_oracle(),
                                  ras_returns=ras_returns).run(trace)
    for field in ("fill_cycles", "mispredictions", "squashed_cycles",
                  "cycles"):
        mine = getattr(fast, field)
        theirs = getattr(slow, field)
        if mine != theirs:
            return Divergence(field, None, None, mine, theirs)
    if dict(fast.squashed_by_class) != slow.squashed_by_class:
        return Divergence("squashed_by_class", None, None,
                          dict(fast.squashed_by_class),
                          slow.squashed_by_class)
    return None


def subtrace(records):
    """Build a self-consistent BranchTrace from record tuples."""
    trace = BranchTrace()
    for site, branch_class, taken, target, gap in records:
        trace.append(site, branch_class, taken, target, gap)
    trace.total_instructions = (sum(record[4] for record in records)
                                + len(records))
    return trace


def shrink_trace(trace, still_fails, seed=0, max_tests=2000):
    """Delta-debug ``trace`` to a minimal failing reproducer.

    Args:
        trace: a trace for which ``still_fails(trace)`` is True.
        still_fails: predicate over a :class:`BranchTrace`; must be
            pure (it is called on fresh subtraces, so it should build
            fresh predictors internally).
        seed: chunk-order shuffle seed — shrinking is deterministic per
            seed (different seeds may find different, equally minimal,
            reproducers).
        max_tests: budget on predicate evaluations.

    Returns the shrunk :class:`BranchTrace` (1-minimal: removing any
    single remaining record makes the failure disappear, budget
    permitting).
    """
    records = [tuple(record) for record in trace.records()]
    if not still_fails(subtrace(records)):
        raise ValueError("shrink_trace needs a failing trace to start from")
    return subtrace(ddmin(records, lambda kept: still_fails(subtrace(kept)),
                          seed=seed, max_tests=max_tests))


def ddmin(items, still_fails, seed=0, max_tests=2000):
    """Delta-debug the list ``items`` to a 1-minimal failing sublist.

    ``still_fails`` is a predicate over non-empty sublists (order
    kept); ``items`` itself is assumed to fail.  Chunks are tried in an
    order shuffled by ``seed``; ``max_tests`` bounds predicate calls.
    """
    items = list(items)
    rng = random.Random(seed)
    tests = 0
    granularity = 2
    while len(items) >= 2 and tests < max_tests:
        chunk = max(1, len(items) // granularity)
        starts = list(range(0, len(items), chunk))
        rng.shuffle(starts)
        reduced = False
        for start in starts:
            candidate = items[:start] + items[start + chunk:]
            if not candidate:
                continue
            tests += 1
            if still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if tests >= max_tests:
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(items))
    return items
