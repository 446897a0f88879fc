"""Predictor interface, statistics, and the trace-driven simulator."""

import time

from repro.vm.tracing import BranchClass


class Prediction:
    """One prediction: a direction and (when taken) a target.

    ``hit`` records whether a buffered scheme found the branch in its
    buffer; non-buffered schemes report ``hit=None`` and are excluded
    from miss-ratio accounting.
    """

    __slots__ = ("taken", "target", "hit")

    def __init__(self, taken, target=None, hit=None):
        self.taken = taken
        self.target = target
        self.hit = hit

    def __repr__(self):
        return "Prediction(taken=%s, target=%r, hit=%r)" % (
            self.taken, self.target, self.hit)


class PredictionStats:
    """Accumulated accuracy/miss statistics of a simulation run."""

    def __init__(self):
        self.total = 0
        self.correct = 0
        self.buffer_accesses = 0
        self.buffer_misses = 0
        self.by_class_total = {}
        self.by_class_correct = {}

    def record(self, branch_class, was_correct, hit):
        self.total += 1
        self.by_class_total[branch_class] = (
            self.by_class_total.get(branch_class, 0) + 1)
        if was_correct:
            self.correct += 1
            self.by_class_correct[branch_class] = (
                self.by_class_correct.get(branch_class, 0) + 1)
        if hit is not None:
            self.buffer_accesses += 1
            if not hit:
                self.buffer_misses += 1

    @property
    def accuracy(self):
        """A — the probability a prediction is correct (Table 3)."""
        if self.total == 0:
            return 0.0
        return self.correct / self.total

    @property
    def miss_ratio(self):
        """rho — the buffer miss ratio (Table 3)."""
        if self.buffer_accesses == 0:
            return 0.0
        return self.buffer_misses / self.buffer_accesses

    def class_accuracy(self, branch_class):
        total = self.by_class_total.get(branch_class, 0)
        if total == 0:
            return None
        return self.by_class_correct.get(branch_class, 0) / total

    @property
    def conditional_accuracy(self):
        return self.class_accuracy(BranchClass.CONDITIONAL)

    def merge(self, other):
        self.total += other.total
        self.correct += other.correct
        self.buffer_accesses += other.buffer_accesses
        self.buffer_misses += other.buffer_misses
        for key, value in other.by_class_total.items():
            self.by_class_total[key] = self.by_class_total.get(key, 0) + value
        for key, value in other.by_class_correct.items():
            self.by_class_correct[key] = (
                self.by_class_correct.get(key, 0) + value)
        return self

    def as_dict(self):
        """Plain-data form (JSON friendly, stable key order)."""
        return {
            "total": self.total,
            "correct": self.correct,
            "buffer_accesses": self.buffer_accesses,
            "buffer_misses": self.buffer_misses,
            "by_class_total": {
                str(key): self.by_class_total[key]
                for key in sorted(self.by_class_total)},
            "by_class_correct": {
                str(key): self.by_class_correct[key]
                for key in sorted(self.by_class_correct)},
        }

    def __eq__(self, other):
        """Field-for-field equality — the engines' bit-identity bar."""
        if not isinstance(other, PredictionStats):
            return NotImplemented
        return (self.total == other.total
                and self.correct == other.correct
                and self.buffer_accesses == other.buffer_accesses
                and self.buffer_misses == other.buffer_misses
                and self.by_class_total == other.by_class_total
                and self.by_class_correct == other.by_class_correct)

    __hash__ = None

    def __repr__(self):
        return "PredictionStats(A=%.4f, rho=%.4f, n=%d)" % (
            self.accuracy, self.miss_ratio, self.total)


class Predictor:
    """Base predictor protocol.

    Subclasses implement :meth:`predict` and :meth:`update`.  The
    simulator calls ``predict`` with the record's site/class, scores the
    prediction against the actual outcome, then calls ``update`` with
    the truth.
    """

    name = "predictor"

    def predict(self, site, branch_class):
        """Return a :class:`Prediction` for the branch at ``site``."""
        raise NotImplementedError

    def update(self, site, branch_class, taken, target):
        """Observe the actual outcome of the branch at ``site``."""
        raise NotImplementedError

    def reset(self):
        """Clear all state (used by the context-switch ablation)."""

    def flush(self):
        """Context switch: buffered schemes lose their contents.

        Default is :meth:`reset`; software schemes override with a
        no-op because their state lives in the program text.
        """
        self.reset()

    def telemetry_stats(self):
        """Scheme-internal facts for the telemetry event stream.

        Buffered schemes report occupancy/eviction/aliasing counts;
        the base implementation only names the scheme.
        """
        return {"scheme": self.name}

    def declared_parameters(self):
        """The configuration this predictor *claims* to implement.

        The characterization harness (:mod:`repro.characterize`)
        recovers the same parameters purely from probe traces through
        ``simulate()`` and diffs them against this declaration: a
        mismatch is, by construction, either an inference bug or a
        simulator bug.  Schemes only declare the keys they have a
        claim about; the base implementation declares nothing.
        """
        return {}


def is_correct(prediction, taken, target):
    """Score a prediction against the actual branch outcome.

    Correct means: direction matches, and if the actual outcome is
    taken, the predicted target matches the actual target (a taken
    prediction with the wrong target fetched the wrong path).
    """
    if prediction.taken != bool(taken):
        return False
    if taken:
        return prediction.target == target
    return True


def site_statistics(predictor, trace, ras_returns=True):
    """Per-static-site accuracy counts for one scheme over a trace.

    Simulates ``predictor`` over ``trace`` and returns a dict mapping
    each branch site to ``[executions, correct_predictions]``.  With
    ``ras_returns`` (the default) return records are skipped, matching
    the shared return-address mechanism of :func:`simulate`.
    """
    counts = {}
    for site, branch_class, taken, target, _ in trace.records():
        if ras_returns and branch_class == BranchClass.RETURN:
            continue
        prediction = predictor.predict(site, branch_class)
        entry = counts.get(site)
        if entry is None:
            entry = counts[site] = [0, 0]
        entry[0] += 1
        if is_correct(prediction, taken, target):
            entry[1] += 1
        predictor.update(site, branch_class, taken, target)
    return counts


def site_report(predictor, trace, worst=10):
    """Per-site accuracy analysis: where does a scheme lose?

    Returns a list of ``(site, executions, accuracy)`` for the
    ``worst``-predicted sites (most mispredictions first).  Returns are
    skipped (covered by the shared return mechanism).
    """
    rows = []
    for site, (execs, right) in site_statistics(predictor, trace).items():
        rows.append((site, execs, right / execs, execs - right))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return [(site, execs, accuracy)
            for site, execs, accuracy, _ in rows[:worst]]


def start_cold(predictor):
    """Reset ``predictor`` before a scalar run, so every run starts cold.

    Objects that only duck-type ``predict``/``update`` (test doubles)
    have no ``reset`` and are left as they are.
    """
    reset = getattr(predictor, "reset", None)
    if reset is not None:
        reset()


def simulate(predictor, trace, flush_interval=None,
             conditional_only=False, ras_returns=True, engine=None):
    """Run ``predictor`` over a branch trace; returns PredictionStats.

    Args:
        predictor: the scheme under test.
        trace: :class:`~repro.vm.tracing.BranchTrace`.
        flush_interval: if set, call ``predictor.flush()`` every this
            many dynamic instructions — the paper's context-switch
            discussion made concrete.
        conditional_only: restrict scoring to conditional branches
            (used for the static-baseline comparisons, which the cited
            studies report over conditional branches).
        ras_returns: model the return-address mechanism shared by all
            schemes (DESIGN.md §6.1): returns are always correct and
            never access the buffer.  With False, return records flow
            through the predictor like any branch (BTBs predict the
            *last* return target; the FS cannot predict them at all) —
            the ablation quantifying the RAS substitution.
        engine: ``"scalar"``, ``"vector"``, ``"auto"`` or None (auto
            — see :mod:`repro.kernels.engine`).  The engines are
            bit-identical; only throughput and side effects differ
            (a kernel never touches the predictor object, the scalar
            loop leaves it warm).

    Returns:
        :class:`PredictionStats`.

    Returns still count toward ``total`` either way (the paper's cost
    model charges every branch) unless ``conditional_only`` is set.

    Every call starts from a cold predictor: the scalar loop calls
    ``predictor.reset()`` before the first record (:func:`start_cold`),
    so reusing one predictor object gives the same stats on every
    engine.
    """
    from repro.kernels import (
        count_fallback,
        resolve_engine,
        simulate_vector,
    )

    resolved = resolve_engine(engine, predictor, trace, flush_interval)
    started = time.perf_counter()
    if resolved == "vector":
        stats = simulate_vector(predictor, trace,
                                conditional_only=conditional_only,
                                ras_returns=ras_returns)
        if stats is not None:
            _report_simulation(predictor, stats, resolved, started)
            return stats
        count_fallback()
        resolved = "scalar"

    start_cold(predictor)
    stats = PredictionStats()
    instructions_seen = 0
    next_flush = flush_interval

    for site, branch_class, taken, target, gap in trace.records():
        if flush_interval is not None:
            instructions_seen += gap + 1
            if instructions_seen >= next_flush:
                predictor.flush()
                next_flush += flush_interval

        if branch_class == BranchClass.RETURN and ras_returns:
            if not conditional_only:
                stats.record(branch_class, True, None)
            continue
        if conditional_only and branch_class != BranchClass.CONDITIONAL:
            continue

        prediction = predictor.predict(site, branch_class)
        correct = is_correct(prediction, taken, target)
        stats.record(branch_class, correct, prediction.hit)
        predictor.update(site, branch_class, taken, target)

    _report_simulation(predictor, stats, resolved, started)
    return stats


def _report_simulation(predictor, stats, engine, started):
    """Telemetry for one simulation: per-engine record counters and a
    ``predictor.simulate`` event carrying the resolved engine and its
    throughput (the observability half of the speedup story; the
    perf-regression gate in benchmarks/ does the enforcement)."""
    from repro.telemetry.core import TELEMETRY
    if not TELEMETRY.enabled:
        return
    elapsed = time.perf_counter() - started
    TELEMETRY.count("predictor.records", stats.total)
    TELEMETRY.count("predictor.records.%s" % engine, stats.total)
    TELEMETRY.event(
        "predictor.simulate", records=stats.total,
        correct=stats.correct, accuracy=stats.accuracy,
        buffer_misses=stats.buffer_misses,
        miss_ratio=stats.miss_ratio,
        engine=engine,
        records_per_second=(stats.total / elapsed if elapsed > 0
                            else None),
        **predictor.telemetry_stats())
