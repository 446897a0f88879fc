"""The conformance run: fuzz -> differential replay -> golden tables.

One call to :func:`run_conformance` drives, per seed:

1. a fuzzed trace (and its likely-bit map) from
   :class:`~repro.conformance.fuzz.TraceFuzzer`;
2. lockstep differential replay of SBTB, CBTB, and FS against their
   oracles, including buffer-state comparison after every record, plus
   a scalar-vs-vector engine cross-check of each scheme's
   ``PredictionStats`` over the same trace;
3. a cycle-level differential of the production
   :class:`~repro.pipeline.cycle_sim.CycleSimulator` against the
   straight-line oracle interpreter, on two pipeline shapes — twice
   per shape, once on the default engine and once pinned to the
   vector cycle kernel (fuzz traces sit under the auto threshold, so
   the pin is what exercises :mod:`repro.kernels.cycle` here);

and then, once, the golden-table layer (paper tolerance bands and the
committed golden JSON).  Any divergence is shrunk to a minimal
reproducer and reported — and emitted as a structured
``conformance.divergence`` telemetry event so a CI run's JSONL log
pinpoints the failure without rerunning anything.
"""

from repro.conformance.differential import (
    cycle_divergence,
    engine_check,
    engine_divergence,
    replay_divergence,
    shrink_trace,
)
from repro.conformance.fuzz import TraceFuzzer
from repro.conformance.golden import check_golden, check_paper_bands
from repro.conformance.oracles import oracle_for
from repro.pipeline.config import PipelineConfig
from repro.predictors import (
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
)
from repro.telemetry.core import TELEMETRY

#: Small buffers so fuzzed traces create real capacity/eviction
#: pressure (256 entries would never evict with two dozen sites).
_ENTRIES = 16

#: Pipeline shapes for the cycle differential: the paper's moderately
#: and highly pipelined points.
_CYCLE_CONFIGS = (PipelineConfig(1, 1, 1), PipelineConfig(2, 4, 4))


def _scheme_pairs(fuzzer):
    """(scheme, make_production, make_oracle) for one fuzzed skeleton."""
    likely = fuzzer.likely_sites()
    return (
        ("SBTB",
         lambda: SimpleBTB(entries=_ENTRIES),
         lambda: oracle_for("SBTB", entries=_ENTRIES)),
        ("CBTB",
         lambda: CounterBTB(entries=_ENTRIES),
         lambda: oracle_for("CBTB", entries=_ENTRIES)),
        ("FS",
         lambda: ForwardSemanticPredictor(likely_sites=likely),
         lambda: oracle_for("FS", likely_sites=likely)),
    )


class DivergenceFinding:
    """A shrunk, reportable conformance failure."""

    __slots__ = ("scheme", "seed", "kind", "divergence", "reproducer")

    def __init__(self, scheme, seed, kind, divergence, reproducer):
        self.scheme = scheme
        self.seed = seed
        self.kind = kind
        self.divergence = divergence
        self.reproducer = reproducer

    def describe(self):
        lines = ["%s (seed %d, %s): %s"
                 % (self.scheme, self.seed, self.kind,
                    self.divergence.describe())]
        if self.reproducer is not None:
            lines.append("  minimal reproducer (%d records):"
                         % len(self.reproducer))
            for index in range(len(self.reproducer)):
                lines.append("    %r" % (self.reproducer[index],))
        return "\n".join(lines)


class ConformanceReport:
    """Everything one conformance run observed."""

    def __init__(self, seeds, schemes):
        self.seeds = seeds
        self.schemes = tuple(schemes)
        self.replays = 0
        self.cycle_checks = 0
        self.vector_cycle_checks = 0
        self.engine_checks = 0
        self.engine_fallbacks = 0
        self.probe_checks = 0
        self.findings = []
        self.band_violations = []
        self.golden_violations = []
        self.golden_checked = False

    @property
    def ok(self):
        return not (self.findings or self.band_violations
                    or self.golden_violations)

    def render(self):
        lines = ["Conformance: %d seeds x %d oracles (%d replays, "
                 "%d cycle checks)"
                 % (self.seeds, len(self.schemes), self.replays,
                    self.cycle_checks)]
        if self.findings:
            lines.append("DIVERGENCES (%d):" % len(self.findings))
            lines.extend(finding.describe() for finding in self.findings)
        else:
            lines.append("differential replay: zero divergences")
        lines.append("engine cross-check (scalar vs vector): "
                     "%d comparisons exercised a kernel, %d fell back "
                     "to the scalar reference"
                     % (self.engine_checks, self.engine_fallbacks))
        lines.append("vector cycle-sim vs oracle interpreter: "
                     "%d comparisons" % self.vector_cycle_checks)
        if self.probe_checks:
            lines.append("characterization probe battery: "
                         "%d scheme x probe replays" % self.probe_checks)
        if self.golden_checked:
            for label, violations in (
                    ("paper tolerance bands", self.band_violations),
                    ("golden tables", self.golden_violations)):
                if violations:
                    lines.append("%s: %d violation%s"
                                 % (label, len(violations),
                                    "" if len(violations) == 1 else "s"))
                    lines.extend("  " + violation
                                 for violation in violations)
                else:
                    lines.append("%s: pass" % label)
        else:
            lines.append("golden tables: skipped")
        lines.append("RESULT: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _note_divergence(report, scheme, seed, divergence, reproducer):
    finding = DivergenceFinding(scheme, seed, divergence.kind, divergence,
                                reproducer)
    report.findings.append(finding)
    TELEMETRY.count("conformance.divergences")
    TELEMETRY.event(
        "conformance.divergence", scheme=scheme, seed=seed,
        kind=divergence.kind, index=divergence.index,
        production=repr(divergence.production),
        oracle=repr(divergence.oracle),
        reproducer_records=(len(reproducer)
                            if reproducer is not None else None))


def _run_probe_battery(report):
    """Replay the characterization probe corpus differentially.

    The probe traces (capacity chains, alias chains, counter steps,
    history ladders, victim probes, disagreement weaves — see
    :func:`repro.characterize.probes.probe_battery`) are adversarial
    by construction: they oversubscribe sets and maximise aliasing,
    regimes the program-skeleton fuzzer essentially never reaches.
    Each trace runs through (a) lockstep oracle replay for the schemes
    that have reference oracles and (b) the scalar-vs-vector engine
    cross-check for every kernel-backed scheme; divergences are shrunk
    like any fuzz finding.
    """
    from repro.characterize.probes import probe_battery

    oracle_schemes = (
        ("SBTB", lambda: SimpleBTB(entries=_ENTRIES),
         lambda: oracle_for("SBTB", entries=_ENTRIES)),
        ("CBTB", lambda: CounterBTB(entries=_ENTRIES),
         lambda: oracle_for("CBTB", entries=_ENTRIES)),
    )
    engine_schemes = (
        ("SBTB", lambda: SimpleBTB(entries=_ENTRIES)),
        ("CBTB", lambda: CounterBTB(entries=_ENTRIES)),
        ("gshare", lambda: GShare(history_bits=4, entries=_ENTRIES)),
        ("bimodal", lambda: Bimodal(entries=_ENTRIES)),
    )
    for family, name, trace in probe_battery(entries=_ENTRIES):
        probe = "%s/%s" % (family, name)
        for scheme, make_production, make_oracle in oracle_schemes:
            report.probe_checks += 1
            divergence = replay_divergence(make_production(),
                                           make_oracle(), trace)
            if divergence is not None:
                reproducer = shrink_trace(
                    trace,
                    lambda t, mp=make_production, mo=make_oracle:
                    replay_divergence(mp(), mo(), t) is not None)
                _note_divergence(report, "%s@probe:%s" % (scheme, probe),
                                 -1, divergence, reproducer)
        for scheme, make_production in engine_schemes:
            report.probe_checks += 1
            divergence = engine_divergence(make_production, trace)
            if divergence is not None:
                reproducer = shrink_trace(
                    trace,
                    lambda t, mp=make_production:
                    engine_divergence(mp, t) is not None)
                _note_divergence(report,
                                 "%s@engine:%s" % (scheme, probe),
                                 -1, divergence, reproducer)


def run_conformance(seeds=200, first_seed=0, golden=True, cache=True,
                    schemes=("SBTB", "CBTB", "FS"), probes=True):
    """Run the full conformance battery; returns a ConformanceReport.

    Args:
        seeds: fuzz seeds to replay (each seed covers every scheme and
            both cycle-differential pipeline shapes).
        first_seed: start of the seed range (CI shards can split it).
        golden: also run the paper-band and golden-file checks.
        cache: let the golden layer use the trace cache.
        schemes: subset of production schemes to check differentially.
        probes: also replay the characterization probe battery (fixed
            adversarial traces) through the oracles and both engines.
    """
    report = ConformanceReport(seeds, schemes)
    if probes:
        with TELEMETRY.span("conformance.probes"):
            _run_probe_battery(report)
    with TELEMETRY.span("conformance.differential", seeds=seeds):
        for seed in range(first_seed, first_seed + seeds):
            TELEMETRY.count("conformance.seeds")
            fuzzer = TraceFuzzer(seed)
            trace = fuzzer.trace()
            pairs = [pair for pair in _scheme_pairs(fuzzer)
                     if pair[0] in schemes]
            for scheme, make_production, make_oracle in pairs:
                report.replays += 1
                divergence = replay_divergence(make_production(),
                                               make_oracle(), trace)
                if divergence is not None:
                    reproducer = shrink_trace(
                        trace,
                        lambda t, mp=make_production, mo=make_oracle:
                        replay_divergence(mp(), mo(), t) is not None,
                        seed=seed)
                    _note_divergence(report, scheme, seed, divergence,
                                     reproducer)
                    continue
                exercised, divergence = engine_check(make_production,
                                                     trace)
                if exercised:
                    report.engine_checks += 1
                else:
                    report.engine_fallbacks += 1
                if divergence is not None:
                    reproducer = shrink_trace(
                        trace,
                        lambda t, mp=make_production:
                        engine_divergence(mp, t) is not None,
                        seed=seed)
                    _note_divergence(report, "%s@engine" % scheme, seed,
                                     divergence, reproducer)
                    continue
                for config in _CYCLE_CONFIGS:
                    report.cycle_checks += 1
                    divergence = cycle_divergence(
                        config, make_production, make_oracle, trace)
                    if divergence is not None:
                        _note_divergence(report, "%s@%r" % (scheme, config),
                                         seed, divergence, None)
                        continue
                    # Same oracle, but the production side pinned to
                    # the batch cycle kernel: fuzz traces sit under the
                    # auto threshold, so without the pin the vector
                    # cycle path would never face the interpreter.
                    report.vector_cycle_checks += 1
                    divergence = cycle_divergence(
                        config, make_production, make_oracle, trace,
                        engine="vector")
                    if divergence is not None:
                        _note_divergence(
                            report, "%s@vector-cycle@%r" % (scheme, config),
                            seed, divergence, None)
    if golden:
        with TELEMETRY.span("conformance.golden"):
            from repro.experiments.runner import SuiteRunner
            from repro.conformance.golden import GOLDEN_CONFIG

            runner = SuiteRunner(scale=GOLDEN_CONFIG["scale"],
                                 runs=GOLDEN_CONFIG["runs"],
                                 cache_dir=None if cache else False)
            report.band_violations = check_paper_bands(runner)
            # Once per engine: the vector kernels must reproduce the
            # committed trajectory exactly, not merely agree with a
            # scalar loop that drifted alongside them.
            report.golden_violations = check_golden(cache=cache,
                                                    engine="scalar")
            report.golden_violations += [
                "vector engine: " + violation
                for violation in check_golden(cache=cache,
                                              engine="vector")]
            report.golden_checked = True
            TELEMETRY.count("conformance.band_violations",
                            len(report.band_violations))
            TELEMETRY.count("conformance.golden_violations",
                            len(report.golden_violations))
    TELEMETRY.event("conformance.result", ok=report.ok,
                    seeds=seeds, replays=report.replays,
                    cycle_checks=report.cycle_checks,
                    vector_cycle_checks=report.vector_cycle_checks,
                    engine_checks=report.engine_checks,
                    engine_fallbacks=report.engine_fallbacks,
                    divergences=len(report.findings))
    return report
