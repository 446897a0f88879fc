"""Benchmark execution and caching for the experiment harness.

For each benchmark the runner performs the paper's methodology:

1. compile the Minic source (the "executable intermediate form"),
2. profile it over the input suite (block counts and branch statistics
   derived from the branch trace of each run),
3. recompile with trace selection + layout, setting likely bits,
4. run the laid-out program over the same input suite, collecting the
   evaluation branch trace (the paper profiles and measures on the
   same inputs, which it notes explicitly),
5. simulate the predictors over the trace and size the forward-slot
   expansions.

Steps 2 and 4 dominate the cost, so their outputs (profile JSON and
trace arrays) are cached on disk keyed by benchmark, scale, run count,
and a format version.  Everything else is recomputed deterministically
from those artifacts.

The cache is crash-safe (see :mod:`repro.resilience` and
docs/RESILIENCE.md): every artifact is written atomically with its
sha256 recorded in the run manifest and verified on load; artifacts
that fail checksum or parse are quarantined to ``*.corrupt`` and
recomputed once; an inter-process lock per cache stem keeps concurrent
warm workers from tearing (or double-computing) the same entry; and
the parallel warm path is supervised — per-benchmark timeouts, bounded
retries with jittered backoff, and a typed
:class:`~repro.resilience.supervisor.RunReport` instead of one worker
failure killing the campaign.
"""

import contextlib
import functools
import hashlib
import json
import os
import re
import time
import zipfile
from pathlib import Path

import numpy as np

from repro.benchmarksuite import get_benchmark
from repro.kernels.engine import ENGINES
from repro.lang import compile_source
from repro.profiling import Profile, profile_program
from repro.resilience.errors import (
    CacheCorruptError,
    LockTimeout,
    ManifestError,
)
from repro.resilience.store import (
    StemLock,
    atomic_write_npz,
    atomic_write_text,
    quarantine,
    verify_checksum,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.manifest import (
    RunManifest,
    git_sha,
    manifest_path_for,
)
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.predictors import (
    CounterBTB,
    ForwardSemanticPredictor,
    SimpleBTB,
    simulate,
)
from repro.vm import BranchTrace, run_program, translated

# Version 3: manifests record per-artifact sha256 checksums (manifest
# schema 2) that cache loads verify; entries are written atomically
# under a per-stem lock.  Version 2 entries lack checksums, so the
# bump regenerates them (emitting a cache.invalidated event for each
# one found).
CACHE_FORMAT_VERSION = 3

#: Where the profile driving trace layout comes from: ``measured``
#: profiles the program on its input suite (the paper's setup);
#: ``static`` estimates the profile from the IR alone
#: (:func:`repro.analysis.staticpred.estimate_profile`) and never
#: invokes the profiler.
PROFILE_SOURCES = ("measured", "static")

_VERSION_IN_STEM = re.compile(r"-v(\d+)-")

_UNSET = object()


@contextlib.contextmanager
def _stage(stages, name, benchmark):
    """Time a pipeline stage into ``stages`` and span it when enabled.

    The wall clock always runs (the run manifest wants per-stage
    seconds whether or not telemetry is on); the span — and thus the
    event stream — engages only when telemetry is enabled.
    """
    with TELEMETRY.span("runner." + name, benchmark=benchmark):
        start = time.perf_counter()
        try:
            yield
        finally:
            stages[name] = stages.get(name, 0.0) + (
                time.perf_counter() - start)

SLOT_COUNTS = (1, 2, 4, 8)  # the k + l values of Table 5

SCHEMES = ("SBTB", "CBTB", "FS")


class BenchmarkRun:
    """All measured artifacts for one benchmark at one scale."""

    def __init__(self, name, spec, program, layout, profile, trace,
                 scale, runs, manifest=None, engine="auto"):
        self.name = name
        self.spec = spec
        self.program = program          # base compiled program
        self.layout = layout            # LayoutResult (FS program inside)
        self.profile = profile
        self.trace = trace              # merged evaluation trace
        self.scale = scale
        self.runs = runs
        self.manifest = manifest        # RunManifest (None when uncached)
        self.engine = engine            # simulation engine for predictions
        self._stats = None
        self._predictions = None
        self._expansions = None

    @property
    def fs_program(self):
        return self.layout.program

    @property
    def stats(self):
        """Trace statistics (Tables 1 and 2)."""
        if self._stats is None:
            self._stats = self.trace.stats()
        return self._stats

    @property
    def source_lines(self):
        return self.spec.source_lines()

    def predictions(self, entries=256, associativity=None,
                    counter_bits=2, threshold=2):
        """PredictionStats per scheme over the evaluation trace.

        The default parameters are the paper's configuration; the
        result for that configuration is memoised.
        """
        default = (entries == 256 and associativity is None
                   and counter_bits == 2 and threshold == 2)
        if default and self._predictions is not None:
            return self._predictions
        with TELEMETRY.span("runner.predict", benchmark=self.name,
                            entries=entries):
            results = {
                "SBTB": simulate(SimpleBTB(entries, associativity),
                                 self.trace, engine=self.engine),
                "CBTB": simulate(
                    CounterBTB(entries, associativity, counter_bits,
                               threshold),
                    self.trace, engine=self.engine),
                "FS": simulate(
                    ForwardSemanticPredictor(program=self.fs_program),
                    self.trace, engine=self.engine),
            }
        if default:
            self._predictions = results
        return results

    def expansions(self):
        """Table 5's code-size reports, one per slot count."""
        if self._expansions is None:
            with TELEMETRY.span("runner.expansions", benchmark=self.name):
                self._expansions = {
                    n_slots: fill_forward_slots(self.fs_program, n_slots)[1]
                    for n_slots in SLOT_COUNTS
                }
        return self._expansions


def default_cache_dir():
    """The trace cache location (REPRO_CACHE_DIR overrides)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def content_stem(name, scale=1.0, runs=None, profile_source="measured",
                 source=None):
    """The content-addressed cache stem of one benchmark's artifacts.

    Everything that can change the cached trace is baked in: the
    benchmark source hash, scale, effective run count, profile source,
    and the cache format version.  The campaign service keys its
    in-flight deduplication on this stem (plus the predictor config),
    so two requests share one computation exactly when their inputs
    are bit-identical — and a source edit or format bump changes the
    stem, so nothing stale is ever deduplicated against.

    ``source`` overrides the registry lookup (the runner passes the
    program text it is actually about to trace); without it the
    benchmark's registered source is hashed and ``runs`` is clamped to
    the spec's run count.
    """
    if source is None:
        from repro.benchmarksuite import get_benchmark

        spec = get_benchmark(name)
        n_runs = spec.runs if runs is None else min(runs, spec.runs)
        source = spec.source
    else:
        n_runs = 1 if runs is None else runs
    digest = hashlib.sha1(source.encode()).hexdigest()[:10]
    marker = "" if profile_source == "measured" else "+static"
    stem = "%s%s-s%s-r%d-v%d-%s" % (name, marker, repr(scale), n_runs,
                                    CACHE_FORMAT_VERSION, digest)
    return stem.replace(".", "_")


def _parses_as_json_object(path):
    """True when ``path`` holds a JSON object (however unfamiliar).

    Distinguishes a manifest from a *newer schema* — valid JSON whose
    structure this version cannot interpret, which is staleness — from
    a torn or bit-rotted file, which is corruption.
    """
    try:
        return isinstance(json.loads(Path(path).read_text()), dict)
    except (OSError, ValueError):
        return False


def list_cache_entries(cache_dir=None):
    """Inventory of the trace cache for ``repro-branches cache``.

    Groups the ``.npz`` trace, ``.json`` profile, and
    ``.manifest.json`` of each cache stem; returns a list of dicts
    (sorted by stem) with sizes, the current-version flag, a
    ``status`` field, and the parsed manifest when one parses.

    Damage never raises, and damage is distinguished from mere age: a
    torn or non-JSON manifest reports ``status: "corrupt"`` (manifest
    ``None``); a manifest that is valid JSON but from another era — a
    future schema this code cannot parse, a ``format_version`` other
    than the current one, or an unknown recorded engine — reports
    ``status: "stale"`` (the entry is intact, just unusable by this
    version); a missing manifest reports ``status: "no-manifest"`` —
    so the listing works on a damaged cache directory instead of
    crashing on it.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    entries = []
    if not cache_dir.is_dir():
        return entries
    for trace_path in sorted(cache_dir.glob("*.npz")):
        stem = trace_path.stem
        profile_path = trace_path.with_suffix(".json")
        manifest_path = manifest_path_for(trace_path)
        size = 0
        for path in (trace_path, profile_path, manifest_path):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        manifest = None
        status = "ok"
        if manifest_path.exists():
            try:
                manifest = RunManifest.load(manifest_path)
            except ManifestError:
                status = ("stale" if _parses_as_json_object(manifest_path)
                          else "corrupt")
            else:
                if (manifest.format_version != CACHE_FORMAT_VERSION
                        or manifest.config.get("engine", "auto")
                        not in ENGINES):
                    status = "stale"
        else:
            status = "no-manifest"
        match = _VERSION_IN_STEM.search(trace_path.name)
        version = int(match.group(1)) if match else None
        entries.append({
            "stem": stem,
            "path": str(trace_path),
            "size_bytes": size,
            "format_version": version,
            "current": version == CACHE_FORMAT_VERSION,
            "status": status,
            "manifest": manifest,
        })
    return entries


class SuiteRunner:
    """Runs benchmarks and caches their traces and profiles.

    Args:
        scale: input size multiplier (1.0 = paper-scale).
        runs: cap on profiling runs per benchmark (None = the spec's
            full suite).
        cache_dir: trace cache directory; None = default; False
            disables caching entirely.
        max_instructions: per-run execution budget.
        verify: run the IR verifier on every laid-out program (the
            default; ``--no-verify`` on the CLI turns it off).
        event_log: path of the telemetry JSONL event log this run
            writes to (recorded in run manifests); None when telemetry
            is off or in-memory.
        warm_timeout: per-benchmark wall-clock limit for supervised
            warm workers (a hung worker is killed and retried).
        warm_retries: extra attempts a warm worker gets after dying.
        lock_timeout: how long to wait on another process's stem lock
            before degrading to an uncached in-process compute.
        engine: simulation engine (``auto``/``scalar``/``vector``) the
            runs' predictions use; recorded in run manifests so cached
            tables are traceable to the engine that produced them.
        profile_source: ``"measured"`` (default) profiles each
            benchmark on its input suite; ``"static"`` estimates the
            profile from the IR alone — the profiler is never invoked,
            cache stems carry a ``+static`` marker, and the source is
            recorded in run manifests.

    After a parallel ``run_all``, :attr:`last_warm_report` holds the
    supervised warm's :class:`~repro.resilience.supervisor.RunReport`
    (succeeded / retried / failed per benchmark).
    """

    def __init__(self, scale=1.0, runs=None, cache_dir=None,
                 max_instructions=500_000_000, verify=True,
                 event_log=None, warm_timeout=600.0, warm_retries=2,
                 lock_timeout=600.0, engine="auto",
                 profile_source="measured"):
        if engine not in ENGINES:
            raise ValueError("unknown engine %r (expected one of %s)"
                             % (engine, ", ".join(ENGINES)))
        if profile_source not in PROFILE_SOURCES:
            raise ValueError(
                "unknown profile source %r (expected one of %s)"
                % (profile_source, ", ".join(PROFILE_SOURCES)))
        self.scale = scale
        self.runs = runs
        self.engine = engine
        self.profile_source = profile_source
        if cache_dir is False:
            self.cache_dir = None
        else:
            self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_instructions = max_instructions
        self.verify = verify
        self.event_log = str(event_log) if event_log else None
        self.warm_timeout = warm_timeout
        self.warm_retries = warm_retries
        self.lock_timeout = lock_timeout
        self.last_warm_report = None
        self._memo = {}
        self._git_sha = _UNSET

    # -- cache plumbing ------------------------------------------------------

    def _cache_paths(self, name, n_runs, source):
        if self.cache_dir is None:
            return None, None
        # The source hash invalidates cached traces whenever the
        # benchmark program (or the compiler output feeding it)
        # changes; the stem derivation is shared with the campaign
        # service's dedup keys (see content_stem).
        stem = content_stem(name, scale=self.scale, runs=n_runs,
                            profile_source=self.profile_source,
                            source=source)
        return (self.cache_dir / (stem + ".npz"),
                self.cache_dir / (stem + ".json"))

    def _stem_marker(self):
        """Cache-stem discriminator for non-default profile sources.

        Static-profile entries carry different traces (the layout they
        trace was driven by estimated counts), so they must never
        collide with measured entries of the same benchmark.
        """
        return "" if self.profile_source == "measured" else "+static"

    def _report_stale_versions(self, name, n_runs, source):
        """Detect cache entries written under another format version.

        The format version is baked into the cache file name, so a
        bump silently turns every old entry into dead weight; this
        surfaces each one as a structured ``cache.invalidated`` event
        (and counter) instead of leaving the staleness invisible.
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        digest = hashlib.sha1(source.encode()).hexdigest()[:10]
        stem = ("%s%s-s%s-r%d-v*-%s"
                % (name, self._stem_marker(), repr(self.scale), n_runs,
                   digest))
        pattern = stem.replace(".", "_") + ".npz"
        stale = []
        for path in sorted(self.cache_dir.glob(pattern)):
            match = _VERSION_IN_STEM.search(path.name)
            if match is None:
                continue
            found = int(match.group(1))
            if found == CACHE_FORMAT_VERSION:
                continue
            stale.append(path)
            TELEMETRY.count("runner.cache.invalidated")
            TELEMETRY.event(
                "cache.invalidated", benchmark=name, path=str(path),
                found_version=found,
                expected_version=CACHE_FORMAT_VERSION)
        return stale

    def _repo_git_sha(self):
        if self._git_sha is _UNSET:
            self._git_sha = git_sha(Path(__file__).resolve().parents[3])
        return self._git_sha

    # -- crash-safe cache load/store ----------------------------------------

    def _load_cache_entry(self, name, trace_path, profile_path):
        """(profile, trace, manifest) from disk, or (None, None, None).

        An entry is a **miss** when none of its three files exist; it
        is **corrupt** — quarantined and reported, then treated as a
        miss — when the files are incomplete, the manifest does not
        parse, a checksum disagrees, or an artifact fails to parse.
        Only the typed taxonomy is caught here; a genuine bug still
        raises.
        """
        manifest_path = manifest_path_for(trace_path)
        paths = (trace_path, profile_path, manifest_path)
        if not any(path.exists() for path in paths):
            return None, None, None
        try:
            for path in paths:
                if not path.exists():
                    raise CacheCorruptError(
                        str(trace_path),
                        "incomplete entry: %s missing" % path.name)
            manifest = RunManifest.load(manifest_path)
            for key, path in (("trace", trace_path),
                              ("profile", profile_path)):
                expected = manifest.checksums.get(key)
                if not expected:
                    raise CacheCorruptError(
                        str(path), "no recorded checksum for %r" % key)
                if not verify_checksum(path, expected):
                    raise CacheCorruptError(
                        str(path),
                        "checksum mismatch (expected %s)" % expected)
            try:
                with np.load(trace_path) as arrays:
                    trace = BranchTrace.from_arrays(arrays)
                profile = Profile.from_dict(
                    json.loads(profile_path.read_text()))
            except (OSError, ValueError, KeyError,
                    zipfile.BadZipFile) as error:
                raise CacheCorruptError(
                    str(trace_path),
                    "artifact parse failed: %s" % error) from error
        except (CacheCorruptError, ManifestError) as error:
            self._quarantine_entry(name, paths, error)
            return None, None, None
        return profile, trace, manifest

    def _quarantine_entry(self, name, paths, error):
        """Move a damaged entry aside so it is recomputed exactly once."""
        TELEMETRY.count("runner.cache.corrupt")
        TELEMETRY.event("cache.corrupt", benchmark=name,
                        path=str(paths[0]),
                        error=type(error).__name__,
                        reason=str(error))
        for path in paths:
            quarantine(path, reason=str(error), benchmark=name)

    def _store_cache_entry(self, name, n_runs, trace_path, profile_path,
                           profile, trace, stages):
        """Atomically persist an entry; returns its manifest.

        All three files are written via the crash-safe store; the
        manifest carries the artifact checksums.  An ``OSError`` (full
        disk, permissions) degrades gracefully: the partial entry is
        removed so nothing torn survives, a ``cache.store_failed``
        event records why, and the caller keeps the in-memory result.
        """
        manifest_path = manifest_path_for(trace_path)
        try:
            with _stage(stages, "cache_store", name):
                checksums = {
                    "trace": atomic_write_npz(trace_path,
                                              trace.to_arrays()),
                    "profile": atomic_write_text(
                        profile_path, json.dumps(profile.to_dict())),
                }
            manifest = self._build_manifest(name, n_runs, trace_path,
                                            profile_path, stages,
                                            checksums=checksums)
            manifest.write(manifest_path)
            return manifest
        except OSError as error:
            for path in (trace_path, profile_path, manifest_path):
                try:
                    path.unlink()
                except OSError:
                    pass
            TELEMETRY.count("runner.cache.store_failed")
            TELEMETRY.event("cache.store_failed", benchmark=name,
                            path=str(trace_path), error=str(error))
            return self._build_manifest(name, n_runs, trace_path,
                                        profile_path, stages)

    # -- execution ------------------------------------------------------------

    def run(self, name):
        """Produce (and memoise) the :class:`BenchmarkRun` for ``name``."""
        if name in self._memo:
            return self._memo[name]

        stages = {}
        spec = get_benchmark(name)
        n_runs = spec.runs if self.runs is None else min(self.runs, spec.runs)
        with _stage(stages, "compile", name):
            program = compile_source(spec.source, name=name)

        self._report_stale_versions(name, n_runs, spec.source)
        trace_path, profile_path = self._cache_paths(name, n_runs,
                                                     spec.source)
        profile = None
        trace = None
        manifest = None
        if trace_path is not None:
            with _stage(stages, "cache_load", name):
                profile, trace, manifest = self._load_cache_entry(
                    name, trace_path, profile_path)

        cache_hit = trace is not None and profile is not None
        TELEMETRY.count("runner.cache.hit" if cache_hit
                        else "runner.cache.miss")
        if cache_hit:
            TELEMETRY.event("cache.hit", benchmark=name,
                            path=str(trace_path))
        elif trace_path is None:
            TELEMETRY.event("cache.miss", benchmark=name, path=None)
            profile, trace = self._execute(spec, program, n_runs, stages)
        else:
            TELEMETRY.event("cache.miss", benchmark=name,
                            path=str(trace_path))
            profile, trace, manifest = self._compute_locked(
                spec, program, n_runs, trace_path, profile_path, stages)

        with _stage(stages, "layout", name):
            layout = build_fs_program(program, profile, verify=self.verify)

        if manifest is None:
            manifest = self._build_manifest(name, n_runs, trace_path,
                                            profile_path, stages)

        run = BenchmarkRun(name, spec, program, layout, profile, trace,
                           self.scale, n_runs, manifest=manifest,
                           engine=self.engine)
        self._memo[name] = run
        return run

    def _compute_locked(self, spec, program, n_runs, trace_path,
                        profile_path, stages):
        """Compute + store one entry under its inter-process stem lock.

        The lock serialises concurrent warmers of the *same* benchmark
        (different stems proceed in parallel): the first holder
        computes and stores; later holders find the finished entry on
        re-check and load it, so the work happens once and the entry
        is written exactly once.  A lock that cannot be acquired
        within ``lock_timeout`` (a wedged peer) degrades to an
        uncached in-process compute instead of blocking the campaign.
        """
        name = spec.name
        lock = StemLock(self.cache_dir, trace_path.stem,
                        timeout=self.lock_timeout)
        try:
            with lock:
                profile, trace, manifest = self._load_cache_entry(
                    name, trace_path, profile_path)
                if trace is not None:
                    TELEMETRY.event("cache.hit", benchmark=name,
                                    path=str(trace_path),
                                    after_lock_wait=True)
                    return profile, trace, manifest
                profile, trace = self._execute(spec, program, n_runs,
                                               stages)
                manifest = self._store_cache_entry(
                    name, n_runs, trace_path, profile_path, profile,
                    trace, stages)
                return profile, trace, manifest
        except LockTimeout:
            profile, trace = self._execute(spec, program, n_runs,
                                           stages)
            return profile, trace, None

    def _build_manifest(self, name, n_runs, trace_path, profile_path,
                        stages, checksums=None):
        """The provenance record written beside the cache artifacts."""
        cache_key = trace_path.stem if trace_path is not None else None
        artifacts = {}
        if trace_path is not None:
            artifacts = {"trace": trace_path.name,
                         "profile": profile_path.name}
        return RunManifest(
            benchmark=name,
            cache_key=cache_key,
            format_version=CACHE_FORMAT_VERSION,
            config={"scale": self.scale, "runs": n_runs,
                    "max_instructions": self.max_instructions,
                    "verify": self.verify, "engine": self.engine,
                    "profile_source": self.profile_source},
            git_sha=self._repo_git_sha(),
            stages=stages,
            event_log=self.event_log,
            artifacts=artifacts,
            checksums=checksums,
        )

    def _execute(self, spec, program, n_runs, stages=None):
        """The two VM passes: profile the base program, trace the laid-out
        program, verifying output equality along the way.

        With ``profile_source="static"`` the first pass never invokes
        the profiler: the profile is estimated from the IR, and the
        baseline outputs come from plain (untraced, unprobed) runs of
        the base program.
        """
        if stages is None:
            stages = {}
        stage = functools.partial(_stage, stages, benchmark=spec.name)
        suite = spec.input_suite(scale=self.scale, runs=n_runs)
        if self.profile_source == "static":
            from repro.analysis.staticpred import estimate_profile

            with stage("staticpred"):
                profile = estimate_profile(program)
            with translated(program, stage("vm_translate")), \
                    stage("baseline"):
                base_outputs = [
                    run_program(program, inputs=streams,
                                max_instructions=self.max_instructions
                                ).output
                    for streams in suite
                ]
        else:
            profile, base_outputs = profile_program(
                program, suite, max_instructions=self.max_instructions,
                stage=stage)
        with stage("layout"):
            layout = build_fs_program(program, profile,
                                      verify=self.verify)

        merged = None
        with translated(layout.program, stage("vm_translate")), \
                stage("trace"):
            for index, streams in enumerate(suite):
                result = run_program(layout.program, inputs=streams,
                                     trace=True,
                                     max_instructions=self.max_instructions)
                if result.output != base_outputs[index]:
                    raise RuntimeError(
                        "layout changed the output of %s run %d"
                        % (spec.name, index))
                if merged is None:
                    merged = result.trace
                else:
                    merged.extend(result.trace)
        return profile, merged

    def run_all(self, names=None, workers=None):
        """Run every benchmark (or ``names``); returns name -> run.

        Args:
            workers: when > 1 and the disk cache is enabled, warm the
                cache with supervised worker processes (per-benchmark
                timeout, bounded retries), then load everything in
                this process.  Serial otherwise.

        Warm failures never abort the sweep: a benchmark whose workers
        kept dying is simply recomputed serially in-process here, and
        :attr:`last_warm_report` says who needed retries or fell
        through.
        """
        from repro.benchmarksuite import BENCHMARK_NAMES
        names = list(names or BENCHMARK_NAMES)
        if workers and workers > 1 and self.cache_dir is not None:
            self._warm_parallel(names, workers)
        return {name: self.run(name) for name in names}

    def _warm_parallel(self, names, workers):
        from repro.resilience.supervisor import run_supervised

        pending = [name for name in names if name not in self._memo]
        if not pending:
            return None
        tasks = [
            (name, (name, self.scale, self.runs, str(self.cache_dir),
                    self.max_instructions, self.profile_source))
            for name in pending
        ]
        # Telemetry-enabled warms are traced across the process
        # boundary: each attempt writes a JSONL shard under
        # <cache>/traces that the merger (and `repro-branches top`)
        # stitches under this runner.warm span.
        trace_dir = None
        if TELEMETRY.enabled:
            from repro.telemetry.tracing import ensure_trace

            ensure_trace(TELEMETRY)   # before the span, so it has an id
            trace_dir = self.cache_dir / "traces"
        with TELEMETRY.span("runner.warm", benchmarks=len(pending),
                            workers=workers):
            report = run_supervised(
                tasks, _warm_cache_entry,
                workers=min(workers, len(pending)),
                timeout=self.warm_timeout, retries=self.warm_retries,
                backoff=0.25, trace_dir=trace_dir)
        self.last_warm_report = report
        if not report.ok:
            TELEMETRY.count("runner.warm.partial_failures")
            TELEMETRY.event("warm.partial_failure",
                            failed=report.failed,
                            degraded=report.degraded)
        return report


def _warm_cache_entry(arguments):
    """Worker: execute one benchmark so its trace cache exists."""
    (name, scale, runs, cache_dir, max_instructions,
     profile_source) = arguments
    runner = SuiteRunner(scale=scale, runs=runs, cache_dir=cache_dir,
                         max_instructions=max_instructions,
                         profile_source=profile_source)
    runner.run(name)
    return name
