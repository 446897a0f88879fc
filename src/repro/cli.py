"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    repro-branches table3
    repro-branches all --scale 0.2
    repro-branches stats wc --limit 10
    repro-branches stats grep --json
    repro-branches profile wc --telemetry
    repro-branches cache
    repro-branches lint --benchmarks wc grep
    repro-branches lint --strict --json
    repro-branches lint --file program.asm
    repro-branches staticpred
    repro-branches table3 --profile-source static
    repro-branches top --replay .repro-cache/telemetry.jsonl
    repro-branches metrics --replay .repro-cache/traces
    repro-branches bench-history --window 8 --threshold 0.2
    repro-branches characterize SBTB-paper
    repro-branches characterize --self-test
    python -m repro table5 --no-cache
"""

import argparse
import os
import sys

from repro.experiments import (
    figures,
    headline,
    staticpred,
    storage,
    summary,
    sweeps,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.runner import SuiteRunner

_EXPERIMENTS = {
    "table1": table1.render,
    "table2": table2.render,
    "table3": table3.render,
    "table4": table4.render,
    "table5": table5.render,
    "figures": figures.render,
    "headline": headline.render,
    "storage": storage.render,
    "staticpred": staticpred.render,
    "sweeps": sweeps.render,
    "report": summary.render,
}

_ORDER = ("table1", "table2", "table3", "table4", "table5", "figures",
          "headline", "storage")

#: Subcommands that accept an optional target name positionally (a
#: benchmark, or for 'characterize' a roster predictor).
_TARGETED = ("stats", "profile", "trace", "characterize")

#: Subcommands that never touch the trace cache directory.
_CACHELESS = ("lint", "cache", "faults", "top", "metrics",
              "bench-history", "characterize")

#: Distinct exit codes (0 = success, 1 = the experiment itself
#: reported failures, e.g. lint errors or conformance divergence).
EXIT_BAD_ARGUMENT = 2
EXIT_CACHE_UNWRITABLE = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-branches",
        description="Reproduce Hwu/Conte/Chang (ISCA 1989): software vs "
                    "hardware branch cost reduction.")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["all", "trace",
                                                        "lint", "stats",
                                                        "profile", "cache",
                                                        "conformance",
                                                        "faults", "top",
                                                        "metrics",
                                                        "bench-history",
                                                        "characterize",
                                                        "serve"],
                        help="which table/figure to regenerate; 'report' "
                             "renders everything as markdown; 'trace' "
                             "dumps a benchmark's branch trace; 'stats' "
                             "attributes mispredictions to static branch "
                             "sites per scheme; 'profile' reports "
                             "per-stage wall clock; 'cache' lists trace "
                             "cache artifacts and their manifests; 'lint' "
                             "runs the IR verifier over benchmark programs "
                             "(or an assembled --file) and exits non-zero "
                             "on errors; 'conformance' replays fuzzed "
                             "traces through every predictor and its "
                             "reference oracle, cross-checks the cycle "
                             "simulator, and regresses the tables against "
                             "the paper's values and the committed golden "
                             "file (exits non-zero on any divergence); "
                             "'faults' runs the seeded fault-injection "
                             "recovery matrix (torn writes, bit flips, "
                             "ENOSPC, worker crash/hang, corrupt "
                             "manifests) and exits non-zero if any "
                             "injected fault is silently swallowed; "
                             "'top' monitors a sweep live from its "
                             "event log and trace shards (--replay "
                             "renders a recorded log once); 'metrics' "
                             "prints a Prometheus text-format "
                             "exposition of the registry (--replay "
                             "rebuilds it from a recorded log, --serve "
                             "exposes /metrics over HTTP); "
                             "'bench-history' reports the benchmark "
                             "gates' longitudinal BENCH_history.jsonl "
                             "against a rolling-median baseline and "
                             "exits non-zero on flagged regressions; "
                             "'characterize' recovers each predictor's "
                             "parameters (capacity, associativity, "
                             "counter width, history depth, "
                             "replacement) purely from black-box probe "
                             "traces and exits non-zero if any "
                             "recovered parameter contradicts the "
                             "declared configuration (--self-test runs "
                             "the known-configuration gate); 'serve' "
                             "runs the sharded campaign service over "
                             "HTTP/JSON (submit campaigns, poll "
                             "status, stream shard results, fetch "
                             "tables; see docs/SERVICE.md) until "
                             "interrupted")
    parser.add_argument("target", nargs="?", default=None,
                        help="benchmark name for 'stats', 'profile' "
                             "and 'trace' (default wc); "
                             "roster predictor name for "
                             "'characterize' (default: whole roster)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (default 1.0)")
    parser.add_argument("--runs", type=int, default=None,
                        help="cap profiling runs per benchmark")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the trace cache")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these benchmarks")
    parser.add_argument("--output", default=None,
                        help="write the result to a file instead of stdout")
    parser.add_argument("--limit", type=int, default=25,
                        help="records to show for 'trace' (default 25)")
    parser.add_argument("--profile-source", choices=("measured", "static"),
                        default="measured",
                        help="profile driving trace layout: 'measured' "
                             "profiles each benchmark on its input "
                             "suite (the paper's setup); 'static' "
                             "estimates it from the IR alone — the "
                             "profiler is never invoked and manifests "
                             "record the source")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for trace collection "
                             "(needs the cache enabled)")
    parser.add_argument("--verify", dest="verify", action="store_true",
                        default=True,
                        help="run the IR verifier after every compiler "
                             "pass (the default)")
    parser.add_argument("--no-verify", dest="verify", action="store_false",
                        help="skip IR verification in the compilation "
                             "pipeline")
    parser.add_argument("--file", default=None,
                        help="for 'lint': verify this assembly file "
                             "instead of the benchmark suite; for "
                             "'bench-history': read this history file "
                             "instead of BENCH_history.jsonl at the "
                             "repo root")
    parser.add_argument("--no-warnings", action="store_true",
                        help="for 'lint': report only errors")
    parser.add_argument("--strict", action="store_true",
                        help="for 'lint': exit non-zero on warnings "
                             "too (info findings never fail)")
    parser.add_argument("--json", action="store_true",
                        help="for 'lint', 'stats' and 'cache': emit "
                             "the machine-readable JSON payload")
    parser.add_argument("--seeds", type=int, default=None,
                        help="for 'conformance': fuzz seeds to replay "
                             "differentially (default 50); for "
                             "'faults': seeds per fault kind "
                             "(default 5)")
    parser.add_argument("--no-resume", dest="resume",
                        action="store_false", default=True,
                        help="for 'all' and 'report': ignore (and "
                             "overwrite) the sweep checkpoint instead "
                             "of resuming completed tables from it")
    parser.add_argument("--self-test", action="store_true",
                        help="for 'characterize': recover a grid of "
                             "known small configurations plus the "
                             "paper's SBTB/CBTB exactly, and verify "
                             "that a deliberately mis-declared "
                             "predictor is flagged; exits non-zero on "
                             "any mis-recovery")
    parser.add_argument("--update-golden", action="store_true",
                        help="for 'conformance': re-measure the pinned "
                             "configuration and rewrite the committed "
                             "golden file before checking")
    parser.add_argument("--skip-golden", action="store_true",
                        help="for 'conformance': differential replay "
                             "only, no paper-band/golden-table checks")
    parser.add_argument("--telemetry", dest="telemetry",
                        action="store_true", default=False,
                        help="enable the telemetry registry (spans, "
                             "counters, JSONL event log; default off)")
    parser.add_argument("--no-telemetry", dest="telemetry",
                        action="store_false",
                        help="force telemetry off (the default)")
    parser.add_argument("--telemetry-log", default=None, metavar="PATH",
                        help="JSONL event-log path when telemetry is on "
                             "(default: telemetry.jsonl under the trace "
                             "cache directory)")
    parser.add_argument("--replay", default=None, metavar="LOG",
                        help="for 'top' and 'metrics': read this "
                             "recorded event log (a JSONL file or a "
                             "directory of shards) instead of tailing "
                             "the live cache-dir stream; the render is "
                             "deterministic")
    parser.add_argument("--serve", action="store_true",
                        help="for 'metrics': serve /metrics over a "
                             "stdlib HTTP server instead of printing "
                             "one exposition")
    parser.add_argument("--port", type=int, default=9464,
                        help="for 'metrics --serve': listen port "
                             "(default 9464)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="for 'serve': listen address "
                             "(default 127.0.0.1)")
    parser.add_argument("--queue-capacity", type=int, default=64,
                        help="for 'serve': admission-queue bound; "
                             "campaigns beyond it are rejected with "
                             "a retry-after estimate (default 64)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="for 'serve': per-attempt wall-clock "
                             "limit for one shard worker in seconds "
                             "(default: unlimited)")
    parser.add_argument("--window", type=int, default=None,
                        help="for 'bench-history': rolling-baseline "
                             "window in records (default 8)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="for 'bench-history': fractional rate "
                             "drop below the rolling median that "
                             "flags a regression (default 0.2)")
    return parser


def _dump_trace(runner, names, limit):
    """Human-readable dump of the first records of a branch trace."""
    from repro.vm.tracing import BranchClass

    name = (names or ["wc"])[0]
    run = runner.run(name)
    lines = ["branch trace of %s (%d records, %d instructions)"
             % (name, len(run.trace), run.trace.total_instructions),
             "%8s  %-22s %-9s %8s %6s" % ("site", "class", "direction",
                                          "target", "gap")]
    for index in range(min(limit, len(run.trace))):
        record = run.trace[index]
        lines.append("%8d  %-22s %-9s %8d %6d" % (
            record.site, BranchClass.NAMES[record.branch_class],
            "taken" if record.taken else "not-taken",
            record.target, record.gap))
    if len(run.trace) > limit:
        lines.append("... %d more records" % (len(run.trace) - limit))
    return "\n".join(lines) + "\n"


def _lint_stages(label, program):
    """Diagnose one program at every applicable pipeline stage.

    Yields (stage, :class:`DiagnosticsReport`) plus synthetic
    crash reports: an optimizer or layout crash is reported at its
    stage and linting continues, so one broken pass never hides the
    other stages' findings.  The later stages only run while the
    earlier ones are error-free (diagnosing the optimized form of an
    already-invalid program would double-report every error).
    """
    from repro.analysis.diagnostics import run_diagnostics
    from repro.analysis.staticpred import estimate_profile
    from repro.opt import optimize
    from repro.traceopt.layout import build_fs_program

    report = run_diagnostics(program, stage="compiled", name=label)
    yield "compiled", report, None
    if not report.ok:
        return
    try:
        optimized, _ = optimize(program, verify=False)
    except Exception as error:  # optimizer crash: report, keep linting
        yield "optimized", None, "optimizer failed: %s" % error
        return
    report = run_diagnostics(optimized, stage="optimized", name=label)
    yield "optimized", report, None
    if not report.ok:
        return
    try:
        result = build_fs_program(optimized,
                                  estimate_profile(optimized),
                                  verify=False)
    except Exception as error:  # layout crash: same containment
        yield "layout", None, "layout failed: %s" % error
        return
    yield "layout", run_diagnostics(result.program, stage="layout",
                                    name=label, layout=result,
                                    original=optimized), None


def _lint(names, file_path, show_warnings=True, strict=False,
          as_json=False):
    """Diagnose benchmark programs (or one assembly file).

    Each program runs through the diagnostics engine at three stages:
    as compiled, after the optimizer pipeline, and after static-profile
    trace layout (each pass's own verification off, so a broken pass
    shows up here as findings rather than an exception).  Returns
    (report text, exit code).  Exit codes: 0 clean, 1 diagnosed
    errors (with ``strict`` also warnings), 2 bad input (missing
    file, assembly syntax error, unknown benchmark) or an analysis
    crash.
    """
    import json as json_module

    from repro.isa.assembler import AssemblyError

    targets = []
    if file_path:
        from pathlib import Path

        from repro.isa.assembler import assemble

        path = Path(file_path)
        try:
            targets.append((path.name, assemble(path.read_text(),
                                                name=path.stem)))
        except (OSError, AssemblyError) as error:
            return "lint: cannot load %s: %s\n" % (file_path, error), 2
    else:
        from repro.benchmarksuite import ALL_BENCHMARK_NAMES, get_benchmark
        from repro.lang import compile_source

        for name in names or ALL_BENCHMARK_NAMES:
            try:
                spec = get_benchmark(name)
            except KeyError as error:
                return "lint: %s\n" % error.args[0], 2
            targets.append((name, compile_source(spec.source, name=name)))

    lines = []
    reports = []
    error_count = 0
    strict_count = 0
    for label, program in targets:
        try:
            stage_results = list(_lint_stages(label, program))
        except Exception as error:  # analysis crash on malformed IR
            return ("lint: internal error analysing %s: %s: %s\n"
                    % (label, type(error).__name__, error)), 2
        for stage, report, crash in stage_results:
            if crash is not None:
                error_count += 1
                strict_count += 1
                lines.append("%s: %s" % (label, crash))
                reports.append({"name": label, "stage": stage,
                                "crash": crash})
                continue
            findings = (report.findings if show_warnings
                        else report.errors)
            error_count += len(report.errors)
            strict_count += sum(finding.fails_strict
                                for finding in report.findings)
            for finding in findings:
                lines.append("%s (%s): %s" % (label, stage, finding))
            reports.append(report.to_dict())

    failures = strict_count if strict else error_count
    if as_json:
        payload = {
            "programs": reports,
            "strict": strict,
            "failures": failures,
            "clean": failures == 0,
        }
        text = json_module.dumps(payload, indent=2, sort_keys=True) + "\n"
        return text, 1 if failures else 0
    lines.append("linted %d program%s: %s"
                 % (len(targets), "" if len(targets) == 1 else "s",
                    ("%d error%s" % (error_count,
                                     "" if error_count == 1 else "s"))
                    if error_count else
                    ("clean, %d strict failure%s"
                     % (strict_count, "" if strict_count == 1 else "s")
                     if strict and strict_count else "clean")))
    return "\n".join(lines) + "\n", 1 if failures else 0


def _top(args):
    """'top': monitor a sweep from its event log and trace shards.

    With ``--replay`` the recorded log (file or shard directory) is
    folded once and the snapshot rendered — byte-for-byte
    deterministic, since every derived figure comes from recorded
    timestamps.  Without it, the live cache-dir stream is tailed and
    redrawn until the supervisor reports done (or Ctrl-C).
    """
    import time
    from pathlib import Path

    from repro.telemetry.live import EventTail, SweepMonitor

    monitor = SweepMonitor()
    if args.replay:
        source = Path(args.replay)
        if not source.exists():
            print("repro-branches: error: no such event log: %s"
                  % source, file=sys.stderr)
            return "", EXIT_BAD_ARGUMENT
        tail = (EventTail(directory=source) if source.is_dir()
                else EventTail(paths=[source],
                               directory=source.parent / "traces"))
        monitor.observe_all(tail.poll())
        return monitor.render(), 0

    from repro.experiments.runner import default_cache_dir

    cache_dir = default_cache_dir()
    tail = EventTail(paths=[cache_dir / "telemetry.jsonl"],
                     directory=cache_dir / "traces")
    last = None
    try:
        while True:
            monitor.observe_all(tail.poll())
            frame = monitor.render()
            if frame != last:
                sys.stdout.write("\x1b[2J\x1b[H" + frame)
                sys.stdout.flush()
                last = frame
            if monitor.done and not monitor.in_flight:
                break
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    return "", 0


def _metrics(args):
    """'metrics': Prometheus text exposition of telemetry aggregates.

    ``--replay`` rebuilds a registry from a recorded event log (or a
    directory of shards): span events feed the duration histograms,
    the ``telemetry.snapshot`` counter dumps restore counters summed
    across processes.  ``--serve`` exposes /metrics over a stdlib
    HTTP server until interrupted.
    """
    from pathlib import Path

    from repro.telemetry.core import TELEMETRY, Telemetry
    from repro.telemetry.exposition import (
        prometheus_text,
        replay_into,
        serve_metrics,
    )
    from repro.telemetry.sinks import read_jsonl_tolerant

    registry = TELEMETRY
    if args.replay:
        source = Path(args.replay)
        if not source.exists():
            print("repro-branches: error: no such event log: %s"
                  % source, file=sys.stderr)
            return "", EXIT_BAD_ARGUMENT
        paths = (sorted(source.glob("*.jsonl")) if source.is_dir()
                 else [source])
        registry = Telemetry(enabled=True)
        for path in paths:
            events, _torn = read_jsonl_tolerant(path)
            replay_into(registry, events)
    if args.serve:
        server = serve_metrics(registry, port=args.port)
        print("serving http://%s:%d/metrics" % server.server_address,
              file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return "", 0
    return prometheus_text(registry.snapshot()), 0


def _bench_history(args):
    """'bench-history': the longitudinal perf report and its verdict.

    Exit code 1 when the latest record regressed against its
    rolling-median baseline — scriptable as a gate.
    """
    from pathlib import Path

    import repro
    from repro.telemetry import history as bench_history

    path = (Path(args.file) if args.file
            else bench_history.history_path(
                Path(repro.__file__).resolve().parents[2]))
    records = bench_history.load_history(path)
    text, regressions = bench_history.render_history(
        records,
        threshold=(bench_history.DEFAULT_THRESHOLD
                   if args.threshold is None else args.threshold),
        window=(bench_history.DEFAULT_WINDOW
                if args.window is None else args.window),
        limit=args.limit)
    return text, 1 if regressions else 0


def _serve(args):
    """'serve': run the sharded campaign service until interrupted.

    Telemetry is always live for the service — /stats and /metrics
    are its whole observability story — either through the JSONL sink
    (--telemetry) or an in-memory aggregator by default.
    """
    from repro.experiments.runner import default_cache_dir
    from repro.service import CampaignService, ServiceServer
    from repro.telemetry.core import TELEMETRY

    if args.telemetry:
        _enable_telemetry(args)
    elif not TELEMETRY.enabled:
        from repro.telemetry.sinks import InMemoryAggregator

        TELEMETRY.enable(InMemoryAggregator())
    cache_dir = default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    service = CampaignService(
        cache_dir, workers=args.workers,
        queue_capacity=args.queue_capacity,
        shard_timeout=args.shard_timeout)
    server = ServiceServer(service, host=args.host, port=args.port)
    print("serving on %s" % server.address, flush=True)
    print("campaign journal: %s" % service.journal.directory,
          file=sys.stderr)
    server.serve_forever()
    return "", 0


def _usage_error(message):
    """One-line diagnostic on stderr; returns the bad-argument code."""
    print("repro-branches: error: %s" % message, file=sys.stderr)
    return EXIT_BAD_ARGUMENT


def _validate_args(args):
    """Validate numeric inputs and cache-dir writability.

    Returns an exit code (non-zero stops ``main``) — a clear one-line
    error beats a traceback from five layers down.
    """
    if args.scale <= 0:
        return _usage_error("--scale must be > 0 (got %g)" % args.scale)
    if args.runs is not None and args.runs < 1:
        return _usage_error("--runs must be >= 1 (got %d)" % args.runs)
    if args.workers < 1:
        return _usage_error("--workers must be >= 1 (got %d)"
                            % args.workers)
    if args.seeds is not None and args.seeds < 1:
        return _usage_error("--seeds must be >= 1 (got %d)" % args.seeds)
    if args.limit < 1:
        return _usage_error("--limit must be >= 1 (got %d)" % args.limit)
    min_port = 0 if args.experiment == "serve" else 1
    if args.port < min_port or args.port > 65535:
        return _usage_error("--port must be in %d..65535 (got %d)"
                            % (min_port, args.port))
    if args.queue_capacity < 1:
        return _usage_error("--queue-capacity must be >= 1 (got %d)"
                            % args.queue_capacity)
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        return _usage_error("--shard-timeout must be > 0 (got %g)"
                            % args.shard_timeout)
    if args.window is not None and args.window < 1:
        return _usage_error("--window must be >= 1 (got %d)"
                            % args.window)
    if args.threshold is not None and not 0 < args.threshold < 1:
        return _usage_error("--threshold must be in (0, 1) (got %g)"
                            % args.threshold)
    if not args.no_cache and args.experiment not in _CACHELESS:
        from repro.experiments.runner import default_cache_dir

        directory = default_cache_dir()
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            print("repro-branches: error: cache directory %s cannot "
                  "be created: %s (use --no-cache or set "
                  "REPRO_CACHE_DIR)" % (directory, error),
                  file=sys.stderr)
            return EXIT_CACHE_UNWRITABLE
        if not os.access(directory, os.W_OK):
            print("repro-branches: error: cache directory %s is not "
                  "writable (use --no-cache or set REPRO_CACHE_DIR)"
                  % directory, file=sys.stderr)
            return EXIT_CACHE_UNWRITABLE
    return 0


def _sweep_checkpoint(runner, names, sections, label, resume):
    """The checkpoint for a multi-table sweep, or None when disabled."""
    if not resume or runner.cache_dir is None:
        return None
    from repro.experiments.runner import CACHE_FORMAT_VERSION
    from repro.resilience.checkpoint import (
        SweepCheckpoint,
        sweep_fingerprint,
    )

    fingerprint = sweep_fingerprint(sections, runner.scale, runner.runs,
                                    names, CACHE_FORMAT_VERSION)
    path = (runner.cache_dir / "checkpoints"
            / ("%s-%s.json" % (label, fingerprint)))
    return SweepCheckpoint(path, fingerprint)


def _render_all(runner, names, resume):
    """Render every table, resuming from the sweep checkpoint.

    Each completed section's text is persisted (atomically) as soon as
    it is rendered, so a killed campaign restarts at the first
    incomplete table instead of from scratch.
    """
    checkpoint = _sweep_checkpoint(runner, names, _ORDER, "all", resume)
    done = checkpoint.load() if checkpoint else {}
    if done:
        print("resuming sweep: %d/%d tables from checkpoint"
              % (len(done), len(_ORDER)), file=sys.stderr)
    parts = []
    for key in _ORDER:
        if key in done:
            text = done[key]
        else:
            text = _EXPERIMENTS[key](runner, names)
            if checkpoint is not None:
                checkpoint.record(key, text)
        parts.append(text)
    if checkpoint is not None:
        checkpoint.clear()
    return "\n".join(parts)


def _write_output(text, output):
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print("wrote %s" % output)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _enable_telemetry(args):
    """Turn the registry on with a JSONL sink; returns the log path."""
    from pathlib import Path

    from repro.experiments.runner import default_cache_dir
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.sinks import JsonlSink

    if args.telemetry_log:
        event_log = Path(args.telemetry_log)
    else:
        event_log = default_cache_dir() / "telemetry.jsonl"
    event_log.parent.mkdir(parents=True, exist_ok=True)
    TELEMETRY.enable(JsonlSink(event_log))
    # Every telemetry run is a trace: spans get ids, supervised
    # worker shards parent under this process's spans, and the merger
    # can stitch the whole run back together.
    from repro.telemetry.tracing import start_trace

    start_trace(TELEMETRY)
    return event_log


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.target and args.experiment not in _TARGETED:
        parser.error("benchmark target only applies to %s"
                     % "/".join(_TARGETED))
    invalid = _validate_args(args)
    if invalid:
        return invalid
    if args.experiment == "lint":
        text, exit_code = _lint(args.benchmarks, args.file,
                                show_warnings=not args.no_warnings,
                                strict=args.strict, as_json=args.json)
        _write_output(text, args.output)
        return exit_code
    if args.experiment == "cache":
        from repro.experiments.stats import render_cache

        _write_output(render_cache(as_json=args.json), args.output)
        return 0
    if args.experiment in ("top", "metrics", "bench-history", "serve"):
        handler = {"top": _top, "metrics": _metrics,
                   "bench-history": _bench_history,
                   "serve": _serve}[args.experiment]
        text, exit_code = handler(args)
        if text:
            _write_output(text, args.output)
        return exit_code

    event_log = _enable_telemetry(args) if args.telemetry else None
    exit_code = 0
    try:
        if args.experiment == "conformance":
            from repro.conformance import run_conformance, write_golden

            if args.update_golden:
                golden_path = write_golden(cache=not args.no_cache)
                print("wrote %s" % golden_path, file=sys.stderr)
            report = run_conformance(
                seeds=50 if args.seeds is None else args.seeds,
                golden=not args.skip_golden,
                cache=not args.no_cache)
            text = report.render()
            exit_code = 0 if report.ok else 1
            _write_output(text, args.output)
            return exit_code
        if args.experiment == "characterize":
            from repro.characterize import run_roster, run_self_test

            if args.self_test:
                text, exit_code = run_self_test(as_json=args.json)
            else:
                text, exit_code = run_roster(
                    names=[args.target] if args.target else None,
                    as_json=args.json)
            _write_output(text, args.output)
            return exit_code
        if args.experiment == "faults":
            import json as json_module

            from repro.resilience.harness import run_fault_matrix

            # Exit-code contract: 0 = every injected fault was
            # recovered, 1 = a recovery failed (including the harness
            # itself dying unexpectedly), 2 = invalid --seeds
            # (rejected by _validate_args before we get here).
            try:
                report = run_fault_matrix(
                    seeds=5 if args.seeds is None else args.seeds)
            except Exception as error:
                print("repro-branches: faults: unexpected recovery "
                      "failure: %s: %s"
                      % (type(error).__name__, error), file=sys.stderr)
                return 1
            text = (json_module.dumps(report.to_dict(), indent=2,
                                      sort_keys=True) + "\n"
                    if args.json else report.render())
            exit_code = 0 if report.ok else 1
            _write_output(text, args.output)
            return exit_code
        runner = SuiteRunner(scale=args.scale, runs=args.runs,
                             cache_dir=False if args.no_cache else None,
                             verify=args.verify, event_log=event_log,
                             profile_source=args.profile_source)
        names = ([args.target] if args.target else None) or args.benchmarks
        if args.workers > 1:
            from repro.benchmarksuite import ALL_BENCHMARK_NAMES
            runner.run_all(names or ALL_BENCHMARK_NAMES,
                           workers=args.workers)
            report = runner.last_warm_report
            if report is not None and not report.ok:
                print("warm workers: %s" % report.render(),
                      file=sys.stderr)
        if args.experiment == "all":
            text = _render_all(runner, names, args.resume)
        elif args.experiment == "report":
            checkpoint = _sweep_checkpoint(
                runner, names, [title for title, _ in summary.SECTIONS],
                "report", args.resume)
            text = summary.generate(runner, names,
                                    checkpoint=checkpoint)
        elif args.experiment == "trace":
            text = _dump_trace(runner, names, args.limit)
        elif args.experiment == "stats":
            from repro.experiments.stats import render_stats
            text = render_stats(runner, names, limit=args.limit,
                                as_json=args.json)
        elif args.experiment == "profile":
            from repro.experiments.stats import render_profile
            text = render_profile(runner, names)
        else:
            text = _EXPERIMENTS[args.experiment](runner, names)
    finally:
        if event_log is not None:
            from repro.telemetry.core import TELEMETRY

            # Dump the final counters so replay/`top` can rebuild them
            # from the log alone (workers do the same on exit).
            TELEMETRY.event("telemetry.snapshot",
                            counters=TELEMETRY.snapshot()["counters"])
            if TELEMETRY.sink is not None:
                TELEMETRY.sink.close()
            TELEMETRY.disable().reset()
            print("telemetry event log: %s" % event_log, file=sys.stderr)
    _write_output(text, args.output)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
