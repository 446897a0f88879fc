"""Run one ``repro-branches`` command, optionally traced.

Usage::

    python perfbench/launch.py [--spans PATH] [--first-seed N] -- ARGS...

Without ``--spans`` this is ``python -m repro ARGS...`` with Ctrl-C
(SIGINT) enabled even when started in the background.  With it, the
import of ``repro.cli`` and the call of ``repro.cli.main`` are spans,
each layer's public functions (see ``TARGETS``) are wrapped where their
callers look them up, and the spans are written to PATH when the
command ends.  ``--first-seed`` starts the ``conformance`` fuzz seed
range at N (the CLI always starts at 0).
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402  (imports below are timed as trace.launch)
import functools  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install, wrap  # noqa: E402


def _plain(name):
    return lambda tracer, fn: wrap(tracer, name, fn)


def _binder(fn):
    """(args, kwargs) -> every parameter of ``fn`` by name."""
    import inspect

    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _simulate(tracer, fn):
    bind = _binder(fn)

    def before(args, kwargs):
        call = bind(args, kwargs)
        try:
            engine = importlib.import_module(
                "repro.kernels.engine").resolve_engine(
                    call.get("engine"), call["predictor"], call["trace"],
                    call.get("flush_interval"))
        except (ImportError, AttributeError):
            engine = "unknown"
        return ("predictors.simulate." + engine,
                {"records": len(call["trace"]), "engine": engine})

    return wrap(tracer, "predictors.simulate", fn, before=before)


def _machine_run(tracer, fn):
    def after(result, attrs):
        attrs["instructions"] = result.instructions

    return wrap(tracer, "vm.run", fn, after=after)


def _run_program(tracer, fn):
    bind = _binder(fn)

    def before(args, kwargs):
        traced = bool(bind(args, kwargs).get("trace"))
        return ("vm.trace_pass" if traced else "vm.run_program"), {}

    return wrap(tracer, "vm.run_program", fn, before=before)


_PREFIX = {"SimpleBTB": "S", "CounterBTB": "C"}


def _sweep_point(tracer, fn):
    """One grid point of ``repro-branches sweeps``, labelled by config."""

    def before(args, kwargs):
        predictor = args[2]()
        params = predictor.declared_parameters()
        kind = type(predictor).__name__
        label = "%s%s" % (_PREFIX.get(kind, kind), params.get("entries"))
        if params.get("associativity") != params.get("entries"):
            label += "x%s" % params.get("associativity")
        if "counter_bits" in params and (
                params["counter_bits"], params["threshold"]) != (2, 2):
            label += "-%db/T%d" % (params["counter_bits"],
                                   params["threshold"])
        return "experiments.sweep_point", {"point": label}

    return wrap(tracer, "experiments.sweep_point", fn, before=before)


def _shard_spawn(tracer, fn):
    starts = tracer.shard_starts = {}

    @functools.wraps(fn)
    def spawn(self, *args, **kwargs):
        start = time.monotonic()
        fn(self, *args, **kwargs)
        starts[id(self)] = start

    return spawn


def _shard_reap(tracer, fn):
    """spawn -> reap of one shard process as a single root span."""

    @functools.wraps(fn)
    def finish(self):
        outcome = fn(self)
        start = getattr(tracer, "shard_starts", {}).pop(id(self), None)
        if start is not None and tracer.enabled:
            tracer.record("service.shard", start, time.monotonic(),
                          attrs={"status": outcome[0]})
        return outcome

    return finish


def _shard_child(tracer, fn):
    """Inside a forked shard child the whole shard is one span."""

    @functools.wraps(fn)
    def child(*args, **kwargs):
        tracer.enabled = False
        return fn(*args, **kwargs)

    return child


_RENDERERS = ("table1", "table2", "table3", "table4", "table5", "figures",
              "headline", "storage", "staticpred", "sweeps", "summary")

#: "module:qualname" -> wrapper factory.  Span names start with the
#: layer, which is the module name under src/repro/.
TARGETS = {
    "repro.lang.compiler:compile_source": _plain("lang.compile"),
    "repro.benchmarksuite.suite:BenchmarkSpec.input_suite":
        _plain("benchmarksuite.input_suite"),
    "repro.profiling.profiler:profile_program":
        _plain("profiling.profile_program"),
    "repro.profiling.profiler:Profile.add_run": _plain("profiling.add_run"),
    "repro.vm.machine:Machine.run": _machine_run,
    "repro.vm.machine:run_program": _run_program,
    "repro.vm.tracing:BranchTrace.extend": _plain("vm.extend"),
    "repro.vm.tracing:BranchTrace.stats": _plain("vm.trace_stats"),
    "repro.vm.tracing:BranchTrace.from_arrays": _plain("vm.from_arrays"),
    "repro.traceopt.layout:build_fs_program":
        _plain("traceopt.build_fs_program"),
    "repro.traceopt.forward_slots:fill_forward_slots":
        _plain("traceopt.fill_forward_slots"),
    "repro.resilience.store:atomic_write_npz": _plain("resilience.write"),
    "repro.resilience.store:atomic_write_text": _plain("resilience.write"),
    "repro.resilience.store:verify_checksum":
        _plain("resilience.verify_checksum"),
    "repro.resilience.store:StemLock.acquire":
        _plain("resilience.lock_wait"),
    "repro.telemetry.manifest:RunManifest.write":
        _plain("telemetry.manifest"),
    "repro.telemetry.manifest:RunManifest.load":
        _plain("telemetry.manifest"),
    "repro.kernels.encode:EncodedTrace.of": _plain("kernels.encode"),
    "repro.kernels:simulate_vector": _plain("kernels.simulate_vector"),
    "repro.kernels.evict:sbtb_evict": _plain("kernels.evict"),
    "repro.kernels.evict:cbtb_evict": _plain("kernels.evict"),
    "repro.kernels.evict:store_evict": _plain("kernels.evict"),
    "repro.kernels.cycle:cycle_kernel": _plain("kernels.cycle"),
    "repro.predictors.base:simulate": _simulate,
    "repro.pipeline.cycle_sim:CycleSimulator.run":
        _plain("pipeline.cycle_sim"),
    "repro.conformance.harness:_run_probe_battery":
        _plain("conformance.probes"),
    "repro.conformance.fuzz:TraceFuzzer.trace": _plain("conformance.fuzz"),
    "repro.conformance.differential:replay_divergence":
        _plain("conformance.oracles"),
    "repro.conformance.differential:cycle_divergence":
        _plain("conformance.oracles"),
    "repro.conformance.golden:check_golden": _plain("conformance.golden"),
    "repro.conformance.golden:check_paper_bands":
        _plain("conformance.golden"),
    "repro.experiments.runner:SuiteRunner.run":
        _plain("experiments.suite_run"),
    "repro.experiments.sweeps:_average_accuracy": _sweep_point,
    "repro.service.dispatcher:CampaignService.submit":
        _plain("service.submit"),
    "repro.service.dispatcher:CampaignService.step": _plain("service.step"),
    "repro.service.dispatcher:CampaignService.tables":
        _plain("service.tables"),
    "repro.service.journal:CampaignJournal.write_campaign":
        _plain("service.journal"),
    "repro.service.journal:CampaignJournal.record_execution":
        _plain("service.journal"),
    "repro.service.journal:CampaignJournal.load_campaigns":
        _plain("service.journal"),
    "repro.service.dispatcher:_ShardWorker.__init__": _shard_spawn,
    "repro.service.dispatcher:_ShardWorker.finish": _shard_reap,
    "repro.service.dispatcher:_shard_child": _shard_child,
}
TARGETS.update({"repro.experiments.%s:render" % name:
                _plain("experiments.render") for name in _RENDERERS})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("--first-seed", type=int, default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    # A process started in the background inherits SIGINT ignored;
    # restore Ctrl-C, which is how the benchmark stops ``serve``.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = None
    if args.spans:
        tracer = Tracer("pid-%d" % os.getpid())
        tracer.record("trace.launch", STARTED, time.monotonic())
        cli = tracer.span("cli.import", importlib.import_module,
                          "repro.cli")
        tracer.span("trace.install", install, tracer, TARGETS)
    else:
        cli = importlib.import_module("repro.cli")
    if args.first_seed is not None:
        conformance = importlib.import_module("repro.conformance")
        conformance.run_conformance = functools.partial(
            conformance.run_conformance, first_seed=args.first_seed)
    try:
        if tracer is None:
            return cli.main(command)
        return tracer.span("cli.main", cli.main, command)
    finally:
        if tracer is not None:
            tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
