"""End-to-end, layer-by-layer benchmark of ``repro-branches``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-reference

Each run sets its workload up on a private cache under ``.perfbench/``,
repeats the workload's operation until ``--seconds`` have passed, checks
every operation's output, prints each metric by name and unit and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` alternates untraced and traced operations (see launch.py)
and reports the per-layer metrics; the exact counts of the traced
operations must agree with each other.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import analyze
import probe
import workloads

#: Minimum operations per run: untraced (--trace 0), and each of
#: untraced and traced (--trace 1).
MIN_OPS = 3
MIN_TRACED_OPS = 2

#: The one-time set-up is repeated at least ``PREPARES`` times, and
#: until ``PREPARE_S`` seconds have passed (at most ``MAX_PREPARES``
#: times); ``setup_s`` takes the median.  A 0.2-second set-up needs the
#: extra repeats to be steady.
PREPARES = 3
MAX_PREPARES = 9
PREPARE_S = 3.0

#: No operation starts after this many seconds of measuring, and every
#: process is killed this many seconds after the run started, so a run
#: ends inside its 180-second limit whatever --seconds says.
MEASURE_LIMIT = 100.0
DEADLINE = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}


def percentile(values, fraction):
    """Nearest-rank percentile (the p-th smallest sample)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def provenance(workload, seed, seconds, trace):
    sha = None
    if os.path.exists(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(name for name in dirs if name != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_sha": sha,
            "src_sha256": digest.hexdigest(), "nproc": workloads.nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scale": workloads.SCALE,
            "host": platform.machine()}


def scaled(host, start, end):
    """``end - start`` at the reference host speed (see probe.py)."""
    return (end - start) * probe.REFERENCE_S / host.median(start, end)


def measure(workload, seconds, trace, scratch, host):
    """Set up, run operations until ``seconds`` pass; returns a record.

    The one-time set-up (an import of the package, then the workload's
    cache fill into an empty cache) is repeated (see ``PREPARES``).
    Set-up and operation times are scaled to the reference host speed
    by ``host``.
    """
    # Byte-compiling is the checkout's build step, not set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro"],
                   check=True, stdout=subprocess.DEVNULL)
    prepares, raw_prepares = [], []
    while len(prepares) < PREPARES or (sum(raw_prepares) < PREPARE_S
                                       and len(prepares) < MAX_PREPARES):
        started = time.monotonic()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       check=True, env=workloads.child_env(scratch))
        workload.prepare()
        ended = time.monotonic()
        prepares.append(scaled(host, started, ended))
        raw_prepares.append(ended - started)

    plain, traced, setups = [], [], []
    measuring = time.monotonic()
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        spans = (os.path.join(scratch, "spans-%d.json" % index)
                 if tracing else None)
        begun = time.monotonic()
        state = workload.setup(index, spans)
        ready = time.monotonic()
        setups.append(scaled(host, begun, ready))
        try:
            outcome = workload.run(state)
        except Exception as error:  # a failed operation, not a crash
            outcome = workloads.Outcome(time.monotonic() - ready, 0.0, None,
                                        "", [], (ready, time.monotonic()))
            outcome.attempted = workload.attempted
            outcome.check(False, "%s: %s" % (type(error).__name__, error),
                          range(workload.attempted))
        finally:
            workload.teardown(state)
        outcome.probe_s = host.median(*outcome.window)
        outcome.scaled = scaled(host, *outcome.window)
        (traced if tracing else plain).append(outcome)
        index += 1
        elapsed = time.monotonic() - measuring
        if elapsed >= MEASURE_LIMIT:
            break
        if elapsed >= seconds and (
                len(plain) >= (MIN_TRACED_OPS if trace else MIN_OPS)
                and len(traced) >= (MIN_TRACED_OPS if trace else 0)):
            break
    return {"prepare_s": prepares, "raw_prepare_s": raw_prepares,
            "setup_s": setups, "plain": plain, "traced": traced}


def end_to_end(record):
    plain = record["plain"]
    attempted = sum(outcome.attempted for outcome in plain)
    failed = sum(outcome.failed for outcome in plain)
    return {
        "wall_s": statistics.median(outcome.scaled for outcome in plain),
        "setup_s": statistics.median(record["prepare_s"])
        + statistics.median(record["setup_s"]),
        "peak_rss_mb": statistics.median(outcome.rss_mb
                                         for outcome in plain),
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(workload, record, failures):
    """Median per-layer metrics over the traced operations."""
    plain, traced = record["plain"], record["traced"]
    per_op, grids, missing = [], [], set()
    for outcome in traced:
        if not outcome.spans:
            continue  # a failed operation, already counted
        metrics, grid, gone = analyze.op_metrics(
            outcome.spans, outcome.window, drop=workload.drop)
        per_op.append(metrics)
        grids.append(grid)
        missing.update(gone)
    if not per_op:
        per_op = [{name: 0.0 for name in analyze.PER_LAYER}]
    for name in analyze.EXACT_COUNTS:
        values = {metrics[name] for metrics in per_op}
        if len(values) > 1:
            failures.append("count %s differs between traced runs: %s"
                            % (name, sorted(values)))
    result = {name: statistics.median(metrics[name] for metrics in per_op)
              for name in analyze.PER_LAYER}
    for name in analyze.EXACT_COUNTS:
        result[name] = per_op[0][name]
    untraced = statistics.median(outcome.scaled for outcome in plain)
    result["trace_overhead"] = (
        statistics.median(outcome.scaled for outcome in traced) / untraced)
    result["host.raw_wall_s"] = statistics.median(
        outcome.wall for outcome in plain)
    result["host.probe_ms"] = 1e3 * statistics.median(
        outcome.probe_s for outcome in plain)
    result["vm.minstr_per_s"] = result["vm.instructions"] / 1e6 / untraced
    result["predictors.records_per_s"] = (result["predictors.records"]
                                          / untraced)
    # Simulated, not timed: every cold_all operation computes the same.
    result["experiments.paper_acc_err_pp"] = next(
        (outcome.extra["paper_acc_err_pp"] for outcome in plain + traced
         if "paper_acc_err_pp" in outcome.extra), 0.0)
    cells = [latency for outcome in plain
             for latency in outcome.extra.get("cell_s", ())]
    if cells:
        result["service.cell_p50_s"] = percentile(cells, 0.5)
        result["service.cell_p80_s"] = percentile(cells, 0.8)
    return result, _median_grid(grids), sorted(missing)


def _median_grid(grids):
    if not grids or not grids[0]:
        return []
    rows = []
    for points in zip(*grids):
        rows.append({"point": points[0]["point"],
                     "seconds": statistics.median(
                         point["seconds"] for point in points),
                     "records": points[0]["records"],
                     "engines": points[0]["engines"]})
    return rows


def report(name, value, unit):
    print("%-36s %16.6g %s" % (name, value, unit))


def record_reference():
    """Write the reference outputs the checks compare against."""
    os.makedirs(workloads.REFERENCE, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=scratch_root())
    try:
        for args, name in ((workloads.ColdAll.args,
                            workloads.ColdAll.reference),
                           (("sweeps",) + workloads.SweepWarm.args,
                            workloads.SweepWarm.reference)):
            cache = tempfile.mkdtemp(dir=scratch)
            outcome = workloads.run_command(
                args, cache, time.monotonic() + DEADLINE)
            if outcome.code != 0:
                raise SystemExit("%s exited %s" % (args[0], outcome.code))
            with open(os.path.join(workloads.REFERENCE, name), "w") as out:
                out.write(outcome.output)
            print("wrote perfbench/reference/%s" % name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def scratch_root():
    root = os.path.abspath(".perfbench")
    os.makedirs(root, exist_ok=True)
    return root


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    scratch = tempfile.mkdtemp(prefix="%s-" % args.workload,
                               dir=scratch_root())
    workload = workloads.WORKLOADS[args.workload](
        scratch, args.seed, time.monotonic() + DEADLINE)
    try:
        with probe.HostProbe() as host:
            record = measure(workload, args.seconds, bool(args.trace),
                             scratch, host)
        failures = [message for outcome in record["plain"] + record["traced"]
                    for message in outcome.failures]
        grid, missing = [], []
        if args.trace:
            metrics, grid, missing = per_layer(workload, record, failures)
            units = analyze.PER_LAYER
        else:
            metrics, units = end_to_end(record), END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = record["plain"]
    attempted = sum(outcome.attempted for outcome in plain)
    failed = sum(outcome.failed for outcome in plain)

    print("provenance " + json.dumps(info, sort_keys=True))
    print("operations: %d untraced, %d traced" % (len(plain),
                                                   len(record["traced"])))
    print("one-time set-up raw s / scaled s: %s" % ", ".join(
        "%.3f / %.3f" % pair
        for pair in zip(record["raw_prepare_s"], record["prepare_s"])))
    print("per-operation set-up scaled s (median): %.3f"
          % statistics.median(record["setup_s"]))
    print("untraced raw wall s / host probe ms / scaled wall s:")
    for outcome in plain:
        print("  %.3f / %.3f / %.3f" % (outcome.wall, 1e3 * outcome.probe_s,
                                       outcome.scaled))
    cells = sum(len(outcome.extra.get("cell_s", ())) for outcome in plain)
    if cells:
        print("campaign cell latencies: %d samples" % cells)
    if record["traced"]:
        traced = [outcome.wall for outcome in record["traced"]]
        print("traced raw wall s: %s"
              % " ".join("%.3f" % wall for wall in traced))
        print("self time by layer (share of median traced wall):")
        for name in ["%s.self_s" % layer for layer in analyze.LAYERS] + [
                "python.start_s", "python.exit_s", "trace.launch_s",
                "trace.install_s", "trace.write_s", "unattributed_s"]:
            print("  %-24s %9.3f s %6.1f%%" % (
                name, metrics[name],
                100.0 * metrics[name] / statistics.median(traced)))
    for message in failures[:20]:
        print("CHECK FAILED: %s" % message)
    for name in missing:
        print("trace target missing (metric reads 0): %s" % name)
    if grid:
        print("sweep grid (simulate seconds, records, engine):")
        for point in grid:
            print("  %-14s %9.3f s %10d  %s" % (
                point["point"], point["seconds"], point["records"],
                "/".join(point["engines"])))
    for name, unit in units.items():
        report(name, metrics[name], unit)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
