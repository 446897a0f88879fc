"""Per-layer metrics from the spans of one traced operation.

A span is ``[id, parent, name, start, end, attrs]``; ids are unique
within one process (one spans file).  The layer of a span is the text
before the first dot of its name, which is the module name under
``src/repro/``.  Every span is clipped to the operation's window, the
host wall-clock interval the benchmark timed.

- A span's *self time* is its duration minus the part of it that its
  child spans cover.
- A *total* for a name sums the spans of that name that have no
  ancestor of the same name, so recursion is not counted twice.
- ``python.start_s`` and ``python.exit_s`` are the parts of the window
  before the first and after the last span of a command launched inside
  it: interpreter start-up and teardown.
- ``unattributed_s`` is the part of the window that none of these
  covers.
"""

import json
import statistics

LAYERS = ("cli", "lang", "benchmarksuite", "profiling", "vm", "traceopt",
          "resilience", "telemetry", "kernels", "predictors", "pipeline",
          "conformance", "experiments", "service")

#: Grid points of ``sweeps`` listed on their own; the rest are summed.
HOT_POINTS = ("S16", "C16", "S64", "C64")

#: metric -> unit, in print order.  Every workload reports all of them.
PER_LAYER = {
    "cli.import_s": "s",
    "lang.compile_s": "s",
    "lang.compile.calls": "count",
    "benchmarksuite.input_suite_s": "s",
    "profiling.profile_program_self_s": "s",
    "profiling.add_run_s": "s",
    "vm.profile_pass_s": "s",
    "vm.trace_pass_s": "s",
    "vm.instructions": "count",
    "vm.minstr_per_s": "Minstr/s",
    "vm.extend_s": "s",
    "vm.trace_stats_s": "s",
    "vm.from_arrays_s": "s",
    "traceopt.build_fs_program_s": "s",
    "traceopt.fill_forward_slots_s": "s",
    "resilience.write_s": "s",
    "resilience.verify_checksum_s": "s",
    "resilience.lock_wait_s": "s",
    "telemetry.manifest_s": "s",
    "kernels.encode_s": "s",
    "kernels.simulate_vector_s": "s",
    "kernels.evict_s": "s",
    "kernels.evict.calls": "count",
    "kernels.cycle_s": "s",
    "predictors.simulate.scalar_s": "s",
    "predictors.simulate.vector_s": "s",
    "predictors.simulate.calls.scalar": "count",
    "predictors.simulate.calls.vector": "count",
    "predictors.records": "count",
    "predictors.records_per_s": "records/s",
    "pipeline.cycle_sim_s": "s",
    "conformance.probes_s": "s",
    "conformance.fuzz_s": "s",
    "conformance.oracles_s": "s",
    "conformance.golden_s": "s",
    "experiments.render_self_s": "s",
    "experiments.suite_run_self_s": "s",
    "experiments.paper_acc_err_pp": "pp",
    "service.submit_s": "s",
    "service.step_s": "s",
    "service.journal_s": "s",
    "service.shard_s": "s",
    "service.queue_wait_s": "s",
    "service.shards": "count",
    "service.cell_p50_s": "s",
    "service.cell_p80_s": "s",
}
PER_LAYER.update({"sweep.%s_s" % point: "s" for point in HOT_POINTS})
PER_LAYER["sweep.other_s"] = "s"
PER_LAYER.update({"%s.self_s" % layer: "s" for layer in LAYERS})
PER_LAYER.update({"host.raw_wall_s": "s", "host.probe_ms": "ms"})
PER_LAYER.update({"python.start_s": "s", "python.exit_s": "s",
                  "trace.launch_s": "s", "trace.install_s": "s",
                  "trace.write_s": "s", "unattributed_s": "s",
                  "trace_overhead": "ratio"})

#: Counts that must repeat exactly between traced runs of one build.
EXACT_COUNTS = ("vm.instructions", "predictors.records",
                "predictors.simulate.calls.scalar",
                "predictors.simulate.calls.vector",
                "kernels.evict.calls", "lang.compile.calls",
                "service.shards")

#: name -> metric for plain inclusive totals.
_TOTALS = {
    "cli.import": "cli.import_s",
    "lang.compile": "lang.compile_s",
    "benchmarksuite.input_suite": "benchmarksuite.input_suite_s",
    "profiling.add_run": "profiling.add_run_s",
    "vm.trace_pass": "vm.trace_pass_s",
    "vm.extend": "vm.extend_s",
    "vm.trace_stats": "vm.trace_stats_s",
    "vm.from_arrays": "vm.from_arrays_s",
    "traceopt.build_fs_program": "traceopt.build_fs_program_s",
    "traceopt.fill_forward_slots": "traceopt.fill_forward_slots_s",
    "resilience.write": "resilience.write_s",
    "resilience.verify_checksum": "resilience.verify_checksum_s",
    "resilience.lock_wait": "resilience.lock_wait_s",
    "telemetry.manifest": "telemetry.manifest_s",
    "kernels.encode": "kernels.encode_s",
    "kernels.simulate_vector": "kernels.simulate_vector_s",
    "kernels.evict": "kernels.evict_s",
    "kernels.cycle": "kernels.cycle_s",
    "predictors.simulate.scalar": "predictors.simulate.scalar_s",
    "predictors.simulate.vector": "predictors.simulate.vector_s",
    "pipeline.cycle_sim": "pipeline.cycle_sim_s",
    "conformance.probes": "conformance.probes_s",
    "conformance.fuzz": "conformance.fuzz_s",
    "conformance.oracles": "conformance.oracles_s",
    "conformance.golden": "conformance.golden_s",
    "service.submit": "service.submit_s",
    "service.step": "service.step_s",
    "service.journal": "service.journal_s",
    "trace.install": "trace.install_s",
    "trace.launch": "trace.launch_s",
    "trace.write": "trace.write_s",
}

#: name -> metric for call counts.
_CALLS = {
    "lang.compile": "lang.compile.calls",
    "kernels.evict": "kernels.evict.calls",
    "predictors.simulate.scalar": "predictors.simulate.calls.scalar",
    "predictors.simulate.vector": "predictors.simulate.calls.vector",
    "service.shard": "service.shards",
}

_SELF = {
    "profiling.profile_program": "profiling.profile_program_self_s",
    "experiments.render": "experiments.render_self_s",
    "experiments.suite_run": "experiments.suite_run_self_s",
}


def _union(intervals):
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class _Span:
    __slots__ = ("name", "start", "end", "attrs", "parent", "children")

    def __init__(self, name, start, end, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs
        self.parent = None
        self.children = []

    @property
    def duration(self):
        return self.end - self.start

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def load_spans(path, window, drop=()):
    """Spans of one process clipped to ``window``; returns (spans, roots).

    Spans named in ``drop`` are removed and their children re-parented
    (the serve process's ``cli.main`` is its lifetime, not work).
    """
    with open(path) as handle:
        payload = json.load(handle)
    by_id = {}
    parents = {}
    for span_id, parent, name, start, end, attrs in payload["spans"]:
        by_id[span_id] = _Span(name, max(start, window[0]),
                               min(end, window[1]), attrs)
        parents[span_id] = parent
    for span_id, span in by_id.items():
        parent = parents[span_id]
        while parent is not None and by_id[parent].name in drop:
            parent = parents[parent]
        span.parent = by_id.get(parent)
    kept = [span for span in by_id.values()
            if span.name not in drop and span.end > span.start]
    for span in kept:
        if span.parent is not None:
            span.parent.children.append(span)
    roots = [span for span in kept if span.parent is None]
    return kept, roots, payload.get("missing", [])


def op_metrics(paths, window, drop=()):
    """Per-layer metrics and the sweep grid for one traced operation."""
    metrics = {name: 0 if unit == "count" else 0.0
               for name, unit in PER_LAYER.items()}
    spans, covered, missing = [], [], set()
    for path in paths:
        kept, roots, gone = load_spans(path, window, drop)
        spans.extend(kept)
        covered.extend((span.start, span.end) for span in roots)
        missing.update(gone)
        # A command launched inside the window: the time before its
        # first span and after its last is interpreter start and exit.
        if any(span.name == "trace.launch" for span in kept):
            first = min(span.start for span in kept)
            last = max(span.end for span in kept)
            metrics["python.start_s"] += first - window[0]
            metrics["python.exit_s"] += window[1] - last
            covered += [(window[0], first), (last, window[1])]

    grid = []
    for span in spans:
        layer = span.name.split(".", 1)[0]
        self_time = span.duration - _union(
            (child.start, child.end) for child in span.children)
        if layer in LAYERS:
            metrics["%s.self_s" % layer] += self_time
        if span.name in _SELF:
            metrics[_SELF[span.name]] += self_time
        if span.name in _CALLS:
            metrics[_CALLS[span.name]] += 1
        outermost = all(node.name != span.name
                        for node in span.ancestors())
        if span.name in _TOTALS and outermost:
            metrics[_TOTALS[span.name]] += span.duration
        if span.name == "vm.run":
            metrics["vm.instructions"] += span.attrs.get("instructions", 0)
            if any(node.name == "profiling.profile_program"
                   for node in span.ancestors()):
                metrics["vm.profile_pass_s"] += span.duration
        elif span.name.startswith("predictors.simulate."):
            metrics["predictors.records"] += span.attrs.get("records", 0)
        elif span.name == "experiments.sweep_point":
            grid.append(_grid_point(span))

    shards = [span for span in spans if span.name == "service.shard"]
    if shards:
        metrics["service.shard_s"] = statistics.median(
            span.duration for span in shards)
        submitted = max((span.end for span in spans
                         if span.name == "service.submit"),
                        default=window[0])
        metrics["service.queue_wait_s"] = statistics.median(
            max(span.start - submitted, 0.0) for span in shards)
    _label_grid(grid)
    for point in grid:
        key = ("sweep.%s_s" % point["point"]
               if point["point"] in HOT_POINTS else "sweep.other_s")
        metrics[key] += point["seconds"]
    metrics["unattributed_s"] = max(
        (window[1] - window[0]) - _union(covered), 0.0)
    return metrics, grid, sorted(missing)


def _grid_point(span):
    simulated = [node for node in _descendants(span)
                 if node.name.startswith("predictors.simulate.")]
    return {
        "point": span.attrs.get("point", "?"),
        "start": span.start,
        "seconds": sum(node.duration for node in simulated),
        "records": sum(node.attrs.get("records", 0) for node in simulated),
        "engines": sorted({node.attrs.get("engine") for node in simulated}),
    }


def _descendants(span):
    for child in span.children:
        yield child
        yield from _descendants(child)


def _label_grid(grid):
    """Order points as run and make repeated labels unique (``S256#2``)."""
    grid.sort(key=lambda point: point.pop("start"))
    seen = {}
    for point in grid:
        label = point["point"]
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            point["point"] = "%s#%d" % (label, seen[label])


def table3_rows(text):
    """Table 3 of a rendered report: benchmark -> {column: value}."""
    lines = text.splitlines()
    try:
        start = next(index for index, line in enumerate(lines)
                     if line.startswith("Table 3:"))
    except StopIteration:
        return {}
    header = lines[start + 2].split()
    rows = {}
    for line in lines[start + 4:]:
        cells = line.split()
        if not cells or cells[0] in ("Average", "Std."):
            break
        rows[cells[0]] = dict(zip(header[1:], map(float, cells[1:])))
    return rows


#: Table 3 measured column -> the paper's column.
ACCURACY_COLUMNS = {"A_S%": "p.A_S", "A_C%": "p.A_C", "A_FS%": "p.A_FS"}


def paper_error(rows):
    """Mean |A_measured - A_paper| over Table 3's accuracies, in pp."""
    errors = [abs(row[mine] - row[paper]) for row in rows.values()
              for mine, paper in ACCURACY_COLUMNS.items()]
    return statistics.fmean(errors) if errors else 0.0
