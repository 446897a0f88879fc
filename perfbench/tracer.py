"""In-memory span recorder for the traced benchmark runs.

The traced launcher wraps each layer's public functions at the names
their callers look up (module globals, class attributes and the
module-level dispatch dicts such as ``repro.cli._EXPERIMENTS``) and
records one span per call: name, start, end, parent span and the run
id of the process.  Spans stay in memory and are written once, as
JSON, when the process ends.  Nothing here imports ``repro``; the
launcher hands in the modules.

Clock: ``time.monotonic`` is CLOCK_MONOTONIC on Linux, one clock for
every process on the host, so spans from the serve process line up
with the client's timestamps.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time


class Tracer:
    """Collects spans for one process; ``enabled`` gates recording."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.enabled = True
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end, parent=None, attrs=None):
        """Append a finished span that no call stack produced."""
        self.spans.append([next(self._ids), parent, name, start, end,
                           attrs or {}])

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span nested under the thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        span = [span_id, parent, name, 0.0, 0.0, attrs or {}]
        span[3] = time.monotonic()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[4] = time.monotonic()
            stack.pop()
            self.spans.append(span)

    def span(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)[0]

    def write(self, path):
        """Write every span, the time spent encoding them included."""
        start = time.monotonic()
        spans = json.dumps(self.spans)
        self.record("trace.write", start, time.monotonic())
        spans = "%s%s%s]" % (spans[:-1], ", " if self.spans[:-1] else "",
                             json.dumps(self.spans[-1]))
        with open(path, "w") as handle:
            handle.write('{"run": %s, "missing": %s, "spans": %s}'
                         % (json.dumps(self.run_id),
                            json.dumps(self.missing), spans))


def wrap(tracer, name, fn, before=None, after=None):
    """``fn`` traced as ``name``.

    ``before(args, kwargs)`` may return ``(name, attrs)`` to rename the
    span or attach attributes before the call; ``after(result, attrs)``
    may add attributes from the result.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span_name, attrs = name, {}
        if before is not None:
            span_name, attrs = before(args, kwargs)
        result, span = tracer.call(span_name, fn, args, kwargs, attrs)
        if after is not None:
            after(result, span[5])
        return result

    return traced


def _resolve(path):
    """(owner, attribute name) for ``"pkg.module:Class.attr"``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer, targets):
    """Wrap every target and rebind every alias of it.

    ``targets`` maps ``"module:qualname"`` to a callable
    ``make(tracer, fn) -> wrapped``.  A target that no longer exists is
    listed in ``tracer.missing`` instead of failing the run, so the
    benchmark keeps working across refactors and says what it could not
    see.
    """
    originals = {}
    for path, make in targets.items():
        try:
            owner, attr = _resolve(path)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(path)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(tracer, raw.__func__))
        else:
            wrapped = make(tracer, raw)
            originals[id(raw)] = (raw, wrapped)
        setattr(owner, attr, wrapped)

    # Callers that imported a function by name hold their own
    # reference: rebind those module globals and dispatch-dict values.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or
                                  module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
            elif isinstance(value, dict):
                for dict_key, item in list(value.items()):
                    hit = originals.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[dict_key] = hit[1]
