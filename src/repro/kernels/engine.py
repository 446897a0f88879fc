"""Engine selection: scalar loop vs vectorized kernels.

Three engine names flow through ``simulate()``, ``CycleSimulator`` and
the suite runner:

* ``scalar`` — the record-at-a-time simulator (the reference).
* ``vector`` — the batch kernels of this package where one exists and
  the run needs no per-record hook (``flush_interval``).  A kernel is
  exact or absent: when its overflow screen finds a cache set that
  would evict, it declines and the caller runs the scalar loop over
  the whole trace instead.
* ``auto`` (also what ``None`` means) — ``vector`` when a kernel
  exists and the trace has at least :data:`AUTO_THRESHOLD` records
  (array setup has a fixed cost that tiny traces never amortise),
  ``scalar`` otherwise.

Every simulation starts from a cold predictor whichever engine runs
it, so the choice is purely a throughput decision.  Telemetry and run
manifests report the engine that actually produced the stats.
"""

ENGINE_AUTO = "auto"
ENGINE_SCALAR = "scalar"
ENGINE_VECTOR = "vector"

ENGINES = (ENGINE_AUTO, ENGINE_SCALAR, ENGINE_VECTOR)

#: Records below which ``auto`` stays scalar: the crossover where
#: whole-trace array passes beat the per-record loop sits well under
#: this, but small traces are cheap either way.
AUTO_THRESHOLD = 2048


def resolve_engine(engine, predictor, trace, flush_interval=None):
    """The engine a simulation will try first.

    Returns ``"scalar"`` or ``"vector"`` — never ``"auto"``.  The
    scalar engine wins whenever the vector engine has nothing to run:
    no kernel for the predictor type, or a ``flush_interval``
    (context-switch ablation) that needs a hook between records.  A
    ``"vector"`` answer can still end on the scalar loop when the
    kernel's overflow screen declines the trace.
    """
    from repro.kernels import supports

    if engine is None:
        engine = ENGINE_AUTO
    if engine not in ENGINES:
        raise ValueError("unknown engine %r (expected one of %s)"
                         % (engine, ", ".join(ENGINES)))
    if flush_interval is not None or not supports(predictor):
        return ENGINE_SCALAR
    if engine == ENGINE_AUTO:
        return (ENGINE_VECTOR if len(trace) >= AUTO_THRESHOLD
                else ENGINE_SCALAR)
    return engine
