"""Vectorized simulation kernels (the ``engine="vector"`` path).

The scalar simulator in :mod:`repro.predictors.base` walks a branch
trace one record at a time through Python objects — honest, simple,
and the reference every kernel is checked against.  This package
re-expresses the same predictors as NumPy array programs:

* traces are encoded once into column arrays
  (:class:`~repro.kernels.encode.EncodedTrace`), reusing the arrays
  the ``.npz`` trace cache already stores;
* per-predictor kernels compute every record's prediction outcome in
  a handful of whole-trace array passes (:mod:`~repro.kernels.tables`
  for the SBTB/CBTB associative buffers,
  :mod:`~repro.kernels.direction` for gshare/bimodal,
  :mod:`~repro.kernels.static` for the FS and static baselines);
* the associative-table kernels are closed forms that hold while no
  cache set evicts; an exact overflow screen detects the first record
  that would evict, and the kernel then returns None so the caller
  runs the scalar loop instead (see docs/PERFORMANCE.md);
* :mod:`~repro.kernels.aggregate` folds per-record outcomes into the
  same :class:`~repro.predictors.base.PredictionStats` the scalar
  simulator produces.

The contract is **exact or absent**: for every supported predictor
and every trace, the vector engine either returns a
``PredictionStats`` equal field-for-field to the scalar simulator's,
or declines.  The differential equivalence tests, the conformance
engine cross-check, and the golden tables all enforce it; a kernel
that is fast but drifts is a bug.

Engine selection lives in :mod:`~repro.kernels.engine`.  Kernels never
mutate the predictor object they are handed; buffer-internal
telemetry (occupancy, eviction counts) is a scalar-engine feature.
"""

from repro.kernels.encode import EncodedTrace
from repro.kernels.engine import AUTO_THRESHOLD, ENGINES, resolve_engine


def kernel_for(predictor):
    """The batch kernel for ``predictor``, or None when unsupported.

    Dispatch is by exact type, not isinstance: a subclass may override
    ``predict``/``update`` in ways the closed forms do not model, so it
    falls back to the scalar engine until it registers its own kernel.
    """
    from repro.kernels import direction, static, tables
    from repro.predictors.bimodal import Bimodal
    from repro.predictors.cbtb import CounterBTB
    from repro.predictors.fs import ForwardSemanticPredictor
    from repro.predictors.sbtb import SimpleBTB
    from repro.predictors.static_schemes import (
        AlwaysNotTaken,
        AlwaysTaken,
        BackwardTakenForwardNotTaken,
    )
    from repro.predictors.twolevel import GShare

    registry = {
        SimpleBTB: tables.sbtb_kernel,
        CounterBTB: tables.cbtb_kernel,
        GShare: direction.gshare_kernel,
        Bimodal: direction.bimodal_kernel,
        ForwardSemanticPredictor: static.fs_kernel,
        AlwaysTaken: static.always_taken_kernel,
        AlwaysNotTaken: static.always_not_taken_kernel,
        BackwardTakenForwardNotTaken: static.btfnt_kernel,
    }
    return registry.get(type(predictor))


def supports(predictor):
    """True when the vector engine has a kernel for ``predictor``."""
    return kernel_for(predictor) is not None


def simulate_vector(predictor, trace, conditional_only=False,
                    ras_returns=True):
    """Run ``predictor`` over ``trace`` with its batch kernel.

    Mirrors :func:`repro.predictors.base.simulate` exactly (without
    ``flush_interval``, which the engine resolver routes to the scalar
    loop).  Returns None when the kernel's overflow screen declines
    the trace.  Raises ValueError for unsupported predictors — callers
    go through :func:`resolve_engine` first.
    """
    from repro.kernels.aggregate import assemble_stats

    kernel = kernel_for(predictor)
    if kernel is None:
        raise ValueError("no vector kernel for %r" % type(predictor).__name__)
    return assemble_stats(kernel, predictor, EncodedTrace.of(trace),
                          conditional_only=conditional_only,
                          ras_returns=ras_returns)


def count_fallback():
    """Record one kernel that declined a trace its screen flagged."""
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.count("kernels.overflow_fallbacks")


__all__ = [
    "AUTO_THRESHOLD",
    "ENGINES",
    "EncodedTrace",
    "count_fallback",
    "kernel_for",
    "resolve_engine",
    "simulate_vector",
    "supports",
]
