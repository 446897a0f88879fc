"""Vectorized cycle-level simulation.

The scalar :class:`~repro.pipeline.cycle_sim.CycleSimulator` replays a
trace record-at-a-time against a live predictor; because the modeled
machine never stalls for anything but branch squashes, its entire
event loop collapses into array passes:

1. **Squash classes** — run the predictor's batch kernel
   (:func:`repro.kernels.kernel_for`) over the encoded trace: the
   per-record ``(pred_taken, target_match)`` pair decides coverage
   exactly as ``is_correct`` does, so ``uncovered`` records are known
   without stepping the machine.
2. **Cycle accounting** — each uncovered record pays a fixed,
   class-determined penalty (``k + l + m`` for conditionals resolved
   at execute, ``k + l`` for the rest resolved at decode), so the
   squash totals are segmented sums over the class axis (a bincount —
   the degenerate prefix-scan where only the final per-segment value
   is kept), and ``cycles = (depth - 1) + instructions + squashed`` in
   closed form.

Bit-identity with the event loop is the contract: the
``tests/test_cycle_kernel_equivalence.py`` battery and the conformance
harness cross-check every field, including the key-presence semantics
of ``squashed_by_class`` (a class appears exactly when at least one of
its records went uncovered, even at zero penalty).
"""

import numpy as np

from repro.kernels.encode import EncodedTrace
from repro.vm.tracing import BranchClass


def cycle_kernel(config, predictor, trace, ras_returns=True):
    """Raw cycle accounting for ``trace``; returns a plain dict.

    The caller (:class:`~repro.pipeline.cycle_sim.CycleSimulator`)
    wraps the result in :class:`~repro.pipeline.cycle_sim.CycleStats`;
    keeping this module free of pipeline imports avoids a cycle.
    Returns None when the predictor's kernel declines the trace.
    """
    from repro.kernels import kernel_for

    enc = EncodedTrace.of(trace)
    # With the return-address mechanism the scalar loop never shows
    # return records to the predictor, so the kernel must evolve its
    # buffers over the same no-returns subsequence.
    sub = enc
    if ras_returns:
        is_return = enc.classes == BranchClass.RETURN
        if is_return.any():
            sub = enc.subset("no-returns", ~is_return)
    if len(sub):
        outcome = kernel_for(predictor)(predictor, sub)
        if outcome is None:
            return None
        pred_taken, target_match, _hit = outcome
        covered = np.where(sub.takens, pred_taken & target_match,
                           ~pred_taken)
        uncovered = ~covered
        counts = np.bincount(sub.classes[uncovered], minlength=4)
    else:
        uncovered = np.zeros(0, dtype=bool)
        counts = np.zeros(4, dtype=np.int64)
    conditional_penalty = config.k + config.l + config.m
    unconditional_penalty = config.k + config.l
    squashed_by_class = {}
    for code, count in enumerate(counts.tolist()):
        if count:
            penalty = (conditional_penalty
                       if code == BranchClass.CONDITIONAL
                       else unconditional_penalty)
            squashed_by_class[code] = count * penalty
    squashed = sum(squashed_by_class.values())

    fill = config.depth - 1
    instructions = trace.total_instructions
    return {
        "cycles": fill + instructions + squashed,
        "instructions": instructions,
        "branches": len(enc),
        "squashed_cycles": squashed,
        "mispredictions": int(np.count_nonzero(uncovered)),
        "fill_cycles": fill,
        "squashed_by_class": squashed_by_class,
    }
