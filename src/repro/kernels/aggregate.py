"""Fold per-record kernel outcomes into ``PredictionStats``.

A kernel answers three per-record questions — predicted direction,
predicted-target match, buffer hit (-1 none / 0 miss / 1 hit) — and
this module reproduces, in array form, exactly what the scalar
simulator's per-record loop does with them: the filtering rules
(``conditional_only``, the return-address substitution), the scoring
rule of :func:`repro.predictors.base.is_correct`, and the per-class
dictionary bookkeeping including its key-presence semantics (a class
appears in ``by_class_correct`` only once a record of that class was
predicted correctly).
"""

import numpy as np

from repro.vm.tracing import BranchClass


def assemble_stats(kernel, predictor, enc, conditional_only=False,
                   ras_returns=True):
    """Run ``kernel`` over the encoded trace; returns PredictionStats.

    Mirrors the scalar simulator's record filtering: with
    ``conditional_only`` every non-conditional record is skipped
    outright; otherwise with ``ras_returns`` return records bypass the
    predictor and score as correct non-buffer predictions.  Returns
    None when the kernel declines the trace.
    """
    from repro.predictors.base import PredictionStats

    stats = PredictionStats()
    returns_credited = 0
    if conditional_only:
        sub = enc.subset("conditional",
                         enc.classes == BranchClass.CONDITIONAL)
    elif ras_returns:
        is_return = enc.classes == BranchClass.RETURN
        returns_credited = int(np.count_nonzero(is_return))
        sub = (enc.subset("no-returns", ~is_return)
               if returns_credited else enc)
    else:
        sub = enc

    if len(sub):
        outcome = kernel(predictor, sub)
        if outcome is None:
            return None
        pred_taken, target_match, hit = outcome
        correct = np.where(sub.takens, pred_taken & target_match,
                           ~pred_taken)
        stats.total = len(sub)
        stats.correct = int(np.count_nonzero(correct))
        stats.buffer_accesses = int(np.count_nonzero(hit >= 0))
        stats.buffer_misses = int(np.count_nonzero(hit == 0))
        classes = sub.classes.astype(np.int64)
        totals = np.bincount(classes, minlength=4)
        corrects = np.bincount(classes[correct], minlength=4)
        for branch_class in range(4):
            if totals[branch_class]:
                stats.by_class_total[branch_class] = (
                    int(totals[branch_class]))
            if corrects[branch_class]:
                stats.by_class_correct[branch_class] = (
                    int(corrects[branch_class]))

    if returns_credited:
        stats.total += returns_credited
        stats.correct += returns_credited
        stats.by_class_total[BranchClass.RETURN] = (
            stats.by_class_total.get(BranchClass.RETURN, 0)
            + returns_credited)
        stats.by_class_correct[BranchClass.RETURN] = (
            stats.by_class_correct.get(BranchClass.RETURN, 0)
            + returns_credited)
    return stats
