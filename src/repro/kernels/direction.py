"""Batch kernels for the direction-table schemes (gshare, bimodal).

Both schemes split cleanly into two independent machines:

* a **direction predictor** — tagless 2-bit counters, so no
  eviction ever: the counter walk is exact for the whole trace.  For
  gshare the table index needs the global history before each
  conditional record, which is just the previous ``history_bits``
  conditional outcomes packed into an integer — a handful of
  shift-and-add passes, no scan needed.  For bimodal the index is the
  site address masked.
* a **target store** — the same 256-entry BTB as the paper's schemes.
  Taken executions insert, nothing deletes, so while a set has not
  evicted, presence is "some earlier taken execution" and the stored
  target is the latest such execution's.  The store shares the exact
  overflow screen of :mod:`repro.kernels.tables`, and the kernel
  returns None (the caller runs the scalar loop) when a set would
  evict.  The screen runs before the direction scan, so a declined
  trace costs only the store's scans.

Hit/miss accounting collapses nicely: in every predict case the hit
flag equals target-store presence (a confirmed lookup, a
predicted-taken lookup miss, or the not-taken path's ``contains``).
"""

import numpy as np

from repro.kernels import scan, tables
from repro.vm.tracing import BranchClass


def gshare_kernel(predictor, enc):
    store = _target_store(predictor._targets, enc)
    if store is None:
        return None
    conditional = enc.classes == BranchClass.CONDITIONAL
    direction = np.ones(len(enc), dtype=bool)
    direction[conditional] = _gshare_direction(predictor,
                                               enc.sites[conditional],
                                               enc.takens[conditional])
    return _score(enc, store, direction)


def bimodal_kernel(predictor, enc):
    store = _target_store(predictor._targets, enc)
    if store is None:
        return None
    conditional = enc.classes == BranchClass.CONDITIONAL
    index = enc.sites[conditional] & predictor.table_mask
    counter = _counter_scan(index, enc.takens[conditional])
    direction = np.ones(len(enc), dtype=bool)
    direction[conditional] = counter >= 2
    return _score(enc, store, direction)


def _gshare_direction(predictor, sites, takens):
    """Predicted direction of each conditional record."""
    n = sites.shape[0]
    # history before record k = the previous history_bits outcomes,
    # bit b holding outcome k-1-b.
    history = np.zeros(n, dtype=np.int64)
    outcomes = takens.astype(np.int64)
    # Bits beyond the record count never contribute (and a negative
    # slice bound would wrap), so stop at n - 1 shifts.
    for bit in range(min(predictor.history_bits, max(n - 1, 0))):
        history[bit + 1:] += outcomes[:n - (bit + 1)] << bit
    index = (sites ^ history) & predictor.table_mask
    return _counter_scan(index, takens) >= 2


def _counter_scan(index, takens):
    """Pre-record 2-bit counter values, per table index, init 1."""
    n = index.shape[0]
    delta = np.where(takens, np.int32(1), np.int32(-1))
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, 3, dtype=np.int32)
    return scan.exclusive_states(scan.Groups(index), delta, low, high,
                                 1)


def _target_store(cache, enc):
    """``(present, stored)`` per record, or None when a set would evict.

    Only a first taken execution allocates and nothing deletes, so
    occupancy is the running count of those events.
    """
    takens, targets = enc.takens, enc.targets
    last_taken = scan.last_marked_index(enc.site_groups(), takens)
    present = last_taken >= 0
    if tables.overflows(enc, cache, takens & ~present):
        return None
    stored = np.zeros(len(enc), dtype=np.int64)
    stored[present] = targets[last_taken[present]]
    return present, stored


def _score(enc, store, direction):
    """Score records given per-record direction predictions.

    ``direction`` is True for non-conditional records (their predicted
    direction is presence itself), so uniformly:
    predicted-taken = present & direction, hit = present.
    """
    present, stored = store
    pred_taken = present & direction
    target_match = pred_taken & (stored == enc.targets)
    return pred_taken, target_match, present.astype(np.int8)
