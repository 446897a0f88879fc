"""Batch kernels for the paper's associative-table schemes.

Both BTB kernels exploit the same structure: while no cache set has
ever evicted, buffer contents are a pure function of each site's own
history, so presence, counters, and stored targets all come from the
segmented scans in :mod:`repro.kernels.scan`:

* **SBTB** — an entry exists for a site exactly when the site's
  previous execution was taken (taken inserts/refreshes, not-taken
  deletes), and its target is whatever that execution wrote.
* **CBTB** — an entry exists once the site has executed at all (first
  execution allocates, nothing deletes), its counter follows the
  site's private saturating walk, and its target is the last
  allocation-or-taken write.

Eviction is detected exactly, per set, from the same closed forms
(:func:`overflows`): the no-eviction occupancy trajectory coincides
with the real one up to the first eviction, and that first eviction is
precisely the first record where the trajectory would exceed the set's
way count.  When some set crosses the line the kernel returns None and
the caller runs the scalar loop over the whole trace.  The paper's
configuration — 256 entries, fully associative, against benchmarks
with at most a couple hundred static branch sites — never overflows;
only the small-buffer ablations fall back.

Each kernel returns ``(pred_taken, target_match, hit)`` arrays over
the encoded records, or None; scoring and aggregation live in
:mod:`repro.kernels.aggregate`.
"""

import numpy as np

from repro.kernels import scan


def overflows(enc, cache, delta):
    """True when some set of ``cache`` would evict over ``enc``.

    ``delta`` is each record's no-eviction occupancy change in its set
    (+1 allocation, -1 deletion, 0 otherwise).  The comparison is
    strict: a set that exactly fills its ways never evicts, so it
    keeps the closed-form answers.
    """
    occupancy = scan.running_total(enc.set_groups(cache.n_sets), delta)
    return bool((occupancy > cache.associativity).any())


def sbtb_kernel(predictor, enc):
    """SimpleBTB: present iff the previous execution was taken."""
    n = len(enc)
    takens, targets = enc.takens, enc.targets

    prev = scan.previous_index(enc.site_groups())
    has_prev = prev >= 0
    present = np.zeros(n, dtype=bool)
    present[has_prev] = takens[prev[has_prev]]

    delta = np.zeros(n, dtype=np.int64)
    delta[takens & ~present] = 1
    delta[~takens & present] = -1
    if overflows(enc, predictor._cache, delta):
        return None

    stored = np.zeros(n, dtype=np.int64)
    stored[has_prev] = targets[prev[has_prev]]
    target_match = present & (stored == targets)
    return present, target_match, present.astype(np.int8)


def cbtb_kernel(predictor, enc):
    """CounterBTB: presence from first execution, counters scanned."""
    threshold = predictor.threshold
    counter_max = predictor.counter_max
    n = len(enc)
    takens, targets = enc.takens, enc.targets

    site_groups = enc.site_groups()
    present = scan.previous_index(site_groups) >= 0
    is_first = ~present
    # Occupancy only grows (allocation per distinct site, no deletion).
    if overflows(enc, predictor._cache, is_first):
        return None

    # Counter before each execution, via the per-site saturating walk.
    # The allocating first execution is a constant map (insert
    # overwrites whatever the state "was"), so init_state is moot.
    delta = np.where(takens, np.int32(1), np.int32(-1))
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, counter_max, dtype=np.int32)
    allocated = np.where(takens, np.int32(threshold),
                         np.int32(threshold - 1))
    delta[is_first] = 0
    low[is_first] = allocated[is_first]
    high[is_first] = allocated[is_first]
    counter = scan.exclusive_states(site_groups, delta, low, high, 0)

    # Stored target: written at allocation and on every taken update.
    last_write = scan.last_marked_index(site_groups, takens | is_first)
    has_write = last_write >= 0
    stored = np.zeros(n, dtype=np.int64)
    stored[has_write] = targets[last_write[has_write]]

    pred_taken = present & (counter >= threshold)
    target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present.astype(np.int8)
