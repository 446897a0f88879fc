"""Segmented array primitives shared by the batch kernels.

Every kernel reduces to the same few questions asked per record about
*earlier records in some group* (same branch site, same cache set, same
counter index):

* :func:`previous_index` — where did this group last occur?
* :func:`last_marked_index` — where did it last occur *with a write*?
* :func:`running_total` — how much has accumulated in the group so far?
* :func:`exclusive_states` — what state had the group's small state
  machine reached?

All helpers take a :class:`Groups` (a stable sort of records by group
key, so each group is a contiguous segment in sorted order) and return
answers scattered back to original record order.

The state scan exploits that every transition in the predictor zoo —
saturating increment, saturating decrement, allocation to a constant —
is a *clamped add* ``f(s) = clip(s + delta, low, high)``, a family
closed under composition:

    (g o f)(s) = clip(s + d_f + d_g,
                      clip(low_f + d_g, low_g, high_g),
                      clip(high_f + d_g, low_g, high_g))

so a segmented scan needs only three integers per record instead of a
full transition table, independent of the number of counter states.

Two scan strategies implement the same composition, selected by input
size.  Small inputs use a segmented Hillis-Steele doubling scan
(``O(n log n)``, minimal setup).  Large inputs use a blocked
work-efficient scan: the sorted domain is cut into fixed-size blocks,
each block is swept once with every block's sweep vectorized together
(one NumPy op per block *column*, not per element), block totals are
combined with a tiny doubling scan, and a final vectorized pass
composes each block's carry into its elements — ``O(n)`` element work
with ``O(block)`` interpreter overhead.  Segment boundaries are
carried as start flags through both scans (Blelloch's segmented
operator: a flagged right operand resets the composition), so a block
never needs to know where segments begin.
"""

import numpy as np


class Groups:
    """Records grouped by an integer key, order-preserving per group.

    Attributes (all over the *sorted* domain ``order``):
        order: stable permutation sorting records by key — within a
            group, sorted rows keep original record order.
        starts: True at each group's first sorted row.
        seg_ids: group ordinal per sorted row.
    """

    __slots__ = ("n", "order", "starts", "seg_ids")

    def __init__(self, keys):
        keys = np.asarray(keys)
        self.n = int(keys.shape[0])
        self.order = np.argsort(keys, kind="stable")
        starts = np.empty(self.n, dtype=bool)
        if self.n:
            sorted_keys = keys[self.order]
            starts[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1],
                         out=starts[1:])
        self.starts = starts
        self.seg_ids = (np.cumsum(starts, dtype=np.int64) - 1 if self.n
                        else np.zeros(0, dtype=np.int64))


def previous_index(groups):
    """Original index of each record's previous same-group record.

    Returns an int64 array in original record order; -1 marks a
    group's first record.
    """
    out = np.full(groups.n, -1, dtype=np.int64)
    if groups.n == 0:
        return out
    prev_sorted = np.empty(groups.n, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = groups.order[:-1]
    prev_sorted[groups.starts] = -1
    out[groups.order] = prev_sorted
    return out


def last_marked_index(groups, marked):
    """Original index of the most recent *earlier* marked record in the
    same group; -1 when no earlier record of the group is marked.
    """
    n = groups.n
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    # int32 arithmetic when the per-segment bias trick cannot
    # overflow it; int64 otherwise (huge traces with many groups).
    segments = int(groups.seg_ids[-1]) + 1
    wide = (segments - 1) * (n + 1) + n >= np.int64(1) << 31
    dtype = np.int64 if wide else np.int32
    marked_sorted = np.asarray(marked, dtype=bool)[groups.order]
    # Carrier values: sorted-row number + 1 at marks, 0 elsewhere, so a
    # running max finds the latest mark and 0 still means "none".
    carrier = np.where(marked_sorted, np.arange(1, n + 1, dtype=dtype),
                       dtype(0))
    exclusive = np.empty_like(carrier)
    exclusive[0] = 0
    exclusive[1:] = carrier[:-1]
    exclusive[groups.starts] = 0
    # Per-segment max without a loop: bias each segment into its own
    # disjoint value range, accumulate globally, un-bias.  A previous
    # segment's biased values are all smaller than the next segment's
    # bias, so the running max cannot leak across a boundary.
    bias = groups.seg_ids.astype(dtype) * dtype(n + 1)
    latest = np.maximum.accumulate(exclusive + bias) - bias
    found = latest > 0
    result_sorted = np.full(n, -1, dtype=np.int64)
    result_sorted[found] = groups.order[latest[found] - 1]
    out[groups.order] = result_sorted
    return out


def running_total(groups, values):
    """Inclusive per-group cumulative sum, in original record order."""
    n = groups.n
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    sorted_values = np.asarray(values)[groups.order]
    total = np.cumsum(sorted_values, dtype=np.int64)
    start_rows = np.nonzero(groups.starts)[0]
    segment_base = np.where(start_rows > 0, total[start_rows - 1], 0)
    out[groups.order] = total - segment_base[groups.seg_ids]
    return out


#: Identity-map bound: wider than any real counter range, narrow
#: enough that compositions never overflow int32.
_UNBOUNDED = np.int32(1) << 20

#: Inputs at least this long use the blocked work-efficient scan; the
#: doubling scan wins below it (less setup, and tiny traces are cheap
#: either way).
_BLOCKED_MIN = 4096

#: Block width of the work-efficient scan: the sweep runs this many
#: vectorized steps, each touching one element per block, so interpreter
#: overhead is ``O(block)`` while element work stays ``O(n)``.
_BLOCK = 32


def _doubling_inclusive(delta, low, high, flags):
    """Segmented inclusive scan by doubling, in place; O(n log n)."""
    n = delta.shape[0]
    stride = 1
    while stride < n:
        b_f = flags[stride:]
        d_f, lo_f, hi_f = delta[:-stride], low[:-stride], high[:-stride]
        d_g, lo_g, hi_g = delta[stride:], low[stride:], high[stride:]
        n_d = np.where(b_f, d_g, d_f + d_g)
        n_lo = np.where(b_f, lo_g,
                        np.minimum(np.maximum(lo_f + d_g, lo_g), hi_g))
        n_hi = np.where(b_f, hi_g,
                        np.minimum(np.maximum(hi_f + d_g, lo_g), hi_g))
        n_f = b_f | flags[:-stride]
        delta[stride:] = n_d
        low[stride:] = n_lo
        high[stride:] = n_hi
        flags[stride:] = n_f
        stride <<= 1


def _blocked_inclusive(delta, low, high, flags):
    """Segmented inclusive scan, blocked work-efficient; O(n) work.

    Returns new (delta, low, high) arrays of the input length; the
    inputs are consumed (padded copies are made internally).
    """
    n = delta.shape[0]
    m = -(-n // _BLOCK)
    pad = m * _BLOCK - n
    if pad:
        # Padding rows are flagged segment starts: they can never
        # absorb a real prefix and are sliced off at the end.
        delta = np.concatenate(
            [delta, np.zeros(pad, dtype=np.int32)])
        low = np.concatenate(
            [low, np.full(pad, -_UNBOUNDED, dtype=np.int32)])
        high = np.concatenate(
            [high, np.full(pad, _UNBOUNDED, dtype=np.int32)])
        flags = np.concatenate([flags, np.ones(pad, dtype=bool)])
    # Transposed layout: row j holds element j of *every* block, so
    # each sweep step reads and writes contiguous m-vectors.
    d = np.ascontiguousarray(delta.reshape(m, _BLOCK).transpose())
    lo = np.ascontiguousarray(low.reshape(m, _BLOCK).transpose())
    hi = np.ascontiguousarray(high.reshape(m, _BLOCK).transpose())
    f = np.ascontiguousarray(flags.reshape(m, _BLOCK).transpose())
    # Intra-block sweep: one vectorized step per block position turns
    # each row into the inclusive composition from its block (or
    # segment) start; the flag row becomes "prefix saw a start".
    for j in range(1, _BLOCK):
        b_f = f[j]
        d_g, lo_g, hi_g = d[j], lo[j], hi[j]
        n_d = d[j - 1] + d_g
        n_lo = np.minimum(np.maximum(lo[j - 1] + d_g, lo_g), hi_g)
        n_hi = np.minimum(np.maximum(hi[j - 1] + d_g, lo_g), hi_g)
        d[j] = np.where(b_f, d_g, n_d)
        lo[j] = np.where(b_f, lo_g, n_lo)
        hi[j] = np.where(b_f, hi_g, n_hi)
        f[j] |= f[j - 1]
    # Inter-block: exclusive carries from the block totals (the last
    # row), via the doubling scan over m entries.
    c_d = np.empty(m, dtype=np.int32)
    c_lo = np.empty(m, dtype=np.int32)
    c_hi = np.empty(m, dtype=np.int32)
    c_f = np.empty(m, dtype=bool)
    c_d[0], c_lo[0], c_hi[0], c_f[0] = 0, -_UNBOUNDED, _UNBOUNDED, False
    c_d[1:] = d[-1, :-1]
    c_lo[1:] = lo[-1, :-1]
    c_hi[1:] = hi[-1, :-1]
    c_f[1:] = f[-1, :-1]
    _doubling_inclusive(c_d, c_lo, c_hi, c_f)
    # Apply: elements whose in-block prefix saw no segment start
    # compose the block carry underneath; flagged prefixes already
    # start at their segment start.
    out_d = np.where(f, d, c_d + d)
    out_lo = np.where(f, lo, np.minimum(np.maximum(c_lo + d, lo), hi))
    out_hi = np.where(f, hi, np.minimum(np.maximum(c_hi + d, lo), hi))
    return (out_d.transpose().ravel()[:n],
            out_lo.transpose().ravel()[:n],
            out_hi.transpose().ravel()[:n])


def _inclusive_compose(delta, low, high, flags):
    """Dispatch the segmented inclusive scan; consumes its inputs."""
    if delta.shape[0] >= _BLOCKED_MIN:
        return _blocked_inclusive(delta, low, high, flags)
    _doubling_inclusive(delta, low, high, flags)
    return delta, low, high


def exclusive_states(groups, deltas, lows, highs, init_state):
    """Run each group's state machine; the state *before* each record.

    Record ``j``'s transition is the clamped add
    ``clip(s + deltas[j], lows[j], highs[j])`` (all in original record
    order): saturating up/down steps bound by the counter range, or an
    allocation encoded as ``delta 0, low == high == value``.  Each
    group starts in ``init_state`` — moot for groups whose first
    transition is an allocation.  Returns int32 pre-record states in
    original record order.
    """
    n = groups.n
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    order = groups.order
    # The exclusive shift: row j carries the previous in-group
    # record's transition, group firsts the identity; the segmented
    # scan then composes each row into its exclusive in-group prefix.
    delta = np.empty(n, dtype=np.int32)
    low = np.empty(n, dtype=np.int32)
    high = np.empty(n, dtype=np.int32)
    delta[1:] = np.asarray(deltas, dtype=np.int32)[order][:-1]
    low[1:] = np.asarray(lows, dtype=np.int32)[order][:-1]
    high[1:] = np.asarray(highs, dtype=np.int32)[order][:-1]
    delta[groups.starts] = 0
    low[groups.starts] = -_UNBOUNDED
    high[groups.starts] = _UNBOUNDED
    delta, low, high = _inclusive_compose(delta, low, high,
                                          groups.starts.copy())
    init = np.int32(init_state)
    out = np.empty(n, dtype=np.int32)
    out[order] = np.minimum(np.maximum(init + delta, low), high)
    return out
