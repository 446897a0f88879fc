"""Reconstructing the fetch stream from a branch trace.

Between two branches the machine fetches sequentially, so a branch
trace (sites, directions, targets, gaps) plus the entry point fully
determines the instruction-address stream of a single run.  This gives
the instruction-cache and pipeline models a fetch stream without the
memory cost of recording every executed address — and doubles as a
strong internal consistency check on the trace itself (every record's
site must equal the previous landing plus its gap).

:func:`segment_bounds` is the vectorized form over an encoded trace;
the profiler counts basic-block executions with it.

Only single-run traces reconstruct (merged multi-run traces have
invisible restarts); :class:`~repro.vm.machine.Machine` address traces
remain available for anything else.
"""

import numpy as np


class TraceInconsistency(ValueError):
    """The branch trace does not describe a sequential fetch stream."""


def fetch_segments(trace, entry, validate=True):
    """Sequential fetch segments [(start, length), ...] of one run.

    Each segment covers the non-branch instructions since the previous
    branch plus the branch itself; a final branchless tail (e.g. the
    HALT path) is appended when the instruction count says one exists.
    """
    segments = []
    current = entry
    consumed = 0
    for site, _, taken, target, gap in trace.records():
        if validate and site != current + gap:
            raise TraceInconsistency(
                "record at site %d does not follow landing %d + gap %d"
                % (site, current, gap))
        segments.append((current, gap + 1))
        consumed += gap + 1
        current = target if taken else site + 1
    tail = trace.total_instructions - consumed
    if tail > 0:
        segments.append((current, tail))
    elif validate and tail < 0:
        raise TraceInconsistency(
            "records cover %d instructions but the trace executed %d"
            % (consumed, trace.total_instructions))
    return segments


def fetch_addresses(trace, entry, validate=True):
    """Iterate every fetched instruction address of one run."""
    for start, length in fetch_segments(trace, entry, validate=validate):
        yield from range(start, start + length)


def segment_bounds(encoded, entry):
    """``(starts, stops)`` arrays of the fetch segments of one run.

    The same segments as :func:`fetch_segments`, from an
    :class:`~repro.kernels.encode.EncodedTrace` and without validation:
    segment ``i`` is ``[site - gap, site]`` of record ``i``, and the
    branchless tail starts where the last record landed (``entry`` when
    there is none).  Landings assume a program without forward slots.
    """
    starts = encoded.sites - encoded.gaps
    stops = encoded.sites + 1
    tail = encoded.total_instructions - int(encoded.gaps.sum()) - len(encoded)
    if tail > 0:
        if len(encoded):
            landing = int(encoded.targets[-1] if encoded.takens[-1]
                          else encoded.sites[-1] + 1)
        else:
            landing = entry
        starts = np.append(starts, landing)
        stops = np.append(stops, landing + tail)
    return starts, stops
