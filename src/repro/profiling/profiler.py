"""Block and branch profiles accumulated over one or more runs.

A profile is derived entirely from the branch trace of each profiling
run, with NumPy: block counts from the run's fetch segments, branch
statistics from the record columns.
"""

import contextlib

import numpy as np

from repro.cfg import ControlFlowGraph
from repro.kernels.encode import EncodedTrace
from repro.pipeline.fetch_stream import segment_bounds
from repro.vm.machine import Machine, translated
from repro.vm.tracing import BranchClass


class Profile:
    """Execution profile of a program over an input suite.

    Attributes:
        block_counts: leader address -> number of times the block ran.
        branch_execs: conditional branch site -> executions.
        branch_taken: conditional branch site -> taken count.
        edge_counts: (site, target) -> taken-transfer count, for
            conditional (taken direction), JUMP, CALL, and JIND records.
        runs: number of profiling runs accumulated.
        total_instructions: dynamic instructions over all runs.
    """

    def __init__(self):
        self.block_counts = {}
        self.branch_execs = {}
        self.branch_taken = {}
        self.edge_counts = {}
        self.runs = 0
        self.total_instructions = 0

    # -- accumulation ------------------------------------------------------

    def add_run(self, trace, leaders, entry):
        """Fold one profiling run in.

        Args:
            trace: the run's :class:`~repro.vm.tracing.BranchTrace` (a
                single run: merged traces hide the restarts).
            leaders: sorted basic-block leader addresses; each gets a
                count, zero included.
            entry: the program's entry address, where a branchless
                run's only fetch segment starts.
        """
        encoded = EncodedTrace.of(trace)
        leaders = np.asarray(leaders, dtype=np.int64)
        starts, stops = segment_bounds(encoded, entry)
        # Every leader in a segment [start, stop) ran once: +1 at the
        # first leader at or past start, -1 at the first at or past stop.
        size = len(leaders)
        marks = (np.bincount(np.searchsorted(leaders, starts),
                             minlength=size + 1)
                 - np.bincount(np.searchsorted(leaders, stops),
                               minlength=size + 1))
        _accumulate(self.block_counts, leaders, np.cumsum(marks[:size]))
        self._add_encoded(encoded)
        self.runs += 1

    def add_trace(self, trace):
        """Fold a branch trace's per-site statistics in."""
        self._add_encoded(EncodedTrace.of(trace))

    def _add_encoded(self, encoded):
        conditional = encoded.classes == BranchClass.CONDITIONAL
        taken = conditional & encoded.takens
        _accumulate(self.branch_execs, *np.unique(
            encoded.sites[conditional], return_counts=True))
        _accumulate(self.branch_taken, *np.unique(
            encoded.sites[taken], return_counts=True))
        # Edges: taken conditionals, jumps, calls and indirect jumps
        # (returns are not layout edges).
        edges = taken | (
            (encoded.classes != BranchClass.CONDITIONAL)
            & (encoded.classes != BranchClass.RETURN))
        sites = encoded.sites[edges]
        targets = encoded.targets[edges]
        if len(sites):
            low = int(targets.min())
            span = int(targets.max()) - low + 1
            keys, counts = np.unique(sites * span + (targets - low),
                                     return_counts=True)
            pairs = zip((keys // span).tolist(),
                        (keys % span + low).tolist())
            _accumulate(self.edge_counts, pairs, counts)
        self.total_instructions += encoded.total_instructions

    def merge(self, other):
        """Fold another profile in (e.g. from a different input)."""
        for leader, count in other.block_counts.items():
            self.block_counts[leader] = self.block_counts.get(leader, 0) + count
        for site, count in other.branch_execs.items():
            self.branch_execs[site] = self.branch_execs.get(site, 0) + count
        for site, count in other.branch_taken.items():
            self.branch_taken[site] = self.branch_taken.get(site, 0) + count
        for edge, count in other.edge_counts.items():
            self.edge_counts[edge] = self.edge_counts.get(edge, 0) + count
        self.runs += other.runs
        self.total_instructions += other.total_instructions
        return self

    # -- queries -------------------------------------------------------------

    def block_weight(self, leader):
        """Execution count of the block starting at ``leader``."""
        return self.block_counts.get(leader, 0)

    def taken_fraction(self, site):
        """Fraction of executions of conditional branch ``site`` taken.

        Returns None when the branch never executed in the profile.
        """
        execs = self.branch_execs.get(site, 0)
        if execs == 0:
            return None
        return self.branch_taken.get(site, 0) / execs

    def edge_count(self, source_site, target):
        return self.edge_counts.get((source_site, target), 0)

    # -- serialisation ----------------------------------------------------------

    def to_dict(self):
        """A JSON-serialisable representation (for on-disk caching)."""
        return {
            "block_counts": sorted(self.block_counts.items()),
            "branch_execs": sorted(self.branch_execs.items()),
            "branch_taken": sorted(self.branch_taken.items()),
            "edge_counts": sorted(
                ([site, target], count)
                for (site, target), count in self.edge_counts.items()
            ),
            "runs": self.runs,
            "total_instructions": self.total_instructions,
        }

    @classmethod
    def from_dict(cls, data):
        profile = cls()
        profile.block_counts = {key: value for key, value in data["block_counts"]}
        profile.branch_execs = {key: value for key, value in data["branch_execs"]}
        profile.branch_taken = {key: value for key, value in data["branch_taken"]}
        profile.edge_counts = {
            (edge[0], edge[1]): count for edge, count in data["edge_counts"]
        }
        profile.runs = data["runs"]
        profile.total_instructions = data["total_instructions"]
        return profile

    def __repr__(self):
        return "Profile(%d runs, %d blocks, %d cond sites, %d instructions)" % (
            self.runs, len(self.block_counts), len(self.branch_execs),
            self.total_instructions)


def profile_program(program, input_suite, cfg=None,
                    max_instructions=200_000_000, stage=None):
    """Profile ``program`` over ``input_suite``.

    Args:
        program: resolved program.
        input_suite: list of runs, each a sequence of input streams.
        cfg: optional pre-built :class:`ControlFlowGraph`.
        max_instructions: per-run instruction budget.
        stage: optional ``name -> context manager`` timing the phases:
            ``vm_translate`` (block translation, once), ``profile`` (the
            traced VM runs) and ``profile_fold`` (:meth:`Profile.add_run`).

    Returns:
        (profile, outputs) — the accumulated :class:`Profile` and the
        list of per-run output byte strings (useful for checking the
        transformed program later).
    """
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    if stage is None:
        stage = _untimed
    leaders = cfg.leaders
    entry = program.entry
    profile = Profile()
    outputs = []
    with translated(program, stage("vm_translate")):
        for streams in input_suite:
            with stage("profile"):
                result = Machine(program, inputs=streams, trace=True,
                                 max_instructions=max_instructions).run()
            with stage("profile_fold"):
                profile.add_run(result.trace, leaders, entry)
            outputs.append(result.output)
    return profile, outputs


def _untimed(name):
    return contextlib.nullcontext()


def _accumulate(counts, keys, values):
    """``counts[key] += value`` for parallel key/value sequences."""
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    for key, value in zip(keys, values.tolist()):
        counts[key] = counts.get(key, 0) + value


def profile_trace(trace):
    """Build a branch-only profile from an existing trace.

    Block counts are absent; usable by consumers that only need branch
    direction statistics (e.g. likely-bit assignment checks).
    """
    profile = Profile()
    profile.add_trace(trace)
    profile.runs = 1
    return profile
