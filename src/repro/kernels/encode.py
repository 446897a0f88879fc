"""Column-array encoding of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` stores records in plain Python
lists (cheap to append while the VM runs).  The kernels want NumPy
arrays; :class:`EncodedTrace` is that view, built once per trace and
memoized on the trace object so repeated simulations — a sweep runs
every scheme over the same trace — pay the list-to-array cost once.
Traces loaded from the ``.npz`` cache already hold arrays, and the
loader stashes the encoding directly without a round-trip through
lists.

An encoding also memoizes the derived structures the kernels keep
asking for — the stable per-site grouping, per-cache-set groupings,
the distinct-site table, filtered sub-encodings — because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.

This module deliberately imports nothing from ``repro`` outside the
kernels package, so the trace layer can depend on it without cycles.
"""

import numpy as np

_COLUMNS = ("sites", "classes", "takens", "targets", "gaps")


class EncodedTrace:
    """The five trace columns as NumPy arrays, in record order."""

    __slots__ = ("sites", "classes", "takens", "targets", "gaps",
                 "total_instructions", "_memo")

    def __init__(self, sites, classes, takens, targets, gaps,
                 total_instructions=0):
        self.sites = sites
        self.classes = classes
        self.takens = takens
        self.targets = targets
        self.gaps = gaps
        self.total_instructions = total_instructions
        self._memo = {}

    def __len__(self):
        return int(self.sites.shape[0])

    @classmethod
    def from_columns(cls, sites, classes, takens, targets, gaps,
                     total_instructions=0):
        """Build from list or array columns, normalising dtypes."""
        return cls(
            np.asarray(sites, dtype=np.int64),
            np.asarray(classes, dtype=np.int8),
            np.asarray(takens, dtype=np.int8).astype(bool),
            np.asarray(targets, dtype=np.int64),
            np.asarray(gaps, dtype=np.int64),
            int(total_instructions),
        )

    @classmethod
    def of(cls, trace):
        """The (memoized) encoding of a :class:`BranchTrace`.

        The cached encoding is keyed on the record count and the
        instruction total: appending or merging runs — branch-free ones
        included, which add instructions but no records — invalidates
        it naturally.  In-place mutation of existing records would not
        be noticed — nothing in the codebase does that to a trace that
        is being simulated.
        """
        cached = cls.cached(trace)
        if cached is not None:
            return cached
        encoded = cls.from_columns(
            trace.sites, trace.classes, trace.takens, trace.targets,
            trace.gaps, trace.total_instructions)
        trace._encoded = encoded
        return encoded

    @staticmethod
    def cached(trace):
        """The trace's memoized encoding if it is still current, else None."""
        cached = getattr(trace, "_encoded", None)
        if (cached is not None and len(cached) == len(trace)
                and cached.total_instructions == trace.total_instructions):
            return cached
        return None

    @classmethod
    def concatenate(cls, first, second):
        """The encoding of ``first``'s records followed by ``second``'s."""
        return cls(*(np.concatenate((getattr(first, name),
                                     getattr(second, name)))
                     for name in _COLUMNS),
                   first.total_instructions + second.total_instructions)

    def select(self, mask):
        """A new encoding holding only the records where ``mask``."""
        return EncodedTrace(
            self.sites[mask], self.classes[mask], self.takens[mask],
            self.targets[mask], self.gaps[mask],
            self.total_instructions)

    # -- memoized derived structures --------------------------------------

    def subset(self, key, mask):
        """Memoized :meth:`select` — ``key`` names the filter rule."""
        cached = self._memo.get(("subset", key))
        if cached is None:
            cached = self._memo[("subset", key)] = self.select(mask)
        return cached

    def site_groups(self):
        """Records grouped by branch site (memoized)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get("site_groups")
        if cached is None:
            cached = self._memo["site_groups"] = Groups(self.sites)
        return cached

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get(("set_groups", n_sets))
        if cached is None:
            cached = Groups(self.sites % n_sets)
            self._memo[("set_groups", n_sets)] = cached
        return cached

    def unique_sites(self):
        """``(distinct_sites, inverse)`` as from np.unique (memoized)."""
        cached = self._memo.get("unique_sites")
        if cached is None:
            cached = np.unique(self.sites, return_inverse=True)
            self._memo["unique_sites"] = cached
        return cached
