"""Branch traces and trace statistics.

A *branch record* captures one dynamic execution of a branch
instruction; the sequence of records plus the total dynamic instruction
count is everything the predictors, the cost model, and Tables 1-3 need.

Records are stored column-wise in plain lists (the reference VM appends
them one at a time) and can be converted to numpy arrays for on-disk
caching.  A trace that starts out as NumPy columns — recorded by the
block translator or loaded from the cache — keeps only its kernel
encoding until something asks for the lists.
"""

import numpy as np

_COLUMNS = ("sites", "classes", "takens", "targets", "gaps")


class BranchClass:
    """Integer codes classifying a dynamic branch."""

    CONDITIONAL = 0
    UNCONDITIONAL_KNOWN = 1    # direct jump / call
    UNCONDITIONAL_UNKNOWN = 2  # indirect jump (switch jump table)
    RETURN = 3                 # procedure return: known-target via the
                               # call-return discipline (see DESIGN.md)

    NAMES = {
        CONDITIONAL: "conditional",
        UNCONDITIONAL_KNOWN: "unconditional-known",
        UNCONDITIONAL_UNKNOWN: "unconditional-unknown",
        RETURN: "return",
    }


class BranchRecord:
    """One dynamic branch execution (a convenience row view)."""

    __slots__ = ("site", "branch_class", "taken", "target", "gap")

    def __init__(self, site, branch_class, taken, target, gap):
        self.site = site
        self.branch_class = branch_class
        self.taken = taken
        self.target = target
        self.gap = gap

    @property
    def is_conditional(self):
        return self.branch_class == BranchClass.CONDITIONAL

    @property
    def target_known(self):
        """Known-target branches in the Table 2 sense.

        Conditional branches, direct jumps/calls, and returns (whose
        targets follow from the call-return discipline) are "known";
        only jump-table indirections are "unknown".
        """
        return self.branch_class != BranchClass.UNCONDITIONAL_UNKNOWN

    def __repr__(self):
        return "BranchRecord(site=%d, %s, taken=%s, target=%d, gap=%d)" % (
            self.site, BranchClass.NAMES[self.branch_class],
            self.taken, self.target, self.gap,
        )

    def __eq__(self, other):
        if not isinstance(other, BranchRecord):
            return NotImplemented
        return (self.site == other.site
                and self.branch_class == other.branch_class
                and self.taken == other.taken
                and self.target == other.target
                and self.gap == other.gap)


class BranchTrace:
    """The dynamic branch stream of one (or several merged) program runs.

    Column-wise storage:
        sites: branch instruction address per record,
        classes: :class:`BranchClass` code per record,
        takens: 1 when the branch transferred control, else 0,
        targets: actual target address (meaningful when taken; for
            not-taken conditionals it is the would-be taken target),
        gaps: non-branch instructions executed since the previous branch.

    ``total_instructions`` counts every executed instruction including
    the branches themselves.

    A trace made by :meth:`from_encoded` builds the five lists on first
    access; until then its records live only in the encoding.
    """

    def __init__(self):
        self.sites = []
        self.classes = []
        self.takens = []
        self.targets = []
        self.gaps = []
        self.total_instructions = 0

    @classmethod
    def from_encoded(cls, encoded):
        """A trace of ``encoded``'s records, lists built on first use."""
        trace = cls.__new__(cls)
        trace.total_instructions = encoded.total_instructions
        trace._encoded = encoded
        return trace

    def __getattr__(self, name):
        # Reached only for attributes not set: the columns of a trace
        # made by from_encoded, before their first use.
        encoded = self.__dict__.get("_encoded")
        if name not in _COLUMNS or encoded is None:
            raise AttributeError(name)
        for column in _COLUMNS:
            values = getattr(encoded, column)
            if values.dtype == bool:
                values = values.astype(np.int8)
            self.__dict__[column] = values.tolist()
        return self.__dict__[name]

    def _lists_built(self):
        return "sites" in self.__dict__

    # -- construction -----------------------------------------------------

    def append(self, site, branch_class, taken, target, gap):
        self.sites.append(site)
        self.classes.append(branch_class)
        self.takens.append(1 if taken else 0)
        self.targets.append(target)
        self.gaps.append(gap)

    def extend(self, other):
        """Concatenate ``other``'s records (merging multiple runs).

        When both traces carry a current kernel encoding, the merged
        trace gets the concatenated encoding, and lists that neither
        trace has built yet stay unbuilt.
        """
        from repro.kernels.encode import EncodedTrace

        mine = EncodedTrace.cached(self)
        theirs = EncodedTrace.cached(other)
        both = mine is not None and theirs is not None
        if not (both and not self._lists_built()
                and not other._lists_built()):
            self.sites.extend(other.sites)
            self.classes.extend(other.classes)
            self.takens.extend(other.takens)
            self.targets.extend(other.targets)
            self.gaps.extend(other.gaps)
        self.total_instructions += other.total_instructions
        if both:
            self._encoded = EncodedTrace.concatenate(mine, theirs)

    # -- access -------------------------------------------------------------

    def __len__(self):
        if self._lists_built():
            return len(self.sites)
        return len(self._encoded)

    def __getitem__(self, index):
        return BranchRecord(
            self.sites[index], self.classes[index],
            bool(self.takens[index]), self.targets[index], self.gaps[index],
        )

    def records(self):
        """Iterate over (site, branch_class, taken, target, gap) tuples."""
        return zip(self.sites, self.classes, self.takens,
                   self.targets, self.gaps)

    # -- statistics -----------------------------------------------------------

    def stats(self):
        """Compute :class:`TraceStats` over all records."""
        from repro.kernels.encode import EncodedTrace

        encoded = EncodedTrace.of(self)
        stats = TraceStats()
        stats.total_instructions = self.total_instructions
        conditional = encoded.classes == BranchClass.CONDITIONAL
        taken_conditional = int(
            np.count_nonzero(encoded.takens & conditional))
        stats.conditional_taken = taken_conditional
        stats.conditional_not_taken = (
            int(np.count_nonzero(conditional)) - taken_conditional)
        stats.unconditional_unknown = int(np.count_nonzero(
            encoded.classes == BranchClass.UNCONDITIONAL_UNKNOWN))
        # Direct jumps, calls, and returns all have known targets.
        stats.unconditional_known = (
            len(encoded) - stats.conditional
            - stats.unconditional_unknown)
        return stats

    # -- serialisation -----------------------------------------------------------

    def to_arrays(self):
        """Pack the trace into numpy arrays for on-disk caching.

        The columns come from the (memoized) kernel encoding, so the
        simulations that follow a cache store reuse the conversion.
        """
        from repro.kernels.encode import EncodedTrace

        encoded = EncodedTrace.of(self)
        return {
            "sites": encoded.sites,
            "classes": encoded.classes,
            "takens": encoded.takens.astype(np.int8),
            "targets": encoded.targets,
            "gaps": encoded.gaps,
            "total_instructions": np.int64(self.total_instructions),
        }

    @classmethod
    def from_arrays(cls, arrays):
        """Rebuild a trace saved by :meth:`to_arrays`.

        The arrays are already the columnar form the vector engine
        wants, so they become the trace's kernel encoding directly; the
        lists are built only if something asks for them.
        """
        from repro.kernels.encode import EncodedTrace

        return cls.from_encoded(EncodedTrace.from_columns(
            arrays["sites"], arrays["classes"], arrays["takens"],
            arrays["targets"], arrays["gaps"],
            int(arrays["total_instructions"])))


class TraceStats:
    """Aggregate branch statistics of a trace (Tables 1 and 2)."""

    def __init__(self):
        self.total_instructions = 0
        self.conditional_taken = 0
        self.conditional_not_taken = 0
        self.unconditional_known = 0
        self.unconditional_unknown = 0

    @property
    def conditional(self):
        return self.conditional_taken + self.conditional_not_taken

    @property
    def unconditional(self):
        return self.unconditional_known + self.unconditional_unknown

    @property
    def branches(self):
        return self.conditional + self.unconditional

    @property
    def control_fraction(self):
        """Fraction of dynamic instructions that are branches (Table 1)."""
        if self.total_instructions == 0:
            return 0.0
        return self.branches / self.total_instructions

    @property
    def taken_fraction(self):
        """Fraction of conditional branches that are taken (Table 2)."""
        if self.conditional == 0:
            return 0.0
        return self.conditional_taken / self.conditional

    @property
    def known_fraction(self):
        """Fraction of unconditional branches with known targets (Table 2)."""
        if self.unconditional == 0:
            return 0.0
        return self.unconditional_known / self.unconditional

    def merge(self, other):
        self.total_instructions += other.total_instructions
        self.conditional_taken += other.conditional_taken
        self.conditional_not_taken += other.conditional_not_taken
        self.unconditional_known += other.unconditional_known
        self.unconditional_unknown += other.unconditional_unknown
        return self

    def __repr__(self):
        return ("TraceStats(instructions=%d, cond=%d (%.1f%% taken), "
                "uncond=%d (%.1f%% known))" % (
                    self.total_instructions, self.conditional,
                    100.0 * self.taken_fraction, self.unconditional,
                    100.0 * self.known_fraction))
