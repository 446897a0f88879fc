"""Profiling infrastructure: the paper's profiler.

The paper's compiler inserts probes at the entry of every basic block,
runs the program over a representative input suite, and feeds the
accumulated counts back into recompilation.  This package computes the
same counts from the VM's branch trace: between two branches the
machine fetches sequentially, so each run's fetch segments say how
often every CFG leader was reached, and the trace records give the
per-branch direction and target statistics.
"""

from repro.profiling.profiler import Profile, profile_program, profile_trace

__all__ = ["Profile", "profile_program", "profile_trace"]
