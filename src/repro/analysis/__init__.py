"""Static analysis: dataflow framework, concrete analyses, IR verifier.

The package has three layers (see ``docs/ANALYSIS.md``):

* :mod:`.dataflow` — a generic worklist solver over
  :class:`~repro.cfg.ControlFlowGraph` flow graphs, with forward /
  backward direction and a configurable lattice join;
* concrete analyses on top of it — :mod:`.liveness`,
  :mod:`.reaching` (reaching definitions and use-before-def),
  :mod:`.dominators`, :mod:`.unreachable`;
* :mod:`.verify` — the IR verifier the optimizer and the Forward
  Semantic pipeline run after every transformation.

The opcode-mix helpers that predate the package live in :mod:`.mix`
and are re-exported here, so ``from repro.analysis import
dynamic_opcode_mix`` keeps working.
"""

from repro.analysis.dataflow import (
    Analysis,
    DataflowResult,
    FlowGraph,
    postorder,
    solve,
)
from repro.analysis.dominators import dominator_sets, immediate_dominators
from repro.analysis.effects import (
    PURE_WRITE_OPCODES,
    function_argument_counts,
    function_entry_addresses,
    is_pure_write,
    register_written,
    registers_read,
)
from repro.analysis.liveness import (
    Liveness,
    compute_liveness,
    dead_register_writes,
)
from repro.analysis.mix import (
    dynamic_opcode_mix,
    mix_fractions,
    static_opcode_mix,
    summarize_mix,
)
from repro.analysis.reaching import (
    ReachingDefinitions,
    compute_reaching_definitions,
    defined_registers,
    use_before_def,
)
from repro.analysis.unreachable import reachable_blocks, unreachable_blocks
from repro.analysis.verify import (
    Diagnostic,
    VerificationError,
    assert_valid,
    verify_program,
)

__all__ = [
    # opcode mixes (the original repro.analysis module)
    "static_opcode_mix",
    "dynamic_opcode_mix",
    "mix_fractions",
    "summarize_mix",
    # dataflow framework
    "Analysis",
    "DataflowResult",
    "FlowGraph",
    "postorder",
    "solve",
    # register effects
    "PURE_WRITE_OPCODES",
    "registers_read",
    "register_written",
    "is_pure_write",
    "function_entry_addresses",
    "function_argument_counts",
    # analyses
    "Liveness",
    "compute_liveness",
    "dead_register_writes",
    "ReachingDefinitions",
    "compute_reaching_definitions",
    "defined_registers",
    "use_before_def",
    "dominator_sets",
    "immediate_dominators",
    "reachable_blocks",
    "unreachable_blocks",
    # verifier
    "Diagnostic",
    "VerificationError",
    "verify_program",
    "assert_valid",
]
