"""Reaching definitions (forward, may, union join) and use-before-def.

Definition sites are instruction addresses that write a register,
plus one *synthetic* definition per argument register at each function
entry (the machine seeds a callee frame with ``r0..rK`` from the
staged ``ARG`` values; :func:`~repro.analysis.effects.function_argument_counts`
bounds K per function).  Values are integer bitmasks over definition
indices.

:func:`use_before_def` reports reads of registers with *no* reaching
definition at all — on every path from the function entry the
register is never written, so executing the read would fault in the
VM (a ``KeyError`` on the register file).  It is a may-analysis, so it
never flags a read that some path does define.  It needs only *which
registers* have a reaching definition, so it solves the register-level
projection of the problem (:class:`_MayDefineAnalysis`: a bitmask over
register numbers, gen = the registers a block writes, no kill) rather
than the definition-site one; projecting reaching definitions onto
their registers commutes with the union join and the transfer, so
both give the same answer.  :func:`compute_reaching_definitions`
stays the site-level reference.
"""

from repro.analysis.dataflow import Analysis, FlowGraph, solve
from repro.analysis.effects import (
    function_argument_counts,
    register_written,
    registers_read,
)
from repro.cfg import ControlFlowGraph


class ReachingDefinitions:
    """Fixed-point reaching definitions of a program.

    Attributes:
        graph: the :class:`~repro.analysis.dataflow.FlowGraph` used.
        sites: list of (address, register) per definition index;
            synthetic argument definitions use address ``-1``.
        reach_in / reach_out: {leader: bitmask of definition indices}.
    """

    def __init__(self, graph, sites, reach_in, reach_out):
        self.graph = graph
        self.sites = sites
        self.reach_in = reach_in
        self.reach_out = reach_out

    def registers_defined_in(self, leader):
        """Mask of registers with at least one def reaching the block."""
        return self._registers_of(self.reach_in[leader])

    def _registers_of(self, mask):
        registers = 0
        index = 0
        while mask:
            if mask & 1:
                registers |= 1 << self.sites[index][1]
            mask >>= 1
            index += 1
        return registers


class _ReachingAnalysis(Analysis):
    direction = "forward"

    def __init__(self, graph):
        program = graph.cfg.program
        self.sites = []          # definition index -> (address, register)
        defs_of_register = {}    # register -> mask of its definition indices
        gen = []
        written_registers = []

        entry_args = function_argument_counts(program)
        self.entry_masks = {}    # block index -> synthetic-defs mask
        for entry, count in entry_args.items():
            mask = 0
            for register in range(count):
                index = len(self.sites)
                self.sites.append((-1, register))
                defs_of_register.setdefault(register, 0)
                defs_of_register[register] |= 1 << index
                mask |= 1 << index
            self.entry_masks[graph.index_of(entry)] = mask

        for block in graph.cfg.blocks:
            block_gen = 0
            block_written = 0
            for address in range(block.start, block.end):
                register = register_written(program.instructions[address])
                if register is None:
                    continue
                index = len(self.sites)
                self.sites.append((address, register))
                defs_of_register.setdefault(register, 0)
                defs_of_register[register] |= 1 << index
                # A later def of the same register in this block kills
                # this one; keep only the block's last def per register.
                block_gen &= ~defs_of_register[register]
                block_gen |= 1 << index
                block_written |= 1 << register
            gen.append(block_gen)
            written_registers.append(block_written)

        self.defs_of_register = defs_of_register
        self.gen = gen
        kill = []
        for index, written in enumerate(written_registers):
            mask = 0
            register = 0
            while written:
                if written & 1:
                    mask |= defs_of_register[register]
                written >>= 1
                register += 1
            kill.append(mask & ~gen[index])
        self.kill = kill

    def initial(self, graph, index):
        return 0

    def boundary(self, graph, index):
        return self.entry_masks.get(index)

    def join(self, left, right):
        return left | right

    def transfer(self, graph, index, reach_in):
        return self.gen[index] | (reach_in & ~self.kill[index])


def compute_reaching_definitions(program, cfg=None, graph=None):
    """Solve reaching definitions for a resolved program."""
    if graph is None:
        graph = FlowGraph(cfg or ControlFlowGraph.from_program(program))
    analysis = _ReachingAnalysis(graph)
    result = solve(graph, analysis)
    reach_in = {}
    reach_out = {}
    for index, block in enumerate(graph.cfg.blocks):
        reach_in[block.start] = result.inputs[index]
        reach_out[block.start] = result.outputs[index]
    return ReachingDefinitions(graph, analysis.sites, reach_in, reach_out)


class _MayDefineAnalysis(Analysis):
    """Registers with at least one definition on some path (forward,
    union join): reaching definitions projected onto register numbers."""

    direction = "forward"

    def __init__(self, graph):
        program = graph.cfg.program
        self.written = []
        for block in graph.cfg.blocks:
            mask = 0
            for address in range(block.start, block.end):
                register = register_written(program.instructions[address])
                if register is not None:
                    mask |= 1 << register
            self.written.append(mask)
        self.entry_masks = {
            graph.index_of(entry): (1 << count) - 1
            for entry, count in function_argument_counts(program).items()}

    def initial(self, graph, index):
        return 0

    def boundary(self, graph, index):
        return self.entry_masks.get(index)

    def join(self, left, right):
        return left | right

    def transfer(self, graph, index, defined_in):
        return defined_in | self.written[index]


def defined_registers(graph):
    """{leader: mask of registers with a definition reaching the
    block} — :meth:`ReachingDefinitions.registers_defined_in` for
    every block, from the register-level analysis."""
    inputs = solve(graph, _MayDefineAnalysis(graph)).inputs
    return {block.start: inputs[index]
            for index, block in enumerate(graph.cfg.blocks)}


def use_before_def(program, cfg=None, reaching=None, blocks=None,
                   graph=None):
    """Reads of registers with no reaching definition on any path.

    Args:
        program: resolved program.
        cfg: optional pre-built CFG.
        reaching: optional pre-computed :class:`ReachingDefinitions`
            to read the defined registers from (the reference); by
            default the register-level analysis runs instead.
        blocks: optional iterable of block leaders to restrict the
            scan to (typically the reachable blocks — unreachable code
            has no paths from any entry and would flag every read).
        graph: optional pre-built :class:`FlowGraph` (over ``cfg``).

    Returns a list of (address, register) pairs in address order.
    """
    if reaching is not None:
        graph = reaching.graph
        defined_in = reaching.registers_defined_in
    else:
        if graph is None:
            graph = FlowGraph(
                cfg or ControlFlowGraph.from_program(program))
        defined_in = defined_registers(graph).__getitem__
    instructions = graph.cfg.program.instructions
    wanted = None if blocks is None else set(blocks)

    faults = []
    for block in graph.cfg.blocks:
        if wanted is not None and block.start not in wanted:
            continue
        defined = defined_in(block.start)
        for address in range(block.start, block.end):
            instr = instructions[address]
            for register in registers_read(instr):
                if not defined >> register & 1:
                    faults.append((address, register))
            written = register_written(instr)
            if written is not None:
                defined |= 1 << written
    return faults
