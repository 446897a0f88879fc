"""The IR verifier: structural invariants of a resolved Program.

Every compiler pass in this repository rewrites programs wholesale
(rebuild masks, layout reordering, slot insertion); the end-to-end
semantics tests catch miscompiles only when an input happens to
exercise the broken path.  The verifier checks the invariants those
passes must preserve *statically* and reports violations as
:class:`Diagnostic` records, so a broken pass fails at build time with
the offending rule and address.

Rules (rule id — meaning):

``unresolved``        program still has symbolic targets
``empty``             program has no instructions
``branch-target``     conditional/JUMP/CALL target missing or outside
                      the text
``call-target``       CALL target is not a function entry
``table-entry``       jump-table entry outside the text, or a TABLE
                      instruction naming a nonexistent table
``fall-off-end``      the last instruction can fall through past the
                      end of the text
``likely-flag``       a likely bit on a non-conditional instruction
``slots-likely``      forward slots on an instruction that cannot own
                      them (only likely conditionals — and JUMPs under
                      the fill_unconditional ablation — may)
``slot-region``       a forward-slot region is truncated, overlapping,
                      or its copies do not match the target-path
                      prefix (the Forward Semantic invariant)
``target-into-slots`` a branch target, jump-table entry, or function
                      entry lands inside a forward-slot region
``cross-function``    a flow edge connects two different functions'
                      regions (CALL/RET pairing is broken — e.g. a
                      dropped RET falls through into the next function)
``ret-in-entry``      a RET is reachable in the entry function, where
                      the call stack is empty
``use-before-def``    a register is read that no path ever writes
                      (the VM would fault on the register file)
``unreachable``       (warning) a basic block no execution can reach

Severities are ``"error"`` and ``"warning"``; only errors make
:func:`assert_valid` raise :class:`VerificationError`.
"""

from repro.analysis.dataflow import FlowGraph
from repro.analysis.effects import function_entry_addresses
from repro.analysis.reaching import use_before_def
from repro.analysis.unreachable import reachable_blocks
from repro.cfg import ControlFlowGraph
from repro.isa.opcodes import Opcode

_NO_FALL_THROUGH = frozenset({Opcode.JUMP, Opcode.RET, Opcode.JIND,
                              Opcode.HALT})
_NEEDS_TARGET = frozenset({Opcode.JUMP, Opcode.CALL})

ERROR = "error"
WARNING = "warning"


class Diagnostic:
    """One verifier finding."""

    __slots__ = ("severity", "address", "rule", "message")

    def __init__(self, severity, address, rule, message):
        self.severity = severity
        self.address = address
        self.rule = rule
        self.message = message

    @property
    def is_error(self):
        return self.severity == ERROR

    def __repr__(self):
        return "Diagnostic(%s, %r)" % (self, self.message)

    def __str__(self):
        return "%s:%s: [%s] %s" % (
            self.severity,
            "-" if self.address is None else self.address,
            self.rule, self.message)


class VerificationError(Exception):
    """Raised when a program fails verification.

    Attributes:
        context: what produced the bad program (a pass name).
        diagnostics: the error-severity :class:`Diagnostic` list.
    """

    def __init__(self, context, diagnostics):
        self.context = context
        self.diagnostics = list(diagnostics)
        lines = ["%s produced an invalid program (%d error%s):"
                 % (context, len(self.diagnostics),
                    "" if len(self.diagnostics) == 1 else "s")]
        lines.extend("  %s" % diagnostic
                     for diagnostic in self.diagnostics[:10])
        if len(self.diagnostics) > 10:
            lines.append("  ... %d more" % (len(self.diagnostics) - 10))
        super().__init__("\n".join(lines))


def verify_program(program, cfg=None, warnings=True):
    """Check every invariant; returns a list of :class:`Diagnostic`.

    Text-level rules run first; when any of them fail the CFG-level
    rules are skipped (the control-flow graph of a structurally broken
    program is not meaningful).
    """
    if not program.resolved:
        return [Diagnostic(ERROR, None, "unresolved",
                           "program has unresolved symbolic targets")]
    instructions = program.instructions
    size = len(instructions)
    if size == 0:
        return [Diagnostic(ERROR, None, "empty",
                           "program has no instructions")]

    diagnostics = []
    report = diagnostics.append
    entries = function_entry_addresses(program)

    # -- text-level rules ---------------------------------------------------
    slot_owner = [None] * size
    for address, instr in enumerate(instructions):
        op = instr.op
        if instr.is_conditional or op in _NEEDS_TARGET:
            if not isinstance(instr.target, int):
                report(Diagnostic(ERROR, address, "branch-target",
                                  "%s has no resolved target" % op.value))
            elif not 0 <= instr.target < size:
                report(Diagnostic(ERROR, address, "branch-target",
                                  "%s target %d outside text of %d"
                                  % (op.value, instr.target, size)))
        if op is Opcode.CALL and isinstance(instr.target, int) \
                and instr.target not in entries:
            report(Diagnostic(ERROR, address, "call-target",
                              "call target %d is not a function entry"
                              % instr.target))
        if instr.likely and not instr.is_conditional:
            report(Diagnostic(ERROR, address, "likely-flag",
                              "likely bit on non-conditional %s" % op.value))
        if instr.n_slots:
            diagnostics.extend(_check_slot_flags(instr, address, size,
                                                 slot_owner))
        if op is Opcode.TABLE and (
                instr.imm is None
                or not 0 <= instr.imm < len(program.jump_tables)):
            report(Diagnostic(ERROR, address, "table-entry",
                              "TABLE names nonexistent table %r" % instr.imm))

    for table in program.jump_tables:
        for entry in table.entries:
            if not isinstance(entry, int) or not 0 <= entry < size:
                report(Diagnostic(ERROR, None, "table-entry",
                                  "jump table %s entry %r outside text"
                                  % (table.name, entry)))

    # Slots owned by a JUMP (the fill_unconditional ablation) are dead
    # padding — a JUMP always redirects — so they cannot fall through.
    final_owner = slot_owner[size - 1]
    in_jump_padding = (final_owner is not None
                       and instructions[final_owner].op is Opcode.JUMP)
    if instructions[-1].op not in _NO_FALL_THROUGH and not in_jump_padding:
        report(Diagnostic(ERROR, size - 1, "fall-off-end",
                          "%s at the end of the text can fall through"
                          % instructions[-1].op.value))

    if any(diagnostic.is_error for diagnostic in diagnostics):
        return diagnostics

    # -- slot-region content and landing rules ------------------------------
    for address, instr in enumerate(instructions):
        if instr.is_branch and isinstance(instr.target, int):
            owner = slot_owner[instr.target]
            if owner is not None:
                report(Diagnostic(ERROR, address, "target-into-slots",
                                  "branch targets %d inside the slot "
                                  "region of the branch at %d"
                                  % (instr.target, owner)))
        if instr.n_slots and instr.is_conditional:
            diagnostics.extend(
                _check_slot_prefix(instructions, address, instr))
    for table in program.jump_tables:
        for entry in table.entries:
            if slot_owner[entry] is not None:
                report(Diagnostic(ERROR, None, "target-into-slots",
                                  "jump table %s entry %d lands inside "
                                  "the slot region of the branch at %d"
                                  % (table.name, entry, slot_owner[entry])))
    for entry, name in entries.items():
        if slot_owner[entry] is not None:
            report(Diagnostic(ERROR, entry, "target-into-slots",
                              "function %s entry lands inside the slot "
                              "region of the branch at %d"
                              % (name, slot_owner[entry])))

    if any(diagnostic.is_error for diagnostic in diagnostics):
        return diagnostics

    # -- CFG-level rules ----------------------------------------------------
    try:
        entry_address = program.entry
    except Exception as error:
        report(Diagnostic(ERROR, None, "empty", str(error)))
        return diagnostics
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    graph = FlowGraph(cfg)

    diagnostics.extend(_check_function_regions(program, cfg, graph,
                                               entries, entry_address))

    reachable = reachable_blocks(program, graph=graph)
    if warnings:
        for block in cfg.blocks:
            if block.start not in reachable:
                report(Diagnostic(WARNING, block.start, "unreachable",
                                  "block %d..%d is unreachable"
                                  % (block.start, block.end)))

    for address, register in use_before_def(program, blocks=reachable,
                                            graph=graph):
        report(Diagnostic(ERROR, address, "use-before-def",
                          "r%d is read but never written on any path"
                          % register))
    return diagnostics


def _check_slot_flags(instr, address, size, slot_owner):
    """Slot-count sanity and region bookkeeping for one instruction."""
    findings = []
    if instr.n_slots < 0:
        findings.append(Diagnostic(ERROR, address, "slots-likely",
                                   "negative slot count %d" % instr.n_slots))
        return findings
    if instr.is_conditional:
        if not instr.likely:
            findings.append(Diagnostic(
                ERROR, address, "slots-likely",
                "forward slots on a branch not predicted taken"))
    elif instr.op is not Opcode.JUMP:
        findings.append(Diagnostic(
            ERROR, address, "slots-likely",
            "forward slots on %s" % instr.op.value))
    if address + instr.n_slots >= size:
        findings.append(Diagnostic(
            ERROR, address, "slot-region",
            "slot region [%d..%d] extends past the end of the text"
            % (address + 1, address + instr.n_slots)))
        return findings
    for offset in range(1, instr.n_slots + 1):
        if slot_owner[address + offset] is not None:
            findings.append(Diagnostic(
                ERROR, address, "slot-region",
                "slot region overlaps the region of the branch at %d"
                % slot_owner[address + offset]))
            break
        slot_owner[address + offset] = address
    return findings


def _check_slot_prefix(instructions, address, instr):
    """The Forward Semantic invariant: the ``consumed = target -
    orig_target`` instructions after a slotted branch are faithful
    copies of the target-path prefix they replace."""
    findings = []
    orig = instr.orig_target
    if not isinstance(orig, int) or not 0 <= orig < len(instructions):
        findings.append(Diagnostic(
            ERROR, address, "slot-region",
            "slotted branch has no valid original target (%r)" % (orig,)))
        return findings
    consumed = instr.target - orig
    if not 0 <= consumed <= instr.n_slots:
        findings.append(Diagnostic(
            ERROR, address, "slot-region",
            "adjusted target consumes %d instructions but only %d "
            "slot%s reserved" % (consumed, instr.n_slots,
                                 " is" if instr.n_slots == 1 else "s are")))
        return findings
    for offset in range(consumed):
        copy = instructions[address + 1 + offset]
        original = instructions[orig + offset]
        if not copy.semantically_equal(original):
            findings.append(Diagnostic(
                ERROR, address, "slot-region",
                "slot %d (%r) is not a copy of the target-path "
                "instruction at %d (%r)"
                % (offset, copy, orig + offset, original)))
    return findings


def _check_function_regions(program, cfg, graph, entries, entry_address):
    """Flood each function's flow region; flag overlaps and a RET
    reachable with an empty call stack."""
    findings = []
    owner = {}
    for entry, name in sorted(entries.items()):
        start = cfg.block_of(entry).start
        seen = set()
        stack = [graph.index_of(start)]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            leader = cfg.blocks[index].start
            if leader in owner and owner[leader] != name:
                findings.append(Diagnostic(
                    ERROR, leader, "cross-function",
                    "block %d is reachable from both %s and %s "
                    "without a call" % (leader, owner[leader], name)))
                continue
            owner[leader] = name
            if index in graph.fallback_indirect:
                continue  # unresolved JIND: do not guess across regions
            stack.extend(graph.successors[index])

        if entry == entry_address:
            for index in seen:
                block = cfg.blocks[index]
                if program.instructions[block.end - 1].op is Opcode.RET:
                    findings.append(Diagnostic(
                        ERROR, block.end - 1, "ret-in-entry",
                        "RET reachable in entry function %s, where the "
                        "call stack is empty" % name))
    return findings


def assert_valid(program, context="program", cfg=None):
    """Raise :class:`VerificationError` when verification finds errors.

    Returns the full diagnostic list (warnings included) otherwise.
    """
    diagnostics = verify_program(program, cfg=cfg)
    errors = [diagnostic for diagnostic in diagnostics
              if diagnostic.is_error]
    if errors:
        raise VerificationError(context, errors)
    return diagnostics
