"""Block translation: the fast path of the functional simulator.

:meth:`Machine._run <repro.vm.machine.Machine._run>` is the reference
interpreter: one dispatch per instruction.  This module translates a
resolved program, once, into generated Python functions: one per
address that control can reach by a transfer (the entry point, static
branch targets, return addresses, jump-table entries).  A function runs
its basic block straight-line, with registers cached in locals and
written back to the per-frame dict the reference uses, and carries on
into the next block while a conditional branch falls through.  It
returns the id of the exit it left by; a small dispatch loop
(:func:`run_blocks`) follows the exits.

A block is only ever entered right after a control transfer (or at the
entry point), so the site, class, static target and gap of the record
its branch emits are compile-time constants: each record is one
precomputed integer key, and the five trace columns are decoded with
NumPy after the run.  Keys of returns and indirect jumps carry their
run-time target in the bits above :data:`_TARGET_SHIFT`.

The fast path serves ``slot_mode="direct"`` runs without an address
trace.  It keeps no error paths of its own: any exception, a pc without
a function, or an exhausted instruction budget makes :func:`run_blocks`
return None, and the caller re-runs the same inputs on the reference,
so exception type, message and pc are exact by construction.
"""

import operator

import numpy as np

from repro.isa.opcodes import Opcode
from repro.isa.program import ProgramError
from repro.kernels.encode import EncodedTrace
from repro.vm.machine import (
    _BEQ, _BGE, _BGT, _BLE, _BLT, _BNE, _CALL, _HALT, _JIND, _JUMP,
    _OP_INT, _RET,
    MachineResult,
    _c_div,
    _c_rem,
    _decode,
)
from repro.vm.tracing import BranchClass, BranchTrace

#: Dynamic targets (returns, indirect jumps) ride in a record key above
#: this bit; the record id sits below it.
_TARGET_SHIFT = 32
_RECORD_MASK = (1 << _TARGET_SHIFT) - 1

# Negative next-pc codes of the exit table (real pcs are >= 0); a call
# exit's is ``_CALL_BASE - target``.
_HALTED = -1
_RETURN = -2
_INDIRECT = -3
_CALL_BASE = -4

_CONDITIONS = {_BEQ: "==", _BNE: "!=", _BLT: "<", _BLE: "<=",
               _BGT: ">", _BGE: ">="}
_CONTROL = frozenset(_CONDITIONS) | {_JUMP, _CALL, _RET, _JIND, _HALT}

_FOLD = {
    Opcode.ADD: ("+", operator.add),
    Opcode.SUB: ("-", operator.sub),
    Opcode.MUL: ("*", operator.mul),
    Opcode.AND: ("&", operator.and_),
    Opcode.OR: ("|", operator.or_),
    Opcode.XOR: ("^", operator.xor),
}
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Untranslatable(Exception):
    """A block whose operands the translator does not model."""


def _src(value):
    """Source text of a register value: a local name or a constant."""
    if isinstance(value, str):
        return value
    return "(%d)" % value if value < 0 else "%d" % value


def _constant(value):
    if not isinstance(value, int):
        raise _Untranslatable
    return value


class _BlockWriter:
    """Source lines of one function, with registers cached in locals.

    Register ``n`` lives in the local ``v<n>`` (or as a known constant)
    from its first use in the function; it is loaded from the frame dict
    ``r`` on first read and written back before each branch, unless it
    is dead there (:func:`_live_registers`).
    Intermediate register state never matters: a fault anywhere in the
    function sends the whole run to the reference.
    """

    def __init__(self):
        self.lines = []
        self.values = {}    # register -> int constant or local name
        self.dirty = {}     # registers written since the last flush

    def read(self, register):
        value = self.values.get(_register(register))
        if value is None:
            value = self.values[register] = "v%d" % register
            self.lines.append("%s = r[%d]" % (value, register))
        return value

    def write(self, register, value):
        """Bind ``register`` to a constant or to an expression's value."""
        register = _register(register)
        if isinstance(value, str):
            name = "v%d" % register
            if value != name:
                self.lines.append("%s = %s" % (name, value))
            value = name
        self.values[register] = value
        self.dirty[register] = None

    def flush(self, live):
        """Write the registers the block changed back to the frame,
        skipping those dead here (``live`` is a register bitmask)."""
        for register in self.dirty:
            if live >> register & 1:
                self.lines.append("r[%d] = %s" % (
                    register, _src(self.values[register])))
        self.dirty.clear()

    def address(self, base, offset):
        """Source of ``base + offset`` checked non-negative, or None
        when the address is a constant that faults."""
        offset = _constant(offset)
        if not isinstance(base, str):
            address = base + offset
            return None if address < 0 else "%d" % address
        if offset:
            self.lines.append("x = %s + %s" % (base, _src(offset)))
            base = "x"
        # Negative addresses would wrap in a Python list; past-the-end
        # raises IndexError by itself.
        self.lines.append("if %s < 0: raise Bail" % base)
        return base

    def instruction(self, op, dest, a, b, imm):
        """Emit one non-control instruction."""
        name = _OPCODES[op]
        if name in _FOLD:
            symbol, fold = _FOLD[name]
            x, y = self.read(a), self.read(b)
            if isinstance(x, int) and isinstance(y, int):
                self.write(dest, fold(x, y))
            else:
                self.write(dest, "%s %s %s" % (_src(x), symbol, _src(y)))
        elif name is Opcode.LI:
            self.write(dest, _constant(imm))
        elif name is Opcode.MOV:
            self.write(dest, self.read(a))
        elif name is Opcode.LOAD:
            address = self.address(self.read(a), imm)
            if address is None:
                self.lines.append("raise Bail")
            else:
                self.write(dest, "m[%s]" % address)
        elif name is Opcode.STORE:
            value = self.read(a)
            address = self.address(self.read(b), imm)
            if address is None:
                self.lines.append("raise Bail")
            else:
                self.lines.append("m[%s] = %s" % (address, _src(value)))
        elif name in (Opcode.DIV, Opcode.REM):
            helper = "c_div" if name is Opcode.DIV else "c_rem"
            self.write(dest, "%s(%s, %s)" % (
                helper, _src(self.read(a)), _src(self.read(b))))
        elif name in (Opcode.SHL, Opcode.SHR):
            symbol = "<<" if name is Opcode.SHL else ">>"
            x, y = self.read(a), self.read(b)
            if isinstance(x, int) and isinstance(y, int):
                self.write(dest, x << (y & 63) if symbol == "<<"
                           else x >> (y & 63))
            elif isinstance(y, int):
                self.write(dest, "%s %s %d" % (_src(x), symbol, y & 63))
            else:
                self.write(dest, "%s %s (%s & 63)" % (_src(x), symbol, y))
        elif name in (Opcode.NEG, Opcode.NOT):
            x = self.read(a)
            if isinstance(x, int):
                self.write(dest, -x if name is Opcode.NEG else ~x)
            else:
                self.write(dest, ("-%s" if name is Opcode.NEG else "~%s")
                           % x)
        elif name is Opcode.ARG:
            index = _constant(imm)
            self.lines.append("while len(pa) <= %s: pa.append(0)"
                              % _src(index))
            self.lines.append("pa[%s] = %s" % (
                _src(index), _src(self.read(a))))
        elif name is Opcode.RETV:
            self.lines.append("rv[0] = %s" % _src(self.read(a)))
        elif name is Opcode.RESULT:
            self.write(dest, "rv[0]")
        elif name is Opcode.TABLE:
            table = _constant(imm)
            index = self.address(self.read(a), 0)
            if index is None:
                self.lines.append("raise Bail")
            else:
                self.write(dest, "tb[%s][%s]" % (_src(table), index))
        elif name is Opcode.GETC:
            stream = _constant(imm)
            if stream < 0:
                raise _Untranslatable
            local = "v%d" % _register(dest)
            self.lines.extend([
                "x = ip[%d]" % stream, "s = ins[%d]" % stream,
                "if x < len(s):",
                "    %s = s[x]" % local,
                "    ip[%d] = x + 1" % stream,
                "else:",
                "    %s = -1" % local])
            self.write(dest, local)
        elif name is Opcode.PUTC:
            x = self.read(a)
            self.lines.append("oa(%d)" % (x & 255) if isinstance(x, int)
                              else "oa(%s & 255)" % x)
        elif name is Opcode.PUTI:
            x = self.read(a)
            self.lines.append("ox(%r)" % (b"%d" % x) if isinstance(x, int)
                              else "ox(b'%%d' %% %s)" % x)
        elif name is not Opcode.NOP:  # pragma: no cover - all listed
            raise _Untranslatable


def _register(register):
    if not isinstance(register, int) or register < 0:
        raise _Untranslatable
    return register


_OPCODES = {index: op for op, index in _OP_INT.items()}


class BlockTranslation:
    """Generated block functions of one program's decoded code.

    There is one function per address that control can reach by a
    transfer (:func:`_function_entries`).  A function runs its block and
    then, as long as a conditional branch falls through to an address
    nothing else transfers to, carries on into that block inline; a
    taken branch inside the chain leaves the function.  The function
    returns the id of the exit it left by.  Every exit is a row of the
    exit table: the record its branch emits (the record key is the exit
    id), where control goes next and how many instructions the path
    from the function's entry to the exit ran.  Records of the inline
    fall-throughs are appended inside the function.

    Attributes:
        code: the decoded instruction tuples this translation was made
            from (a run reuses the translation only if they still match).
        nexts: per exit, the next pc, or a negative code: ``_HALTED``,
            ``_RETURN``, ``_INDIRECT`` (target in the run's ``jx[0]``)
            or ``_CALL_BASE - target``.
        lengths: per exit, the instructions run from the function's
            entry up to and including the exit's branch.
        returns: per exit, the return address of a call exit.
        record_sites, record_classes, record_takens, record_targets,
        record_gaps: the exits' records, as arrays indexed by key.
    """

    __slots__ = ("code", "nexts", "lengths", "returns", "_bind",
                 "_entries", "record_sites", "record_classes",
                 "record_takens", "record_targets", "record_gaps")

    def __init__(self, program, code=None):
        self.code = _decode(program) if code is None else code
        self._entries = entries = _function_entries(program, self.code)
        targets = frozenset(entries)
        live = _live_registers(self.code, entries)
        exits = {}
        functions = []
        for entry in entries:
            functions.append("    def b%d(r):\n%s" % (entry, "".join(
                "        %s\n" % line
                for line in self._function(entry, targets, live, exits))))
        # bind() closes the functions over one run's state: memory,
        # jump tables, input streams and positions, output append and
        # extend, record-key append, pending call arguments, and the
        # return-value and indirect-target cells.
        source = (
            "def bind(m, tb, ins, ip, oa, ox, ka, pa, rv, jx):\n"
            + "".join(functions)
            + "    return [%s]\n" % ", ".join("b%d" % entry
                                          for entry in entries))
        namespace = {"Bail": _Bail, "c_div": _c_div, "c_rem": _c_rem}
        exec(compile(source, "<blocks:%s>" % program.name, "exec"),
             namespace)
        self._bind = namespace["bind"]
        table = sorted(exits, key=exits.get)
        self.nexts = [next_pc for _, next_pc, _ in table]
        self.lengths = [length for _, _, length in table]
        self.returns = [record[0] + 1 for record, _, _ in table]
        columns = list(zip(*[record for record, _, _ in table])) or [()] * 5
        self.record_sites = np.asarray(columns[0], dtype=np.int64)
        self.record_classes = np.asarray(columns[1], dtype=np.int8)
        self.record_takens = np.asarray(columns[2], dtype=bool)
        self.record_targets = np.asarray(columns[3], dtype=np.int64)
        self.record_gaps = np.asarray(columns[4], dtype=np.int64)

    def _function(self, entry, targets, live, exits):
        """Source lines of the function entered at ``entry``."""
        writer = _BlockWriter()
        try:
            self._emit(writer, entry, targets, live, exits)
        except _Untranslatable:
            return ["raise Bail"]
        return writer.lines

    def _emit(self, writer, entry, targets, live, exits):
        code = self.code
        size = len(code)
        lines = writer.lines
        pc = entry
        ran = 0     # instructions from the function's entry (slots skipped)
        while True:
            start = pc
            while pc < size:
                op, dest, a, b, imm, target, n_slots, orig = code[pc]
                if op in _CONTROL:
                    break
                writer.instruction(op, dest, a, b, imm)
                pc += 1
            else:
                # Runs off the end of the code: the next fetch faults.
                lines.append("raise Bail")
                return
            ran += pc - start + 1
            exit_id = _exit_table(exits, pc - start, ran)
            if op not in _CONDITIONS:
                self._leave(writer, exit_id, pc, op, a, target, live)
                return
            # Direct slot mode: a taken likely branch goes straight to
            # the original target; not taken skips its slots.
            taken_pc = orig if n_slots else target
            fall_pc = pc + 1 + _constant(n_slots)
            if not (_in_code(target, size) and _in_code(taken_pc, size)
                    and fall_pc > pc):
                lines.append("raise Bail")
                return
            x, y = writer.read(a), writer.read(b)
            writer.flush(live[taken_pc] | (live[fall_pc] if fall_pc < size
                                           else 0))
            taken = exit_id(pc, BranchClass.CONDITIONAL, 1, target,
                            taken_pc)
            fall = exit_id(pc, BranchClass.CONDITIONAL, 0, target, fall_pc)
            symbol = _CONDITIONS[op]
            inline = fall_pc < size and fall_pc not in targets
            if isinstance(x, int) and isinstance(y, int):
                if _COMPARE[symbol](x, y):
                    lines.append("return %d" % taken)
                    return
                if not inline:
                    lines.append("return %d" % fall)
                    return
            elif inline:
                lines.append("if %s %s %s: return %d" % (
                    _src(x), symbol, _src(y), taken))
            else:
                lines.append("return %d if %s %s %s else %d" % (
                    taken, _src(x), symbol, _src(y), fall))
                return
            # Fall through into the next block without leaving.
            lines.append("ka(%d)" % fall)
            pc = fall_pc

    def _leave(self, writer, exit_id, pc, op, a, target, live):
        """The unconditional transfer (or HALT) that ends a function."""
        size = len(self.code)
        lines = writer.lines
        # Registers die with the run at HALT and with the frame at RET,
        # so neither flushes them.
        if op == _HALT:
            lines.append("return %d" % exit_id(-1, -1, 0, 0, _HALTED))
        elif op == _RET:
            lines.append("return %d" % exit_id(
                pc, BranchClass.RETURN, 1, 0, _RETURN))
        elif op == _JIND:
            x = writer.read(a)
            writer.flush(-1)
            if isinstance(x, int) and not 0 <= x < size:
                lines.append("raise Bail")
                return
            key = exit_id(pc, BranchClass.UNCONDITIONAL_UNKNOWN, 1, 0,
                          _INDIRECT)
            lines.extend([
                "if not 0 <= %s < %d: raise Bail" % (_src(x), size),
                "jx[0] = %s" % _src(x),
                "ka(%d + (%s << %d))" % (key, _src(x), _TARGET_SHIFT),
                "return %d" % key])
        elif not _in_code(target, size):
            lines.append("raise Bail")
        else:
            # After a call the frame resumes at the return address.
            after = target if op == _JUMP else pc + 1
            writer.flush(live[after] if after < size else 0)
            lines.append("return %d" % exit_id(
                pc, BranchClass.UNCONDITIONAL_KNOWN, 1, target,
                target if op == _JUMP else _CALL_BASE - target))

    def bind(self, *state):
        """Per-run block functions, indexed by pc (None: no block)."""
        blocks = [None] * len(self.code)
        for entry, function in zip(self._entries, self._bind(*state)):
            blocks[entry] = function
        return blocks

    def decode(self, keys, total_instructions):
        """The :class:`BranchTrace` of a run's record keys.

        The trace holds the decoded columns as its kernel encoding; its
        lists are built only if something asks for them.
        """
        keys = np.asarray(keys, dtype=np.int64)
        ids = keys & _RECORD_MASK
        return BranchTrace.from_encoded(EncodedTrace(
            self.record_sites[ids], self.record_classes[ids],
            self.record_takens[ids],
            self.record_targets[ids] + (keys >> _TARGET_SHIFT),
            self.record_gaps[ids], total_instructions))


class _Bail(Exception):
    """The fast path gives the run back to the reference interpreter."""


def _in_code(address, size):
    return isinstance(address, int) and 0 <= address < size


def _exit_table(exits, gap, length):
    """``exit_id(site, class, taken, target, next)``, interning rows."""
    def exit_id(site, branch_class, taken, target, next_pc):
        row = ((site, branch_class, taken, target, gap), next_pc, length)
        found = exits.get(row)
        if found is None:
            found = exits[row] = len(exits)
        return found
    return exit_id


def _function_entries(program, code):
    """Sorted addresses that get a function of their own.

    The addresses control can reach by a transfer: the entry point,
    static targets (and original targets of slotted branches), return
    addresses and jump-table entries.  A fall-through address is
    normally reached inline from its branch; it gets a function too
    when two functions would both chain into it (a target inside a
    block makes two functions share that block's branch), so no block
    is translated twice beyond the one shared block.
    """
    size = len(code)
    entries = set()
    try:
        entries.add(program.entry)
    except ProgramError:
        pass    # no main: every run faults on the reference too
    for address, (op, _, _, _, _, target, _, orig) in enumerate(code):
        if op in _CONTROL:
            entries.update((target, orig))
            if op == _CALL:
                entries.add(address + 1)
    for table in program.jump_tables:
        entries.update(table.entries)
    entries = {entry for entry in entries if _in_code(entry, size)}
    while True:
        reached = set()
        shared = set()
        for entry in entries:
            for fall_pc in _chain(code, entry, entries):
                if fall_pc not in entries:
                    (shared if fall_pc in reached else reached).add(fall_pc)
        if not shared:
            return sorted(entries)
        entries |= shared


def _live_registers(code, entries):
    """Per address, the registers live on entry, as bitmasks.

    Backward dataflow over one frame's control flow in direct slot mode:
    a call continues at its return address (the callee has a frame of
    its own), RET and HALT end the frame, and an indirect jump may reach
    any function entry.  Values cross frames only through ARG, RETV and
    RESULT, so registers never live across them.
    """
    size = len(code)
    uses = [0] * size
    defs = [0] * size
    successors = [()] * size
    for pc, (op, dest, a, b, _, target, n_slots, orig) in enumerate(code):
        name = _OPCODES[op]
        reads = ((a, b) if name in _READS_TWO
                 else (a,) if name in _READS_ONE else ())
        for register in reads:
            uses[pc] |= _bit(register)
        if name in _WRITES:
            defs[pc] = _bit(dest)
        if op in _CONDITIONS:
            following = ((orig if n_slots else target),
                         pc + 1 + n_slots if isinstance(n_slots, int)
                         else None)
        elif op == _JUMP:
            following = (target,)
        elif op == _JIND:
            following = tuple(entries)
        elif op in (_RET, _HALT):
            following = ()
        else:
            following = (pc + 1,)
        successors[pc] = tuple(address for address in following
                               if _in_code(address, size))
    live = [0] * size
    changed = True
    while changed:
        changed = False
        for pc in range(size - 1, -1, -1):
            out = 0
            for address in successors[pc]:
                out |= live[address]
            new = uses[pc] | (out & ~defs[pc])
            if new != live[pc]:
                live[pc] = new
                changed = True
    return live


def _bit(register):
    return 1 << register if isinstance(register, int) and register >= 0 \
        else 0


_READS_TWO = frozenset(_FOLD) | {
    Opcode.STORE, Opcode.DIV, Opcode.REM, Opcode.SHL, Opcode.SHR,
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE, Opcode.BGT, Opcode.BGE}
_READS_ONE = frozenset({
    Opcode.MOV, Opcode.LOAD, Opcode.NEG, Opcode.NOT, Opcode.ARG,
    Opcode.RETV, Opcode.TABLE, Opcode.PUTC, Opcode.PUTI, Opcode.JIND})
_WRITES = frozenset(_FOLD) | {
    Opcode.LI, Opcode.MOV, Opcode.LOAD, Opcode.DIV, Opcode.REM,
    Opcode.SHL, Opcode.SHR, Opcode.NEG, Opcode.NOT, Opcode.RESULT,
    Opcode.TABLE, Opcode.GETC}


def _chain(code, pc, entries):
    """Fall-through addresses of the conditional branches that the
    function entered at ``pc`` runs, in order."""
    size = len(code)
    while True:
        while pc < size and code[pc][0] not in _CONTROL:
            pc += 1
        if pc >= size or code[pc][0] not in _CONDITIONS:
            return
        n_slots = code[pc][6]
        if not isinstance(n_slots, int) or n_slots < 0:
            return
        fall_pc = pc + 1 + n_slots
        yield fall_pc
        if fall_pc >= size or fall_pc in entries:
            return
        pc = fall_pc


def translation_for(program, code):
    """The program's attached translation if it matches ``code``."""
    attached = program.__dict__.get("_block_translation")
    if attached is not None and attached.code == code:
        return attached
    return BlockTranslation(program, code)


def run_blocks(machine):
    """Run ``machine`` on the fast path; None hands it to the reference."""
    try:
        return _run_blocks(machine)
    except Exception:
        return None


def _run_blocks(machine):
    program = machine.program
    translation = translation_for(program, _decode(program))
    memory = [0] * program.globals_size
    for address, value in program.data_init.items():
        if not 0 <= address < program.globals_size:
            raise _Bail
        memory[address] = value
    inputs = machine.inputs
    output = bytearray()
    keys = []
    record = keys.append
    stack = []
    pending = []
    return_value = [0]
    indirect = [0]
    blocks = translation.bind(
        memory, [table.entries for table in program.jump_tables],
        inputs, [0] * len(inputs), output.append, output.extend,
        record, pending, return_value, indirect)
    nexts = translation.nexts
    lengths = translation.lengths
    budget = machine.max_instructions
    pc = program.entry
    if not 0 <= pc < len(blocks):
        raise _Bail
    registers = {}
    executed = 0
    while True:
        key = blocks[pc](registers)
        # A function never loops, so checking the budget after it ran
        # is enough: a run over budget is handed to the reference.
        executed += lengths[key]
        if executed > budget:
            raise _Bail
        pc = nexts[key]
        if pc >= 0:
            record(key)
        elif pc == _RETURN:
            pc, registers = stack.pop()
            record(key + (pc << _TARGET_SHIFT))
        elif pc == _HALTED:
            break
        elif pc == _INDIRECT:
            pc = indirect[0]
        else:
            record(key)
            stack.append((translation.returns[key], registers))
            pc = _CALL_BASE - pc
            registers = dict(enumerate(pending))
            pending.clear()
    trace = (translation.decode(keys, executed)
             if machine.trace_enabled else None)
    return MachineResult(bytes(output), executed, trace, return_value[0])
