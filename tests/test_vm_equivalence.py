"""Differential equivalence: the block-translated VM vs the reference.

``Machine.run`` takes the block translator (:mod:`repro.vm.blocks`) for
direct-mode runs without an address trace; ``Machine._run`` is the
reference interpreter.  The contract is bit identity: output bytes,
instruction count, exit value, all five trace columns and the trace's
instruction total.  A faulting run must not produce a result on the
fast path at all — it hands the run back to the reference, so the
exception type, message and pc that ``Machine.run`` raises are the
reference's.

The battery drives that claim with the ten benchmarks (base, laid-out
and slot-filled programs over their whole input suites), Hypothesis
Minic programs through every compiler stage, and hand-built faulting
programs.  Two deliberately injected translator bugs must be detected
and ddmin-shrunk to a small program.
"""

import pytest
from hypothesis import given, settings

from repro.benchmarksuite import BENCHMARK_NAMES, get_benchmark
from repro.conformance.differential import ddmin
from repro.isa import Instruction, Opcode, assemble
from repro.lang import compile_source
from repro.opt import optimize
from repro.profiling import profile_program
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.vm import Machine, translated
import repro.vm.blocks as blocks

from tests.test_fuzz_fs_pipeline import programs


def _outcome(result):
    trace = result.trace
    columns = None if trace is None else (
        trace.sites, trace.classes, trace.takens, trace.targets,
        trace.gaps, trace.total_instructions)
    return ("ok", result.output, result.instructions, result.exit_value,
            columns)


def _raised(error):
    return ("raised", type(error), str(error))


def _reference(machine):
    try:
        return _outcome(machine._run())
    except Exception as error:
        return _raised(error)


def _public(machine):
    try:
        return _outcome(machine.run())
    except Exception as error:
        return _raised(error)


def _fast(machine):
    """The fast path's outcome, or None when it gave the run back."""
    result = blocks.run_blocks(machine)
    return None if result is None else _outcome(result)


def _disagreement(program, streams=(), max_instructions=2_000_000):
    """None when both engines agree on ``program``, else a description."""
    machine = Machine(program, inputs=streams, trace=True,
                      max_instructions=max_instructions)
    expected = _reference(machine)
    fast = _fast(machine)
    if expected[0] == "raised":
        if fast is not None:
            return "fast path produced a result where the reference " \
                "raised %r" % (expected,)
        public = _public(machine)
        if public != expected:
            return "Machine.run raised %r, reference %r" % (public,
                                                             expected)
        return None
    if fast is None:
        return "fast path gave up where the reference ran"
    differing = [field for field, mine, theirs in zip(
        _FIELDS, fast[1:4] + fast[4], expected[1:4] + expected[4])
        if mine != theirs]
    if differing:
        return "fast path differs in %s" % ", ".join(differing)
    return None


_FIELDS = ("output", "instructions", "exit_value", "sites", "classes",
           "takens", "targets", "gaps", "total_instructions")


def _nopped(program, kept):
    """``program`` with every instruction outside ``kept`` a NOP."""
    kept = set(kept)
    candidate = program.copy()
    candidate.instructions = [
        instruction if address in kept else Instruction(Opcode.NOP)
        for address, instruction in enumerate(candidate.instructions)]
    return candidate


def _shrink(program, streams=(), max_instructions=20_000):
    """ddmin the live instructions of a diverging program."""
    live = [address for address, instruction in enumerate(program)
            if instruction.op is not Opcode.NOP]
    kept = ddmin(live, lambda kept: _disagreement(
        _nopped(program, kept), streams, max_instructions) is not None)
    return _nopped(program, kept), kept


def _assert_agree(label, program, streams=(), max_instructions=2_000_000):
    problem = _disagreement(program, streams, max_instructions)
    if problem is None:
        return
    shrunk, kept = _shrink(program, streams)
    pytest.fail("%s: engines diverged: %s\n  minimal reproducer "
                "(%d live instructions): %r"
                % (label, problem, len(kept),
                   [shrunk[address] for address in kept]))


# -- the ten benchmarks ----------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_programs_battery(name):
    """Base, laid-out and slot-filled programs over the input suite."""
    spec = get_benchmark(name)
    program = compile_source(spec.source, name=name)
    suite = spec.input_suite(scale=0.05, runs=spec.runs)
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    expanded, _ = fill_forward_slots(layout.program, 2)
    for label, candidate in (("base", program), ("layout", layout.program),
                             ("slots2", expanded)):
        with translated(candidate):
            for index, streams in enumerate(suite):
                _assert_agree("%s/%s run %d" % (name, label, index),
                              candidate, streams)


# -- Hypothesis Minic programs ---------------------------------------------


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(programs())
def test_hypothesis_programs_battery(source):
    program = compile_source(source, "fuzz")
    optimized, _ = optimize(program)
    profile, _ = profile_program(optimized, [[]],
                                 max_instructions=2_000_000)
    layout = build_fs_program(optimized, profile)
    stages = [("compiled", program), ("optimized", optimized),
              ("layout", layout.program)]
    for n_slots in (1, 3):
        stages.append(("slots%d" % n_slots,
                       fill_forward_slots(layout.program, n_slots)[0]))
    for label, candidate in stages:
        _assert_agree(label, candidate, max_instructions=4_000_000)


# -- faults ------------------------------------------------------------------


_FAULTS = {
    "load-past-end": """
.globals 2
func main:
    li r1, 100
    load r2, r1, 0
    halt
""",
    "load-negative": """
.globals 2
func main:
    li r1, -3
    load r2, r1, 1
    halt
""",
    "store-past-end": """
.globals 2
func main:
    li r1, 2
    li r2, 5
    store r2, r1, 0
    halt
""",
    "store-negative": """
.globals 2
func main:
    li r1, -1
    li r2, 5
    store r2, r1, 0
    halt
""",
    "div-by-zero": """
func main:
    li r1, 5
    li r2, 0
    div r3, r1, r2
    halt
""",
    "rem-by-zero": """
func main:
    li r1, 5
    li r2, 0
    rem r3, r1, r2
    halt
""",
    "jind-past-end": """
func main:
    li r1, 9999
    jind r1
""",
    "jind-negative": """
func main:
    li r1, -2
    jind r1
""",
    "table-past-end": """
.table t a
func main:
    li r1, 1
    table r2, t, r1
    jind r2
a:
    halt
""",
    "table-negative": """
.table t a
func main:
    li r1, -1
    table r2, t, r1
    jind r2
a:
    halt
""",
    "ret-empty-stack": """
func main:
    li r1, 1
    ret
""",
    "undefined-register": """
func main:
    li r1, 1
    add r3, r1, r2
    halt
""",
    "missing-input-stream": """
func main:
    getc r1, 3
    halt
""",
    "runs-off-the-end": """
func main:
    li r1, 1
    puti r1
""",
}

#: The same faults on values that arrive at run time (the translator
#: folds the constants above and faults at translation time instead):
#: input byte 200 as r1, and r2 = -r1.
_RUNTIME_FAULTS = {
    "load": "load r3, r1, 0",
    "load-negative": "load r3, r2, 0",
    "store": "store r1, r1, 0",
    "store-negative": "store r1, r2, 3",
    "div": "li r4, 0\n    sub r5, r1, r1\n    div r3, r1, r5",
    "rem": "sub r5, r2, r2\n    rem r3, r1, r5",
    "jind": "li r4, 9000\n    mul r5, r1, r4\n    jind r5",
    "jind-negative": "jind r2",
    "table": "table r3, t, r1\n    jind r3",
    "table-negative": "table r3, t, r2\n    jind r3",
}


@pytest.mark.parametrize("name", sorted(_RUNTIME_FAULTS))
def test_runtime_fault_falls_back_exactly(name):
    program = assemble("""
.globals 16
.table t a
func main:
    getc r1, 0
    neg r2, r1
    %s
a:
    halt
""" % _RUNTIME_FAULTS[name])
    machine = Machine(program, inputs=[b"\xc8"], trace=True)
    assert _reference(machine)[0] == "raised"
    assert _disagreement(program, [b"\xc8"]) is None


#: Seven instructions per iteration; budgets that stop inside a block.
_LOOP = """
func main:
    li r1, 0
loop:
    li r2, 1
    add r1, r1, r2
    puti r1
    li r3, 2
    mul r4, r1, r3
    li r5, 100
    blt r1, r5, loop
    halt
"""


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_faulting_program_falls_back_exactly(name):
    program = assemble(_FAULTS[name])
    machine = Machine(program, trace=True)
    assert _reference(machine)[0] == "raised"
    assert _disagreement(program) is None


@pytest.mark.parametrize("budget", [1, 2, 5, 8, 9, 10, 13, 700])
def test_budget_exhausted_mid_block(budget):
    program = assemble(_LOOP)
    machine = Machine(program, trace=True, max_instructions=budget)
    assert _reference(machine)[0] == "raised"
    assert _disagreement(program, max_instructions=budget) is None


def test_budget_exactly_enough_succeeds():
    program = assemble(_LOOP)
    needed = Machine(program)._run().instructions
    assert _disagreement(program, max_instructions=needed) is None
    assert _fast(Machine(program, max_instructions=needed)) is not None
    assert _fast(Machine(program, max_instructions=needed - 1)) is None


def test_faults_after_call_chain():
    """Every fault class, each also preceded by a clean call chain."""
    prefix = """
func main:
    li r9, 7
    arg 0, r9
    call helper
    result r8
    puti r8
"""
    for name, source in sorted(_FAULTS.items()):
        body = source.split("func main:", 1)
        combined = body[0] + prefix + body[1] + """
func helper:
    li r1, 1
    add r1, r0, r1
    retv r1
    ret
"""
        program = assemble(combined)
        assert _reference(Machine(program))[0] == "raised", name
        assert _disagreement(program) is None, name


# -- injected bugs must be caught and shrunk -------------------------------

_NOISY_LOOP = """
.globals 8
func main:
    li r1, 0
    li r6, 3
    arg 0, r6
    call square
    result r7
    puti r7
loop:
    li r3, 1
    add r1, r1, r3
    li r2, 5
    store r1, r2, 0
    mul r4, r1, r1
    puti r4
    li r3, 4
    blt r1, r3, loop
    puti r1
    halt
func square:
    mul r1, r0, r0
    retv r1
    ret
"""


def test_swapped_blt_ble_is_detected_and_shrinks(monkeypatch):
    """A translator that emits ``<=`` for BLT and ``<`` for BLE."""
    broken = dict(blocks._CONDITIONS)
    broken[blocks._BLT], broken[blocks._BLE] = "<=", "<"
    monkeypatch.setattr(blocks, "_CONDITIONS", broken)

    # Every benchmark whose code has a BLT or BLE catches it.
    for name in BENCHMARK_NAMES:
        benchmark = compile_source(get_benchmark(name).source, name=name)
        streams = get_benchmark(name).input_suite(scale=0.05, runs=1)[0]
        uses = any(instruction.op in (Opcode.BLT, Opcode.BLE)
                   for instruction in benchmark)
        assert (_disagreement(benchmark, streams) is not None) == uses, name

    program = assemble(_NOISY_LOOP)
    assert _disagreement(program) is not None
    shrunk, kept = _shrink(program)
    live = [shrunk[address] for address in kept]
    assert len(kept) < len([i for i in program if i.op is not Opcode.NOP])
    assert len(kept) <= 6
    assert any(instruction.op is Opcode.BLT for instruction in live)
    assert _disagreement(shrunk) is not None


def test_off_by_one_gap_is_detected_and_shrinks(monkeypatch):
    """A translator whose records claim one instruction too many."""
    exit_table = blocks._exit_table
    monkeypatch.setattr(blocks, "_exit_table",
                        lambda exits, gap, length: exit_table(
                            exits, gap + 1, length))

    program = assemble(_NOISY_LOOP)
    problem = _disagreement(program)
    assert problem == "fast path differs in gaps"
    shrunk, kept = _shrink(program)
    assert len(kept) <= 3
    assert _disagreement(shrunk) is not None


def test_shrinking_needs_no_divergence_on_clean_translator():
    assert _disagreement(assemble(_NOISY_LOOP)) is None
    assert _fast(Machine(assemble(_NOISY_LOOP), trace=True)) is not None


# -- the dispatch rule -------------------------------------------------------


def test_direct_runs_take_the_fast_path(monkeypatch):
    def reference(self):
        raise AssertionError("reference interpreter used")

    monkeypatch.setattr(Machine, "_run", reference)
    program = assemble(_NOISY_LOOP)
    assert Machine(program, trace=True).run().output
    assert Machine(program).run().trace is None


@pytest.mark.parametrize("options", [{"slot_mode": "execute"},
                                     {"address_trace": True}])
def test_execute_mode_and_address_traces_take_the_reference(monkeypatch,
                                                            options):
    monkeypatch.setattr(blocks, "run_blocks", None)
    result = Machine(assemble(_NOISY_LOOP), trace=True, **options).run()
    assert result.output


def test_translated_scope_restores_the_outer_translation():
    program = assemble(_NOISY_LOOP)
    with translated(program) as outer:
        with translated(program) as inner:
            assert program._block_translation is inner
        assert program._block_translation is outer
    assert "_block_translation" not in vars(program)
