"""Tests for the virtual machine: semantics, faults, tracing, block counts."""

import pytest

from repro.isa import assemble
from repro.lang import compile_source
from repro.vm import (
    BranchClass,
    ExecutionLimitExceeded,
    Machine,
    MachineError,
    run_program,
)


def test_requires_resolved_program():
    from repro.isa import Program, Opcode
    program = Program("t")
    program.emit(Opcode.HALT)
    with pytest.raises(MachineError):
        Machine(program)


def test_rejects_non_program():
    with pytest.raises(TypeError):
        Machine("not a program")


def test_bad_slot_mode():
    program = assemble("func main:\n    halt\n")
    with pytest.raises(ValueError):
        Machine(program, slot_mode="wrong")


def test_instruction_budget():
    program = assemble("""
func main:
loop:
    jump loop
""")
    with pytest.raises(ExecutionLimitExceeded):
        run_program(program, max_instructions=1000)


def test_load_out_of_range():
    program = assemble("""
.globals 2
func main:
    li r1, 100
    load r2, r1, 0
    halt
""")
    with pytest.raises(MachineError):
        run_program(program)


def test_store_negative_address():
    program = assemble("""
.globals 2
func main:
    li r1, -1
    li r2, 5
    store r2, r1, 0
    halt
""")
    with pytest.raises(MachineError):
        run_program(program)


def test_division_by_zero():
    program = assemble("""
func main:
    li r1, 5
    li r2, 0
    div r3, r1, r2
    halt
""")
    with pytest.raises(MachineError):
        run_program(program)


def test_ret_with_empty_stack():
    program = assemble("func main:\n    ret\n")
    with pytest.raises(MachineError):
        run_program(program)


def test_jind_out_of_range():
    program = assemble("""
func main:
    li r1, 999
    jind r1
    halt
""")
    with pytest.raises(MachineError):
        run_program(program)


def test_missing_input_stream():
    program = assemble("func main:\n    getc r1, 3\n    halt\n")
    with pytest.raises(MachineError):
        run_program(program, inputs=[b"x"])


def test_getc_eof():
    program = assemble("""
func main:
    getc r1, 0
    puti r1
    halt
""")
    assert run_program(program, inputs=[b""]).output == b"-1"


def test_putc_masks_to_byte():
    program = assemble("""
func main:
    li r1, 321
    putc r1
    halt
""")
    assert run_program(program).output == bytes([321 & 0xFF])


def test_call_frames_are_independent():
    # The callee clobbers its own r1; the caller's r1 must survive.
    program = assemble("""
func main:
    li r1, 7
    call clobber
    puti r1
    halt
func clobber:
    li r1, 999
    ret
""")
    assert run_program(program).output == b"7"


def test_args_and_result():
    program = assemble("""
func main:
    li r1, 6
    li r2, 9
    arg 0, r1
    arg 1, r2
    call mul2
    result r3
    puti r3
    halt
func mul2:
    mul r2, r0, r1
    retv r2
    ret
""")
    assert run_program(program).output == b"54"


def test_c_division_semantics():
    program = assemble("""
func main:
    li r1, -7
    li r2, 2
    div r3, r1, r2
    puti r3
    putc r4
    rem r4, r1, r2
    puti r4
    halt
""")
    # putc r4 before rem prints register default... not defined; rebuild:
    program = assemble("""
func main:
    li r1, -7
    li r2, 2
    div r3, r1, r2
    rem r4, r1, r2
    puti r3
    li r5, 32
    putc r5
    puti r4
    halt
""")
    assert run_program(program).output == b"-3 -1"


# --- tracing -------------------------------------------------------------


def trace_of(source, inputs=()):
    program = compile_source(source, "t")
    return run_program(program, inputs=inputs, trace=True).trace


def test_trace_counts_branches():
    trace = trace_of("""
        int main() {
            int i;
            for (i = 0; i < 4; i = i + 1) { }
            return 0;
        }
    """)
    conditionals = [record for record in trace
                    if record.is_conditional]
    # Bottom-tested loop: 5 executions of the back-edge branch
    # (4 taken, 1 fall out).
    assert len(conditionals) == 5
    assert sum(record.taken for record in conditionals) == 4


def test_trace_classifies_calls_and_returns_known():
    trace = trace_of("""
        int f() { return 1; }
        int main() { return f(); }
    """)
    classes = [record.branch_class for record in trace]
    assert BranchClass.UNCONDITIONAL_UNKNOWN not in classes
    # __start calls main, main calls f: two CALLs and two RETs.
    assert classes.count(BranchClass.UNCONDITIONAL_KNOWN) >= 2
    assert classes.count(BranchClass.RETURN) == 2
    assert all(record.target_known for record in trace)


def test_trace_classifies_jind_unknown():
    cases = "\n".join("case %d: return %d;" % (i, i) for i in range(8))
    trace = trace_of(
        "int main() { switch (getc(0)) { %s } return 0; }" % cases,
        inputs=[bytes([3])])
    unknown = [record for record in trace
               if record.branch_class == BranchClass.UNCONDITIONAL_UNKNOWN]
    assert len(unknown) == 1
    assert unknown[0].taken


def test_trace_gaps_sum_to_instructions():
    trace = trace_of("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 10; i = i + 1) t = t + i;
            puti(t);
            return 0;
        }
    """)
    # gaps + branch records themselves + trailing non-branch instructions
    # equal the total instruction count.
    accounted = sum(trace.gaps) + len(trace)
    assert accounted <= trace.total_instructions
    assert accounted >= trace.total_instructions - 10


def test_trace_targets_match_taken_pcs():
    trace = trace_of("""
        int main() {
            int i;
            for (i = 0; i < 3; i = i + 1) { }
            return 0;
        }
    """)
    for record in trace:
        assert record.target >= 0


# --- block counts ------------------------------------------------------------


def test_probe_counts():
    """Block counts derived from the trace of a run (every address a
    leader) add up to the run's instruction count."""
    from repro.profiling import Profile

    program = compile_source("""
        int main() {
            int i;
            for (i = 0; i < 6; i = i + 1) { }
            return 0;
        }
    """, "t")
    result = Machine(program, trace=True).run()
    profile = Profile()
    profile.add_run(result.trace, range(len(program)), program.entry)
    assert sum(profile.block_counts.values()) == result.instructions
    assert max(profile.block_counts.values()) >= 6


def test_plain_run_records_nothing():
    program = assemble("func main:\n    halt\n")
    result = run_program(program)
    assert result.trace is None
    assert result.addresses is None
