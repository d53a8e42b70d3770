"""A tiny register ISA and its interpreter.

The ISA is just rich enough to express real ADS kernels (matrix products,
Kalman updates, PID and IDM math) with loops and indexed memory access:

=========  =======================================================
LI         dst <- immediate
MOV        dst <- a
ADD/SUB    dst <- a (op) b          (registers)
MUL/DIV    dst <- a (op) b
MIN/MAX    dst <- min/max(a, b)
ABS/SQRT   dst <- |a| / sqrt(a)
ADDI       dst <- a + immediate
LOAD       dst <- memory[base_imm + int(reg_index)]
STORE      memory[base_imm + int(reg_index)] <- src
JNZ        jump to label if register != 0
JMP        unconditional jump
HALT       stop
=========  =======================================================

Registers hold float64; address indices truncate the float, so a bit flip
in an index register can throw an access out of bounds (a crash) and a
flip in a loop counter can spin the program past its instruction budget
(a hang).  That is exactly the fault-manifestation surface the paper's
GPU/CPU injectors exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memory import MemoryAccessError, MemoryModel

N_REGISTERS = 32

OPS = ("LI", "MOV", "ADD", "SUB", "MUL", "DIV", "MIN", "MAX", "ABS",
       "SQRT", "ADDI", "LOAD", "STORE", "JNZ", "JMP", "HALT")


class TrapError(Exception):
    """An architectural trap (invalid access, illegal instruction)."""


class HangError(Exception):
    """Dynamic instruction budget exceeded."""


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction; unused fields stay ``None``."""

    op: str
    dst: int | None = None
    a: int | None = None
    b: int | None = None
    imm: float | None = None
    target: int | None = None   # resolved jump destination

    def __post_init__(self):
        if self.op not in OPS:
            raise TrapError(f"illegal opcode {self.op!r}")


@dataclass
class Program:
    """A sequence of instructions plus its I/O contract.

    ``input_base``/``output_base`` describe where the kernel reads and
    writes in memory, so the injector can set up inputs and compare
    outputs without knowing kernel internals.
    """

    instructions: list[Instruction]
    input_base: int = 0
    input_length: int = 0
    output_base: int = 0
    output_length: int = 0
    name: str = "kernel"


@dataclass
class CPUState:
    """Architectural state visible to fault injection."""

    registers: np.ndarray = field(
        default_factory=lambda: np.zeros(N_REGISTERS, dtype=np.float64))
    pc: int = 0
    dynamic_count: int = 0


class Interpreter:
    """Executes programs, optionally invoking a per-instruction hook.

    The hook runs *before* each instruction with the live
    :class:`CPUState`; the architectural injector uses it to flip a
    register bit at an exact dynamic instruction index.
    """

    def __init__(self, memory: MemoryModel,
                 instruction_budget: int = 2_000_000):
        self.memory = memory
        self.instruction_budget = instruction_budget

    def run(self, program: Program, hook=None) -> CPUState:
        """Execute to HALT; returns the final architectural state.

        Raises :class:`TrapError` for invalid accesses and
        :class:`HangError` when the budget is exhausted.
        """
        state = CPUState()
        instructions = program.instructions
        n = len(instructions)
        # Corrupted registers legitimately produce inf/NaN arithmetic;
        # IEEE semantics, not errors.
        with np.errstate(all="ignore"):
            return self._run_loop(program, state, instructions, n, hook)

    def _run_loop(self, program: Program, state: CPUState,
                  instructions: list[Instruction], n: int,
                  hook) -> CPUState:
        while True:
            if state.pc < 0 or state.pc >= n:
                raise TrapError(f"control flow escaped program "
                                f"(pc={state.pc})")
            if state.dynamic_count >= self.instruction_budget:
                raise HangError(
                    f"budget of {self.instruction_budget} exceeded")
            if hook is not None:
                hook(state)
            instr = instructions[state.pc]
            state.dynamic_count += 1
            if instr.op == "HALT":
                return state
            self._execute(instr, state)

    def _execute(self, instr: Instruction, state: CPUState) -> None:
        regs = state.registers
        op = instr.op
        next_pc = state.pc + 1
        if op == "LI":
            regs[instr.dst] = instr.imm
        elif op == "MOV":
            regs[instr.dst] = regs[instr.a]
        elif op == "ADD":
            regs[instr.dst] = regs[instr.a] + regs[instr.b]
        elif op == "SUB":
            regs[instr.dst] = regs[instr.a] - regs[instr.b]
        elif op == "MUL":
            regs[instr.dst] = regs[instr.a] * regs[instr.b]
        elif op == "DIV":
            with np.errstate(divide="ignore", invalid="ignore"):
                regs[instr.dst] = regs[instr.a] / regs[instr.b]
        elif op == "MIN":
            regs[instr.dst] = min(regs[instr.a], regs[instr.b])
        elif op == "MAX":
            regs[instr.dst] = max(regs[instr.a], regs[instr.b])
        elif op == "ABS":
            regs[instr.dst] = abs(regs[instr.a])
        elif op == "SQRT":
            with np.errstate(invalid="ignore"):
                regs[instr.dst] = np.sqrt(regs[instr.a])
        elif op == "ADDI":
            regs[instr.dst] = regs[instr.a] + instr.imm
        elif op == "LOAD":
            regs[instr.dst] = self.memory.load(
                self._address(instr, regs))
        elif op == "STORE":
            self.memory.store(self._address(instr, regs), regs[instr.a])
        elif op == "JNZ":
            if regs[instr.a] != 0.0:
                next_pc = instr.target
        elif op == "JMP":
            next_pc = instr.target
        else:  # pragma: no cover - constructor validates opcodes
            raise TrapError(f"illegal opcode {op!r}")
        state.pc = next_pc

    @staticmethod
    def _address(instr: Instruction, regs: np.ndarray) -> int:
        index = regs[instr.b]
        if not np.isfinite(index):
            raise MemoryAccessError(f"non-finite address index {index}")
        return int(instr.imm) + int(index)


class Assembler:
    """Builds programs with symbolic labels.

    >>> asm = Assembler()
    >>> asm.li(0, 3.0)
    >>> asm.label("loop")
    >>> asm.addi(0, 0, -1.0)
    >>> asm.jnz(0, "loop")
    >>> asm.halt()
    >>> program = asm.assemble(name="countdown")
    """

    def __init__(self):
        self._instructions: list[dict] = []
        self._labels: dict[str, int] = {}

    def label(self, name: str) -> None:
        """Mark the next instruction's position."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def _emit(self, **fields) -> None:
        self._instructions.append(fields)

    def li(self, dst: int, imm: float) -> None:
        self._emit(op="LI", dst=dst, imm=float(imm))

    def add(self, dst: int, a: int, b: int) -> None:
        self._emit(op="ADD", dst=dst, a=a, b=b)

    def sub(self, dst: int, a: int, b: int) -> None:
        self._emit(op="SUB", dst=dst, a=a, b=b)

    def mul(self, dst: int, a: int, b: int) -> None:
        self._emit(op="MUL", dst=dst, a=a, b=b)

    def div(self, dst: int, a: int, b: int) -> None:
        self._emit(op="DIV", dst=dst, a=a, b=b)

    def minimum(self, dst: int, a: int, b: int) -> None:
        self._emit(op="MIN", dst=dst, a=a, b=b)

    def maximum(self, dst: int, a: int, b: int) -> None:
        self._emit(op="MAX", dst=dst, a=a, b=b)

    def absolute(self, dst: int, a: int) -> None:
        self._emit(op="ABS", dst=dst, a=a)

    def sqrt(self, dst: int, a: int) -> None:
        self._emit(op="SQRT", dst=dst, a=a)

    def addi(self, dst: int, a: int, imm: float) -> None:
        self._emit(op="ADDI", dst=dst, a=a, imm=float(imm))

    def load(self, dst: int, base: int, index_reg: int) -> None:
        self._emit(op="LOAD", dst=dst, b=index_reg, imm=float(base))

    def store(self, src: int, base: int, index_reg: int) -> None:
        self._emit(op="STORE", a=src, b=index_reg, imm=float(base))

    def jnz(self, reg: int, label: str) -> None:
        self._emit(op="JNZ", a=reg, label=label)

    def jmp(self, label: str) -> None:
        self._emit(op="JMP", label=label)

    def halt(self) -> None:
        self._emit(op="HALT")

    def assemble(self, name: str = "kernel", input_base: int = 0,
                 input_length: int = 0, output_base: int = 0,
                 output_length: int = 0) -> Program:
        """Resolve labels and produce an executable :class:`Program`."""
        instructions = []
        for fields in self._instructions:
            fields = dict(fields)
            label = fields.pop("label", None)
            if label is not None:
                if label not in self._labels:
                    raise ValueError(f"undefined label {label!r}")
                fields["target"] = self._labels[label]
            instructions.append(Instruction(**fields))
        return Program(instructions=instructions, name=name,
                       input_base=input_base, input_length=input_length,
                       output_base=output_base, output_length=output_length)
