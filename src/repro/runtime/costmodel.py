"""Codegen cycle accounting.

The paper reports dynamic compilation overhead in *cycles per generated
instruction* on a 70 MHz SparcStation 5 (Table 1, Figures 6 and 7).  This
reproduction cannot measure SPARC cycles, so each dynamic back end charges a
:class:`CostModel` for the work it actually performs: every emitted
instruction, closure capture, IR record, flow-graph node, liveness set
operation, live-interval scan step, interference edge, and translated
instruction is counted as it happens, then weighted by the per-event cycle
constants below.

The constants are calibrated once, globally (see EXPERIMENTS.md), so that the
aggregate magnitudes land in the paper's reported bands — VCODE 100-500 and
ICODE 1000-2500 cycles per generated instruction, with 70-80% of ICODE's cost
in register allocation and liveness.  All *comparative* results (VCODE vs
ICODE, linear scan vs graph coloring, per-benchmark differences) follow from
the measured event counts, not from the calibration.
"""

from __future__ import annotations

import enum
from collections import defaultdict


class Phase(enum.Enum):
    """Codegen phases, matching the stacked bars of Figures 6 and 7."""

    CLOSURE = "closure"        # building/walking closures and other meta-data
    EMIT = "emit"              # VCODE: writing binary instructions
    IR = "ir"                  # ICODE: recording intermediate representation
    FLOWGRAPH = "flowgraph"    # ICODE: basic blocks + def/use sets
    LIVENESS = "liveness"      # ICODE: live-variable dataflow
    INTERVALS = "intervals"    # ICODE: building live intervals
    REGALLOC = "regalloc"      # ICODE: linear scan or graph coloring
    TRANSLATE = "translate"    # ICODE: IR -> binary translation
    LINK = "link"              # resolving labels, installing code
    PATCH = "patch"            # code cache: template copy + hole patching

    # Members are singletons compared by identity, so identity hashing is
    # exact; it keeps every ``weights[(phase, event)]`` / ``cycles[phase]``
    # probe in C instead of calling ``Enum.__hash__``.
    __hash__ = object.__hash__


#: Cycle weights per counted event.  Keys are (phase, event) pairs.
#: Calibrated (see EXPERIMENTS.md) so aggregate magnitudes land in the
#: paper's bands: VCODE 100-500 and ICODE 1000-2500 cycles per generated
#: instruction with 70-80% of ICODE's total in regalloc+liveness+intervals.
DEFAULT_WEIGHTS = {
    # closures and meta-data (shared by both back ends)
    (Phase.CLOSURE, "alloc"): 24,          # arena bump + header init
    (Phase.CLOSURE, "capture"): 10,        # store one slot
    (Phase.CLOSURE, "cgf_call"): 16,       # indirect call into a nested CGF
    # VCODE one-pass emission
    (Phase.EMIT, "instr"): 190,            # one macro: bit-twiddling + store
    (Phase.EMIT, "lvalue_check"): 15,      # reg-or-memory conditional (4.2)
    (Phase.EMIT, "getreg"): 12,
    (Phase.EMIT, "putreg"): 8,
    (Phase.EMIT, "rtconst_fold"): 16,      # evaluating a $-expression
    # ICODE IR construction
    (Phase.IR, "record"): 60,              # append one 8-byte IR record
    (Phase.IR, "vreg"): 10,                # allocate a virtual register
    (Phase.IR, "rtconst_fold"): 16,
    (Phase.IR, "optimize"): 30,            # per instruction per opt round
    (Phase.IR, "analysis"): 22,            # abstract interp, per instr visit
    # flow graph
    (Phase.FLOWGRAPH, "block"): 100,
    (Phase.FLOWGRAPH, "instr"): 25,        # scan + def/use update
    (Phase.FLOWGRAPH, "edge"): 30,
    # liveness (iterative dataflow)
    (Phase.LIVENESS, "block_pass"): 160,   # per block per iteration
    (Phase.LIVENESS, "instr_pass"): 110,    # per instruction per iteration
    (Phase.LIVENESS, "setop"): 18,         # per set word touched
    # live intervals
    (Phase.INTERVALS, "instr"): 50,
    (Phase.INTERVALS, "interval"): 260,
    # register allocation
    (Phase.REGALLOC, "scan_step"): 320,    # linear scan: one interval visited
    (Phase.REGALLOC, "active_op"): 110,     # active-list insert/expire/search
    (Phase.REGALLOC, "spill"): 240,
    (Phase.REGALLOC, "ig_node"): 320,      # graph coloring: per node
    (Phase.REGALLOC, "ig_edge"): 90,       # per interference edge
    (Phase.REGALLOC, "ig_probe"): 30,      # per (def, live var) visit
    (Phase.REGALLOC, "simplify_step"): 160,
    (Phase.REGALLOC, "rewrite"): 5,        # per-instruction operand rewrite
    # translation ICODE -> binary
    (Phase.TRANSLATE, "instr"): 170,       # dispatch + emit + peephole window
    (Phase.TRANSLATE, "spill_code"): 40,
    (Phase.TRANSLATE, "elide"): 3,         # swap in the safe opcode + fact
    # linking
    (Phase.LINK, "patch"): 6,
    (Phase.LINK, "fact_check"): 9,         # re-derive one elision fact
    # specialization cache (codecache.py)
    (Phase.CLOSURE, "cache_probe"): 12,    # hash + memo lookup + guard check
    (Phase.PATCH, "copy_instr"): 4,        # memcpy one template instruction
    (Phase.PATCH, "hole"): 6,              # recompute + store one immediate
    (Phase.PATCH, "guard"): 8,             # re-read one guarded memory word
}


class CodegenStats:
    """Accumulated per-phase cycle counts for one instantiation."""

    def __init__(self, weights=None):
        self.weights = DEFAULT_WEIGHTS if weights is None else weights
        self.cycles = defaultdict(int)   # phase -> cycles
        self.events = defaultdict(int)   # (phase, event) -> count
        self.generated_instructions = 0

    def charge(self, phase: Phase, event: str, count: int = 1) -> None:
        weight = self.weights[(phase, event)]
        self.cycles[phase] += weight * count
        self.events[(phase, event)] += count

    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    def cycles_per_instruction(self) -> float:
        if self.generated_instructions == 0:
            return 0.0
        return self.total_cycles() / self.generated_instructions

    def phase_breakdown(self) -> dict:
        """Phase name -> cycles per generated instruction."""
        n = max(self.generated_instructions, 1)
        return {phase.value: cyc / n for phase, cyc in sorted(
            self.cycles.items(), key=lambda kv: kv[0].value)}

    def phase_cycles(self) -> dict:
        """Phase -> raw cycle total, in canonical :class:`Phase` order
        (the exact numbers the telemetry tracer tiles a compile span
        with)."""
        return {phase: self.cycles[phase] for phase in Phase
                if self.cycles.get(phase)}

    def merge(self, other: "CodegenStats") -> None:
        for phase, cyc in other.cycles.items():
            self.cycles[phase] += cyc
        for key, count in other.events.items():
            self.events[key] += count
        self.generated_instructions += other.generated_instructions

    def __repr__(self) -> str:
        return (
            f"<CodegenStats {self.total_cycles()} cycles / "
            f"{self.generated_instructions} instrs>"
        )


class CostModel:
    """Factory/owner of :class:`CodegenStats`, one per machine.

    ``current`` is the stats object charged by in-flight code generation;
    ``compile()`` swaps in a fresh one per instantiation and accumulates
    totals into ``lifetime``.
    """

    def __init__(self, weights=None):
        self.weights = DEFAULT_WEIGHTS if weights is None else weights
        self.current = CodegenStats(self.weights)
        self.lifetime = CodegenStats(self.weights)

    def begin_instantiation(self) -> CodegenStats:
        self.current = CodegenStats(self.weights)
        return self.current

    def end_instantiation(self) -> CodegenStats:
        finished = self.current
        self.lifetime.merge(finished)
        self.current = CodegenStats(self.weights)
        return finished

    def charge(self, phase: Phase, event: str, count: int = 1) -> None:
        self.current.charge(phase, event, count)

    def note_instruction(self, count: int = 1) -> None:
        self.current.generated_instructions += count
