"""The tiered execution engine: profiling dispatch + trace promotion.

:class:`TieredEngine` extends the block engine with a second, hotter
tier.  Its dispatch loop profiles every block dispatch (count + last
observed successor edge); when a block's count reaches the policy's
hotness threshold it is **promoted**: :func:`repro.tiering.trace.form_trace`
links the hot superblocks along the profile into one straight-line
trace, the trace compiler re-runs superinstruction fusion over the
widened window, and the compiled trace is installed in a trace cache
probed *before* the block cache.  A trace call replaces many block
dispatches — the per-seam cache probe and watchdog check are paid once
per trace entry, with the same ``TAIL``-adjusted accounting the block
engine uses, so modeled cycles, machine state, and the trap taxonomy
remain bit-identical to the reference stepper.

Deopt paths (all land back on the always-correct block tier):

* **guard side exit** — a trace's speculated branch direction is wrong
  for this execution; the trace returns the off-trace pc and the
  dispatch loop continues on the block path.  Not an eviction.
* **invalidation** — segment rollback evicts traces overlapping the
  discarded range; fault injection and :meth:`clear` (the serving
  exec-trust breaker's demotion hook) drop everything, profile
  included.
* **poison** — the deterministic chaos hook replaces a live trace with
  a stub raising :class:`_TracePoisoned` before touching any machine
  state; the dispatch loop evicts the trace, resets its hotness, and
  re-dispatches the same pc through the block tier.
"""

from __future__ import annotations

import math

from repro import report
from repro.errors import CycleBudgetExceeded, MachineError, SegmentationFault
from repro.target.dispatch import BlockEngine, _Gen
from repro.target.isa import disassemble_one
from repro.tiering.policy import TieringPolicy
from repro.tiering.trace import emit_trace, form_trace, trace_has_site


class _TracePoisoned(Exception):
    """Internal deopt signal: a poisoned trace refused to run.

    Deliberately *not* a :class:`MachineError` — poisoning must never
    surface as a guest trap; the dispatch loop catches it, evicts the
    trace, and resumes on the block tier with identical results.
    """


def _poisoned_trace():
    raise _TracePoisoned()


class TieredEngine(BlockEngine):
    """Block engine + profile-guided trace tier for one ``Machine``."""

    def __init__(self, machine, policy=None, shared=None):
        super().__init__(machine)
        self.policy = TieringPolicy.of(policy)
        self.shared = shared             # SharedHotness or None
        self._traces: dict = {}          # entry pc -> compiled trace fn
        self._trace_info: dict = {}      # entry -> (end, blocks, n_ins, cost)
        self._counts: dict = {}          # block entry -> dispatch count
        self._succ: dict = {}            # block entry -> last successor
        self._promoted: set = set()      # entries already considered
        self._poison_next = False        # chaos: poison the next trace
        self._seed_from_shared()

    # -- shared hotness ----------------------------------------------------------

    def _seed_from_shared(self) -> None:
        """Warm-start the profile from the cross-session rollup, capping
        counts at one below the threshold so an already-hot block is
        promoted on its first local dispatch (never before the loop can
        observe at least one local edge refreshing the profile)."""
        if self.shared is None:
            return
        counts, succ = self.shared.snapshot()
        cap = self.policy.hot_threshold - 1
        for pc, n in counts.items():
            if n > 0:
                self._counts[pc] = min(n, cap)
        self._succ.update(succ)

    def publish_profile(self) -> None:
        """Fold this engine's profile into the shared rollup (called by
        the serving session on close)."""
        if self.shared is not None:
            self.shared.absorb(self._counts, self._succ)

    # -- cache maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Drop traces, blocks, *and* the profile.

        The profile must go too: promotion triggers on an exact count
        match, so stale counts far above the threshold would never
        re-fire.  Used by the serving exec-trust breaker (via
        ``Machine.distrust_block_cache``) to demote traces alongside
        blocks."""
        dropped = len(self._traces)
        self._traces.clear()
        self._trace_info.clear()
        self._promoted.clear()
        self._counts.clear()
        self._succ.clear()
        if dropped:
            report.record_trace_invalidation(dropped)
        super().clear()

    def on_segment_event(self, kind: str, length) -> None:
        if kind == "rollback" and length is not None:
            stale = [e for e, info in self._trace_info.items()
                     if info[0] > length]
        else:
            stale = list(self._traces)
        for entry in stale:
            self._traces.pop(entry, None)
            self._trace_info.pop(entry, None)
            self._promoted.discard(entry)
        if stale:
            report.record_trace_invalidation(len(stale))
        super().on_segment_event(kind, length)

    # -- chaos / deopt -----------------------------------------------------------

    def poison_trace(self):
        """Deterministic chaos hook: poison one live trace (or arm the
        next one formed) so its next dispatch deopts to the block tier.
        Returns the poisoned entry pc, or None if armed for later."""
        for entry in self._traces:
            self._traces[entry] = _poisoned_trace
            return entry
        self._poison_next = True
        return None

    def _deopt(self, entry: int, reason: str) -> None:
        """Evict one trace and re-arm its promotion trigger."""
        self._traces.pop(entry, None)
        self._trace_info.pop(entry, None)
        self._promoted.discard(entry)
        self._counts[entry] = 0
        report.record_deopt()
        tracer = getattr(self.machine, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.instant("deopt", cat="event", entry=entry, reason=reason)

    # -- promotion ---------------------------------------------------------------

    def _promote(self, entry: int) -> None:
        """Try to promote the superblock at ``entry`` to a trace."""
        if entry in self._promoted:
            return
        self._promoted.add(entry)
        segment = self.machine.code
        horizon = segment._linked
        if not (0 <= entry < horizon):
            return                       # only linked code is traceable
        tracer = getattr(self.machine, "tracer", None)
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin("promote", cat="tier", entry=entry)
        try:
            form = form_trace(segment.instructions, entry, self._succ,
                              horizon, self.policy)
            if len(form.block_entries) < 2:
                return                   # a trace of one block is a block
            has_site = trace_has_site(form)
            g = _Gen(entry, use_cy=has_site, has_site=has_site,
                     icache_on=False, trace=True)
            fused = emit_trace(g, form)
            fn = self._assemble(g)
            if self._poison_next:
                self._poison_next = False
                fn = _poisoned_trace
            self._traces[entry] = fn
            self._trace_info[entry] = (form.end, tuple(form.block_entries),
                                       form.instructions, form.cost)
            report.record_promotion(len(form.block_entries),
                                    form.instructions, fused)
        finally:
            if span is not None:
                blocks = len(self._trace_info[entry][1]) \
                    if entry in self._trace_info else 0
                tracer.end(span, promoted=blocks >= 2, blocks=blocks)

    # -- dispatch ----------------------------------------------------------------

    def run(self, entry: int, budget, name) -> None:
        """The profiling, trace-probing dispatch loop.

        Identical watchdog/trap semantics to :meth:`BlockEngine.run`;
        the additions are (a) the trace cache is probed first, (b) the
        block path maintains the dispatch-count and successor-edge
        profile and fires promotion at the hotness threshold, and
        (c) :class:`_TracePoisoned` deopts back to the block path.
        """
        machine = self.machine
        cpu = machine.cpu
        code = machine.code.instructions
        if machine.icache is not self._env_icache:
            self._blocks.clear()
            self._block_end.clear()
            self._traces.clear()         # traces close over the env too
            self._trace_info.clear()
            self._promoted.clear()
            self._env = self._build_env()
            self._env_icache = machine.icache
        blocks = self._blocks
        traces = self._traces
        counts = self._counts
        succ = self._succ
        tail = self._tail
        # Fusion (and therefore tracing) is off under the I-cache: the
        # per-fetch accounting needs the per-block shape.
        hot = self.policy.hot_threshold \
            if (self.policy.enabled and machine.icache is None) else None
        limit = math.inf if budget is None else cpu.cycles + budget
        pc = entry
        prev = -1                        # previous block entry (edge profile)
        dispatches = 0
        hits = 0
        trace_runs = 0
        try:
            while True:
                unit = traces.get(pc)
                if unit is not None:
                    dispatches += 1
                    trace_runs += 1
                    tail[0] = 0
                    try:
                        nxt = unit()
                    except _TracePoisoned:
                        self._deopt(pc, "poisoned")
                        continue         # same pc, block path this time
                    counts[pc] = counts.get(pc, 0) + 1
                    prev = -1            # trace exits don't profile edges
                    pc = nxt
                    if cpu.cycles - tail[0] > limit:
                        if pc is not None:
                            cpu.pc = pc
                        raise CycleBudgetExceeded(
                            f"cycle budget of {budget} exceeded: runaway "
                            "execution halted by the watchdog"
                        )
                    if pc is None:
                        return
                    continue
                blk = blocks.get(pc)
                if blk is None:
                    if pc < 0 or pc >= len(code):
                        cpu.pc = pc
                        raise SegmentationFault(
                            f"pc {pc} is out of code range "
                            f"0..{len(code) - 1}"
                        )
                    blk = self._compile_block(pc)
                else:
                    hits += 1
                dispatches += 1
                n = counts.get(pc, 0) + 1
                counts[pc] = n
                if prev >= 0:
                    succ[prev] = pc
                prev = pc
                tail[0] = 0
                pc = blk()
                if cpu.cycles - tail[0] > limit:
                    if pc is not None:
                        cpu.pc = pc
                    raise CycleBudgetExceeded(
                        f"cycle budget of {budget} exceeded: runaway "
                        "execution halted by the watchdog"
                    )
                if pc is None:
                    return
                if n == hot:
                    # Promote only after this dispatch completed: the
                    # successor edge just observed is the freshest
                    # profile the trace former can use.
                    self._promote(prev)
        except MachineError as trap:
            p = cpu.pc
            text = None
            if isinstance(p, int) and 0 <= p < len(code):
                text = disassemble_one(code[p])
            trap.attach_context(pc=p, instr=text,
                                function=name or machine.code.function_at(p))
            raise
        finally:
            if dispatches:
                report.record_dispatch(dispatches, hits)
            if trace_runs:
                report.record_trace_dispatches(trace_runs)

    # -- reporting ---------------------------------------------------------------

    def hot_units(self, top: int = 10) -> list:
        """The top-N hottest units by dispatch count, with cumulative
        modeled-cycle attribution (static per-entry cost x dispatches).

        Traces report their formed shape; blocks are carved on demand.
        Used by the ``report hot`` CLI subcommand and the benchmarks.
        """
        from repro.target.dispatch import carve_block
        from repro.target.isa import CYCLE_COST
        code = self.machine.code.instructions
        rows = []
        for pc, n in self._counts.items():
            if n <= 0:
                continue
            info = self._trace_info.get(pc)
            if pc in self._traces and info is not None:
                kind = "trace"
                n_ins = info[2]
                unit_cost = info[3]
                blocks_spanned = len(info[1])
            else:
                kind = "block"
                blocks_spanned = 1
                if 0 <= pc < len(code):
                    instrs = carve_block(code, pc, len(code))
                else:
                    instrs = []
                n_ins = len(instrs)
                unit_cost = sum(CYCLE_COST.get(i.op, 0) for i in instrs)
            rows.append({
                "pc": pc,
                "kind": kind,
                "dispatches": n,
                "blocks": blocks_spanned,
                "instructions": n_ins,
                "cycles": n * unit_cost,
            })
        rows.sort(key=lambda r: (-r["dispatches"], -r["cycles"], r["pc"]))
        return rows[:top]
