"""The dynamic-code verifier suite.

tcc's promise is that "all semantic checking of dynamic code happens at
static compile time" — yet a reproduction accumulates exactly the bug
classes the paper's implementation had to debug by hand: an unbound vspec
that traps at instantiation time, an optimization pass that emits
ill-formed IR, a register allocator that aliases two live values, a bad
branch target installed into the code segment.  This package closes that
gap with four static-analysis layers, each a pure checker returning
:class:`Diagnostic` records plus a thin runner that accounts time/counts
in :func:`repro.report.verify_stats` and raises
:class:`~repro.errors.VerifyError` when anything fires:

``ticklint``
    dataflow lint over the typed CAST at *static* compile time: vspec/cspec
    use before ``param()``/``local()`` binding, double-bound parameter
    indices, cspec composition cycles, ``$``-expressions with side effects,
    free variables captured past their extent.
``ircheck``
    ICODE/flowgraph/target-body well-formedness, run at every pass
    boundary in paranoid mode with a named-pass diagnostic.
``regcheck``
    an independent liveness recomputation over the allocated IR that
    cross-checks both register allocators.
``codeaudit``
    an install-time audit of the code segment range a function (or a
    Tier-2 template clone) was published into.

The knob: ``verify="off" | "dev" | "paranoid"`` on
:class:`~repro.core.driver.TccCompiler` and ``CompiledProgram.start``.
The default comes from ``$REPRO_VERIFY`` and falls back to ``"dev"``
(ticklint + regcheck + codeaudit; see
:func:`repro.core.options.resolve_verify`); ``"paranoid"`` adds the
inter-pass IR verifier (CI runs the suite this way).
"""

from __future__ import annotations

import time

from repro import report
from repro.errors import VerifyError
from repro.telemetry import trace as _trace

MODES = ("off", "dev", "paranoid")


class Diagnostic:
    """One verifier finding.

    ``layer`` is the verifier layer name; ``rule`` the specific check that
    fired; ``where`` names the context (a pass name, a function, a code
    address range); ``loc`` is a source location when the finding maps to
    source (tick lint only).
    """

    __slots__ = ("layer", "rule", "message", "where", "loc")

    def __init__(self, layer: str, rule: str, message: str,
                 where: str | None = None, loc=None):
        self.layer = layer
        self.rule = rule
        self.message = message
        self.where = where
        self.loc = loc

    def __repr__(self) -> str:
        prefix = f"{self.loc}: " if self.loc is not None else ""
        context = f" [{self.where}]" if self.where else ""
        return f"{prefix}[{self.layer}/{self.rule}] {self.message}{context}"


def run_checker(layer: str, checker, *args, **kwargs):
    """Run one layer's pure checker, account it, and raise on findings.

    Every runner in the layer modules funnels through here so the
    ``verify_stats()`` counters (checks run, diagnostics by layer, time in
    verifier) stay consistent.
    """
    started = time.perf_counter()
    diagnostics = checker(*args, **kwargs)
    seconds = time.perf_counter() - started
    report.record_verify(layer, len(diagnostics), seconds)
    tracer = _trace.active()
    if tracer.enabled:
        # Verifier layers have no modeled cost, so they appear on the
        # trace as instants carrying host wall time.
        tracer.instant(f"verify:{layer}", cat="verify",
                       wall_us=round(seconds * 1e6, 1),
                       diagnostics=len(diagnostics))
    if diagnostics:
        raise VerifyError(layer, diagnostics)


__all__ = [
    "MODES",
    "Diagnostic",
    "run_checker",
    "VerifyError",
]
