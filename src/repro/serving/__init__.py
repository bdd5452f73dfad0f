"""Fault-isolated concurrent serving for dynamic code generation.

The paper's tcc is a library inside one process; this package grows it
into a *serving* system: one :class:`~repro.serving.engine.Engine` per
program, N concurrent :class:`~repro.serving.engine.Session` clients,
each request wrapped in a robustness envelope — deadline, bounded
retries, and a circuit-breaker degradation ladder (Tier-2 patch → cold
ICODE → VCODE → reference interpreter).  See INTERNALS.md ("Serving
engine") for the design.
"""

from repro.core.codecache import TemplateStore
from repro.serving.breaker import LADDER, BreakerBoard, CircuitBreaker
from repro.serving.chaos import KINDS as CHAOS_KINDS
from repro.serving.chaos import ChaosPlan, chaos_matrix
from repro.serving.engine import Engine, RequestOutcome, Session
from repro.serving.envelope import DeadlineClock, Envelope, RetryPolicy

__all__ = [
    "Engine",
    "Session",
    "RequestOutcome",
    "TemplateStore",
    "CircuitBreaker",
    "BreakerBoard",
    "LADDER",
    "Envelope",
    "RetryPolicy",
    "DeadlineClock",
    "ChaosPlan",
    "CHAOS_KINDS",
    "chaos_matrix",
]
