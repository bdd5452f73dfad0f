"""The options of :meth:`repro.core.driver.CompiledProgram.start`.

:class:`Options` is their one schema.  Every knob is a field carrying its
default and its documentation (``metadata["doc"]``); building an
``Options`` validates every value, so a misspelled name or a malformed
value fails at ``start()`` instead of deep inside a later compile.  The
environment fallbacks ``$REPRO_VERIFY``, ``$REPRO_ANALYSIS`` and
``$REPRO_CODECACHE_DIR`` are read here and nowhere else.

Fields marked ``shapes_code`` change the code an instantiation produces:
:meth:`Options.code_key` derives the specialization cache's configuration
key from exactly those fields, so a code-shaping knob cannot be left out
of the key.
"""

from __future__ import annotations

import difflib
import enum
import os
from dataclasses import dataclass, field, fields

from repro.core.static_backend import OPT_LEVELS
from repro.target.cpu import DEFAULT_FUEL, ENGINES
from repro.target.program import DEFAULT_CODE_CAPACITY
from repro.telemetry.trace import resolve_mode as _telemetry_mode
from repro.tiering.policy import TieringPolicy
from repro.verify import MODES as VERIFY_MODES


class BackendKind(enum.Enum):
    """Which dynamic back end serves ``compile()``."""

    VCODE = "vcode"
    ICODE = "icode"


#: Default spec-time step budget: statements executed per top-level
#: :meth:`repro.core.driver.Process.run`.  Far above any benchmark's
#: specification work, but finite, so a runaway loop in spec-time code
#: traps instead of hanging the host.
DEFAULT_SPEC_FUEL = 20_000_000

_TRUTHY = ("1", "on", "true", "yes")
_FALSY = ("", "0", "off", "false", "no")


def _bad(name, value, expected):
    return ValueError(
        f"start() option '{name}' must be {expected}, not {value!r}")


def resolve_verify(value=None) -> str:
    """Normalize a ``verify=`` mode; ``None`` defers to ``$REPRO_VERIFY``,
    then to ``"dev"``."""
    if value is None:
        value = os.environ.get("REPRO_VERIFY") or "dev"
    if value not in VERIFY_MODES:
        raise _bad("verify", value, f"one of {VERIFY_MODES}")
    return value


def _analysis(name, value) -> bool:
    if value is None:
        value = os.environ.get("REPRO_ANALYSIS", "")
        name += " (from $REPRO_ANALYSIS)"
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        word = value.strip().lower()
        if word in _TRUTHY or word in _FALSY:
            return word in _TRUTHY
    raise _bad(name, value, f"a bool or one of {_TRUTHY + _FALSY[1:]}")


def default_codecache_dir():
    """``$REPRO_CODECACHE_DIR``, or None when unset or empty."""
    return os.environ.get("REPRO_CODECACHE_DIR") or None


def _codecache_dir(name, value):
    if value is None:
        return default_codecache_dir()
    if not isinstance(value, (str, os.PathLike)):
        raise _bad(name, value, "a path or None")
    return value


def _flag(name, value):
    if not isinstance(value, bool):
        raise _bad(name, value, "True or False")
    return value


def _one_of(*choices):
    def check(name, value):
        if value not in choices:
            raise _bad(name, value, f"one of {choices}")
        return value
    return check


def _count(minimum, optional=True):
    """A non-bool int >= ``minimum`` (or None when ``optional``)."""
    def check(name, value):
        if value is None and optional:
            return value
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < minimum):
            expected = f"an int >= {minimum}" + (" or None" if optional
                                                  else "")
            raise _bad(name, value, expected)
        return value
    return check


def _backend(name, value):
    try:
        return BackendKind(value)
    except ValueError:
        raise _bad(name, value, "'vcode', 'icode' or a BackendKind") from None


def _tiering(name, value):
    try:
        TieringPolicy.of(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"start() option '{name}': {exc}") from None
    return value


def _opt(default, doc, check=None, shapes_code=False):
    return field(default=default, metadata={
        "doc": doc, "check": check, "shapes_code": shapes_code})


@dataclass(frozen=True)
class Options:
    """Every :meth:`~repro.core.driver.CompiledProgram.start` option,
    resolved and validated once."""

    backend: BackendKind = _opt(
        BackendKind.ICODE,
        "the dynamic back end: a BackendKind or 'vcode'/'icode'",
        _backend, shapes_code=True)
    regalloc: str = _opt(
        "linear", "ICODE register allocation: 'linear' or 'color'",
        _one_of("linear", "color"), shapes_code=True)
    static_opt: str = _opt(
        "lcc", "static back-end optimization level: 'lcc' or 'gcc'",
        _one_of(*OPT_LEVELS))
    allow_spills: bool = _opt(
        True, "VCODE getreg may spill to the stack", _flag,
        shapes_code=True)
    strength_reduction: bool = _opt(
        True, "strength-reduce multiply/divide/modulo by `$` constants",
        _flag, shapes_code=True)
    dynamic_unrolling: bool = _opt(
        True, "unroll dynamic-code `for` loops whose trip count is known "
        "at specification time", _flag, shapes_code=True)
    reorder_cspec_operands: bool = _opt(
        True, "tcc's section 5.1 cspec operand-ordering heuristic", _flag,
        shapes_code=True)
    compile_static: bool = _opt(
        True, "compile pure-C functions at start()", _flag)
    fallback: bool = _opt(
        True, "retry a failed ICODE install on VCODE", _flag)
    codecache: bool = _opt(
        True, "reuse dynamic code across compile() calls (Tier-1 memo "
        "and Tier-2 templates, see repro.core.codecache)", _flag)
    codecache_dir: object = _opt(
        None, "directory of the persistent template cache (None: "
        "$REPRO_CODECACHE_DIR, else off); ignored with a template_store, "
        "whose engine owns persistence (see repro.persist)",
        _codecache_dir)
    template_store: object = _opt(
        None, "a shared repro.serving.store.TemplateStore backing the "
        "Tier-2 templates")
    spec_fuel: object = _opt(
        DEFAULT_SPEC_FUEL, "spec-time interpreter step budget per run() "
        "(None: unlimited)", _count(0))
    verify: str = _opt(
        None, "static-analysis mode: 'off', 'dev' (allocation check + "
        "install audit) or 'paranoid' (adds the inter-pass IR verifier); "
        "None: $REPRO_VERIFY, else 'dev'",
        lambda name, value: resolve_verify(value))
    analysis: bool = _opt(
        None, "dataflow guard elision: a bool or 'on'/'off' (None: "
        "$REPRO_ANALYSIS, else off)", _analysis, shapes_code=True)
    telemetry: str = _opt(
        "off", "lifecycle tracing: 'off', 'on' or 'sample:N' (metrics "
        "are always recorded; this only controls spans)",
        lambda name, value: _telemetry_mode(value))
    tracer: object = _opt(
        None, "share an existing Tracer (wins over telemetry; defaults to "
        "the static compiler's, if any)")
    fuel: object = _opt(
        DEFAULT_FUEL, "watchdog cycle budget per call (None: unlimited); "
        "this and the fields below configure the fresh machine when "
        "start() is given none", _count(0))
    icache: object = _opt(None, "a repro.target.cpu.ICache model")
    code_capacity: int = _opt(
        DEFAULT_CODE_CAPACITY, "code-segment capacity, in instructions",
        _count(1, optional=False))
    engine: str = _opt(
        "tiered", "execution engine: 'tiered' (trace promotion over "
        "superblock dispatch), 'block' (superblock dispatch only) or "
        "'reference' (the per-instruction oracle stepper)",
        _one_of(*ENGINES))
    tiering: object = _opt(
        None, "a repro.tiering.TieringPolicy (or a dict of its knobs) "
        "for the tiered engine", _tiering)
    tiering_shared: object = _opt(
        None, "a repro.tiering.SharedHotness to seed and publish the "
        "cross-session dispatch profile")

    def __post_init__(self):
        for f in fields(self):
            check = f.metadata["check"]
            if check is not None:
                object.__setattr__(self, f.name,
                                   check(f.name, getattr(self, f.name)))

    @classmethod
    def of(cls, options: dict) -> "Options":
        """Build from ``start()`` keyword arguments; an unknown name
        raises ``TypeError`` naming the closest option."""
        unknown = sorted(set(options) - NAMES)
        if unknown:
            name = unknown[0]
            close = difflib.get_close_matches(name, NAMES, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise TypeError(f"start() got an unknown option {name!r}{hint}")
        return cls(**options)

    def code_key(self, backend: BackendKind | None = None) -> tuple:
        """The code-shaping fields' values, ``backend`` substituted when
        given (the serving ladder compiles on a forced back end)."""
        backend = backend or self.backend
        return tuple(backend.value if name == "backend"
                     else getattr(self, name) for name in CODE_SHAPING)


NAMES = frozenset(f.name for f in fields(Options))

#: The fields that change the code an instantiation produces.
CODE_SHAPING = tuple(f.name for f in fields(Options)
                     if f.metadata["shapes_code"])
