"""One process-wide cache of compiled host code for superblocks and traces.

Both execution tiers turn target code into Python source (see
:class:`repro.target.dispatch._Gen`) of the form::

    def __make__(cpu, regs, ..., K0, K1, ...):
        def __block__():
            ...
        return __block__

Compiling that source is the dominant host cost of a first call into
fresh code, and fresh processes of one program regenerate the *same*
source.  This module compiles each distinct source once per process and
keeps the inner ``__block__`` code object, keyed on a digest of the
source.  Every caller then builds its own closure from the shared code
object with :class:`types.FunctionType`, binding the free variables to
its own machine state (the engine environment) and its own ``K<n>``
operand constants — no ``exec`` and no factory call per block.

The key is a digest, not the source string: a trace's source runs to
tens of kilobytes, and keeping those strings for code that never recurs
costs more memory than the code objects themselves.  The source is
derived from the installed instructions, so code that differs in any
emitted operand (a tampered template body, say) gets a different key.

The cache is a least-recently-used map bounded by :data:`MAX_ENTRIES`
and guarded by one lock.  A miss compiles outside the lock; when two
threads race on the same source, the first insert wins and both use
that code object.
"""

from __future__ import annotations

import builtins
import hashlib
import threading
from collections import OrderedDict
from types import CellType, CodeType, FunctionType

from repro import report

#: Most code objects kept; the least recently used is evicted first.
MAX_ENTRIES = 2048

#: Generated code reads machine state only through its closure cells;
#: the globals it runs with provide nothing but the builtins.
_GLOBALS = {"__builtins__": builtins}

_lock = threading.Lock()
_codes: OrderedDict = OrderedDict()      # source digest -> __block__ code


def _compile(source: str) -> CodeType:
    """Compile the factory source and return its inner function's code."""
    module = compile(source, "<hostcode>", "exec")
    make = next(c for c in module.co_consts if isinstance(c, CodeType))
    return next(c for c in make.co_consts if isinstance(c, CodeType))


def _code_for(source: str) -> CodeType:
    """The shared ``__block__`` code object for ``source``."""
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    with _lock:
        code = _codes.get(key)
        if code is not None:
            _codes.move_to_end(key)
    if code is not None:
        report.record_hostcode("hits")
        return code
    fresh = _compile(source)
    evicted = 0
    with _lock:
        code = _codes.setdefault(key, fresh)
        _codes.move_to_end(key)
        while len(_codes) > MAX_ENTRIES:
            _codes.popitem(last=False)
            evicted += 1
    report.record_hostcode("misses")
    if evicted:
        report.record_hostcode("evictions", evicted)
    return code


def function(source: str, env: dict, consts: dict):
    """A callable for ``source`` closed over ``env`` and ``consts``.

    ``env`` holds the engine's machine touchpoints and ``consts`` the
    block's ``K<n>`` operands; only the names the code actually reads
    become cells."""
    code = _code_for(source)
    cells = tuple(CellType(consts[name] if name in consts else env[name])
                  for name in code.co_freevars)
    return FunctionType(code, _GLOBALS, code.co_name, None, cells)


def clear() -> None:
    """Drop every cached code object (the next compile of each source
    misses).  Used to measure a cold cache."""
    with _lock:
        _codes.clear()
