"""Host-time spans around the public entry points of each layer.

:class:`SpanTracer` replaces each entry point named in :data:`TARGETS`
with a wrapper that records a span (name, layer, start, end, parent,
operation id) and puts the original back on :meth:`SpanTracer.remove`.
Nothing inside ``src/`` changes.  Self time, per-layer busy time and
per-call means are accumulated as spans close; the spans themselves are
kept in memory (up to :data:`MAX_KEPT`) and written out at the end in
Chrome trace-event format, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: The repository's layers, in report order.  ``persist`` and
#: ``analysis`` are off by default, so no workload reaches them.
LAYERS = (
    "frontend", "core.driver", "core.interp", "runtime.closures",
    "core.codecache", "icode", "vcode", "core.install", "verify",
    "target.dispatch", "tiering", "target.cpu", "serving", "obs",
)

#: (module, attribute path, layer, span name).  A function imported by
#: name into another module is wrapped where it is looked up.
TARGETS = (
    ("repro.core.driver", "parse", "frontend", "parse"),
    ("repro.core.driver", "analyze", "frontend", "sema"),
    ("repro.core.driver", "CompiledProgram.start", "core.driver", "start"),
    ("repro.core.driver", "Process.compile_closure", "core.driver",
     "compile"),
    ("repro.core.driver", "Process.run", "core.interp", "run"),
    ("repro.core.driver", "signature_of", "runtime.closures",
     "signature_of"),
    ("repro.serving.envelope", "signature_of", "runtime.closures",
     "signature_of"),
    ("repro.core.codecache", "CodeCache.lookup", "core.codecache",
     "lookup"),
    ("repro.core.codecache", "CodeCache.match_template", "core.codecache",
     "match_template"),
    ("repro.core.codecache", "CodeCache.instantiate_template",
     "core.codecache", "clone"),
    ("repro.core.codecache", "CodeCache.store", "core.codecache", "store"),
    ("repro.icode.backend", "IcodeBackend.install", "icode", "install"),
    ("repro.vcode.machine", "VcodeBackend.install", "vcode", "install"),
    ("repro.icode.backend", "install_function", "core.install", "link"),
    ("repro.vcode.machine", "install_function", "core.install", "link"),
    ("repro.verify", "run_checker", "verify", "check"),
    ("repro.target.dispatch", "BlockEngine._compile_block",
     "target.dispatch", "superblock"),
    ("repro.tiering.engine", "TieredEngine._promote", "tiering", "promote"),
    ("repro.target.cpu", "Machine.call", "target.cpu", "call"),
    ("repro.serving.engine", "Session.request", "serving", "request"),
    ("repro.serving.envelope", "Envelope.execute", "serving", "execute"),
    ("repro.obs.slo", "SloEngine.observe", "obs", "observe"),
    ("repro.obs.flightrec", "FlightRecorder.record", "obs", "record"),
)

#: Spans kept for the trace file; later spans are still aggregated.
MAX_KEPT = 100_000


class Stat:
    """Per-(layer, name) aggregate: calls, total, busy and self time."""

    __slots__ = ("calls", "total_ns", "busy_ns", "self_ns", "cycles")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0      # every span, nested ones included
        self.busy_ns = 0       # outermost spans of the layer only
        self.self_ns = 0
        self.cycles = 0        # modeled cycles executed (Machine.call)


class SpanTracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self):
        self.kept = []         # (name, layer, t0, t1, parent, op)
        self.dropped = 0
        self.stats = {}        # (layer, name) -> Stat
        self.backend_compiles = {"icode": [0, 0], "vcode": [0, 0]}
        self.op_id = -1
        self.origin = time.perf_counter_ns()
        self._stack = []       # [key, t0, child_ns, index, tag, parent]
        self._depth = {}       # layer -> open spans of that layer
        self._restore = []

    # -- installation -----------------------------------------------------------

    def install(self) -> "SpanTracer":
        for module_name, path, layer, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, layer, name))
            self._restore.append((owner, attr, original))
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def op(self, i: int) -> None:
        """Tag the spans that follow with operation id ``i``."""
        self.op_id = i

    def _wrap(self, fn, layer, name):
        key = (layer, name)
        self.stats.setdefault(key, Stat())
        enter, leave = self._enter, self._leave
        if key == ("target.cpu", "call"):
            @functools.wraps(fn)
            def call(machine, *args, **kwargs):
                frame = enter(key)
                cycles0 = machine.cpu.cycles
                try:
                    return fn(machine, *args, **kwargs)
                finally:
                    frame[4] = machine.cpu.cycles - cycles0
                    leave(frame)
            return call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapper

    # -- span bookkeeping ---------------------------------------------------------

    def _enter(self, key):
        layer = key[0]
        self._depth[layer] = self._depth.get(layer, 0) + 1
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.kept) < MAX_KEPT:
            index = len(self.kept)
            self.kept.append(None)
        else:
            self.dropped += 1
        frame = [key, 0, 0, index, None, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _leave(self, frame) -> None:
        t1 = time.perf_counter_ns()
        key, t0, child_ns, index, tag, parent = frame
        self._stack.pop()
        dur = t1 - t0
        layer = key[0]
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        stat = self.stats[key]
        stat.calls += 1
        stat.total_ns += dur
        stat.self_ns += dur - child_ns
        if depth == 0:
            stat.busy_ns += dur
        if key == ("target.cpu", "call"):
            stat.cycles += tag or 0
        elif key in (("icode", "install"), ("vcode", "install")):
            # Attribute the enclosing compile() to this back end.
            for outer in reversed(self._stack):
                if outer[0] == ("core.driver", "compile"):
                    outer[4] = layer
                    break
        elif key == ("core.driver", "compile") and tag is not None:
            acc = self.backend_compiles[tag]
            acc[0] += 1
            acc[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            self.kept[index] = (key[1], layer, t0, t1, parent, self.op_id)

    # -- results ------------------------------------------------------------------

    def layer_table(self, wall_ns: int) -> list:
        """``[(layer, busy_ns, self_ns, calls), ...]`` plus an ``other``
        row holding the wall time no span covers."""
        rows = []
        total_self = 0
        for layer in LAYERS:
            stats = [s for (lay, _n), s in self.stats.items() if lay == layer]
            busy = sum(s.busy_ns for s in stats)
            own = sum(s.self_ns for s in stats)
            calls = sum(s.calls for s in stats)
            total_self += own
            rows.append((layer, busy, own, calls))
        rows.append(("other", wall_ns - total_self, wall_ns - total_self, 0))
        return rows

    def stat(self, layer: str, name: str) -> Stat:
        return self.stats.get((layer, name)) or Stat()

    def mean_us(self, layer: str, name: str) -> float:
        s = self.stat(layer, name)
        return s.total_ns / s.calls / 1000.0 if s.calls else 0.0

    def write_chrome(self, path, metadata) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = []
        for span in self.kept:
            if span is None:
                continue
            name, layer, t0, t1, parent, op = span
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": (t0 - self.origin) / 1000.0,
                "dur": (t1 - t0) / 1000.0,
                "pid": 1, "tid": 1,
                "args": {"op": op, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {**metadata,
                                     "dropped_spans": self.dropped}}, fh)
