"""The benchmark's three seeded workloads.

Each ``run_*`` function drives the public ``repro`` API with default
options (the back end is the only knob a workload picks, and chaos is
off), checks every operation against a reference computed without the
compiler, and returns a plain dict of raw samples, exact modeled counts
and derived metrics.  A run measures for ``seconds`` of wall time, but
never less than a fixed minimum of operations, so that every reported
percentile has enough samples beyond it; ``max_ops`` instead stops after
exactly that many operations (the tracing-overhead replay).

The modeled counts (``codegen_cycles``, ``exec_cycles``, ``code_instrs``)
cover a fixed, seed-determined *round* at the start of each run, so they
are exact for a given seed however fast the host is.
"""

from __future__ import annotations

import ast
import gc
import itertools
import math
import random
import re
import statistics
import time

from quantiles import geomean, quantile

#: Times each workload's set-up is repeated; ``setup_s`` is the median.
SETUP_REPS = 9

#: Every host timing is CPU time of the calling thread.  The program is
#: single-threaded and CPU-bound, so this is its wall time on an idle
#: machine, minus the time a shared machine's hypervisor steals.
now_ns = time.thread_time_ns

#: Calibration-load time (ms) at the reference machine speed; host times
#: are reported at that speed (see :class:`Calibrator`).
CAL_REF_MS = 2.05
#: How strongly the program's speed follows the calibration load's: the
#: slope of log(program time) on log(load time) across the machine's
#: speed modes, measured on a 2-vCPU VM at 0.7-0.76.  Scaling with an
#: exponent of 1 over-corrected by a third.
SPEED_SLOPE = 0.7


def wrap32(value: int) -> int:
    """Two's-complement 32-bit wraparound (the target's ``int``)."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


class Calibrator:
    """A fixed pure-Python reference load, timed between operations.

    A shared machine changes speed, by tens of percent, within a run and
    between runs, flipping between speed modes that last seconds.  The
    load does the kinds of work the program does (dictionaries, method
    calls, byte slices) and never calls into ``repro``.  Its working set,
    a 16 KiB buffer and a 512-key dictionary, fits in the first-level
    data cache, and an untimed warm-up pass refills that cache before the
    timed pass.  So the program's working set does not carry over into
    the timed load: after an operation that touches 64 MiB and allocates
    200k objects, the load takes within about 1% of its time after a
    light one (``test_calibration_ignores_the_programs_working_set``).

    Each host time is reported at the reference speed: scaled by
    ``CAL_REF_MS`` over the mean of the :attr:`SIDE` calibrations made
    on each side of it, to the power :data:`SPEED_SLOPE`
    (:meth:`at_ref`).  A run's calibrations fall into a fast and a slow
    mode, mixed in shares that change from run to run, so one factor for
    the whole run would move a quantile with the mix; the nearby
    calibrations share the sample's mode, and six of them average out
    most of one calibration's noise.  One-of-a-kind samples (a set-up
    rep, an app's build and first call) get a calibration right before
    and right after them.
    """

    #: Wall seconds between calibrations.
    EVERY_S = 0.1
    #: Calibrations on each side of a sample that set its scale.
    SIDE = 3
    #: Calibrations made before set-up starts (set-up adds two per rep).
    AT_START = 3
    BUFFER = 1 << 14
    WARM_STEPS = 700
    STEPS = 1500

    def __init__(self):
        self.buffer = bytearray(self.BUFFER)
        self.ms = []
        self.due = 0.0
        for _ in range(self.AT_START):
            self.measure()

    def _load(self, steps: int) -> None:
        buffer, table, mask = self.buffer, {}, self.BUFFER - 8
        load = int.from_bytes
        point = _Point()
        acc = 0
        for i in range(steps):
            key = i & 511
            table[key] = table.get(key, 0) + i
            acc += point.shift(i)
            addr = (i * 40503) & mask
            acc ^= load(buffer[addr:addr + 4], "little")
            buffer[addr:addr + 4] = (acc & 0xFFFFFFFF).to_bytes(4, "little")

    def measure(self) -> None:
        self._load(self.WARM_STEPS)
        t0 = now_ns()
        self._load(self.STEPS)
        self.ms.append((now_ns() - t0) / 1e6)
        self.due = time.perf_counter() + self.EVERY_S

    def between_ops(self) -> None:
        if time.perf_counter() >= self.due:
            self.measure()

    def mark(self) -> int:
        """Where a sample taken now falls: after calibration
        ``mark() - 1``."""
        return len(self.ms)

    def at_ref(self, values, marks) -> list:
        """``values``, each taken at the matching mark, at the reference
        speed."""
        sums = list(itertools.accumulate(self.ms, initial=0.0))
        n = len(self.ms)
        scale = []
        for m in range(n + 1):
            lo, hi = max(0, m - self.SIDE), min(n, m + self.SIDE)
            scale.append((CAL_REF_MS * (hi - lo) / (sums[hi] - sums[lo]))
                         ** SPEED_SLOPE)
        return [value * scale[m] for value, m in zip(values, marks)]

    def factor(self) -> float:
        """One multiplier for the whole run, from its mean calibration: a
        summary of the machine's speed, and the scale of whole-run CPU
        times."""
        return (CAL_REF_MS / statistics.fmean(self.ms)) ** SPEED_SLOPE


class _Point:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 3

    def shift(self, value):
        return self.x + value


def _timed_setup(build, calibrator):
    """Run ``build()`` SETUP_REPS times, each between two calibrations;
    return (last result, (seconds per rep, their marks))."""
    samples, marks = [], []
    result = None
    for _ in range(SETUP_REPS):
        calibrator.measure()
        marks.append(calibrator.mark())
        t0 = now_ns()
        result = build()
        samples.append((now_ns() - t0) / 1e9)
        calibrator.measure()
    return result, (samples, marks)


class _Clock:
    """Stop rule shared by the workloads: run until ``seconds`` of wall
    time have passed and at least ``min_ops`` operations are done, or
    until exactly ``max_ops`` operations are done when that is given.
    Each check is also where the calibrator may run."""

    def __init__(self, seconds, min_ops, max_ops, calibrator):
        self.calibrator = calibrator
        self.deadline = time.perf_counter() + seconds
        self.cpu0 = now_ns()
        self.cal0 = len(calibrator.ms)
        self.min_ops = min_ops
        self.max_ops = max_ops

    def more(self, done: int) -> bool:
        self.calibrator.between_ops()
        if self.max_ops is not None:
            return done < self.max_ops
        return done < self.min_ops or time.perf_counter() < self.deadline

    def capped(self, done: int) -> bool:
        """True once an exact ``max_ops`` run has done its operations."""
        self.calibrator.between_ops()
        return self.max_ops is not None and done >= self.max_ops

    def cpu_s(self) -> float:
        """Thread CPU time of the loop so far, timed calibration passes
        excluded."""
        calibrating = sum(self.calibrator.ms[self.cal0:]) / 1e3
        return (now_ns() - self.cpu0) / 1e9 - calibrating


class _Failures:
    """Failed-operation ledger: count plus the first few descriptions."""

    def __init__(self):
        self.count = 0
        self.first = []

    def note(self, what: str) -> None:
        self.count += 1
        if len(self.first) < 5:
            self.first.append(what)


def _counts(processes) -> dict:
    """The paper's clock, summed over ``processes``."""
    return {
        "codegen_cycles": sum(p.cost.lifetime.total_cycles()
                              for p in processes),
        "exec_cycles": sum(p.machine.cpu.cycles for p in processes),
        "code_instrs": sum(p.cost.lifetime.generated_instructions
                           for p in processes),
    }


def _op(probe, i: int) -> None:
    if probe is not None:
        probe.op(i)


def _result(calibrator, setup, clock, done, failures, counts, samples,
            native, **extra) -> dict:
    """The fields every workload returns.  ``setup`` is what
    :func:`_timed_setup` measured; ``native`` maps the workload's own
    metric names to ``(measured, at_ref, unit)``; ``extra`` holds the
    end-to-end metrics of the workload's operation (``op_p50_ms``,
    ``op_tail_ms``, ``ops_per_s``, ``compile_us_per_instr``) at the
    reference speed, and anything else the workload reports."""
    return {
        "setup_s": setup[0],
        "setup_s_median": statistics.median(setup[0]),
        "setup_ref_s": statistics.median(calibrator.at_ref(*setup)),
        "ops": done,
        "failed": failures.count,
        "failures": failures.first,
        "loop_cpu_s": clock.cpu_s(),
        "calibration_ms": calibrator.ms,
        "speed_factor": calibrator.factor(),
        "samples": samples,
        "counts": counts,
        "native": native,
        **extra,
    }


def _native(values, marks, calibrator, metrics) -> dict:
    """``{name: (fn, unit)}`` -> ``{name: (fn(values), fn(values at the
    reference speed), unit)}``."""
    at_ref = calibrator.at_ref(values, marks)
    return {name: (fn(values), fn(at_ref), unit)
            for name, (fn, unit) in metrics.items()}


def _p(q):
    return lambda values: quantile(values, q)[0]


# -- serve-mix ----------------------------------------------------------------

SERVE_SOURCE = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}

int make_mul(int n) {
    int vspec p = param(int, 0);
    int cspec c = `(p * $n);
    return (int)compile(c, int);
}
"""

HOT_VALUES = (3, 5, 7, 11)
WARM_BASE = 100
WARM_SPAN = 48
#: Cold values walk a full-period stride through [COLD_BASE,
#: COLD_BASE + COLD_SPAN), so they never repeat and stay bounded.
COLD_BASE = 1000
COLD_SPAN = 999_000
COLD_STRIDE = 7919
#: Every block of 20 requests of a session holds exactly 14 hot, 5 warm
#: and 1 cold request (70/25/5%) in a seeded order.
BLOCK = ("hot",) * 14 + ("warm",) * 5 + ("cold",)
SERVE_SESSIONS = 2
#: Requests in the counted round, and the minimum per run: p99 needs
#: 1000 samples.
SERVE_ROUND = 2000


def _warm_multiset(total: int) -> list:
    """``total`` warm values: offset ``k`` of the band appears in
    proportion to the Zipf-like law ``(k+1)^-1.2 - (k+2)^-1.2`` (the last
    offset takes the whole tail), rounded by largest remainder."""
    shares = [(k + 1) ** -1.2 - (k + 2) ** -1.2 for k in range(WARM_SPAN)]
    shares[-1] = WARM_SPAN ** -1.2
    exact = [total * share for share in shares]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(WARM_SPAN), key=lambda k: counts[k] - exact[k])
    for k in by_remainder[:total - sum(counts)]:
        counts[k] += 1
    return [WARM_BASE + k for k in range(WARM_SPAN) for _ in range(counts[k])]


class Request:
    __slots__ = ("builder", "n", "x", "klass")

    def __init__(self, builder, n, x, klass):
        self.builder = builder
        self.n = n
        self.x = x
        self.klass = klass

    def key(self):
        return (self.builder, self.n, self.x, self.klass)

    def expected(self) -> int:
        if self.builder == "make_adder":
            return wrap32(self.n + self.x)
        return wrap32(self.n * self.x)


def serve_stream(seed: int):
    """The endless ``serve-mix`` request stream for ``seed``.

    Request ``i`` goes to session ``i % SERVE_SESSIONS``.  Each round of
    SERVE_ROUND requests gives every session the same class mix and the
    same warm multiset, in its own seeded order, and takes the round's
    cold values, which never repeat, from one fixed sequence.  So a
    round's cache hits, patches and compiles, and with them its modeled
    counts, do not depend on the seed; the seed moves only the order,
    the hot values and the call arguments."""
    rng = random.Random(f"serve-mix:{seed}")
    per_session = SERVE_ROUND // SERVE_SESSIONS
    warm_values = _warm_multiset(
        per_session * BLOCK.count("warm") // len(BLOCK))
    cold_at = 0
    while True:
        lanes = []
        for _ in range(SERVE_SESSIONS):
            classes = []
            for _ in range(per_session // len(BLOCK)):
                block = list(BLOCK)
                rng.shuffle(block)
                classes.extend(block)
            warm = list(warm_values)
            rng.shuffle(warm)
            lanes.append((iter(classes), warm))
        for i in range(SERVE_ROUND):
            classes, warm = lanes[i % SERVE_SESSIONS]
            klass = next(classes)
            x = rng.randrange(100)
            if klass == "hot":
                yield Request("make_adder", rng.choice(HOT_VALUES), x, klass)
            elif klass == "warm":
                yield Request("make_adder", warm.pop(), x, klass)
            else:
                yield Request("make_mul", COLD_BASE + cold_at, x, klass)
                cold_at = (cold_at + COLD_STRIDE) % COLD_SPAN


def _cold_fifths(latency_us, klasses, cold_cycles) -> dict:
    """Cold-request cost in the first and the last fifth of a run: the
    median host time, the same over the median hot request of that
    fifth (which cancels the machine's speed at the time), and the
    median modeled codegen cycles.  Guards against a cold tail whose
    cost grows with run length."""
    n = len(latency_us)
    out = {"us": [], "us_per_hot": [], "codegen_cycles": []}
    for lo, hi in ((0, n // 5), (n - n // 5, n)):
        cold = [latency_us[i] for i in range(lo, hi) if klasses[i] == "cold"]
        hot = [latency_us[i] for i in range(lo, hi) if klasses[i] == "hot"]
        out["us"].append(statistics.median(cold))
        out["us_per_hot"].append(statistics.median(cold)
                                 / statistics.median(hot))
    fifth = max(len(cold_cycles) // 5, 1)
    out["codegen_cycles"] = [statistics.median(cold_cycles[:fifth]),
                             statistics.median(cold_cycles[-fifth:])]
    return out


def run_serve_mix(seed, seconds, max_ops=None, probe=None) -> dict:
    from repro import Engine, TccCompiler

    def build():
        program = TccCompiler().compile(SERVE_SOURCE)
        engine = Engine(program, chaos=None)
        return engine, [engine.open_session()
                        for _ in range(SERVE_SESSIONS)]

    calibrator = Calibrator()
    _op(probe, -1)
    (engine, sessions), setup = _timed_setup(build, calibrator)
    processes = [s.process for s in sessions]
    failures = _Failures()
    latency_us = []
    marks = []
    cold_at = []                       # indices of the cold requests
    cold_instrs = 0
    cold_cycles = []                   # modeled codegen cycles per cold
    klasses = []
    counts = None
    clock = _Clock(seconds, SERVE_ROUND, max_ops, calibrator)
    done = 0
    for request in serve_stream(seed):
        if not clock.more(done):
            break
        _op(probe, done)
        session = sessions[done % SERVE_SESSIONS]
        lifetime = session.process.cost.lifetime
        instrs0 = lifetime.generated_instructions
        cycles0 = lifetime.total_cycles()
        t0 = now_ns()
        outcome = session.request(request.builder, (request.n,),
                                  call_args=(request.x,))
        latency_us.append((now_ns() - t0) / 1000.0)
        marks.append(calibrator.mark())
        klasses.append(request.klass)
        if request.klass == "cold":
            cold_at.append(done)
            cold_instrs += lifetime.generated_instructions - instrs0
            cold_cycles.append(lifetime.total_cycles() - cycles0)
        if outcome.error is not None:
            failures.note(f"{request.key()}: {outcome.error!r}")
        elif outcome.value != request.expected():
            failures.note(f"{request.key()}: got {outcome.value}")
        done += 1
        if done == SERVE_ROUND:
            counts = _counts(processes)
    if counts is None:
        counts = _counts(processes)
    for session in sessions:
        session.close()

    native = _native(latency_us, marks, calibrator, {
        "req_p50_us": (_p(50), "us"),
        "req_p99_us": (_p(99), "us"),
        "req_per_s": (lambda v: len(v) * 1e6 / sum(v), "1/s"),
        "compile_us_per_instr": (
            lambda v: sum(v[i] for i in cold_at) / max(cold_instrs, 1),
            "us/instr"),
    })
    return _result(
        calibrator, setup, clock, done, failures, counts, len(latency_us),
        native, op_p50_ms=native["req_p50_us"][1] / 1000.0,
        op_tail_ms=native["req_p99_us"][1] / 1000.0,
        ops_per_s=native["req_per_s"][1],
        compile_us_per_instr=native["compile_us_per_instr"][1],
        cold_fifths=_cold_fifths(latency_us, klasses, cold_cycles))


# -- codegen-cold -------------------------------------------------------------

BACKENDS = ("icode", "vcode")
#: Passes per run, minimum: 8 compiles each, and p95 needs 200 samples.
#: The tail is p95, not p90: with 8 programs of equal weight, p87.5 is
#: the edge between the two slowest, so p90 sits on that edge's slope.
COLD_MIN_PASSES = 25

_ASSIGN = re.compile(r"\b(v[a-d]) = ([^;]+);")
_BOUND = re.compile(r"i < (\d+);")
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitXor: lambda a, b: a ^ b,
    ast.LShift: lambda a, b: a << (b & 31),
    ast.RShift: lambda a, b: a >> (b & 31),
}


def _eval32(node, env) -> int:
    """Evaluate a C integer expression with wraparound after every
    operation (the parsed subset: names, literals, binary operators)."""
    if isinstance(node, ast.Expression):
        return _eval32(node.body, env)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.Constant):
        return wrap32(node.value)
    if isinstance(node, ast.BinOp):
        op = _BINOPS[type(node.op)]
        return wrap32(op(_eval32(node.left, env), _eval32(node.right, env)))
    raise ValueError(f"unsupported expression {ast.dump(node)}")


def table1_reference(row: str, source: str, seed: int, x: int) -> int:
    """What the Table-1 function built by ``build(seed)`` returns on
    ``x``, evaluated in Python from the row's source text."""
    if row.startswith("many small"):
        n = int(_BOUND.search(source).group(1))
        if "free variables" in row:
            return wrap32(n * seed)         # `0 + x + ... + x, x = seed
        return wrap32((n + 1) * x)          # s + s + ... + s, s = p
    env = {"seed": wrap32(seed), "p": wrap32(x)}
    for name, expr in _ASSIGN.findall(source):
        tree = ast.parse(expr.replace("$", ""), mode="eval")
        env[name] = _eval32(tree, env)
    return wrap32(env["va"] + env["vb"] + env["vc"] + env["vd"])


def run_codegen_cold(seed, seconds, max_ops=None, probe=None) -> dict:
    from repro import TccCompiler
    from repro.apps.table1 import TABLE1_ROWS

    sources = {row: factory() for row, factory in TABLE1_ROWS.items()}

    def build():
        programs = {row: TccCompiler().compile(src)
                    for row, src in sources.items()}
        next(iter(programs.values())).start()
        return programs

    calibrator = Calibrator()
    _op(probe, -1)
    programs, setup = _timed_setup(build, calibrator)
    items = [(row, backend) for row in sources for backend in BACKENDS]
    rng = random.Random(f"codegen-cold:{seed}")
    build_seed = rng.randrange(1, 1 << 20)
    failures = _Failures()
    compile_ms = []
    marks = []
    total_instrs = 0
    counts = None
    round_procs = []
    clock = _Clock(seconds, COLD_MIN_PASSES * len(items), max_ops, calibrator)
    done = 0
    while clock.more(done):
        order = list(items)
        rng.shuffle(order)
        for row, backend in order:
            if clock.capped(done):
                break
            _op(probe, done)
            build_seed += 1
            x = rng.randrange(-1000, 1000)
            process = programs[row].start(backend=backend)
            try:
                t0 = now_ns()
                entry = process.run("build", build_seed)
                compile_ms.append((now_ns() - t0) / 1e6)
                marks.append(calibrator.mark())
                got = process.function(entry, "i", "i")(x)
            except Exception as exc:   # noqa: BLE001 - counted as failed
                failures.note(f"{row}/{backend}: {exc!r}")
            else:
                want = table1_reference(row, sources[row], build_seed, x)
                if got != want:
                    failures.note(f"{row}/{backend} seed {build_seed} "
                                  f"x {x}: got {got}, want {want}")
            total_instrs += process.cost.lifetime.generated_instructions
            if counts is None:
                round_procs.append(process)
            done += 1
            if done == len(items):
                counts = _counts(round_procs)
    if counts is None:
        counts = _counts(round_procs)

    native = _native(compile_ms, marks, calibrator, {
        "compile_p50_ms": (_p(50), "ms"),
        "compile_p90_ms": (_p(90), "ms"),
        "compile_p95_ms": (_p(95), "ms"),
        "compiles_per_s": (lambda v: len(v) * 1e3 / sum(v), "1/s"),
        "compile_us_per_instr": (
            lambda v: sum(v) * 1000.0 / max(total_instrs, 1), "us/instr"),
    })
    return _result(
        calibrator, setup, clock, done, failures, counts, len(compile_ms),
        native, op_p50_ms=native["compile_p50_ms"][1],
        op_tail_ms=native["compile_p95_ms"][1],
        ops_per_s=native["compiles_per_s"][1],
        compile_us_per_instr=native["compile_us_per_instr"][1])


# -- apps ---------------------------------------------------------------------

#: A cycle builds every pair in a fresh process and makes its first call,
#: then makes APPS_REPEATS repeat calls per pair.  A run makes at least
#: APPS_MIN_CYCLES cycles, so each pair's steady median has 20 samples
#: and first calls are sampled across the whole run, not in one burst.
APPS_REPEATS = 10
APPS_MIN_CYCLES = 2
#: A repeat pass calls a cheap pair several times in a row, enough to
#: execute about APPS_BATCH_CYCLES modeled cycles (at most APPS_BATCH_MAX
#: calls).  Sub-millisecond calls then get medians of many samples at
#: little cost, while the calls that dominate run time are made once.
APPS_BATCH_CYCLES = 200_000
APPS_BATCH_MAX = 20
#: Likewise a cycle builds a cheap pair in up to APPS_FIRST_MAX fresh
#: processes, one per APPS_FIRST_CYCLES modeled cycles its first call
#: runs short of that budget, and times each first call.
APPS_FIRST_CYCLES = 100_000
APPS_FIRST_MAX = 6


def matches(value, expected) -> bool:
    """Result check with the app harness's float tolerance."""
    if isinstance(expected, float):
        return abs(value - expected) < 1e-6 * max(1.0, abs(expected))
    return value == expected


class _Pair:
    """One app under one back end in its own fresh process."""

    def __init__(self, app, backend, program):
        self.app = app
        self.key = (app.name, backend)
        self.name = f"{app.name}/{backend}"
        self.process = program.start(backend=backend)
        self.ctx = app.setup(self.process)
        self.fn = None
        self.expected = None
        self.heap = None
        self.build_ms = 0.0
        self.exec_cycles = 0
        self.batch = 1

    def build(self) -> None:
        app, process = self.app, self.process
        t0 = now_ns()
        entry = process.run(app.builder, *app.builder_args(self.ctx))
        self.build_ms = (now_ns() - t0) / 1e6
        self.fn = process.function(entry, app.dyn_signature,
                                   app.dyn_returns, name=app.name)
        self.expected = app.expected(self.ctx)
        memory = process.machine.memory
        low = memory.heap_base
        self.heap = (low, memory.read_bytes(low,
                                            memory.stable_limit() - low))

    def call(self, samples: list, failures: _Failures, mark: int) -> None:
        """One timed call on the app's standard input (the heap is put
        back as the build left it first), added to ``samples`` as (ms,
        calibration mark)."""
        low, data = self.heap
        self.process.machine.memory.write_bytes(low, data)
        cycles0 = self.process.machine.cpu.cycles
        t0 = now_ns()
        got = self.app.dyn_call(self.fn, self.ctx)
        samples.append(((now_ns() - t0) / 1e6, mark))
        self.exec_cycles = self.process.machine.cpu.cycles - cycles0
        if not matches(got, self.expected):
            failures.note(f"{self.name}: got {got!r}, "
                          f"want {self.expected!r}")


def _first_call(app, backend, program, calibrator, first_ms, build_ms,
                failures):
    """Build ``app`` in a fresh process and time its first call, between
    two calibrations; ``first_ms`` and ``build_ms`` get ``(ms, mark)``
    pairs.  On failure the returned pair has no ``fn``."""
    pair = _Pair(app, backend, program)
    calibrator.measure()
    mark = calibrator.mark()
    first = []
    try:
        pair.build()
        pair.call(first, failures, mark)
    except Exception as exc:           # noqa: BLE001 - counted as failed
        failures.note(f"{pair.name}: {exc!r}")
        pair.fn = None
    calibrator.measure()
    if pair.fn is not None:
        first_ms[pair.key].append(first[0])
        build_ms[pair.key].append((pair.build_ms, mark))
    return pair


def run_apps(seed, seconds, max_ops=None, probe=None) -> dict:
    from repro import TccCompiler
    from repro.apps import ALL_APPS

    def build():
        programs = {name: TccCompiler().compile(app.source)
                    for name, app in ALL_APPS.items()}
        next(iter(programs.values())).start()
        return programs

    calibrator = Calibrator()
    _op(probe, -1)
    programs, setup = _timed_setup(build, calibrator)
    rng = random.Random(f"apps:{seed}")
    keys = [(name, backend) for name in ALL_APPS for backend in BACKENDS]
    failures = _Failures()
    first_ms = {key: [] for key in keys}
    steady_ms = {key: [] for key in keys}
    build_ms = {key: [] for key in keys}
    info = {}                          # key -> (exec cycles/call, codegen)
    instrs = {}                        # key -> instructions per build
    counts = None
    clock = _Clock(seconds, 0, max_ops, calibrator)
    done = 0
    cycles = 0
    while clock.more(done) or (cycles < APPS_MIN_CYCLES
                               and not clock.capped(done)):
        cycles += 1
        order = list(keys)
        rng.shuffle(order)
        pairs = []
        for name, backend in order:
            if clock.capped(done):
                break
            _op(probe, done)
            pair = _first_call(ALL_APPS[name], backend, programs[name],
                               calibrator, first_ms, build_ms, failures)
            lifetime = pair.process.cost.lifetime
            instrs[pair.key] = lifetime.generated_instructions
            done += 1
            if pair.fn is None:
                continue
            pairs.append(pair)
            pair.batch = max(1, min(
                APPS_BATCH_MAX, APPS_BATCH_CYCLES // max(pair.exec_cycles, 1)))
            spares = min(APPS_FIRST_MAX,
                         APPS_FIRST_CYCLES // max(pair.exec_cycles, 1))
            for _ in range(spares - 1):
                if clock.capped(done):
                    break
                _op(probe, done)
                _first_call(ALL_APPS[name], backend, programs[name],
                            calibrator, first_ms, build_ms, failures)
                done += 1
            if spares > 1:
                # A process is cyclic garbage; collect the spares now so
                # that they do not pile up in peak_rss_mb.
                gc.collect()
        for _ in range(APPS_REPEATS):
            rng.shuffle(pairs)
            for pair in pairs:
                for _ in range(pair.batch):
                    if clock.capped(done):
                        break
                    _op(probe, done)
                    try:
                        pair.call(steady_ms[pair.key], failures,
                                  calibrator.mark())
                    except Exception as exc:   # noqa: BLE001 - counted
                        failures.note(f"{pair.name}: {exc!r}")
                    done += 1
            if counts is None:
                counts = _counts([p.process for p in pairs])
                info = {p.key: (p.exec_cycles,
                                p.process.cost.lifetime.total_cycles())
                        for p in pairs}

    def at_ref(timed):                 # [(ms, mark)] -> [(ms, at ref)]
        values = [v for v, _ in timed]
        return list(zip(values, calibrator.at_ref(
            values, [m for _, m in timed])))

    first_ms, steady_ms, build_ms = (
        {key: at_ref(timed) for key, timed in by_key.items()}
        for by_key in (first_ms, steady_ms, build_ms))

    # i: 0 measured, 1 at the reference speed.
    def first_geo(i):
        return geomean(geomean(v[i] for v in samples)
                       for samples in first_ms.values() if samples)

    def steady_geo(i):
        return geomean(quantile([v[i] for v in samples], 50)[0]
                       for samples in steady_ms.values()
                       if len(samples) >= 20)

    def per_s(i):
        calls = [v[i] for by_key in (first_ms, steady_ms)
                 for samples in by_key.values() for v in samples]
        return len(calls) * 1e3 / sum(calls)

    def per_instr(i):
        return geomean(geomean(v[i] for v in samples) * 1000.0 / instrs[key]
                       for key, samples in build_ms.items()
                       if samples and instrs[key])

    native = {name: (fn(0), fn(1), unit) for name, fn, unit in (
        ("steady_call_ms_geo", steady_geo, "ms"),
        ("first_call_ms_geo", first_geo, "ms"),
        ("calls_per_s", per_s, "1/s"),
        ("compile_us_per_instr", per_instr, "us/instr"))}
    rows = []
    for key in sorted(keys):
        steady, first, builds = steady_ms[key], first_ms[key], build_ms[key]
        rows.append({
            "pair": "/".join(key),
            "build_ms": (statistics.median(v[1] for v in builds) if builds
                         else math.nan),
            "first_ms": geomean(v[1] for v in first) if first else math.nan,
            "steady_ms": (quantile([v[1] for v in steady], 50)[0]
                          if len(steady) >= 20 else None),
            "steady_n": len(steady),
            "exec_cycles": info.get(key, (0, 0))[0],
            "codegen_cycles": info.get(key, (0, 0))[1],
        })
    return _result(
        calibrator, setup, clock, done, failures, counts or _counts([]),
        min((r["steady_n"] for r in rows), default=0), native,
        op_p50_ms=native["steady_call_ms_geo"][1],
        op_tail_ms=native["first_call_ms_geo"][1],
        ops_per_s=native["calls_per_s"][1],
        compile_us_per_instr=native["compile_us_per_instr"][1], rows=rows)


WORKLOADS = {
    "serve-mix": run_serve_mix,
    "codegen-cold": run_codegen_cold,
    "apps": run_apps,
}
