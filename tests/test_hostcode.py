"""The process-wide host-code cache (repro.target.hostcode): superblocks
and traces share compiled code objects across processes and sessions,
with per-machine state bound as closure cells."""

import sys
import threading

import pytest

from repro import Engine, MachineError, TccCompiler, report
from repro.target import hostcode

#: Two processes built with different ``$n`` values install the same
#: instruction shapes at the same addresses; only immediates differ.
#: The division makes the shared block a trap site.
SRC = """
int acc[4];
int build(int n) {
    int vspec p = param(int, 0);
    int vspec q = param(int, 1);
    return (int)compile(`{ acc[1] = p + $n; return (p - $n) / q; }, int);
}
"""

LOOP = """
int make_sum(void) {
    int vspec x = param(int, 0);
    int vspec n = param(int, 1);
    void cspec c = `{
        int i, s;
        s = 0;
        for (i = 0; i < n; i++)
            s = s + x;
        return s;
    };
    return (int)compile(c, int);
}
"""

#: Inputs for the built function; ``q == 0`` traps inside the block.
CALLS = ((3, 2), (40, -3), (-9, 4), (11, 0))


@pytest.fixture
def cold():
    """A cold cache and fresh counters."""
    hostcode.clear()
    report.reset()
    yield
    hostcode.clear()


def _hostcode_stats():
    stats = report.dispatch_stats()
    return {kind: stats[f"hostcode_{kind}"]
            for kind in ("hits", "misses", "evictions")}


def _observe(proc, entry):
    """Result or trap, memory and modeled cycles after each call."""
    fn = proc.function(entry, "ii", "i")
    machine = proc.machine
    out = []
    for args in CALLS:
        try:
            got = ("ok", fn(*args))
        except MachineError as trap:
            got = (type(trap).__name__, trap.pc, trap.instr, trap.function)
        out.append((got, bytes(machine.memory._data), machine.cpu.cycles))
    return out


def _run_all(threads, timeout=120):
    """Start and join ``threads`` with a short switch interval, so the
    interpreter interleaves them as finely as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def _built(program, n, **options):
    proc = program.start(**options)
    return proc, proc.run("build", n)


def test_processes_with_different_dollar_values_share_block_code(cold):
    program = TccCompiler().compile(SRC)
    first, entry = _built(program, 5)
    _observe(first, entry)
    missed = _hostcode_stats()["misses"]
    assert missed >= 1

    second, entry2 = _built(program, 7)
    assert entry2 == entry
    seen = _observe(second, entry2)
    stats = _hostcode_stats()
    assert stats["misses"] == missed          # nothing new to compile
    assert stats["hits"] >= 1
    blocks1 = first.machine._engine._blocks
    blocks2 = second.machine._engine._blocks
    assert blocks1[entry] is not blocks2[entry]
    assert blocks1[entry].__code__ is blocks2[entry].__code__

    # The shared block still computes with its own process's $n, and
    # traps exactly like the reference stepper, context included.
    ref, ref_entry = _built(program, 7, engine="reference")
    assert seen == _observe(ref, ref_entry)
    assert seen[0][0] == ("ok", -2)             # (3 - 7) / 2, truncated
    trap = seen[-1][0]
    assert trap[0] != "ok" and trap[1] is not None
    assert "div" in trap[2] and trap[3] is not None


def test_every_process_matches_the_reference_engine(cold):
    program = TccCompiler().compile(SRC)
    for n in (5, 7, -2, 5):
        proc, entry = _built(program, n)
        ref, ref_entry = _built(program, n, engine="reference")
        assert _observe(proc, entry) == _observe(ref, ref_entry)


def test_concurrent_compiles_match_a_serial_run(cold):
    """8 threads build and call overlapping programs at once; every
    result, memory image and cycle count equals a serial run's."""
    program = TccCompiler().compile(SRC)
    values = [i % 3 + 1 for i in range(8)]    # overlapping $n values

    def work(n):
        proc, entry = _built(program, n)
        return _observe(proc, entry)

    serial = [work(n) for n in values]
    hostcode.clear()
    results = [None] * len(values)
    errors = []
    start = threading.Barrier(len(values))

    def client(i):
        try:
            start.wait()
            results[i] = work(values[i])
        except BaseException as exc:          # pragma: no cover
            errors.append(exc)

    _run_all([threading.Thread(target=client, args=(i,))
              for i in range(len(values))])
    assert not errors
    assert results == serial


def test_racing_threads_get_one_code_object_per_source(cold):
    """Threads that miss on one source at once all end up with the code
    object the first of them inserted."""
    sources = [
        "def __make__(K0):\n    def __block__():\n"
        f"        return K0 + {i}\n    return __block__"
        for i in range(64)
    ]
    got = [[] for _ in sources]
    wrong = []
    start = threading.Barrier(8)

    def client(k):
        start.wait()
        for _ in range(3):
            for j in range(len(sources)):
                i = (j + 8 * k) % len(sources)
                fn = hostcode.function(sources[i], {}, {"K0": k})
                if fn() != k + i:
                    wrong.append((k, i))
                got[i].append(fn.__code__)

    _run_all([threading.Thread(target=client, args=(k,)) for k in range(8)])
    assert not wrong
    for codes in got:
        assert len(codes) == 8 * 3
        assert all(code is codes[0] for code in codes)
    stats = _hostcode_stats()
    assert stats["hits"] + stats["misses"] == 8 * 3 * len(sources)


def test_poisoned_trace_never_reaches_a_session_sharing_its_code(cold):
    eng = Engine(LOOP, chaos=None)
    tiering = {"hot_threshold": 2}
    with eng.session(tiering=tiering) as a, eng.session(tiering=tiering) as b:
        outs = [s.request("make_sum", (), call_args=(3, 50)) for s in (a, b)]
        assert all(out.ok for out in outs)
        for s, out in zip((a, b), outs):
            for _ in range(3):
                assert s.call(out.entry, (5, 40)) == 200
        traces_a = a.process.machine._engine._traces
        traces_b = b.process.machine._engine._traces
        shared = [e for e in traces_a if e in traces_b
                  and traces_a[e].__code__ is traces_b[e].__code__]
        assert shared, "the two sessions did not share trace code"

        poisoned = a.process.machine._engine.poison_trace()
        assert poisoned in shared
        stub = traces_a[poisoned]
        live = traces_b[poisoned]
        assert stub.__code__ is not live.__code__
        # A long loop runs past the entry trace's unrolled iterations
        # into the loop-head traces.  Session b keeps running its trace
        # on the shared code ...
        assert b.call(outs[1].entry, (7, 300)) == 2100
        assert traces_b[poisoned] is live
        # ... while session a deopts off the stub, with the same result.
        assert a.call(outs[0].entry, (7, 300)) == 2100
        assert traces_a.get(poisoned) is not stub
    assert report.tiering_stats()["deopts"] == 1


def test_cache_is_bounded_and_reports_evictions(cold, monkeypatch):
    monkeypatch.setattr(hostcode, "MAX_ENTRIES", 2)
    sources = [
        f"def __make__():\n    def __block__():\n        return {i}\n"
        "    return __block__"
        for i in range(3)
    ]
    for source in sources:
        assert hostcode.function(source, {}, {})() == sources.index(source)
    assert _hostcode_stats() == {"hits": 0, "misses": 3, "evictions": 1}
    hostcode.function(sources[2], {}, {})         # still cached
    hostcode.function(sources[0], {}, {})         # evicted: least recent
    assert _hostcode_stats() == {"hits": 1, "misses": 4, "evictions": 2}
    report.reset()
    assert _hostcode_stats() == {"hits": 0, "misses": 0, "evictions": 0}
