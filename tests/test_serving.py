"""The serving engine: sessions, envelopes, breakers, and the
differential serial-vs-threads guarantee."""

from __future__ import annotations

import threading

import pytest

from repro import (
    DeadlineExceeded,
    Engine,
    RequestFailed,
    RuntimeTccError,
    report,
)
from repro.icode.backend import IcodeBackend
from repro.errors import CodegenError, CycleBudgetExceeded
from repro.serving import ChaosPlan, LADDER, RetryPolicy
from repro.serving.breaker import BreakerBoard, CircuitBreaker
from repro.serving.envelope import DeadlineClock
from repro.telemetry.metrics import REGISTRY

ADDER = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}
"""

PROGRAM = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}

int make_sum(int n) {
    int vspec x = param(int, 0);
    void cspec c = `{
        int i, s;
        s = 0;
        for (i = 0; i < $n; i++)
            s = s + x;
        return s;
    };
    return (int)compile(c, int);
}

int make_div(int d) {
    int vspec x = param(int, 0);
    return (int)compile(`(x / $d), int);
}
"""


class TestEngineSessions:
    def test_request_compiles_and_executes(self):
        with Engine(ADDER, chaos=None).session() as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.tier == "patched" and out.path == "cold"
            assert out.cycles > 0

    def test_tier1_hit_within_a_session(self):
        with Engine(ADDER, chaos=None).session() as s:
            s.request("make_adder", (10,), call_args=(1,))
            out = s.request("make_adder", (10,), call_args=(2,))
            assert out.path == "hit" and out.value == 12

    def test_templates_are_shared_across_sessions(self):
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            assert a.request("make_adder", (10,), call_args=(1,)).path == "cold"
        with eng.session() as b:
            out = b.request("make_adder", (99,), call_args=(1,))
            assert out.path == "patched" and out.value == 100
        assert eng.stats()["store"]["templates"] == 1

    def test_tier1_memo_is_not_shared_across_sessions(self):
        # Same key as session a's memo entry; session b must not get a
        # "hit" (entry addresses are machine-specific).
        eng = Engine(ADDER, chaos=None)
        with eng.session() as a:
            a.request("make_adder", (10,), call_args=(1,))
        with eng.session() as b:
            out = b.request("make_adder", (10,), call_args=(1,))
            assert out.path in ("patched", "cold")
            assert out.value == 11

    def test_sessions_do_not_share_machine_state(self):
        eng = Engine(PROGRAM, chaos=None)
        with eng.session() as a, eng.session() as b:
            ea = a.request("make_adder", (1,)).entry
            eb = b.request("make_adder", (2,)).entry
            assert a.call(ea, (10,)) == 11
            assert b.call(eb, (10,)) == 12
            assert a.process.machine is not b.process.machine

    def test_run_raises_and_request_captures(self):
        with Engine(PROGRAM, chaos=None).session() as s:
            entry = s.run("make_div", 0)    # division folded at exec time
            out = s.request("make_div", (0,), call_args=(4,))
            assert isinstance(entry, int)
            assert not out.ok               # div-by-zero trap captured
            assert out.error is not None

    def test_closed_session_refuses_requests(self):
        eng = Engine(ADDER, chaos=None)
        s = eng.open_session()
        s.close()
        s.close()                           # idempotent
        with pytest.raises(RuntimeTccError, match="closed"):
            s.request("make_adder", (1,))
        assert eng.stats()["sessions_open"] == 0

    def test_session_defaults_are_validated_at_construction(self):
        with pytest.raises(TypeError, match="'bakend'.*'backend'"):
            Engine(ADDER, chaos=None, bakend="vcode")
        with pytest.raises(ValueError, match="'regalloc'"):
            Engine(ADDER, chaos=None, regalloc="graph")


class TestDeadlines:
    def test_deadline_exceeded_is_captured(self):
        with Engine(ADDER, chaos=None).session(deadline=1) as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, DeadlineExceeded)

    def test_generous_deadline_passes(self):
        with Engine(ADDER, chaos=None).session(deadline=10_000_000) as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15

    def test_deadline_covers_compile_plus_execute(self):
        # Budget big enough for the compile alone but not compile+exec.
        eng = Engine(PROGRAM, chaos=None)
        with eng.session() as probe:
            full = probe.request("make_sum", (500,), call_args=(1,))
            assert full.ok and full.value == 500
        with eng.session(deadline=full.cycles // 2) as s:
            out = s.request("make_sum", (500,), call_args=(1,))
            assert isinstance(out.error, DeadlineExceeded)
            assert s.metrics.counter("serving.deadline_misses").value == 1

    def test_deadline_is_distinct_from_watchdog_fuel(self):
        # Watchdog fires (tiny fuel) while the deadline is generous: the
        # trap must surface as CycleBudgetExceeded, not a deadline.
        eng = Engine(PROGRAM, chaos=None, fuel=50)
        with eng.session(deadline=10_000_000) as s:
            out = s.request("make_sum", (100,), call_args=(1,))
            assert isinstance(out.error, CycleBudgetExceeded)

    def test_clock_validation(self):
        with pytest.raises(ValueError):
            DeadlineClock(0)
        clock = DeadlineClock(None)
        clock.charge(10**9)                 # unlimited never expires
        assert clock.remaining() is None


class TestRetries:
    def test_injected_emit_fault_is_retried(self):
        with Engine(ADDER, chaos=None).session() as s:
            s.process.machine.code.inject_emit_failure(2)
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.retries >= 1
            assert s.metrics.counter("serving.retries").value >= 1

    def test_backoff_is_charged_against_the_deadline(self):
        policy = RetryPolicy(max_attempts=3, backoff_cycles=500)
        with Engine(ADDER, chaos=None).session(retry=policy) as s:
            s.process.machine.code.inject_emit_failure(2)
            out = s.request("make_adder", (10,), call_args=(5,))
            baseline = s.request("make_adder", (11,), call_args=(5,))
            assert out.retries == 1
            # one backoff of 500 cycles, plus the wasted attempt's probe
            assert out.cycles >= baseline.cycles + 500

    def test_retries_are_bounded(self):
        # A capacity clamp with no recovery defeats every rung: the
        # request must fail with RequestFailed, not loop forever.
        with Engine(ADDER, chaos=None).session() as s:
            code = s.process.machine.code
            code.limit_capacity(len(code.instructions))
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, RequestFailed)
            assert out.retries >= 2


class TestDegradationLadder:
    def _icode_broken(self, monkeypatch):
        # Break only *dynamic* installs; the static compiler passes
        # name=/do_link= and must keep working so sessions can start.
        original = IcodeBackend.install

        def boom(self, *args, **kwargs):
            if kwargs.get("name"):
                return original(self, *args, **kwargs)
            raise CodegenError("icode wedged (test)")
        monkeypatch.setattr(IcodeBackend, "install", boom)

    def test_persistent_icode_failure_degrades_to_vcode(self, monkeypatch):
        self._icode_broken(monkeypatch)
        with Engine(ADDER, chaos=None).session() as s:
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.tier == "vcode" and out.path == "degrade"
            deg = s.metrics.labeled("serving.degraded_by_tier").snapshot()
            assert deg.get("vcode") == 1

    def test_breaker_opens_then_probes_half_open(self, monkeypatch):
        # Breakers key on the closure *signature*, so every request must
        # hammer the same specialization (same n) to share fate.
        self._icode_broken(monkeypatch)
        eng = Engine(ADDER, chaos=None)
        with eng.session(failure_threshold=2, probe_after=2) as s:
            # Two failing requests trip the patched and cold breakers.
            s.request("make_adder", (7,), call_args=(0,))
            s.request("make_adder", (7,), call_args=(0,))
            assert s.metrics.counter("serving.breaker_opens").value >= 2
            states = s.breakers.states()
            assert any(rung == "patched" and state == "open"
                       for (key, rung), state in states.items())
            # While open, requests go straight to vcode without paying
            # for doomed icode attempts.
            out = s.request("make_adder", (7,), call_args=(0,))
            assert out.ok and out.tier == "vcode" and out.retries == 0
            # Heal icode; after the cool-off the half-open probe succeeds
            # and the breaker closes again.
            monkeypatch.undo()
            for _ in range(6):
                out = s.request("make_adder", (7,), call_args=(0,))
                assert out.ok and out.value == 7
            assert out.tier == "patched"
            states = s.breakers.states()
            assert any(rung == "patched" and state == "closed"
                       for (key, rung), state in states.items())

    def test_full_ladder_exhaustion_reports_request_failed(self):
        with Engine(ADDER, chaos=None).session() as s:
            code = s.process.machine.code
            code.limit_capacity(len(code.instructions))
            out = s.request("make_adder", (10,), call_args=(5,))
            assert isinstance(out.error, RequestFailed)
            assert out.error.tier == LADDER[-1]

    def test_trap_storm_pins_execution_to_reference(self):
        plan = ChaosPlan(at={1: "trap", 2: "trap", 3: "trap"})
        eng = Engine(ADDER, chaos=None)
        with eng.session(chaos=plan, failure_threshold=3,
                         probe_after=3) as s:
            for _ in range(3):
                out = s.request("make_adder", (10,), call_args=(5,))
                assert isinstance(out.error, CycleBudgetExceeded)
            # Breaker open: the next (chaos-free) request executes on the
            # reference stepper with the block cache distrusted.
            out = s.request("make_adder", (10,), call_args=(5,))
            assert out.ok and out.value == 15
            assert out.exec_engine == "reference"
            assert out.tier == "reference"
            deg = s.metrics.labeled("serving.degraded_by_tier").snapshot()
            assert deg.get("reference", 0) >= 1


class TestBreakerUnit:
    def test_threshold_and_probe_cycle(self):
        b = CircuitBreaker(failure_threshold=2, probe_after=2)
        assert b.allow()
        assert not b.record_failure()
        assert b.record_failure()           # opens
        assert b.state == "open"
        assert not b.allow()                # cool-off 1
        assert not b.allow()                # cool-off 2 -> half-open
        assert b.state == "half-open"
        assert b.allow()                    # the probe
        assert b.record_failure()           # probe failed -> re-open
        assert b.state == "open"
        assert not b.allow() and not b.allow()
        assert b.allow()                    # next probe
        b.record_success()
        assert b.state == "closed" and b.failures == 0
        assert b.opened_count == 2

    def test_board_routes_per_key(self):
        board = BreakerBoard(failure_threshold=1, probe_after=2)
        for _ in range(1):
            board.breaker("k1", 0).record_failure()
        assert board.start_rung("k1") == 1   # k1's rung 0 is open
        assert board.start_rung("k2") == 0   # k2 unaffected
        assert board.open_count() == 1


class TestTelemetryRollup:
    def test_session_metrics_merge_on_close(self):
        base = REGISTRY.counter("serving.requests").value
        eng = Engine(ADDER, chaos=None)
        s = eng.open_session()
        s.request("make_adder", (10,), call_args=(5,))
        s.request("make_adder", (10,), call_args=(6,))
        # Not rolled up yet...
        assert REGISTRY.counter("serving.requests").value == base
        assert s.metrics.counter("serving.requests").value == 2
        s.close()
        assert REGISTRY.counter("serving.requests").value == base + 2

    def test_engine_stats_shape(self):
        eng = Engine(ADDER, chaos=None)
        with eng.session() as s:
            s.request("make_adder", (1,), call_args=(1,))
            stats = eng.stats()
            assert stats["sessions_open"] == 1
            assert set(report.serving_stats()) >= {
                "requests", "completed", "failed", "retries",
                "deadline_misses", "breaker_opens", "degraded",
            }


WORKLOAD = [
    ("make_adder", (10,), (5,)),
    ("make_adder", (10,), (6,)),     # tier-1 hit
    ("make_adder", (11,), (6,)),     # tier-2 patch
    ("make_sum", (50,), (2,)),
    ("make_div", (0,), (4,)),        # trap: div by zero at exec
    ("make_sum", (50,), (3,)),       # hit
    ("make_adder", (12,), (1,)),
    ("make_div", (2,), (9,)),
]


def _replay(session):
    """Run the canonical workload; return a comparable fingerprint."""
    results = []
    for builder, bargs, cargs in WORKLOAD:
        out = session.request(builder, bargs, call_args=cargs)
        results.append((
            out.value,
            type(out.error).__name__ if out.error else None,
            out.tier,
            out.path,
            out.retries,
            out.cycles,
        ))
    return results


class TestDifferential:
    N_THREADS = 8

    def test_threads_match_serial_bit_for_bit(self):
        """N sessions replaying the identical workload concurrently must
        produce results — values, modeled cycles, compile paths, traps —
        identical to a serial replay.  Template sharing is off so every
        session is a self-contained replica of the serial baseline."""
        serial = _replay(
            Engine(PROGRAM, share_templates=False).open_session())
        eng = Engine(PROGRAM, share_templates=False)
        results = [None] * self.N_THREADS
        errors = []

        def client(i):
            try:
                with eng.session() as s:
                    results[i] = _replay(s)
            except BaseException as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i, got in enumerate(results):
            assert got == serial, f"thread {i} diverged from serial replay"

    def test_threads_with_shared_store_agree_on_results(self):
        """With the shared template store on, compile *paths* may differ
        (whoever compiles first donates the template) but every value and
        trap must still match the serial baseline."""
        serial = _replay(Engine(PROGRAM, chaos=None).open_session())
        want = [(v, e) for v, e, *_ in serial]
        eng = Engine(PROGRAM, chaos=None)
        results = [None] * self.N_THREADS
        errors = []

        def client(i):
            try:
                with eng.session() as s:
                    results[i] = [(v, e) for v, e, *_ in _replay(s)]
            except BaseException as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got in results:
            assert got == want
