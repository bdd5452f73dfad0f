"""Serving-engine concurrency benchmark.

N client threads share one :class:`~repro.serving.Engine` (one immutable
program, one Tier-2 template store) and replay the same mixed workload —
cold compiles, Tier-1 hits, Tier-2 patches, a trapping request — through
their own sessions.  For each thread count we record host-side
throughput, per-request latency percentiles (p50/p99, host µs, exact
from the raw samples), the degraded-path fraction, and breaker-open
counts; a second pass runs the same sweep under a periodic chaos
schedule to price the robustness envelope's recovery machinery.

Results go to ``BENCH_concurrency.json``.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from benchmarks.quantiles import percentile
from repro import Engine
from repro.serving import ChaosPlan

BENCH_PATH = Path(__file__).parent.parent / "BENCH_concurrency.json"

_RESULTS: dict = {"sweeps": {}}

THREAD_COUNTS = (1, 2, 4, 8)
ROUNDS = 6          # workload replays per session

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

WORKLOAD = [
    ("make_adder", (10,), (5,)),
    ("make_adder", (10,), (6,)),     # tier-1 hit
    ("make_adder", (11,), (6,)),     # tier-2 patch
    ("make_sum", (40,), (2,)),
    ("make_div", (0,), (4,)),        # traps at exec
    ("make_sum", (40,), (3,)),       # hit
]

def _client(engine, rounds, latencies, counts, lock, errors):
    try:
        with engine.session() as session:
            breaker_opens = degraded = requests = 0
            for _ in range(rounds):
                for builder, bargs, cargs in WORKLOAD:
                    t0 = time.perf_counter()
                    out = session.request(builder, bargs, call_args=cargs)
                    micros = (time.perf_counter() - t0) * 1e6
                    requests += 1
                    if out.path == "degrade" or out.tier in ("vcode",
                                                             "reference"):
                        degraded += 1
                    with lock:
                        latencies.append(micros)
            breaker_opens = session.breakers.open_count()
        with lock:
            counts["requests"] += requests
            counts["degraded"] += degraded
            counts["breaker_opens"] += breaker_opens
    except BaseException as exc:        # pragma: no cover
        errors.append(exc)


def _sweep(label, chaos):
    per_threads = {}
    for n in THREAD_COUNTS:
        engine = Engine(PROGRAM, chaos=None)
        latencies: list = []             # raw host µs per request
        counts = {"requests": 0, "degraded": 0, "breaker_opens": 0}
        lock = threading.Lock()
        errors: list = []
        # chaos rides on the engine so every session picks it up uniformly
        engine.chaos = ChaosPlan(every=dict(chaos)) if chaos else None
        threads = [
            threading.Thread(
                target=_client,
                args=(engine, ROUNDS, latencies, counts, lock, errors),
            )
            for _ in range(n)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        assert not errors, errors
        total = counts["requests"]
        assert total == n * ROUNDS * len(WORKLOAD)
        per_threads[str(n)] = {
            "threads": n,
            "requests": total,
            "elapsed_s": round(elapsed, 4),
            "throughput_rps": round(total / elapsed, 1),
            "latency_us": {
                "p50": round(percentile(latencies, 0.50), 1),
                "p99": round(percentile(latencies, 0.99), 1),
                "mean": round(sum(latencies) / len(latencies), 1),
                "max": round(max(latencies), 1),
            },
            "degraded_fraction": round(counts["degraded"] / total, 4),
            "breaker_opens": counts["breaker_opens"],
        }
    _RESULTS["sweeps"][label] = per_threads
    return per_threads


def test_clean_sweep():
    per_threads = _sweep("clean", chaos=None)
    # The workload's div-by-zero request traps every round: after
    # failure_threshold (3) rounds its exec breaker opens and the
    # remaining rounds run on the reference stepper.  Deterministic, so
    # the degraded fraction is exact at every thread count.
    expected = round(3 / (ROUNDS * len(WORKLOAD)), 4)
    for row in per_threads.values():
        assert row["throughput_rps"] > 0
        assert row["degraded_fraction"] == expected
        assert row["breaker_opens"] >= 1


def test_chaos_sweep():
    # Every 5th request per session eats an emit fault; every 7th is a
    # fuel squeeze feeding the exec breaker.
    per_threads = _sweep("chaos", chaos={"emit_fault": 5, "trap": 7})
    for row in per_threads.values():
        assert row["throughput_rps"] > 0


def test_write_bench_json():
    """Persist the sweep (runs after the cases above)."""
    assert _RESULTS["sweeps"], "serving benchmarks did not run"
    payload = dict(_RESULTS)
    payload["description"] = (
        "Serving-engine concurrency benchmark: N client threads share one "
        "Engine (program + Tier-2 template store), each replaying the same "
        "mixed workload through its own session.  Host-side throughput and "
        "latency percentiles per thread count, with the degraded-path "
        "fraction and breaker-open totals; the 'chaos' sweep repeats the "
        "run under a periodic fault schedule."
    )
    payload["workload"] = [list(w[:2]) + [list(w[2])] for w in WORKLOAD]
    payload["rounds_per_session"] = ROUNDS
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
