"""Fleet warm-start benchmark: a heavy-tailed specialization workload
replayed cold (fresh process, empty cache directory) and then warm (a
second fresh process pointed at the directory the first one populated).

The acceptance headline for the persistent code cache
(:mod:`repro.persist`): the warm process must serve *every* previously
seen closure shape via Tier-2 clone+patch — zero cold compiles — and
spend at least 5x fewer modeled codegen cycles overall, with per-request
results bit-identical to the cold run.  Per-request p50/p99 codegen
cycles for both phases land in ``BENCH_warmstart.json``.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from benchmarks.quantiles import percentile
from repro.core.driver import TccCompiler

BENCH_PATH = Path(__file__).parent.parent / "BENCH_warmstart.json"

SOURCE = """
int make_adder(int n) {
    int vspec p = param(int, 0);
    int cspec c = `($n + p);
    return (int)compile(c, int);
}

int make_affine(int a, int b) {
    int vspec p = param(int, 0);
    int cspec c = `(($a * p) + $b);
    return (int)compile(c, int);
}

int make_poly(int a, int b, int c) {
    int vspec p = param(int, 0);
    int cspec e = `((($a * p) + $b) * p + $c);
    return (int)compile(e, int);
}
"""

#: Distinct (builder, $-bindings) pairs the workload draws from.
SHAPES = (
    [("make_adder", (n,)) for n in (1, 2, 3, 5, 8, 13)]
    + [("make_affine", (a, b)) for a, b in
       ((2, 1), (3, 0), (5, 7), (7, -2))]
    + [("make_poly", (a, b, c)) for a, b, c in
       ((1, 0, 1), (2, 3, 4), (3, -1, 2))]
)
REQUESTS = 150


def _workload():
    """A deterministic heavy-tailed request stream: the k-th distinct
    binding is ~1/k as popular as the first (the fleet-trace shape that
    makes warm starts matter — a few hot shapes, a long cold tail)."""
    rng = random.Random(0)
    weights = [1.0 / (k + 1) for k in range(len(SHAPES))]
    return rng.choices(SHAPES, weights=weights, k=REQUESTS)


def _replay(proc, requests):
    """Run the stream, recording per-request compile path, modeled
    codegen cycles, and the specialized function's value at a probe."""
    rows = []
    for builder, args in requests:
        entry = proc.run(builder, *args)
        value = proc.function(entry, "i", "i")(9)
        rows.append({
            "path": proc._compile_path,
            "cycles": proc.last_codegen_stats.total_cycles(),
            "value": value,
        })
    return rows


def _phase_summary(rows):
    cycles = [r["cycles"] for r in rows]
    paths: dict = {}
    for r in rows:
        paths[r["path"]] = paths.get(r["path"], 0) + 1
    return {
        "requests": len(rows),
        "total_cycles": sum(cycles),
        "p50_cycles": percentile(cycles, 0.50),
        "p99_cycles": percentile(cycles, 0.99),
        "max_cycles": max(cycles),
        "paths": paths,
    }


_RESULTS: dict = {}


def test_warm_process_has_zero_cold_compiles_and_5x_fewer_cycles():
    requests = _workload()
    cache_dir = tempfile.mkdtemp(prefix="repro-warmstart-")
    program = TccCompiler().compile(SOURCE, filename="<warmstart-bench>")

    cold_proc = program.start(codecache_dir=cache_dir)
    cold_rows = _replay(cold_proc, requests)
    cold_proc.codecache.flush()

    warm_proc = program.start(codecache_dir=cache_dir)
    warm_rows = _replay(warm_proc, requests)

    # Every request the cold fleet member ever compiled must be served
    # warm — by the Tier-1 memo for repeats, by disk-fed Tier-2 patching
    # for first sights.  Never cold.
    warm_paths = {r["path"] for r in warm_rows}
    assert "cold" not in warm_paths, \
        f"warm process cold-compiled: {_phase_summary(warm_rows)['paths']}"

    # Bit-identical results, request by request.
    for i, (c, w) in enumerate(zip(cold_rows, warm_rows)):
        assert c["value"] == w["value"], f"request {i} diverged"

    cold = _phase_summary(cold_rows)
    warm = _phase_summary(warm_rows)
    speedup = cold["total_cycles"] / max(1, warm["total_cycles"])
    assert speedup >= 5.0, \
        f"warm start saved only {speedup:.2f}x modeled codegen cycles"

    disk = warm_proc.codecache.stats().get("disk", {})
    _RESULTS.update({
        "workload": {
            "requests": REQUESTS,
            "distinct_bindings": len(SHAPES),
            "distribution": "zipf-ish (weight 1/k over bindings)",
        },
        "cold": cold,
        "warm": warm,
        "cycle_speedup": round(speedup, 2),
        "warm_cold_compiles": warm["paths"].get("cold", 0),
        "disk": {k: disk.get(k) for k in
                 ("entries", "bytes", "hits", "misses", "loads", "rejects")},
    })


def test_write_bench_json():
    """Persist the warm-start headline (runs after the phases above)."""
    assert _RESULTS, "warm-start benchmark did not run"
    payload = dict(_RESULTS)
    payload["description"] = (
        "Persistent code cache warm-start benchmark: a heavy-tailed "
        "closure workload replayed by a cold process (empty cache dir) "
        "and a fresh warm process sharing that dir; per-request modeled "
        "codegen cycle percentiles, compile-path mix, and the "
        "cold/warm cycle speedup."
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert BENCH_PATH.exists()
