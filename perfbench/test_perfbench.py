"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They pin what the numbers rest on: exact quantiles, deterministic
generators, exact modeled counts per seed, reference-checked outputs
(``fail_ratio`` 0 at HEAD), a cold tail whose cost does not grow with
run length, and a traced run whose layers account for its wall time.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantiles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(workload, seed, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"{workload}_seed{seed}_trace{trace}.json").read_text())
    return line, record


# -- quantiles ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1000, max_value=5000),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       sigma=st.floats(min_value=0.0, max_value=4.0),
       extremes=st.lists(st.floats(min_value=0, max_value=1e9,
                                   allow_nan=False), max_size=20))
def test_quantiles_ordered_and_within_range(n, seed, sigma, extremes):
    rng = random.Random(seed)
    samples = [rng.lognormvariate(0.0, sigma) for _ in range(n)] + extremes
    p50, count = quantiles.quantile(samples, 50)
    p99, _ = quantiles.quantile(samples, 99)
    assert count == len(samples)
    assert min(samples) <= p50 <= p99 <= max(samples)
    assert p50 in samples and p99 in samples


def test_quantile_refuses_thin_tails():
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.quantile(range(999), 99)
    assert quantiles.quantile(range(1000), 99) == (989, 1000)
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.quantile(range(19), 50)
    assert quantiles.quantile(range(20), 50) == (9, 20)


# -- generators and references --------------------------------------------------

def test_serve_stream_is_seeded_and_mixed_exactly():
    def take(seed, n):
        return [r.key() for r in
                itertools.islice(workloads.serve_stream(seed), n)]

    first = take(3, 4000)
    assert first == take(3, 4000)
    assert first != take(4, 4000)
    classes = [key[3] for key in first]
    assert classes.count("hot") == 2800
    assert classes.count("warm") == 1000
    assert classes.count("cold") == 200
    colds = [key[1] for key in take(3, 40000) if key[3] == "cold"]
    assert len(set(colds)) == len(colds)
    assert all(1000 <= n < 1_000_000 for n in colds)


def test_reference_wraps_every_operation():
    tree = workloads.ast.parse("a * 3 + b", mode="eval")
    env = {"a": 0x7FFFFFFF, "b": 1}
    assert workloads._eval32(tree, env) == workloads.wrap32(0x7FFFFFFF * 3 + 1)
    assert workloads.wrap32(1 << 31) == -(1 << 31)


# -- calibration ------------------------------------------------------------------

def test_calibration_ignores_the_programs_working_set():
    """The calibration load, timed right after an operation that sweeps
    64 MiB and allocates 200k objects, takes what it takes after a light
    loop.  Each heavy/light pair is timed back to back, in a random
    order, so that the machine's speed drift cancels in its ratio."""
    calibrator = workloads.Calibrator()
    rng = random.Random(0)
    kept = []

    def heavy():
        sweep = bytearray(64 << 20)
        for addr in range(0, len(sweep), 64):
            sweep[addr] = 1
        kept.append([object() for _ in range(200_000)])
        del kept[:-3]

    def light():
        total = 0
        for i in range(200_000):
            total += i

    ratios = []
    for _ in range(100):
        timed = {}
        for before in rng.sample((heavy, light), 2):
            before()
            calibrator.measure()
            timed[before] = calibrator.ms[-1]
        ratios.append(timed[heavy] / timed[light])
    # Measured: within 1%, with single pairs off by up to 20% on a noisy
    # machine.  A 4 MiB load timed without a warm-up pass took 14-21%
    # longer after the heavy operation.
    assert 0.95 <= statistics.median(ratios) <= 1.05, sorted(ratios)


# -- end to end ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["serve-mix", "codegen-cold", "apps"])
def test_counts_exact_and_seed_free_with_no_failures(workload):
    line_a, record_a = result_of(workload, 11)
    line_b, record_b = result_of(workload, 11)
    line_c, record_c = result_of(workload, 12)
    for line in (line_a, line_b, line_c):
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] > 0
    # The same seed gives the same counts, and so does another seed:
    # the counted first round holds the same work in another order.
    assert record_a["result"]["counts"] == record_b["result"]["counts"]
    assert record_a["result"]["counts"] == record_c["result"]["counts"]
    assert record_a["env"]["seed"] == 11
    assert {"python", "nproc", "commit"} <= set(record_a["env"])
    expected = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())
                ["end_to_end"]}
    assert set(line_a["metrics"]) == expected


def test_cold_request_cost_does_not_grow_with_run_length():
    proc = bench("--workload", "serve-mix", "--seed", "5",
                 "--seconds", "8", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((OUT / "serve-mix_seed5_trace0.json").read_text())
    fifths = record["result"]["cold_fifths"]
    first, last = fifths["codegen_cycles"]
    assert first == last
    # Host time, relative to the hot requests served at the same time,
    # so that the shared machine's speed drift cancels.
    first, last = fifths["us_per_hot"]
    assert 0.8 <= last / first <= 1.25, fifths


@pytest.mark.parametrize("workload", ["serve-mix", "codegen-cold", "apps"])
def test_traced_run_accounts_for_its_wall_time(workload):
    line, record = result_of(workload, 2, trace=1)
    result = record["result"]
    expected = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer"]}
    assert set(line["metrics"]) == expected
    assert result["per_layer"]["verify.diagnostics"][0] == 0
    wall_ns = result["wall_s"] * 1e9
    rows = {layer: (busy, own) for layer, busy, own, _calls
            in result["layers"]}
    assert set(rows) == set(tracing.LAYERS) | {"other"}
    for layer, (busy, own) in rows.items():
        assert 0 <= own <= busy <= wall_ns, layer
    # The layers' self times add up to the time the outermost spans
    # cover, recomputed here from the spans written to the trace.
    trace = json.loads((ROOT / result["trace_file"]).read_text())
    assert trace["otherData"]["dropped_spans"] == 0
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    roots_ns = sum(e["dur"] for e in events if e["args"]["parent"] == -1)
    roots_ns *= 1000.0
    assert roots_ns > 0.5 * wall_ns
    assert roots_ns == pytest.approx(wall_ns - rows["other"][1], rel=1e-6)


def test_refuses_to_run_without_sources():
    lonely = OUT / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    (lonely / "perfbench").mkdir(parents=True)
    for name in ("run.py", "workloads.py", "tracing.py", "quantiles.py"):
        shutil.copy(HERE / name, lonely / "perfbench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", lonely / "BENCHMARK.json")
    proc = bench("--workload", "apps", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=lonely,
                 script=lonely / "perfbench" / "run.py")
    shutil.rmtree(lonely)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
