"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload with host-time spans wrapped around each
layer's public entry points, prints the per-layer self-time table and
metrics, writes the spans as a Chrome trace, then replays the same
operations untraced to report the tracing overhead.  Each workload runs
in a fresh interpreter with the ``REPRO_*`` environment knobs cleared.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("serve-mix", "codegen-cold", "apps")
#: Knobs that would change what the workloads measure.
CLEARED_ENV = ("REPRO_VERIFY", "REPRO_CHAOS", "REPRO_ANALYSIS",
               "REPRO_CODECACHE_DIR", "REPRO_BLACKBOX_DIR")
#: A run, children included, must end within this many seconds.
RUN_LIMIT_S = 175

#: End-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("compile_us_per_instr", "us/instr"),
    ("codegen_cycles", "cycles"),
    ("exec_cycles", "cycles"),
    ("code_instrs", "instrs"),
    ("peak_rss_mb", "MB"),
)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(args) -> dict:
    """What every result records about how it was produced."""
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit,
        "cleared_env": [k for k in CLEARED_ENV if k in os.environ],
    }


# -- child: one workload in this interpreter ------------------------------------

def child_main(args) -> None:
    import resource

    import repro
    from repro import report

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from workloads import SETUP_REPS, WORKLOADS

    tracer = None
    if args.mode == "traced":
        from tracing import SpanTracer
        tracer = SpanTracer()
    report.reset()
    stats0 = _report_stats()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter_ns()
    cpu0 = time.thread_time_ns()
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          max_ops=args.ops, probe=tracer)
    finally:
        wall_ns = time.perf_counter_ns() - t0
        cpu_ns = time.thread_time_ns() - cpu0
        if tracer is not None:
            tracer.remove()
    result["wall_s"] = wall_ns / 1e9
    result["cpu_s"] = cpu_ns / 1e9
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    if tracer is not None:
        stats1 = _report_stats()
        result["layers"] = tracer.layer_table(wall_ns)
        result["per_layer"] = per_layer_metrics(
            tracer, result, stats0, stats1, SETUP_REPS)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"TRACE_{args.workload}_seed{args.seed}.json"
        tracer.write_chrome(trace_path, {"workload": args.workload,
                                         "seed": args.seed})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["spans"] = len(tracer.kept) + tracer.dropped
    print(json.dumps(result))


def _report_stats() -> dict:
    from repro import report
    from repro.telemetry.metrics import REGISTRY

    return {
        "cache": report.cache_stats(),
        "dispatch": report.dispatch_stats(),
        "tiering": report.tiering_stats(),
        "verify": report.verify_stats(),
        "serving": report.serving_stats(),
        "spills": REGISTRY.counter("backend.vcode.spills").value,
    }


def per_layer_metrics(tr, result, s0, s1, setup_reps) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    def delta(group, key):
        return s1[group][key] - s0[group][key]

    def ratio(num, den):
        return num / den if den else 0.0

    ops = max(result["ops"], 1)
    counts = result["counts"]
    hits = delta("cache", "hits")
    patches = delta("cache", "patched")
    misses = delta("cache", "misses")
    diagnostics = (sum(s1["verify"]["diagnostics"].values())
                   - sum(s0["verify"]["diagnostics"].values()))
    compiles = tr.backend_compiles
    call = tr.stat("target.cpu", "call")
    request = tr.stat("serving", "request")
    envelope_self = request.self_ns + tr.stat("serving", "execute").self_ns
    block_dispatches = delta("dispatch", "block_dispatches")
    out = {
        "frontend.parse_s": (tr.stat("frontend", "parse").total_ns
                             / setup_reps / 1e9, "s"),
        "frontend.sema_s": (tr.stat("frontend", "sema").total_ns
                            / setup_reps / 1e9, "s"),
        "driver.start_s": (tr.mean_us("core.driver", "start") / 1e6, "s"),
        "driver.compile_self_us": (
            ratio(tr.stat("core.driver", "compile").self_ns,
                  tr.stat("core.driver", "compile").calls) / 1e3, "us"),
        "interp.runs": (tr.stat("core.interp", "run").calls, "count"),
        "interp.self_us": (ratio(tr.stat("core.interp", "run").self_ns,
                                 tr.stat("core.interp", "run").calls) / 1e3,
                           "us"),
        "closures.signature_calls_per_op": (
            tr.stat("runtime.closures", "signature_of").calls / ops,
            "calls/op"),
        "closures.signature_us": (
            tr.mean_us("runtime.closures", "signature_of"), "us"),
        "codecache.hits": (hits, "count"),
        "codecache.patches": (patches, "count"),
        "codecache.misses": (misses, "count"),
        "codecache.reuse_ratio": (ratio(hits + patches,
                                        hits + patches + misses), "ratio"),
        "codecache.lookup_us": (tr.mean_us("core.codecache", "lookup"),
                                "us"),
        "codecache.clone_us": (tr.mean_us("core.codecache", "clone"), "us"),
        "codecache.store_us": (tr.mean_us("core.codecache", "store"), "us"),
        "icode.compiles": (tr.stat("icode", "install").calls, "count"),
        "icode.compile_ms": (ratio(compiles["icode"][1],
                                   compiles["icode"][0]) / 1e6, "ms"),
        "icode.install_ms": (tr.mean_us("icode", "install") / 1e3, "ms"),
        "vcode.compiles": (tr.stat("vcode", "install").calls, "count"),
        "vcode.compile_ms": (ratio(compiles["vcode"][1],
                                   compiles["vcode"][0]) / 1e6, "ms"),
        "vcode.install_ms": (tr.mean_us("vcode", "install") / 1e3, "ms"),
        "vcode.spills": (s1["spills"] - s0["spills"], "count"),
        "costmodel.cycles_per_instr": (
            ratio(counts["codegen_cycles"], counts["code_instrs"]),
            "cycles/instr"),
        "install.link_us": (tr.mean_us("core.install", "link"), "us"),
        "verify.calls": (tr.stat("verify", "check").calls, "count"),
        "verify.us": (tr.mean_us("verify", "check"), "us"),
        "verify.diagnostics": (diagnostics, "count"),
        "dispatch.blocks_compiled": (delta("dispatch", "blocks_compiled"),
                                     "count"),
        "dispatch.block_compile_ms": (
            tr.mean_us("target.dispatch", "superblock") / 1e3, "ms"),
        "dispatch.block_cache_hit_rate": (
            ratio(delta("dispatch", "block_cache_hits"), block_dispatches),
            "ratio"),
        "dispatch.fusion_rate": (
            ratio(delta("dispatch", "fused_pairs"),
                  delta("dispatch", "instructions_predecoded")), "ratio"),
        "tiering.promotions": (delta("tiering", "promotions"), "count"),
        "tiering.promote_ms": (tr.mean_us("tiering", "promote") / 1e3, "ms"),
        "tiering.deopts": (delta("tiering", "deopts"), "count"),
        "tiering.trace_dispatch_share": (
            ratio(delta("tiering", "trace_dispatches"), block_dispatches),
            "ratio"),
        "exec.calls": (call.calls, "count"),
        "exec.ms": (tr.mean_us("target.cpu", "call") / 1e3, "ms"),
        "exec.ns_per_cycle": (ratio(call.self_ns, call.cycles), "ns/cycle"),
        "serving.envelope_self_us": (ratio(envelope_self, request.calls)
                                     / 1e3, "us"),
        "serving.retries": (delta("serving", "retries"), "count"),
        "serving.degraded": (delta("serving", "degraded"), "count"),
        "serving.breaker_opens": (delta("serving", "breaker_opens"),
                                  "count"),
        "obs.slo_observe_us": (tr.mean_us("obs", "observe"), "us"),
        "obs.record_us": (tr.mean_us("obs", "record"), "us"),
    }
    wall_ns = result["wall_s"] * 1e9
    for layer, _busy, own, _calls in tr.layer_table(int(wall_ns)):
        out[f"self_share.{layer}"] = (100.0 * own / wall_ns, "%")
    return out


# -- parent: spawn children, check, report --------------------------------------

def spawn(args, workload, mode, deadline, ops=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        _fail(f"no time left to run {workload} ({mode})")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        _fail(f"{workload} ({mode}) did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result) -> dict:
    counts = result["counts"]
    values = {
        "setup_s": result["setup_ref_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "ops_per_s": result["ops_per_s"],
        "compile_us_per_instr": result["compile_us_per_instr"],
        "codegen_cycles": counts["codegen_cycles"],
        "exec_cycles": counts["exec_cycles"],
        "code_instrs": counts["code_instrs"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def print_summary(workload, result, env) -> None:
    """The human-readable report (everything before the JSON line)."""
    ops, failed = result["ops"], result["failed"]
    print(f"== {workload}  seed={env['seed']}  python={env['python']}  "
          f"nproc={env['nproc']}  commit={env['commit'][:12]}")
    if env["trace"]:
        print("   traced run: the timings below include the tracing cost")
    print(f"   host times are thread CPU time; 'reported' is at the reference"
          f" machine speed (run-mean factor x{result['speed_factor']:.3f}, "
          f"{len(result['calibration_ms'])} calibrations; see README.md)")
    print(f"   {'metric':<24} {'measured':>12} {'reported':>12}")
    print(f"   {'setup_s':<24} {result['setup_s_median']:>12.4f} "
          f"{result['setup_ref_s']:>12.4f} s  "
          f"(median of {len(result['setup_s'])})")
    for name, (value, ref, unit) in result["native"].items():
        print(f"   {name:<24} {value:>12.4f} {ref:>12.4f} {unit}")
    print(f"   {'fail_ratio':<24} {failed / max(ops, 1):>12.4f} "
          f"{'':>12} ratio  ({failed} of {ops} operations)")
    for name, value in result["counts"].items():
        unit = "instrs" if name == "code_instrs" else "cycles"
        print(f"   {name:<24} {value:>12d} {'':>12} {unit}")
    print(f"   {'peak_rss_mb':<24} {result['peak_rss_mb']:>12.1f} "
          f"{'':>12} MB")
    print(f"   timed loop {result['loop_cpu_s']:.2f} CPU s, "
          f"{result['samples']} samples per quantile")
    for line in result["failures"]:
        print(f"   FAILED {line}")
    if "rows" in result:
        print(f"   {'pair':<14} {'build_ms':>9} {'first_ms':>9} "
              f"{'steady_ms':>10} {'exec_cycles':>12} {'codegen_cyc':>12}"
              "   (reported)")
        for row in result["rows"]:
            steady = (f"{row['steady_ms']:>10.3f}" if row["steady_ms"]
                      else f"{'-':>10}")
            print(f"   {row['pair']:<14} {row['build_ms']:>9.2f} "
                  f"{row['first_ms']:>9.2f} {steady} "
                  f"{row['exec_cycles']:>12d} {row['codegen_cycles']:>12d}")


def print_layers(result, overhead_pct) -> None:
    wall = result["wall_s"]
    print(f"   per-layer host time, traced wall {wall:.2f} s, "
          f"tracing overhead {overhead_pct:+.1f}% of CPU time at ref "
          f"({result['spans']} spans -> {result['trace_file']})")
    print(f"   {'layer':<18} {'busy_s':>9} {'self_s':>9} {'self%':>7} "
          f"{'calls':>9}")
    for layer, busy, own, calls in result["layers"]:
        print(f"   {layer:<18} {busy / 1e9:>9.3f} {own / 1e9:>9.3f} "
              f"{100 * own / 1e9 / wall:>6.1f}% {calls:>9d}")
    for name, (value, unit) in result["per_layer"].items():
        if not name.startswith("self_share."):
            print(f"   {name:<34} {value:>14.4f} {unit}")


def run_workload(args, workload, deadline) -> dict:
    """Run one workload; print its report; return its JSON fields."""
    env = environment(args)
    env["workload"] = workload
    if args.trace:
        result = spawn(args, workload, "traced", deadline)
        plain = spawn(args, workload, "untraced", deadline, ops=result["ops"])
        overhead = 100.0 * (result["cpu_s"] * result["speed_factor"]
                            / (plain["cpu_s"] * plain["speed_factor"]) - 1.0)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        print_summary(workload, result, env)
        print_layers(result, overhead)
    else:
        result = spawn(args, workload, "untraced", deadline)
        metrics = end_to_end(result)
        print_summary(workload, result, env)
    failed = result["failed"]
    diagnostics = result.get("per_layer", {}).get("verify.diagnostics",
                                                  (0,))[0]
    record = {"env": env, "metrics": metrics, "result": result}
    OUT.mkdir(exist_ok=True)
    name = f"{workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0 and diagnostics == 0,
            "attempted": result["ops"], "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("traced", "untraced"),
                        default="untraced", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {SRC}: run from a full checkout")
    if args.child:
        child_main(args)
        return
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.workload != "all":
        out = run_workload(args, args.workload, deadline)
    else:
        deadline += RUN_LIMIT_S * (len(WORKLOAD_NAMES) - 1)
        parts = {w: run_workload(args, w, deadline) for w in WORKLOAD_NAMES}
        out = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}:{name}": m for w, p in parts.items()
                        for name, m in p["metrics"].items()},
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
