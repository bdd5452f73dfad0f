"""Benchmark-trend collector: fold every ``BENCH_*.json`` artifact into
one ``BENCH_summary.json`` and gate on the tiering regression rule.

Run from the repository root (CI's ``bench-trend`` step does)::

    python benchmarks/trend.py

The summary records, per benchmark file, its description and every
numeric headline it carries, so one artifact tracks the whole perf
surface across commits.  Two gates fail the build with exit code 1:

* ``BENCH_tiering.json`` must not show the tiered engine *slower* than
  the block engine on any Figure-4 app — speedups below :data:`FLOOR`
  (a small allowance for shared-runner timing noise; the real bar of
  >= 1.3x on >= 3 apps is asserted by the benchmark itself), and its
  first call into a fresh process with the host-code cache warm must
  take at most :data:`FIRST_CALL_CEILING` of the time it takes cold
  (both measured in the same run, so machine speed cancels out);
* ``BENCH_warmstart.json`` must show the persistent-cache warm phase
  with zero cold compiles and a cold/warm modeled-cycle speedup of at
  least :data:`WARMSTART_FLOOR`;
* ``BENCH_analysis.json`` must show guard elision changing *no* modeled
  result (bit-identical outputs on every app) while reducing modeled
  cycles by at least :data:`ANALYSIS_FLOOR` percent on at least
  :data:`ANALYSIS_MIN_APPS` Figure-4 apps;
* ``BENCH_serving.json`` must show the serving SLO verdict OK with no
  error budget exhausted, and the observability plane's measured
  overhead at or under :data:`SLO_OVERHEAD_CEILING_PCT` percent.

An absent artifact skips its gate (benchmarks are opt-in).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = ROOT / "BENCH_summary.json"

#: Minimum tiered-vs-block speedup tolerated per Figure-4 app before the
#: trend gate calls it a regression (0.95 absorbs host timing jitter).
FLOOR = 0.95

#: Most the warm host-code cache's first call may cost, as a fraction
#: of the cold one (BENCH_tiering.json's ``first_call`` ratio).
FIRST_CALL_CEILING = 0.6

#: Minimum cold/warm modeled-codegen-cycle speedup BENCH_warmstart.json
#: must show before the gate calls the persistent cache a regression.
WARMSTART_FLOOR = 5.0

#: Guard-elision gate: modeled-cycle reduction (%) elision must deliver,
#: and on how many Figure-4 apps, before the gate calls it a regression.
ANALYSIS_FLOOR = 5.0
ANALYSIS_MIN_APPS = 3

#: Serving-SLO gate: the observability plane's measured overhead (%)
#: must not exceed this ceiling (mirrors the benchmark's own assert).
SLO_OVERHEAD_CEILING_PCT = 5.0


def collect() -> dict:
    """Read every BENCH_*.json in the repo root into one mapping."""
    summary: dict = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        if path.name == SUMMARY_PATH.name:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            summary[path.stem] = {"error": f"unreadable: {exc}"}
            continue
        summary[path.stem] = payload
    return summary


def tiering_regressions(summary: dict) -> list:
    """Figure-4 apps where the tiered engine fell below the floor."""
    tiering = summary.get("BENCH_tiering")
    if not isinstance(tiering, dict):
        return []
    slow = []
    for app, row in sorted(tiering.get("figure4", {}).items()):
        speedup = row.get("speedup")
        if isinstance(speedup, (int, float)) and speedup < FLOOR:
            slow.append((app, speedup))
    return slow


def first_call_regressions(summary: dict) -> list:
    """Host-code cache gate: warm/cold first-call ratio over the ceiling."""
    tiering = summary.get("BENCH_tiering")
    if not isinstance(tiering, dict) or "first_call" not in tiering:
        return []
    ratio = tiering["first_call"].get("warm_cold_ratio")
    if not isinstance(ratio, (int, float)):
        return ["first_call carries no warm_cold_ratio"]
    if ratio > FIRST_CALL_CEILING:
        return [f"warm/cold first-call host time {ratio} over the "
                f"{FIRST_CALL_CEILING} ceiling"]
    return []


def warmstart_regressions(summary: dict) -> list:
    """Ways the persistent-cache warm start fell below its headline:
    any cold compile in the warm phase, or a cold/warm modeled-cycle
    speedup under :data:`WARMSTART_FLOOR`."""
    warmstart = summary.get("BENCH_warmstart")
    if not isinstance(warmstart, dict):
        return []
    problems = []
    cold_compiles = warmstart.get("warm_cold_compiles")
    if isinstance(cold_compiles, int) and cold_compiles > 0:
        problems.append(f"{cold_compiles} cold compiles in the warm phase")
    speedup = warmstart.get("cycle_speedup")
    if isinstance(speedup, (int, float)) and speedup < WARMSTART_FLOOR:
        problems.append(f"cycle speedup {speedup}x below the "
                        f"{WARMSTART_FLOOR}x floor")
    return problems


def analysis_regressions(summary: dict) -> list:
    """Ways guard elision broke its contract: any app whose result
    changed with analysis on (never acceptable), or fewer than
    :data:`ANALYSIS_MIN_APPS` apps clearing :data:`ANALYSIS_FLOOR`
    percent modeled-cycle reduction."""
    analysis = summary.get("BENCH_analysis")
    if not isinstance(analysis, dict):
        return []
    problems = []
    apps = analysis.get("apps", {})
    for app, row in sorted(apps.items()):
        if row.get("identical") is False:
            problems.append(f"{app}: elision changed the modeled result")
    over = [app for app, row in apps.items()
            if isinstance(row.get("reduction_pct"), (int, float))
            and row["reduction_pct"] >= ANALYSIS_FLOOR]
    if apps and len(over) < ANALYSIS_MIN_APPS:
        problems.append(
            f"only {len(over)} apps at >= {ANALYSIS_FLOOR}% cycle "
            f"reduction (need {ANALYSIS_MIN_APPS})")
    return problems


def serving_slo_regressions(summary: dict) -> list:
    """Ways the serving run broke its SLOs: a breached verdict, an
    exhausted error budget, or observability overhead over the
    ceiling."""
    serving = summary.get("BENCH_serving")
    if not isinstance(serving, dict):
        return []
    problems = []
    slo = serving.get("slo", {})
    if slo.get("ok") is not True:
        worst = slo.get("worst_alert", "unknown")
        problems.append(f"SLO verdict breached (worst alert: {worst})")
    exhausted = slo.get("exhausted") or []
    if exhausted:
        problems.append("error budget exhausted: " + ", ".join(exhausted))
    overhead = serving.get("overhead", {}).get("overhead_pct")
    if isinstance(overhead, (int, float)) and \
            overhead > SLO_OVERHEAD_CEILING_PCT:
        problems.append(
            f"observability overhead {overhead}% over the "
            f"{SLO_OVERHEAD_CEILING_PCT}% ceiling")
    return problems


def main() -> int:
    summary = collect()
    if not summary:
        print("trend: no BENCH_*.json artifacts found; run benchmarks/ first")
        return 1
    slow = tiering_regressions(summary)
    first_call = first_call_regressions(summary)
    cold_starts = warmstart_regressions(summary)
    elision = analysis_regressions(summary)
    slo_breaches = serving_slo_regressions(summary)
    summary["_trend"] = {
        "benchmarks_collected": sorted(summary),
        "tiering_floor": FLOOR,
        "tiering_regressions": [
            {"app": app, "speedup": speedup} for app, speedup in slow
        ],
        "first_call_ceiling": FIRST_CALL_CEILING,
        "first_call_regressions": first_call,
        "warmstart_floor": WARMSTART_FLOOR,
        "warmstart_regressions": cold_starts,
        "analysis_floor_pct": ANALYSIS_FLOOR,
        "analysis_regressions": elision,
        "slo_overhead_ceiling_pct": SLO_OVERHEAD_CEILING_PCT,
        "serving_slo_regressions": slo_breaches,
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"trend: collected {len(summary) - 1} benchmark files "
          f"into {SUMMARY_PATH.name}")
    failed = False
    if slow:
        for app, speedup in slow:
            print(f"trend: REGRESSION {app}: tiered is {speedup}x vs block "
                  f"(floor {FLOOR})")
        failed = True
    elif "BENCH_tiering" in summary:
        fig4 = summary["BENCH_tiering"].get("figure4", {})
        print(f"trend: tiered >= {FLOOR}x block on all "
              f"{len(fig4)} Figure-4 apps")
    if first_call:
        for problem in first_call:
            print(f"trend: REGRESSION host-code cache: {problem}")
        failed = True
    elif "first_call" in summary.get("BENCH_tiering", {}):
        ratio = summary["BENCH_tiering"]["first_call"]["warm_cold_ratio"]
        print(f"trend: host-code cache warm/cold first call {ratio} "
              f"(ceiling {FIRST_CALL_CEILING})")
    if cold_starts:
        for problem in cold_starts:
            print(f"trend: REGRESSION warm start: {problem}")
        failed = True
    elif "BENCH_warmstart" in summary:
        speedup = summary["BENCH_warmstart"].get("cycle_speedup")
        print(f"trend: warm start clean — 0 cold compiles, "
              f"{speedup}x cycle speedup")
    if elision:
        for problem in elision:
            print(f"trend: REGRESSION guard elision: {problem}")
        failed = True
    elif "BENCH_analysis" in summary:
        over = summary["BENCH_analysis"].get("apps_over_floor", [])
        print(f"trend: guard elision clean — results identical on all "
              f"apps, >= {ANALYSIS_FLOOR}% cycle reduction on "
              f"{len(over)}")
    if slo_breaches:
        for problem in slo_breaches:
            print(f"trend: REGRESSION serving SLO: {problem}")
        failed = True
    elif "BENCH_serving" in summary:
        overhead = summary["BENCH_serving"].get(
            "overhead", {}).get("overhead_pct")
        print(f"trend: serving SLOs met — verdict OK, observability "
              f"overhead {overhead}% (ceiling {SLO_OVERHEAD_CEILING_PCT}%)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
