"""Run the benchmark over several seeds and report how steady it is.

Usage::

    python3 perfbench/steady.py                      # both named seeds, every workload
    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --workloads cluster-ring-n128 --seeds 1-5 --trace 0,1

Runs ``run.py`` once per (set, seed, workload, trace mode), one process at a time,
interleaving workloads and sets so host-speed drift lands on all of them
alike.  For every end-to-end metric of every workload it prints each
set's median and its spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from ``BENCHMARK.json``.
With two sets it also prints how far the second median moved from the
first.  Beside each host-normalised metric it prints the spread of the
same metric as the run's wall clock read it, and of the host slowdown,
so the share of the spread that came from the host shows.  Runs that
share a seed must repeat their exact counts; any count that drifts is
flagged, and any failed operation is reported.  Exits non-zero when a
run fails, a count drifts, a spread exceeds its bound, or a median moves
by more than its bound.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import DEFAULT_SEED, VERIFY_SEED  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Tuple[dict, dict]:
    """One benchmark process; returns (result, record)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
    return json.loads(lines[-1]), record


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED},{VERIFY_SEED}")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    modes = [int(m) for m in args.trace.split(",")]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower_better = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}

    # values[(set, workload, metric)] -> list; counts[(workload, seed)] -> list of dicts
    values: Dict[Tuple[int, str, str], List[float]] = {}
    units: Dict[str, str] = {}
    counts: Dict[Tuple[str, int], List[dict]] = {}
    problems: List[str] = []
    # wall[(set, workload)] -> the wall-clock values and slowdown of each untraced run
    wall: Dict[Tuple[int, str], List[dict]] = collections.defaultdict(list)
    for seed in seeds:
        order = list(range(args.sets)) if seed % 2 else list(reversed(range(args.sets)))
        for s in order:
            for workload, trace in ((w, m) for w in workloads for m in modes):
                result, record = run_once(workload, seed, args.seconds, trace)
                host = record.get("host", {})
                slowdown = record.get("host_speed", {}).get("slowdown_median", 1.0)
                shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
                print(f"set {s} {workload} seed {seed} trace {trace}: "
                      f"attempted {result['attempted']} failed {result['failed']} "
                      f"steal {host.get('steal_fraction', 0):.3f} "
                      f"cpu_ms/op {host.get('cpu_ms_per_op', 0):.1f} "
                      f"slowdown {slowdown:.3f} | {shown}", flush=True)
                if not trace:
                    wall[(s, workload)].append(record.get("wall_clock", {}))
                    wall[(s, workload)][-1]["slowdown"] = slowdown
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: correct={result['correct']} "
                                    f"failed={result['failed']}")
                for name, metric in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(metric["value"])
                    units[name] = metric["unit"]
                counts.setdefault((workload, seed), []).append(record.get("exact_counts", {}))

    for (workload, seed), runs in sorted(counts.items()):
        for name in runs[0]:
            seen = {run.get(name) for run in runs}
            if len(seen) > 1:
                problems.append(
                    f"{workload} seed {seed}: exact count {name} drifted: {sorted(seen)}"
                )

    for workload in workloads:
        print(f"\n{workload}")
        names = sorted({n for (s, w, n) in values if w == workload}, key=list(units).index)
        for name in names:
            row = [f"  {name:30s}"]
            medians = []
            for s in range(args.sets):
                vals = values[(s, workload, name)]
                med = statistics.median(vals)
                medians.append(med)
                sp = spread(vals)
                row.append(f"set{s} median {med:12.4f} {units[name]:6s} spread {sp:6.1%}")
                bound = bounds.get(name)
                # quartiles of fewer than four runs say nothing about spread
                if bound is not None and name != "setup_s" and len(vals) >= 4 and sp > bound:
                    problems.append(
                        f"{workload} {name}: set {s} spread {sp:.1%} > bound {bound:.0%}"
                    )
            bound = bounds.get(name)
            if bound is not None:
                row.append(f"bound {bound:.0%} (third {bound / 3:.1%})")
            if len(medians) == 2 and medians[0]:
                move = medians[1] / medians[0] - 1.0
                row.append(f"moved {move:+.1%}")
                worse = move if name in lower_better else -move
                if bound is not None and worse > bound:
                    problems.append(
                        f"{workload} {name}: median worse by {worse:.1%} > bound {bound:.0%}"
                    )
            print("  ".join(row))
        for s in range(args.sets):
            runs = wall.get((s, workload), [])
            if runs:
                shown = "  ".join(f"{name} {spread([run[name] for run in runs]):.1%}"
                                  for name in runs[0])
                print(f"  set{s} wall-clock spreads: {shown}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
