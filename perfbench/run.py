"""Run one benchmark workload and print its metrics as the last stdout line.

Usage::

    python3 perfbench/run.py --workload serve-n4096 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` is the traced run: same seed and shape, with the timed
phase split into alternating untraced and traced slices; it prints the
per-layer metrics, including the tracing overhead, and writes the spans
to ``perfbench/out/``.  Every run also prints one ``record`` line with
the host record, the wall-clock end-to-end values and the exact counts.

The host-speed probe runs before and after each set-up and between
operations, whenever nothing is in flight.  Each end-to-end timing is
divided by the host's slowdown around it (throughput is multiplied by
the median slowdown), so it reads as on the reference host and a run on
a busy host does not look like a slower program.  Workloads, metrics and
the steadiness rules are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: the workload seed used unless ``--seed`` says otherwise, and the
#: second seed on which later performance claims are verified
DEFAULT_SEED = 1
VERIFY_SEED = 2
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: p90 is reported only with ten samples beyond it, so an untraced run
#: keeps going past ``--seconds`` until it has this many operations;
#: peak memory is read when the last of them completes
MIN_OPS = 100
#: seconds of one slice of the timed phase; the traced run alternates
#: untraced and traced slices
SLICE_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serve.queue_wait_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.self_ms_per_op": "ms",
    "serve.retries_per_op": "count",
    "cluster.plan_s": "s",
    "cluster.self_ms_per_op": "ms",
    "cluster.shard_retries_per_op": "count",
    "apps.self_ms_per_op": "ms",
    "core.hmvp_ms_per_op": "ms",
    "core.encode_s": "s",
    "core.cache_hit_ratio": "ratio",
    "he.keygen_s": "s",
    "he.keyswitch_ms_per_op": "ms",
    "he.pack_ms_per_op": "ms",
    "he.encrypt_ms_per_op": "ms",
    "he.decrypt_ms_per_op": "ms",
    "he.keyswitches_per_op": "count",
    "math.ntt_ms_per_op": "ms",
    "math.modmul_ms_per_op": "ms",
    "math.ntts_per_op": "count",
    "hw.offload_ms_per_op": "ms",
    "hw.net_ms_per_op": "ms",
    "hw.net_events_per_s": "1/s",
    "hw.net_events_per_op": "count",
    "hw.sim_cycles_per_op": "cycles",
    "hw.sim_network_cycles_per_op": "cycles",
    "bench.trace_overhead_pct": "%",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("paper", "tiny"), default="paper",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src/`` first on the path and import the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import host, tracing, workloads

    return host, tracing, workloads


def execute(wl, seed: int, seconds: float, trace: bool, host, tracing, workloads) -> Dict:
    """Set up, run the timed phase, check every reply; returns the raw run."""
    recorder = tracing.Recorder() if trace else None
    speed = host.HostSpeed(wl.host_probe)
    #: (start, end, seconds) of each set-up; client-side encryption excluded
    setups: List[tuple] = []
    warm_ok = True
    for rep in range(1 if trace else SETUP_REPS):
        if rep:
            wl.close()
        speed.probe()
        if recorder is not None:
            recorder.start()
        t0 = perf_counter()
        warm_ok = wl.build(seed) and warm_ok
        t1 = perf_counter()
        setups.append((t0, t1, t1 - t0 - wl.client_s))
        if recorder is not None:
            recorder.stop()
        speed.probe()
    setup_spans = recorder.take()[0] if recorder is not None else []
    wl.prepare(seed)
    rss: List[float] = []

    def on_op(op) -> None:
        if op.traced:
            recorder.op(op.op_id, wl.op_layer, f"{wl.op_layer}.op", op.t0, op.t1)
        # the simulators keep per-request history, so memory is read at a
        # fixed amount of work: a faster system must not read as a bigger one
        if len(wl.ops) == MIN_OPS:
            rss.append(host.peak_rss_mb())

    wl.on_op = on_op
    wl.idle = speed.probe

    # p90 needs MIN_OPS latencies; the exact counts COUNT_OPS operations
    min_ops = workloads.COUNT_OPS if trace else MIN_OPS
    wall = {False: 0.0, True: 0.0}
    traced_counters: Dict[str, float] = {}
    start = perf_counter()
    cap = start + max(2 * seconds, seconds + 30)
    before = host.sample()
    traced = False
    while True:
        if traced:
            c0 = wl.counters()
            recorder.start()
        t_slice, probing = perf_counter(), speed.spent_s
        wl.run(workloads.Until(deadline=t_slice + SLICE_S, cap=cap), traced)
        wall[traced] += perf_counter() - t_slice - (speed.spent_s - probing)
        if traced:
            recorder.stop()
            for key, value in wl.counters().items():
                traced_counters[key] = traced_counters.get(key, 0.0) + value - c0.get(key, 0.0)
        now = perf_counter()
        # the traced run ends on a traced slice, so both kinds get as many
        if now >= cap or (now - start >= seconds and len(wl.ops) >= min_ops
                          and traced == trace):
            break
        traced = trace and not traced
    after = host.sample()
    peak_rss = rss[0] if rss else host.peak_rss_mb()

    failed = set(wl.check())
    spans, op_spans = recorder.take() if recorder is not None else ([], [])
    return {
        "setups": setups,
        "warm_ok": warm_ok,
        "wall": wall,
        "failed": failed,
        "peak_rss_mb": peak_rss,
        "speed": speed,
        "host": host.record(before, after, len(wl.ops), str(ROOT)),
        "counts": wl.exact_counts(),
        "facts": wl.layer_facts(),
        "setup_spans": setup_spans,
        "spans": spans,
        "op_spans": op_spans,
        "traced_counters": traced_counters,
        "missing": recorder.missing() if recorder is not None else [],
    }


def end_to_end(wl, raw, workloads, slowdown: Callable[[float, float], float]) -> Dict[str, float]:
    """The end-to-end metrics of the correct untraced operations.

    Each set-up and each operation's latency is divided by
    ``slowdown(start, end)``, the host's slowdown around it; throughput is
    multiplied by the median slowdown of the operations.  A slowdown of 1
    gives the metrics as the run's wall clock read them.
    """
    good = [op for op in wl.ops if not op.traced and op.op_id not in raw["failed"]]
    per_op = [slowdown(op.t0, op.t1) for op in good]
    latencies = sorted(1e3 * op.latency_s / s for op, s in zip(good, per_op))
    return {
        "setup_s": statistics.median(sec / slowdown(t0, t1) for t0, t1, sec in raw["setups"]),
        "throughput_per_s": (
            len(good) / raw["wall"][False] * statistics.median(per_op) if good else 0.0
        ),
        "latency_p50_ms": workloads.percentile(latencies, 50) if latencies else 0.0,
        "latency_p90_ms": workloads.percentile(latencies, 90) if latencies else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(wl, raw, tracing) -> Dict[str, float]:
    spans, op_spans = raw["spans"], raw["op_spans"]
    tracing.assign_ops(op_spans, spans)
    n = len(op_spans) or 1
    self_s = tracing.self_seconds(spans)

    def ms(role: str) -> float:
        return 1e3 * self_s.get(role, 0.0) / n

    op_self = 1e3 * tracing.op_self_seconds(op_spans, spans) / n
    untraced = [op for op in wl.ops if not op.traced and op.op_id not in raw["failed"]]
    traced = [op for op in wl.ops if op.traced and op.op_id not in raw["failed"]]
    tput_off = len(untraced) / raw["wall"][False]
    tput_on = len(traced) / raw["wall"][True] if raw["wall"][True] else 0.0
    net_s = self_s.get("hw.net", 0.0)
    setup = raw["setup_spans"]
    metrics = {
        "serve.self_ms_per_op": op_self if wl.op_layer == "serve" else 0.0,
        "cluster.plan_s": tracing.inclusive_seconds(setup, "cluster.plan"),
        "cluster.self_ms_per_op": op_self if wl.op_layer == "cluster" else 0.0,
        "apps.self_ms_per_op": op_self if wl.op_layer == "apps" else 0.0,
        "core.hmvp_ms_per_op": ms("core.hmvp"),
        "core.encode_s": tracing.inclusive_seconds(setup, "core.encode"),
        "he.keygen_s": tracing.inclusive_seconds(setup, "he.keygen"),
        "he.keyswitch_ms_per_op": ms("he.keyswitch"),
        "he.pack_ms_per_op": ms("he.pack"),
        "he.encrypt_ms_per_op": ms("he.encrypt"),
        "he.decrypt_ms_per_op": ms("he.decrypt"),
        "math.ntt_ms_per_op": ms("math.ntt"),
        "math.modmul_ms_per_op": ms("math.modmul"),
        "hw.offload_ms_per_op": ms("hw.offload"),
        "hw.net_ms_per_op": ms("hw.net"),
        "hw.net_events_per_s": (
            raw["traced_counters"].get("net_events", 0.0) / net_s if net_s else 0.0
        ),
        "bench.trace_overhead_pct": 100.0 * (1.0 - tput_on / tput_off) if tput_off else 0.0,
    }
    metrics.update(raw["facts"])
    metrics.update(raw["counts"])
    return {name: metrics[name] for name in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    host, tracing, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.size)
    try:
        raw = execute(wl, args.seed, args.seconds, bool(args.trace), host, tracing, workloads)
    finally:
        wl.shutdown()
    speed = raw["speed"]
    measured = end_to_end(wl, raw, workloads, lambda t0, t1: 1.0)
    if args.trace:
        metrics, units = per_layer(wl, raw, tracing), PER_LAYER
        workloads.OUT.mkdir(exist_ok=True)
        tracing.dump(str(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.json"),
                     raw["spans"], raw["op_spans"])
        for name, why in wl.not_reached.items():
            print(f"n/a {name}: {why}")
    else:
        metrics, units = end_to_end(wl, raw, workloads, speed.around), END_TO_END
    attempted = len(wl.ops)
    failed = len(raw["failed"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "setup_s": [sec for _t0, _t1, sec in raw["setups"]],
        "ops_untraced": sum(1 for op in wl.ops if not op.traced),
        "ops_traced": sum(1 for op in wl.ops if op.traced),
        "wall_s": {"untraced": raw["wall"][False], "traced": raw["wall"][True]},
        "exact_counts": raw["counts"],
        "wall_clock": measured,
        "host_speed": {
            "probes": len(speed.slowdowns),
            "slowdown_median": statistics.median(speed.slowdowns),
            "slowdown_quartiles": statistics.quantiles(speed.slowdowns, n=4),
        },
        "host": raw["host"],
        "missing_entry_points": raw["missing"],
    }
    print("record " + json.dumps(record, default=str))
    result = {
        "correct": bool(raw["warm_ok"] and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
