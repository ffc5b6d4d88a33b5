"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the zero-code tour:

``demo``
    one encrypted matrix-vector product end to end (toy ring by default,
    ``--production`` for N=4096);
``trace``
    render the macro-pipeline Gantt for a given row count;
``params``
    show (or generate) a parameter set;
``dse``
    run the design-space sweep and print the frontier;
``report``
    compute every headline number (Tables II and III, operator
    throughputs, roofline, design space, HMVP, applications, noise) and
    print or write the markdown reproduction report;
``metrics``
    run a small instrumented workload and print the metrics-registry
    snapshot (counters / gauges / histograms);
``serve``
    load-generate against the async fault-tolerant serving front-end
    (multi-engine dispatch, deadlines, retry, CPU degrade) and print
    per-status counts, latency percentiles and goodput;
``cluster``
    run sharded HMVP across simulated nodes (failover, and with
    ``--topology`` a contended interconnect whose per-phase and
    per-link traffic it prints);
``lint``
    run the HE-aware static-analysis rules (``repro.analysis``) over
    ``src/repro`` or the given paths; ``--ci`` additionally runs ruff
    and mypy (skipped gracefully when not installed) as the merge gate;
``profile``
    run the kernel profiler over a warm batched HMVP and print the
    sim-gap ledger (wall microseconds per kernel joined against the
    macro-pipeline cycle model) plus optional Chrome-trace,
    collapsed-stack and OpenMetrics exports;
``perfcheck``
    compare the latest benchmark records against the pinned floors in
    ``benchmarks/floors.json`` — the CI perf-regression gate.

``demo``, ``trace`` and ``report`` additionally accept
``--trace-out FILE`` to dump a Chrome-trace-format span file, loadable
in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main"]


@contextlib.contextmanager
def _tracing(path: Optional[str]):
    """Enable the default tracer around a command body and export."""
    if not path:
        yield
        return
    from repro.obs import TRACER, disable_tracing, enable_tracing

    enable_tracing()
    try:
        yield
    finally:
        disable_tracing()
        TRACER.export_chrome_trace(path)
        print(
            f"trace written to {path} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.batch import BatchedHmvp
    from repro.he.bfv import BfvScheme
    from repro.he.params import cham_params, toy_params

    params = cham_params() if args.production else toy_params(n=256, plain_bits=40)
    rows = args.rows
    scheme = BfvScheme(params, seed=args.seed, max_pack=rows)
    rng = np.random.default_rng(args.seed)
    n = params.n
    matrix = rng.integers(-(1 << 12), 1 << 12, (rows, n))
    vector = rng.integers(-(1 << 12), 1 << 12, n)
    print(f"params : {params.describe()}")
    with _tracing(args.trace_out):
        ct = scheme.encrypt_vector(vector)
        result = BatchedHmvp.once(scheme, matrix, [ct])
        got = result.decrypt(scheme)
    want = matrix.astype(object) @ vector.astype(object)
    ok = bool(np.array_equal(got, want))
    print(f"HMVP   : {rows}x{n}, {result.ops.pack_reductions} reductions, "
          f"correct={ok}")
    from repro.he.noise import packed_slot_positions

    pos = packed_slot_positions(n, rows)
    print(f"noise  : packed slot budget "
          f"{scheme.noise_budget(result.packs[0].ct, pos):.1f} bits")
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.hw.arch import EngineConfig
    from repro.hw.trace import capture_trace, chrome_trace_events, render_gantt

    trace = capture_trace(EngineConfig(), rows=args.rows, col_tiles=args.tiles)
    print(render_gantt(trace, width=args.width))
    if args.trace_out:
        payload = {
            "traceEvents": chrome_trace_events(trace),
            "displayTimeUnit": "ms",
        }
        with open(args.trace_out, "w") as fh:
            json.dump(payload, fh)
        print(
            f"trace written to {args.trace_out} "
            "(1 cycle = 1 us; load in chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.he.paramgen import ParamRequest, generate_params
    from repro.he.params import cham_params

    if args.n == 4096 and args.limbs == 2:
        params = cham_params()
    else:
        params = generate_params(
            ParamRequest(
                n=args.n,
                ct_modulus_bits=tuple([args.limb_bits] * args.limbs),
                special_bits=args.special_bits,
                plain_bits=args.plain_bits,
            )
        )
    print(params.describe())
    print(f"ct moduli      : {[hex(q) for q in params.ct_moduli]}")
    print(f"special modulus: {hex(params.special_modulus)}")
    print(f"plain modulus  : {params.plain_modulus}")
    print(f"poly counts    : ct {params.ct_poly_count} "
          f"(aug {params.ct_poly_count_aug}), pt {params.pt_poly_count} "
          f"(aug {params.pt_poly_count_aug})")
    return 0


def _cmd_compare(_args: argparse.Namespace) -> int:
    from repro.hw.compare import comparison_rows

    header = ["design", "venue", "tech", "clock", "NTT ATP", "mm^2", "scope", "multi"]
    rows = comparison_rows()
    widths = [max(len(str(h)), max(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    print(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.hw.power import energy_per_hmvp

    out = energy_per_hmvp(args.rows, args.cols)
    print(f"energy per {args.rows}x{args.cols} HMVP:")
    print(f"  CPU : {out['cpu_j']:8.2f} J")
    print(f"  GPU : {out['gpu_j']:8.2f} J")
    print(f"  CHAM: {out['cham_j']:8.2f} J "
          f"({out['cham_vs_cpu']:.0f}x vs CPU, {out['cham_vs_gpu']:.1f}x vs GPU)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import generate_report

    with _tracing(args.trace_out):
        text = generate_report(args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run one instrumented tour of the stack and print the registry.

    The workload touches every layer that reports metrics: a functional
    HMVP (NTT/modmul counters, pack reductions), a noise-budget readout
    (gauges), a macro-pipeline simulation (stage occupancy, stalls) and
    an RAS runtime job + health check (the paper's monitoring counters).
    """
    from repro import obs
    from repro.core.batch import BatchedHmvp
    from repro.he.bfv import BfvScheme
    from repro.he.noise import packed_slot_positions
    from repro.he.params import toy_params
    from repro.hw.arch import EngineConfig
    from repro.hw.pipeline import MacroPipeline
    from repro.hw.runtime import FpgaRuntime

    reg = obs.enable_metrics()
    rows = args.rows
    params = toy_params(n=256, plain_bits=40)
    scheme = BfvScheme(params, seed=args.seed, max_pack=rows)
    rng = np.random.default_rng(args.seed)
    matrix = rng.integers(-(1 << 12), 1 << 12, (rows, params.n))
    vector = rng.integers(-(1 << 12), 1 << 12, params.n)
    result = BatchedHmvp.once(scheme, matrix, [scheme.encrypt_vector(vector)])
    scheme.noise_budget(
        result.packs[0].ct, packed_slot_positions(params.n, rows)
    )
    MacroPipeline(EngineConfig()).simulate_hmvp(1024)
    runtime = FpgaRuntime()
    runtime.poll_once(runtime.submit(rows))
    runtime.health()

    snap = reg.snapshot()
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0
    print(f"== metrics registry snapshot ({len(reg)} instruments) ==")
    for name, value in snap["counters"].items():
        print(f"  counter   {name:35s} {value:,}")
    for name, value in snap["gauges"].items():
        print(f"  gauge     {name:35s} {value:,.3f}")
    for name, h in snap["histograms"].items():
        print(
            f"  histogram {name:35s} n={h['count']} mean={h['mean']:,.1f} "
            f"min={h['min']:,.1f} max={h['max']:,.1f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Load-generate against the async serving layer and report.

    The acceptance shape: every submitted request reaches a terminal
    outcome (served on the accelerator, retried, or degraded to CPU —
    zero dropped), all completed results decrypt to the exact ``A @ v``,
    and the JSON dump carries latency percentiles plus simulated
    goodput for the chosen engine count.
    """
    from repro import obs
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params
    from repro.serve import ServeConfig, serve_requests

    reg = obs.enable_metrics()
    params = toy_params(n=128, plain_bits=40)
    scheme = BfvScheme(params, seed=args.seed, max_pack=args.rows)
    rng = np.random.default_rng(args.seed)
    matrix = rng.integers(-40, 40, (args.rows, params.n))
    vectors = [rng.integers(-40, 40, params.n) for _ in range(args.requests)]
    cts = [scheme.encrypt_vector(v) for v in vectors]
    config = ServeConfig(
        engines=args.engines,
        max_batch=args.batch,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=max(args.capacity, args.requests),
        fault_rate=args.fault_rate,
        register_flip_rate=args.register_flip_rate,
        max_retries=args.max_retries,
        seed=args.seed,
    )
    report = serve_requests(scheme, matrix, cts, config)
    correct = all(
        np.array_equal(
            o.result.decrypt(scheme),
            matrix.astype(object) @ vectors[o.request_id].astype(object),
        )
        for o in report.outcomes
        if o.completed
    )
    ok = (
        correct
        and report.dropped == 0
        and report.completed == report.submitted
    )
    if args.json:
        payload = report.to_dict()
        payload["correct"] = correct
        snap = reg.snapshot()
        payload["counters"] = {
            k: v for k, v in snap["counters"].items()
            if k.startswith(("serve.", "batch.cache.", "hw.runtime."))
        }
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(
        f"serve  : {report.submitted} requests x ({args.rows}x{params.n}) "
        f"matrix, {args.engines} engine(s), fault rate {args.fault_rate}"
    )
    print(
        f"status : ok={report.ok} degraded={report.degraded} "
        f"rejected={report.rejected} deadline={report.deadline_expired} "
        f"dropped={report.dropped} retries={report.retries} "
        f"correct={correct}"
    )
    print(
        f"latency: p50 {report.latency_ms(50):.1f} ms, "
        f"p95 {report.latency_ms(95):.1f} ms, "
        f"p99 {report.latency_ms(99):.1f} ms "
        f"({report.goodput_rps:,.1f} req/s wall)"
    )
    print(
        f"sim    : makespan {report.makespan_cycles:,} cycles, "
        f"goodput {report.goodput_sim_rps:,.0f} req/s on the device clock, "
        f"per-engine busy {report.per_engine_busy_cycles}"
    )
    for i, h in enumerate(report.engine_health):
        print(
            f"engine{i}: jobs={h.jobs_completed} failed_attempts="
            f"{h.jobs_failed} hangs={h.hangs_detected} resets={h.resets}"
        )
    return 0 if ok else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Sharded multi-node HMVP demo: scatter, fail over, gather exactly.

    The acceptance shape the CI smoke step asserts on: every shard of
    every request reaches a terminal outcome (zero dropped) even with
    injected node hangs, and the gathered ciphertexts decrypt to the
    exact ``A @ v`` — the cluster path is bit-identical to the
    single-engine path, so correctness here is unconditional.
    """
    from repro import obs
    from repro.cluster import ClusterConfig, ClusterExecutor
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params

    reg = obs.enable_metrics()
    params = toy_params(n=128, plain_bits=40)
    scheme = BfvScheme(params, seed=args.seed, max_pack=params.n)
    rng = np.random.default_rng(args.seed)
    cols = args.cols if args.cols is not None else 2 * params.n
    matrix = rng.integers(-40, 40, (args.rows, cols))
    config = ClusterConfig(
        nodes=args.nodes,
        replication=args.replication,
        max_retries=args.max_retries,
        fault_rate=args.fault_rate,
        register_flip_rate=args.register_flip_rate,
        seed=args.seed,
        topology=getattr(args, "topology", None),
        link_bandwidth=getattr(args, "bandwidth", 64),
        link_latency=getattr(args, "latency", 4),
        flit_bytes=getattr(args, "flit_bytes", 64),
    )
    try:
        executor = ClusterExecutor(scheme, matrix, config=config)
    except ValueError as exc:
        print(f"repro cluster: {exc}", file=sys.stderr)
        return 2
    vectors = [rng.integers(-40, 40, cols) for _ in range(args.requests)]
    requests = [executor.encrypt_vector(v) for v in vectors]
    results = executor.execute_batch(requests)
    half = params.plain_modulus // 2

    def centered(values):
        return [((int(v) + half) % params.plain_modulus) - half
                for v in values]

    correct = all(
        centered(res.decrypt(scheme)[: args.rows])
        == centered(matrix.astype(object) @ v.astype(object))
        for res, v in zip(results, vectors)
    )
    report = executor.report()
    ok = correct and report.dropped == 0
    if args.json:
        payload = report.to_dict()
        payload["correct"] = correct
        snap = reg.snapshot()
        payload["counters"] = {
            k: v for k, v in snap["counters"].items()
            if k.startswith(("cluster.", "hw.runtime."))
        }
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    plan = executor.plan
    print(
        f"cluster: {args.requests} requests x ({args.rows}x{cols}) matrix, "
        f"{args.nodes} node(s) x{report.replication} replication, "
        f"fault rate {args.fault_rate}"
    )
    print(
        f"plan   : {len(plan.shards)} shard(s) "
        f"({plan.row_bands} row band(s) x {plan.col_bands} column band(s)), "
        f"ring {plan.ring_n}"
    )
    print(
        f"status : executions={report.shard_executions} "
        f"retries={report.shard_retries} "
        f"rebalanced={report.rebalance_events} "
        f"degraded={report.degraded_shards} dropped={report.dropped} "
        f"correct={correct}"
    )
    print(
        f"sim    : makespan {report.makespan_cycles:,} cycles, goodput "
        f"{report.goodput_sim_rps:,.1f} req/s on the device clock, "
        f"{report.speedup_vs_single_node:.2f}x vs one node, per-node busy "
        f"{report.per_node_busy_cycles}"
    )
    if report.network:
        n = report.network
        print(
            f"network: {n['topology']} fabric, "
            f"{report.network_cycles:,} net cycles "
            f"({n['flits_injected']:,} flits, "
            f"{n['blocked_attempts']:,} blocked, "
            f"max queue {n['max_queue_depth']}, "
            f"dropped {n['flits_dropped']})"
        )
        for phase, row in n["phases"].items():
            print(
                f"phase  : {phase:12s} {row['cycles']:>9,} cycles "
                f"{row['flits']:>8,} flits {row['messages']:>5,} msgs "
                f"{row['nbytes']:>11,} bytes"
            )
        busiest = sorted(
            n["links"].items(), key=lambda kv: -kv[1]["busy_cycles"]
        )[:5]
        for name, row in busiest:
            print(
                f"link   : {name:14s} util {row['utilization']:.3f} "
                f"flits {row['flits']:>8,} blocked {row['blocked']:>7,} "
                f"depth {row['max_depth']}"
            )
    for node in sorted(executor.nodes.values(), key=lambda n: n.node_id):
        h = node.health()
        print(
            f"node{node.node_id}  : shards={node.shards_served} "
            f"failed_attempts={h.jobs_failed} hangs={h.hangs_detected} "
            f"resets={h.resets}"
        )
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: custom HE-aware rules, optionally ruff + mypy.

    Exit code 0 means clean (or suppressed with justified
    ``# repro: noqa RULE-ID`` comments); 1 means findings or a failed
    external tool.  ``--ci`` is the merge-gate mode the GitHub Actions
    ``lint`` job runs; it always lints ``src/repro`` regardless of the
    working directory and writes the JSON artifact via ``--json-out``.
    """
    import pathlib

    from repro import analysis

    if args.list_rules:
        for rule in analysis.all_rules():
            print(f"{rule.id}  {rule.name:24s} [{rule.severity}]")
            print(f"          {rule.rationale}")
        return 0

    if args.ci:
        sarif_out = pathlib.Path(args.sarif) if args.sarif else None
        code, report, text = analysis.run_ci(sarif_out=sarif_out)
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(report, fh, indent=2)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(text)
        return code

    rules = analysis.get_rules(args.rule) if args.rule else None
    root = analysis.repo_root()
    if args.diff:
        try:
            paths = analysis.changed_python_files(args.diff, root=root)
        except RuntimeError as exc:
            print(f"repro lint --diff: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print(f"repro lint: no .py files changed vs {args.diff}")
            if args.sarif:
                _write_sarif(args.sarif, [], rules)
            return 0
    else:
        paths = (
            [pathlib.Path(p) for p in args.paths]
            if args.paths
            else [root / "src" / "repro"]
        )
    diags = analysis.lint_paths(paths, rules=rules, root=root)
    report = analysis.diagnostics_to_json(diags)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2)
    if args.sarif:
        _write_sarif(args.sarif, diags, rules)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(analysis.render_text(diags))
    return 1 if diags else 0


def _write_sarif(path, diags, rules) -> None:
    from repro.analysis import diagnostics_to_sarif

    with open(path, "w") as fh:
        json.dump(diagnostics_to_sarif(diags, rules=rules), fh, indent=2)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Kernel profiler: trace a warm batched run, print the sim-gap ledger.

    Exit code 0 requires the ledger to attribute >= 95% of the measured
    wall time to named kernel buckets — the same bar the test suite
    holds, so CI can smoke the profiler end to end.
    """
    from repro import obs
    from repro.obs.profile import (
        collapsed_stacks,
        openmetrics_text,
        profile_batched_hmvp,
    )

    reg = obs.enable_metrics()
    run = profile_batched_hmvp(
        rows=args.rows, batch=args.batch, seed=args.seed
    )
    ledger = run.ledger
    if args.trace_out:
        obs.TRACER.export_chrome_trace(args.trace_out)
    if args.collapsed_out:
        with open(args.collapsed_out, "w") as fh:
            fh.write(collapsed_stacks(run.spans))
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(openmetrics_text(reg))
    ok = ledger.coverage >= 0.95
    if args.json:
        payload = ledger.to_dict()
        payload["ok"] = ok
        print(json.dumps(payload, indent=2))
        return 0 if ok else 1
    print(
        f"profile: warm batched HMVP, {args.rows}x128 matrix, "
        f"batch {args.batch} ({run.wall_s * 1e3:.1f} ms measured)"
    )
    print(ledger.render_text())
    for name, path in (
        ("trace", args.trace_out),
        ("collapsed stacks", args.collapsed_out),
        ("openmetrics", args.metrics_out),
    ):
        if path:
            print(f"{name} written to {path}")
    if not ok:
        print(f"FAIL: coverage {ledger.coverage:.1%} below the 95% bar")
    return 0 if ok else 1


def _cmd_perfcheck(args: argparse.Namespace) -> int:
    """Perf-regression gate: latest bench records vs the pinned floors."""
    import os

    from repro.analysis import repo_root
    from repro.obs.perfcheck import check_floors

    root = repo_root()
    results = args.results or os.environ.get(
        "BENCH_RESULTS_DIR", str(root / "benchmarks" / "results")
    )
    floors = args.floors or str(root / "benchmarks" / "floors.json")
    report = check_floors(results, floors)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
        for bench, meta in sorted(report.metadata.items()):
            print(
                f"  {bench}: commit {meta.get('git_sha', 'unknown')[:12]} "
                f"@ {meta.get('timestamp_utc', '?')} "
                f"on {meta.get('hostname', '?')}"
            )
    return 0 if report.passed else 1


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.hw.dse import enumerate_design_space, pareto_front

    points = enumerate_design_space(bench_rows=args.rows)
    front = pareto_front(points)
    print(f"{len(points)} points, {sum(p.fits for p in points)} feasible, "
          f"{len(front)} on the frontier:")
    for p in front:
        print(f"  {p.label:26s} {p.rows_per_sec:10,.0f} rows/s  "
              f"max util {p.max_utilization_pct:5.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHAM (DAC 2023) reproduction command-line tour",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one encrypted HMVP")
    demo.add_argument("--rows", type=int, default=8)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--production", action="store_true",
                      help="use the full N=4096 parameter set")
    demo.add_argument("--trace-out", metavar="FILE", default=None,
                      help="write a Chrome-trace span file of the run")
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser("trace", help="render a pipeline Gantt")
    trace.add_argument("--rows", type=int, default=32)
    trace.add_argument("--tiles", type=int, default=1)
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the pipeline events as a Chrome trace")
    trace.set_defaults(func=_cmd_trace)

    params = sub.add_parser("params", help="show/generate a parameter set")
    params.add_argument("--n", type=int, default=4096)
    params.add_argument("--limbs", type=int, default=2)
    params.add_argument("--limb-bits", type=int, default=35)
    params.add_argument("--special-bits", type=int, default=39)
    params.add_argument("--plain-bits", type=int, default=40)
    params.set_defaults(func=_cmd_params)

    dse = sub.add_parser("dse", help="design-space sweep (Fig. 2b)")
    dse.add_argument("--rows", type=int, default=1024)
    dse.set_defaults(func=_cmd_dse)

    compare = sub.add_parser("compare", help="published-accelerator landscape")
    compare.set_defaults(func=_cmd_compare)

    energy = sub.add_parser("energy", help="energy per HMVP on each platform")
    energy.add_argument("--rows", type=int, default=8192)
    energy.add_argument("--cols", type=int, default=4096)
    energy.set_defaults(func=_cmd_energy)

    report = sub.add_parser("report", help="full reproduction report (markdown)")
    report.add_argument("--output", "-o", default=None)
    report.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write per-section spans as a Chrome trace")
    report.set_defaults(func=_cmd_report)

    metrics = sub.add_parser(
        "metrics", help="run an instrumented workload, print the registry"
    )
    metrics.add_argument("--rows", type=int, default=8)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--json", action="store_true",
                         help="dump the snapshot as JSON")
    metrics.set_defaults(func=_cmd_metrics)

    serve = sub.add_parser(
        "serve", help="async fault-tolerant serving load generator"
    )
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--engines", type=int, default=2)
    serve.add_argument("--rows", type=int, default=8)
    serve.add_argument("--batch", type=int, default=8,
                       help="micro-batch drain threshold (max_batch)")
    serve.add_argument("--max-wait-ms", type=float, default=5.0)
    serve.add_argument("--capacity", type=int, default=256,
                       help="admission bound (raised to --requests)")
    serve.add_argument("--fault-rate", type=float, default=0.0,
                       help="device hang probability per job execution")
    serve.add_argument("--register-flip-rate", type=float, default=0.0)
    serve.add_argument("--max-retries", type=int, default=2)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", action="store_true",
                       help="dump the serve report + counters as JSON")
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster", help="sharded multi-node HMVP demo (scatter/gather)"
    )
    cluster.add_argument("--requests", type=int, default=8)
    cluster.add_argument("--nodes", type=int, default=4)
    cluster.add_argument("--replication", type=int, default=None,
                         help="copies of every shard, 1..nodes "
                              "(default: min(2, nodes))")
    cluster.add_argument("--rows", type=int, default=96)
    cluster.add_argument("--cols", type=int, default=None,
                         help="matrix columns (default: 2 ring tiles)")
    cluster.add_argument("--fault-rate", type=float, default=0.0,
                         help="node hang probability per shard offload")
    cluster.add_argument("--register-flip-rate", type=float, default=0.0)
    cluster.add_argument("--max-retries", type=int, default=1,
                         help="extra passes over a shard's replica list")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--topology", type=str, default=None,
                         choices=["ideal", "ring", "mesh", "fat-tree"],
                         help="attach the interconnect simulator and "
                              "charge scatter/failover/gather traffic "
                              "(default: free comm)")
    cluster.add_argument("--bandwidth", type=int, default=64,
                         help="link bandwidth in bytes/cycle")
    cluster.add_argument("--latency", type=int, default=4,
                         help="per-hop pipeline latency in cycles")
    cluster.add_argument("--flit-bytes", type=int, default=64,
                         dest="flit_bytes", help="wire flit size")
    cluster.add_argument("--json", action="store_true",
                         help="dump the cluster report + counters as JSON")
    cluster.set_defaults(func=_cmd_cluster)

    lint = sub.add_parser(
        "lint", help="HE-aware static analysis (repro.analysis)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--rule", action="append", metavar="ID",
                      help="run only this rule (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="print the diagnostics report as JSON")
    lint.add_argument("--json-out", metavar="FILE", default=None,
                      help="also write the JSON report to FILE (CI artifact)")
    lint.add_argument("--ci", action="store_true",
                      help="merge-gate mode: custom rules on src/repro plus "
                           "ruff and mypy (skipped when not installed)")
    lint.add_argument("--diff", metavar="BASE", default=None,
                      help="lint only .py files changed vs this git ref "
                           "(plus untracked files)")
    lint.add_argument("--sarif", metavar="FILE", default=None,
                      help="also write findings as SARIF 2.1.0 (GitHub "
                           "code-scanning upload format)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.set_defaults(func=_cmd_lint)

    profile = sub.add_parser(
        "profile", help="kernel profiler + sim-gap ledger (warm batched run)"
    )
    profile.add_argument("--rows", type=int, default=8)
    profile.add_argument("--batch", type=int, default=8)
    profile.add_argument("--seed", type=int, default=11)
    profile.add_argument("--json", action="store_true",
                         help="dump the ledger as JSON")
    profile.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write the measured run as a Chrome trace")
    profile.add_argument("--collapsed-out", metavar="FILE", default=None,
                         help="write collapsed stacks (flamegraph input)")
    profile.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write the metrics registry as OpenMetrics text")
    profile.set_defaults(func=_cmd_profile)

    perfcheck = sub.add_parser(
        "perfcheck", help="compare bench records against pinned perf floors"
    )
    perfcheck.add_argument("--results", metavar="DIR", default=None,
                           help="bench results dir (default: "
                                "$BENCH_RESULTS_DIR or benchmarks/results)")
    perfcheck.add_argument("--floors", metavar="FILE", default=None,
                           help="pinned floors (default: benchmarks/floors.json)")
    perfcheck.add_argument("--json", action="store_true",
                           help="dump the report as JSON")
    perfcheck.set_defaults(func=_cmd_perfcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
