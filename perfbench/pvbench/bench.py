"""One benchmark run: set-up, the measured closed loop, the gate, the metrics.

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
is a separate pass: it alternates untraced and traced ops on the same inputs
for the per-layer numbers and the tracing overhead, then runs a short
tracemalloc pass for per-layer peak memory.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from . import ops as ops_mod
from .inputs import sha256
from .ops import Gate, Op
from .trace import MemTracer, Tracer
from .workloads import Built, Workload

SETUP_REPS = 21
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# how far the top-level spans may miss the untraced op time beyond the
# tracing overhead, as a share of that time: the noise of best-of-run times
TOPLEVEL_NOISE = 0.02
MB = 1024 * 1024


@dataclass
class Outcome:
    """What a run reports: the result line, the lines before it, the details file."""

    result: dict
    lines: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def _ratio_str(r: Fraction | None) -> str | None:
    return None if r is None else f"{r.numerator}/{r.denominator}"


def cross_check(op: Op, report_text: str, gen_digest: str | None) -> list[str]:
    """Recompute one op through direct library calls and compare with `vc`."""
    from portvc import analysis, cli, graph, oracle, simulator

    problems = []
    parser = cli.build_parser()
    args = parser.parse_args(next(list(a) for a in op.argvs if a[0] == "run"))
    try:
        if op.gen_output is not None:
            gen = parser.parse_args(list(op.argvs[0]))
            el = graph.generate(gen.kind, *gen.params, seed=gen.seed)
            if sha256(graph.serialize_edge_list(el)) != gen_digest:
                problems.append("graph.generate differs from the `vc gen` output")
        else:
            with open(args.input) as fh:
                text = fh.read()
            el = None if args.format == "pg" else graph.parse_edge_list(text)
        g = graph.parse(text) if el is None else graph.from_edge_list(el, args.numbering, args.seed)
        result, _ = simulator.run(g)
        cert = analysis.certify(analysis.build_pair_graphs(g, result), result.cover_size)
        report = json.loads(report_text)
        if sorted(result.cover) != report["cover"]:
            problems.append("simulator.run cover differs from the `vc run` report")
        if cert.certified_ratio is not None and cert.certified_ratio > 3:
            problems.append(f"certified ratio {cert.certified_ratio} > 3")
        if _ratio_str(cert.certified_ratio) != report["certified_ratio"]:
            problems.append("certified ratio differs from the `vc run` report")
        if args.with_oracle and oracle.solve(g).optimum_size != report["oracle_size"]:
            problems.append("oracle optimum differs from the `vc run` report")
    except Exception as exc:  # any library failure fails the check, with its cause
        problems.append(f"library call raised {exc!r}")
    return problems


def _cross_check_once(cli_main: ops_mod.CliMain, op: Op, gate: Gate) -> list[str]:
    """Run `op` once more, through the gate, and cross-check its report."""
    _, calls = ops_mod.execute(cli_main, op)
    gate.check(op, calls)
    report = next((c.out for c in calls if c.command == "run"), "")
    return cross_check(op, report, gate.first.get(op.key, (None, None))[1])


def _import_and_warm(op: Op, gate: Gate) -> tuple[ops_mod.CliMain, float]:
    """One set-up: from `import portvc` to the end of one op.

    Every `portvc` module is dropped from `sys.modules` first, so each
    set-up imports the program afresh; the standard library stays loaded.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "portvc"]:
        del sys.modules[name]
    t0 = perf_counter()
    cli = importlib.import_module("portvc.cli")
    _, calls = ops_mod.execute(cli.main, op)
    setup_s = perf_counter() - t0
    gate.check(op, calls)
    return cli.main, setup_s


def _loop(ops: list[Op], seconds: float, min_steps: int, step, between=None) -> None:
    """Call `step` on the ops in order, cyclically, in whole passes.

    Stops after the pass at which another pass would overrun `seconds`,
    once at least `min_steps` steps are done. Between passes it calls
    `between` with the share of `seconds` used so far.
    """
    start = perf_counter()
    done = 0
    while True:
        for op in ops:
            step(op)
        done += len(ops)
        elapsed = perf_counter() - start
        if done >= min_steps and elapsed * (1 + len(ops) / done) > seconds:
            return
        if between is not None:
            between(elapsed / seconds)


def _gen_digest(gate: Gate, built: Built) -> str | None:
    digests = [gate.first.get(op.key, (None, None))[1] for op in built.ops]
    if not any(digests):
        return None
    return sha256("\n".join(d or "-" for d in digests))


def _header(wl: Workload, seed: int, trace: int, built: Built, build_s: float, gate: Gate) -> str:
    shas = " ".join(f"{k}={v[:16]}" for k, v in built.input_sha256.items())
    gen = _gen_digest(gate, built)
    return (f"# workload {wl.name} seed {seed} trace {trace}: {built.summary}; "
            f"input sha256 {shas}" + (f"; vc gen output sha256 {gen[:16]}" if gen else "")
            + f"; inputs built in {build_s:.3f} s")


def _common_details(wl, seed, seconds, trace, built, build_s, gate, problems) -> dict:
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": built.summary, "input_sha256": built.input_sha256,
        "gen_output_sha256": _gen_digest(gate, built), "input_build_s": build_s,
        "attempted": gate.attempted, "failed": gate.failed,
        "fail_reasons": gate.reasons, "cross_check_problems": problems,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: str) -> Outcome:
    t0 = perf_counter()
    built = wl.build(seed, workdir)
    build_s = perf_counter() - t0
    gate = Gate()
    cli_main, setup_s = _import_and_warm(built.warmup, gate)
    setups = [setup_s]

    def set_up_again() -> None:
        nonlocal cli_main
        cli_main, setup_s = _import_and_warm(built.warmup, gate)
        setups.append(setup_s)

    def between(used: float) -> None:
        """Spread the set-ups evenly over the run, as the ops are."""
        while len(setups) < SETUP_REPS and used >= len(setups) / SETUP_REPS:
            set_up_again()

    times: list[float] = []
    best: dict[str, float] = {}
    edges_of: dict[str, int] = {}
    all_edges = 0

    def step(op: Op) -> None:
        nonlocal all_edges
        dt, calls = ops_mod.execute(cli_main, op)
        m = gate.check(op, calls)
        if m is not None:
            times.append(dt)
            all_edges += m
            best[op.key] = min(dt, best.get(op.key, dt))
            edges_of[op.key] = m

    _loop(built.ops, seconds, MIN_OPS, step, between)
    while len(setups) < SETUP_REPS:
        set_up_again()
    problems = _cross_check_once(cli_main, built.ops[0], gate)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best_s = sum(best.values())
    op_best = statistics.geometric_mean(best.values()) if best else 0.0
    all_s = sum(times)
    p50 = statistics.median(times) if times else 0.0
    pct, tail_s = tail(times)
    setup_best = min(setups)
    metrics = {
        "edges_per_s": _metric(sum(edges_of.values()) / best_s if best_s else 0.0, "edges/s"),
        "op_best_s": _metric(op_best, "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "setup_s": _metric(setup_best, "s"),
    }
    reps = len(times) / max(1, len(best))
    correct = gate.failed == 0 and not problems
    details = _common_details(wl, seed, seconds, 0, built, build_s, gate, problems)
    details.update({
        "metrics": metrics, "op_times_s": times, "best_op_s": best,
        "edges_per_s_all_ops": all_edges / all_s if all_s else 0.0,
        "op_s_p50": p50, "op_s_tail": tail_s, "op_s_tail_percentile": pct,
        "setup_runs_s": setups, "fail_ratio": gate.failed / gate.attempted,
    })
    tail_text = (f"{tail_s:.6f} s  (p{pct:g} of {len(times)} ops)" if tail_s is not None
                 else f"n/a  ({len(times)} ops; a tail needs >= 10 ops beyond its percentile)")
    lines = [
        _header(wl, seed, 0, built, build_s, gate),
        f"edges_per_s   {metrics['edges_per_s']['value']:.3f} edges/s  (edges of one pass over "
        f"the {len(best)} inputs / sum of each input's fastest of {reps:g} ops; "
        f"over all {len(times)} ops: {details['edges_per_s_all_ops']:.3f})",
        f"op_best_s     {op_best:.6f} s  (geometric mean over the {len(best)} inputs of each "
        "input's fastest op)",
        *(["              fastest op per input: " + ", ".join(
            f"{k} {v:.6f} s ({edges_of[k] / v:.1f} edges/s)" for k, v in best.items())]
          if len(best) <= 3 else []),
        f"op_s_p50      {p50:.6f} s  (median of all {len(times)} ops; not gated)",
        f"op_s_tail     {tail_text}; not gated",
        f"peak_rss_mb   {peak_mb:.2f} MB  (ru_maxrss of this process)",
        f"setup_s       {setup_best:.6f} s  (fastest of {len(setups)} set-ups spread over the run: "
        + ", ".join(f"{s:.4f}" for s in setups) + f"; input build {build_s:.3f} s not included)",
        f"fail_ratio    {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:g}  "
        "(failed / attempted ops, set-ups included; not gated, any failure fails the run)",
    ]
    lines += [f"FAIL {r}" for r in gate.reasons + problems]
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    return Outcome(result, lines, details)


def _layer_metrics(tracer: Tracer, mem: MemTracer, overhead: float, toplevel: float) -> dict:
    total, self_time, _ = tracer.totals()
    ops = len(tracer.op_keys)
    c = tracer.counts

    def per_op(x: float) -> float:
        return x / ops

    cli_self = sum(v for k, v in self_time.items() if k.startswith("cli."))
    seconds = {
        "graph.parse_edge_list_s": total["graph.parse_edge_list"],
        "graph.from_edge_list_s": total["graph.from_edge_list"],
        "graph.parse_s": total["graph.parse"],
        "graph.generate_s": total["graph.generate"],
        "simulator.run_s": total["simulator.run"],
        "simulator.replay_s": total["simulator.replay"],
        "simulator.format_transcript_s": total["simulator.format_transcript"],
        "simulator.parse_transcript_s": total["simulator.parse_transcript"],
        "analysis.check_cover_s": total["analysis.check_cover"],
        "analysis.build_pair_graphs_s": total["analysis.build_pair_graphs"],
        "analysis.certify_s": total["analysis.certify"],
        "double_cover.build_double_cover_s": total["double_cover.build_double_cover"],
        "double_cover.extract_matching_s": total["double_cover.extract_matching"],
        "double_cover.project_s": total["double_cover.project_cover"]
        + total["double_cover.project_matching_edges"],
        "checks.analyze_s": total["checks.analyze"],
        "checks.self_s": self_time["checks.analyze"],
        "oracle.solve_s": total["oracle.solve"],
        "cli.run_s": total["cli.run"],
        "cli.verify_s": total["cli.verify"],
        "cli.gen_s": total["cli.gen"],
        "cli.self_s": cli_self,
    }
    metrics = {k: _metric(per_op(v), "s") for k, v in seconds.items()}
    for name in ("graph.sum_deg_sq", "simulator.run_calls", "simulator.steps_run",
                 "simulator.messages", "analysis.components", "oracle.explored_nodes"):
        metrics[name] = _metric(per_op(c[name.split(".")[1]]), "count")
    metrics["simulator.active_step_ratio"] = _metric(
        c["last_active_step"] / c["steps_run"] if c["steps_run"] else 0.0, "ratio")
    metrics["simulator.accept_ratio"] = _metric(
        c["accept"] / c["propose"] if c["propose"] else 0.0, "ratio")
    metrics["simulator.run_peak_mb"] = _metric(mem.peak["simulator.run"] / MB, "MB")
    metrics["checks.analyze_peak_mb"] = _metric(mem.peak["checks.analyze"] / MB, "MB")
    metrics["trace_overhead_ratio"] = _metric(overhead, "ratio")
    metrics["trace_toplevel_ratio"] = _metric(toplevel, "ratio")
    return metrics


def _input_breakdown(tracer: Tracer, key: str) -> str:
    """The layers that take most of one input's traced op time."""
    total, _, top = tracer.totals(key)
    ops = tracer.op_keys.count(key)
    layers = sorted(((v, k) for k, v in total.items() if not k.startswith(("cli.", "bench."))),
                    reverse=True)[:4]
    return (f"# {key}: {top / ops:.4f} s per traced op; largest layers, children included: "
            + ", ".join(f"{k} {v / ops:.4f} s" for v, k in layers))


def _toplevel_check(overhead: float, toplevel: float) -> bool:
    """Do the top-level spans account for the untraced op time?

    They may miss it by the tracing overhead, plus `TOPLEVEL_NOISE`, since
    traced and untraced times are best-of-run times of different ops.
    Tracing only adds work, so a traced op faster than an untraced one
    (overhead < 1) shows noise of that size: it widens the tolerance too.
    """
    return abs(toplevel - 1) <= abs(overhead - 1) + TOPLEVEL_NOISE


def run_traced(wl: Workload, seed: int, seconds: float, workdir: str,
               spans_path: str | None = None) -> Outcome:
    t0 = perf_counter()
    built = wl.build(seed, workdir)
    build_s = perf_counter() - t0
    gate = Gate()
    cli_main, _ = _import_and_warm(built.warmup, gate)
    tracer = Tracer()
    traced_main = tracer.cli_main(cli_main)
    # per input: fastest untraced op, fastest traced op, and that traced
    # op's top-level span time
    best_untraced: dict[str, float] = {}
    best_traced: dict[str, tuple[float, float]] = {}
    pairs = 0

    def untraced(op: Op) -> None:
        dt, calls = ops_mod.execute(cli_main, op)
        gate.check(op, calls)
        best_untraced[op.key] = min(dt, best_untraced.get(op.key, dt))

    def traced(op: Op) -> None:
        tracer.begin_op(op.key)
        try:
            dt, calls = ops_mod.execute(traced_main, op)
        finally:
            tracer.end_op()
        gate.check(op, calls)
        if dt < best_traced.get(op.key, (math.inf,))[0]:
            best_traced[op.key] = (dt, tracer.op_top[-1])

    def step(op: Op) -> None:
        nonlocal pairs
        order = (untraced, traced) if pairs % 2 == 0 else (traced, untraced)
        for side in order:
            side(op)
        pairs += 1

    _loop(built.ops, seconds, MIN_TRACED_PAIRS, step)
    with MemTracer() as mem:
        for op in built.ops[::-(-len(built.ops) // wl.mem_ops)]:
            gate.check(op, ops_mod.execute(cli_main, op)[1])
    problems = _cross_check_once(cli_main, built.ops[0], gate)
    untraced_s = sum(best_untraced.values())
    overhead = sum(t for t, _ in best_traced.values()) / untraced_s
    toplevel = sum(top for _, top in best_traced.values()) / untraced_s
    accounted = _toplevel_check(overhead, toplevel)
    metrics = _layer_metrics(tracer, mem, overhead, toplevel)
    if spans_path:
        tracer.write_tsv(spans_path)
    correct = gate.failed == 0 and not problems
    details = _common_details(wl, seed, seconds, 1, built, build_s, gate, problems)
    details.update({"metrics": metrics, "traced_ops": pairs, "spans": len(tracer.start),
                    "spans_file": spans_path, "toplevel_check": "PASS" if accounted else "FAIL"})
    lines = [_header(wl, seed, 1, built, build_s, gate)]
    lines += [f"{k:36s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if len(built.ops) <= 3:
        lines += [_input_breakdown(tracer, op.key) for op in built.ops]
    lines.append(
        f"# {pairs} traced ops, each paired with an untraced op on the same input. Over each "
        f"input's fastest ops: traced / untraced time = {overhead:.4f}; top-level spans / "
        f"untraced time = {toplevel:.4f}; spans account for the untraced time within the "
        f"tracing overhead + {TOPLEVEL_NOISE:g}: {'PASS' if accounted else 'FAIL'}")
    lines += [f"FAIL {r}" for r in gate.reasons + problems]
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    return Outcome(result, lines, details)


def run(wl: Workload, seed: int, seconds: float, trace: int, out_dir: str) -> Outcome:
    """Build the inputs in a scratch directory under `out_dir`, run, write details."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl.name}-seed{seed}-trace{trace}")
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        if trace:
            outcome = run_traced(wl, seed, seconds, workdir, stem + ".spans.tsv")
        else:
            outcome = run_untraced(wl, seed, seconds, workdir)
    with open(stem + ".json", "w") as fh:
        json.dump({**outcome.details, "result": outcome.result}, fh, indent=1)
    return outcome
