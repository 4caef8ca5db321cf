"""The workloads: what each op runs, on which inputs, and why.

Every workload is a closed loop with one client: one process, no threads,
the next op starts only when the previous one has finished. The three graph
shapes share the `verify` workload, so that each shape's fastest op is drawn
from a whole run rather than from a run a third as long: on a shared machine
whose speed drifts for tens of seconds, a short run can be slow throughout.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from . import inputs
from .ops import Op

ORACLE_MAX_N = 14  # `vc run --with-oracle` up to this n, as acceptance criterion 2 does
WARMUP_N = 200  # nodes of the sparse graph whose op ends each `verify` set-up


@dataclass(frozen=True)
class Built:
    """A workload's ops for one seed, plus the digests that identify its inputs.

    `warmup` is the op that ends a set-up. It is small, so that a run can
    repeat the set-up many times.
    """

    ops: list[Op]
    warmup: Op
    input_sha256: dict[str, str]
    summary: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str], Built]  # (seed, workdir) -> Built
    mem_ops: int  # ops of the tracemalloc pass, spread evenly over the workload's ops


def _verify_op(name: str, graph: inputs.GraphInput, workdir: str) -> Op:
    path = os.path.join(workdir, f"{name}.{graph.suffix}")
    trace = os.path.join(workdir, f"{name}.trace")
    with open(path, "w") as fh:
        fh.write(graph.text)
    argvs = (
        ("run", "--input", path, "--trace", trace, *graph.flags),
        ("verify", "--input", path, "--trace", trace, *graph.flags),
    )
    return Op(name, argvs, graph.m)


def verify_ops(graphs: dict[str, inputs.GraphInput], warmup: inputs.GraphInput,
               workdir: str) -> Built:
    """`vc run --trace` then `vc verify`, on each graph the benchmark drew, in turn."""
    ops = [_verify_op(name, graph, workdir) for name, graph in graphs.items()]
    digests = {name: g.sha256 for name, g in {**graphs, "warmup": warmup}.items()}
    return Built(ops, _verify_op("warmup", warmup, workdir), digests,
                 ", ".join(f"{name} n={g.n} m={g.m}" for name, g in graphs.items())
                 + f"; warm-up n={warmup.n} m={warmup.m}")


def gen_run_ops(draws: list[inputs.SweepParams], workdir: str) -> Built:
    """`vc gen random ...` then `vc run --numbering random`, one op per draw."""
    path = os.path.join(workdir, "gen.el")
    ops = []
    for i, d in enumerate(draws):
        run = ["run", "--input", path, "--numbering", "random", "--seed", str(d.numbering_seed)]
        if d.n <= ORACLE_MAX_N:
            run.append("--with-oracle")
        gen = ("gen", "random", str(d.n), str(d.max_degree), d.p, "--seed", str(d.gen_seed),
               "-o", path)
        ops.append(Op(f"draw{i}", (gen, tuple(run)), gen_output=path))
    params = "\n".join(f"{d.n} {d.max_degree} {d.p} {d.gen_seed} {d.numbering_seed}" for d in draws)
    oracle_ops = sum(d.n <= ORACLE_MAX_N for d in draws)
    return Built(ops, ops[0], {"params": inputs.sha256(params)},
                 f"{len(draws)} draws, {oracle_ops} with the oracle")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "sparse n=5000, star(2000) and clique(300) in turn: O(m) work in every layer, "
            "idle stepping in simulator.run, and O(sum d^2) graph.parse",
            lambda seed, wd: verify_ops(
                {"sparse": inputs.sparse(seed), "hub": inputs.hub(seed), "dense": inputs.dense(seed)},
                inputs.sparse(seed, n=WARMUP_N), wd),
            mem_ops=3,
        ),
        Workload(
            "sweep",
            "many small criterion-2 graphs through vc gen + vc run: the only workload "
            "running the generator, the oracle and per-command CLI cost",
            lambda seed, wd: gen_run_ops(inputs.sweep(seed), wd),
            mem_ops=20,
        ),
    )
}
