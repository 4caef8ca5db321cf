"""Seeded input builders of the benchmark's own.

The graphs for `sparse`, `hub` and `dense` are drawn here, not by the
program's generators, so the bytes measured stay the same across commits
even when `portvc.graph` changes what it draws. `sweep` is a stream of
generator parameters instead: it exists to measure the program's generator.
Every builder is a pure function of its seed.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

SPARSE_MAX_DEGREE = 10
SPARSE_MEAN_DEGREE = 6.0


@dataclass(frozen=True)
class GraphInput:
    """One graph file plus the `vc` flags that read it."""

    text: str
    suffix: str  # "el" or "pg"
    flags: tuple[str, ...]
    n: int
    m: int

    @property
    def sha256(self) -> str:
        return sha256(self.text)


@dataclass(frozen=True)
class SweepParams:
    """One `vc gen random n max_degree p --seed gen_seed` draw."""

    n: int
    max_degree: int
    p: str  # repr of the float, so the CLI reads back the exact value
    gen_seed: int
    numbering_seed: int


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"portvc-bench:{name}:{seed}")


def _edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def sparse(seed: int, n: int = 5000) -> GraphInput:
    """Bounded-degree random graph as `.el`, read with seeded random numbering.

    Uniform node pairs are drawn until the target edge count is reached,
    skipping self-loops, repeats and pairs that would exceed the degree cap.
    """
    rng = _rng("sparse", seed)
    target = round(n * SPARSE_MEAN_DEGREE / 2)
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        e = (u, v) if u < v else (v, u)
        if u == v or e in seen or deg[u] >= SPARSE_MAX_DEGREE or deg[v] >= SPARSE_MAX_DEGREE:
            continue
        seen.add(e)
        edges.append(e)
        deg[u] += 1
        deg[v] += 1
    flags = ("--numbering", "random", "--seed", str(rng.getrandbits(32)))
    return GraphInput(_edge_list_text(n, edges), "el", flags, n, len(edges))


def hub(seed: int, leaves: int = 2000) -> GraphInput:
    """`star(leaves)` as `.el` under sorted numbering, nodes relabelled by the seed."""
    rng = _rng("hub", seed)
    label = list(range(leaves + 1))
    rng.shuffle(label)
    edges = [(label[0], label[i]) for i in range(1, leaves + 1)]
    rng.shuffle(edges)
    return GraphInput(_edge_list_text(leaves + 1, edges), "el", ("--numbering", "sorted"),
                      leaves + 1, leaves)


def dense(seed: int, n: int = 300) -> GraphInput:
    """`clique(n)` as `.pg`, every node's port order shuffled by the seed."""
    rng = _rng("dense", seed)
    lines = [f"{n} {n * (n - 1) // 2}"]
    for v in range(n):
        nbrs = [u for u in range(n) if u != v]
        rng.shuffle(nbrs)
        lines.append(f"{v} {n - 1} " + " ".join(map(str, nbrs)))
    return GraphInput("\n".join(lines) + "\n", "pg", ("--format", "pg"), n, n * (n - 1) // 2)


def sweep(seed: int, count: int = 400, n_max: int = 300) -> list[SweepParams]:
    """Draws like the small branch of acceptance criterion 2.

    n is log-uniform in [4, n_max], the degree cap uniform in 1..10 and the
    target mean degree uniform in [0.5, min(cap, 6)]. All three are
    stratified (one draw per equal-probability stratum, every cap equally
    often) so that the cost and edge count of a pass barely depend on the
    seed; the marginal distributions are unchanged. Draws come in
    ascending n, so the first (the set-up's warm-up op) is always tiny.
    """
    rng = _rng("sweep", seed)
    caps = [1 + i % 10 for i in range(count)]
    rng.shuffle(caps)
    degree_quantiles = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(degree_quantiles)
    out = []
    for i, (max_degree, q) in enumerate(zip(caps, degree_quantiles)):
        n = int(round(4 * (n_max / 4) ** ((i + rng.random()) / count)))
        d_target = 0.5 + q * (min(max_degree, 6) - 0.5)
        p = min(1.0, d_target / max(1, n - 1))
        out.append(SweepParams(n, max_degree, repr(p), rng.getrandbits(32), rng.getrandbits(32)))
    return out
