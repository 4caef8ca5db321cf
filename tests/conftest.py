"""Shared fixtures and graph-building helpers."""
from __future__ import annotations

import pathlib
import tracemalloc

import pytest

from portvc.graph import (
    EdgeList,
    PortGraph,
    clique_edges,
    cycle_edges,
    from_edge_list,
    path_edges,
    star_edges,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def peak_bytes(f, *args) -> tuple[int, int]:
    """(peak, retained) bytes of `f(*args)`, traced by `tracemalloc`: the most
    held at once during the call, and what its result still holds after it."""
    tracemalloc.start()
    try:
        result = f(*args)  # alive until the return, so `retained` counts it
        retained, peak = tracemalloc.get_traced_memory()
        return peak, retained
    finally:
        tracemalloc.stop()


def pair_edges(result) -> frozenset[tuple[int, int]]:
    """A run's pair edges as a set of (smaller, larger) node pairs: one from
    each node to its `partner`, a 2-cycle counted once."""
    return frozenset(
        (v, u) if v < u else (u, v) for v, u in enumerate(result.partner) if u != -1
    )


def g_from_pairs(n: int, pairs, policy: str = "sorted", seed: int | None = None) -> PortGraph:
    return from_edge_list(EdgeList.from_pairs(n, pairs), policy, seed)


def k2() -> PortGraph:
    return g_from_pairs(2, [(0, 1)])


def star(leaves: int) -> PortGraph:
    return from_edge_list(star_edges(leaves))


def cycle(n: int) -> PortGraph:
    return from_edge_list(cycle_edges(n))


def path(n: int) -> PortGraph:
    return from_edge_list(path_edges(n))


def clique(n: int) -> PortGraph:
    return from_edge_list(clique_edges(n))


def consistent_cycle(n: int) -> PortGraph:
    """Cycle where every node's port 1 leads to its clockwise neighbour."""
    return PortGraph(tuple(tuple([((v + 1) % n, 2), ((v - 1) % n, 1)]) for v in range(n)))


def petersen() -> PortGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return g_from_pairs(10, outer + inner + spokes)


def load_corpus(max_n: int | None = None):
    """Yield (n, edge pairs) for every connected graph up to 8 nodes."""
    path_ = DATA_DIR / "connected_graphs_n1_8.txt"
    if not path_.exists():
        pytest.skip("exhaustive corpus file missing; run scripts/generate_graph_corpus.py")
    for line in path_.read_text().splitlines():
        n_str, _, edge_str = line.partition(":")
        n = int(n_str)
        if max_n is not None and n > max_n:
            continue
        pairs = []
        if edge_str:
            for token in edge_str.split(","):
                u, _, v = token.partition("-")
                pairs.append((int(u), int(v)))
        yield n, pairs
