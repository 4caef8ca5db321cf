"""Structural analysis of a run: pair graphs, decomposition, certificate.

The pair edges of a run induce a subgraph of maximum degree 2 whose
non-isolated nodes are exactly the cover; its components are paths and
cycles. Summing ceil(m/2) over the (cycle-opened) path components gives a
per-instance lower bound on any vertex cover, certifying the cover is
within factor 3 of optimal without an exact solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AnalysisFault
from .graph import PortGraph
from .simulator import CoverResult

PATH = "path"
CYCLE = "cycle"


@dataclass(frozen=True)
class Component:
    kind: str  # PATH or CYCLE
    nodes: tuple[int, ...]
    edge_count: int
    removed_edge: tuple[int, int] | None  # cycles only: the edge opened for the bound


@dataclass(frozen=True)
class PairGraph:
    """Pair subgraph of a run: all of V with the pair edges, decomposed."""

    node_count: int
    pair_edges: frozenset[tuple[int, int]]
    cover: frozenset[int]
    components: tuple[Component, ...]


@dataclass(frozen=True)
class Certificate:
    """Certified lower bound and the resulting approximation ratio."""

    lower_bound: int
    cover_size: int
    certified_ratio: Fraction | None  # None iff the cover is empty


def check_cover(g: PortGraph, cover) -> bool:
    """True iff every node outside `cover` has all its neighbours in it."""
    cover = set(cover)
    return all(u in cover for v, es in enumerate(g.ports) if v not in cover for u, _ in es)


def build_pair_graphs(g: PortGraph, result: CoverResult) -> PairGraph:
    """Decompose the pair edges into path/cycle components.

    Asserts every structural guarantee (degree <= 2, non-isolated nodes
    equal the cover, components are paths or cycles partitioning the
    cover); a violation is an analysis fault, never a property of a
    genuine run.
    """
    edges = result.pair_edges
    if not edges <= g.edge_set():
        raise AnalysisFault("pair edges are not a subset of the graph's edges")
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            raise AnalysisFault(f"node {v} has pair degree {len(nbrs)} > 2")
    non_isolated = frozenset(adj)
    if non_isolated != result.cover:
        raise AnalysisFault(
            "non-isolated pair-graph nodes differ from the cover: "
            f"only-pair={sorted(non_isolated - result.cover)} "
            f"only-cover={sorted(result.cover - non_isolated)}"
        )

    components: list[Component] = []
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        comp_nodes = _component_of(adj, start)
        endpoints = sorted(v for v in comp_nodes if len(adj[v]) == 1)
        if endpoints:
            seq = _walk(adj, endpoints[0])
            if len(endpoints) != 2 or seq[-1] != endpoints[1]:
                raise AnalysisFault(f"component at node {start} is not a simple path")
            components.append(Component(PATH, tuple(seq), len(seq) - 1, None))
        else:
            # all degrees exactly 2: must be a cycle
            first = min(comp_nodes)
            seq = _walk(adj, first, cycle=True)
            if len(seq) != len(comp_nodes):
                raise AnalysisFault(f"component at node {start} is not a simple cycle")
            removed = min(
                (u, v) if u < v else (v, u)
                for u, v in zip(seq, seq[1:] + [seq[0]])
            )
            components.append(Component(CYCLE, tuple(seq), len(seq), removed))
        visited.update(comp_nodes)

    covered = [v for comp in components for v in comp.nodes]
    if len(covered) != len(set(covered)) or set(covered) != set(result.cover):
        raise AnalysisFault("components do not partition the cover")
    for comp in components:
        expected = comp.edge_count + 1 if comp.kind == PATH else comp.edge_count
        if len(comp.nodes) != expected:
            raise AnalysisFault(f"{comp.kind} component has wrong node count")
    return PairGraph(g.node_count, edges, result.cover, tuple(components))


def _component_of(adj: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _walk(adj: dict[int, list[int]], start: int, cycle: bool = False) -> list[int]:
    """Trace a degree-<=2 component from `start`; deterministic direction."""
    seq = [start]
    prev = None
    current = start
    while True:
        nxt = [u for u in sorted(adj[current]) if u != prev]
        if not nxt:
            return seq
        step = nxt[0]
        if cycle and step == start:
            return seq
        if step in seq:
            raise AnalysisFault(f"walk revisits node {step}")
        seq.append(step)
        prev, current = current, step


def certify(pg: PairGraph, cover_size: int) -> Certificate:
    """Lower bound: sum of ceil(m/2) over components, cycles opened first.

    A cycle contributes with one edge removed; the bound is independent of
    which edge (it depends only on the count), the recorded removed edge
    exists purely for deterministic reporting.
    """
    lb = 0
    for comp in pg.components:
        m = comp.edge_count if comp.kind == PATH else comp.edge_count - 1
        lb += (m + 1) // 2
    if lb == 0 and cover_size > 0:
        raise AnalysisFault(f"zero lower bound with nonempty cover of size {cover_size}")
    ratio = Fraction(cover_size, lb) if lb > 0 else None
    return Certificate(lb, cover_size, ratio)
