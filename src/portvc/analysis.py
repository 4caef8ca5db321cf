"""Structural analysis of a run: pair symmetry, pair graphs, certificate.

The pair edges of a run induce a subgraph of maximum degree 2 whose
non-isolated nodes are exactly the cover; its components are paths and
cycles, found by one walk per component in O(n + m) time. Summing
ceil(m/2) over the (cycle-opened) path components gives a per-instance
lower bound on any vertex cover, certifying the cover is within factor 3
of optimal without an exact solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algorithm import NodeState
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


def check_pair_symmetry(g: PortGraph, states: tuple[NodeState, ...]) -> bool:
    """True iff each node's accepted proposal (port `a`) reaches a node whose
    accepted incoming proposal (port `b`) leads back; else `AnalysisFault`."""
    for v, st in enumerate(states):
        if st.a is None:
            continue
        u = g.ports[v][st.a - 1][0]
        b = states[u].b if 0 <= u < g.node_count else None
        if b is None or g.ports[u][b - 1][0] != v:
            raise AnalysisFault(
                f"pair symmetry violated: node {v} accepted via port {st.a} to "
                f"node {u}, whose b={b} does not lead back"
            )
    return True


def build_pair_graphs(g: PortGraph, result: CoverResult) -> PairGraph:
    """Decompose the pair edges into path/cycle components.

    Asserts the structural guarantees (pair edges are graph edges, found in
    the port table of their smaller end; degree <= 2; non-isolated nodes
    equal the cover); a violation is an analysis fault, never a property of
    a genuine run. Once they hold, every component is a simple path or
    cycle, and one walk per component decomposes it in O(n + m) time,
    besides one sort of the cover. Components come in order of their
    smallest node; a path starts at its smaller end, a cycle at its smallest
    node, towards that node's smaller neighbour.
    """
    edges = result.pair_edges
    n = g.node_count
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        if not (0 <= u < v < n and any(w == v for w, _ in g.ports[u])):
            raise AnalysisFault("pair edges are not a subset of the graph's edges")
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
        # start is the smallest node of its component
        nbrs = sorted(adj[start])
        seq = [start] + _walk(adj, start, nbrs[0])
        if len(adj[seq[-1]]) == 2:  # the walk came back to start
            # (start, nbrs[0]) is the cycle's least edge
            components.append(Component(CYCLE, tuple(seq), len(seq), (start, nbrs[0])))
        else:
            if len(nbrs) == 2:  # start lies inside the path
                seq[:0] = reversed(_walk(adj, start, nbrs[1]))
            if seq[-1] < seq[0]:
                seq.reverse()
            components.append(Component(PATH, tuple(seq), len(seq) - 1, None))
        visited.update(seq)
    return PairGraph(g.node_count, edges, result.cover, tuple(components))


def _walk(adj: dict[int, list[int]], start: int, v: int) -> list[int]:
    """The nodes from v on, stepping away from start, up to a path end or
    the node before start."""
    seq = []
    prev = start
    while v != start:
        seq.append(v)
        nbrs = adj[v]
        if len(nbrs) == 1:
            break
        prev, v = v, nbrs[1] if nbrs[0] == prev else nbrs[0]
    return seq


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
