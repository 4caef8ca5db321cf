"""Reference pair-graph decomposition: the two-traversal walk `src/` replaced.

`reference_build_pair_graphs` collects the pair edges, one from each node
to its `partner`, into a set, finds each component with a depth-first
search, then walks it again from its smaller endpoint (a path) or its
smallest node (a cycle), testing each step against the list walked so far,
O(L^2) for a component of L nodes, and returns each component as its node
sequence. It also re-checks that the components partition the cover and
that each has the node count its kind (path or cycle) and edge count imply.
`portvc.analysis.build_pair_graphs` is checked against it.
"""
from __future__ import annotations

from portvc.analysis import PairGraph
from portvc.errors import AnalysisFault
from portvc.graph import PortGraph
from portvc.simulator import CoverResult

from reference_graph import edge_set


def reference_build_pair_graphs(g: PortGraph, result: CoverResult) -> PairGraph:
    """Decompose the pair edges into path/cycle components.

    Asserts every structural guarantee (degree <= 2, non-isolated nodes
    equal the cover, components are paths or cycles partitioning the
    cover); a violation is an analysis fault, never a property of a
    genuine run.
    """
    edges = frozenset(
        (v, u) if v < u else (u, v) for v, u in enumerate(result.partner) if u != -1
    )
    if not edges <= edge_set(g):
        raise AnalysisFault("pair edges are not a subset of the graph's edges")
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in sorted(adj.items()):  # the smallest node is named
        if len(nbrs) > 2:
            raise AnalysisFault(f"node {v} has pair degree {len(nbrs)} > 2")
    non_isolated = frozenset(adj)
    if non_isolated != result.cover:
        raise AnalysisFault(
            "non-isolated pair-graph nodes differ from the cover: "
            f"only-pair={sorted(non_isolated - result.cover)} "
            f"only-cover={sorted(result.cover - non_isolated)}"
        )

    components: list[tuple[int, ...]] = []
    kinds: list[tuple[str, int]] = []  # each component's kind and pair-edge count
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        comp_nodes = _component_of(adj, start)
        edge_count = sum(len(adj[v]) for v in comp_nodes) // 2
        endpoints = sorted(v for v in comp_nodes if len(adj[v]) == 1)
        if endpoints:
            seq = _walk(adj, endpoints[0])
            if len(endpoints) != 2 or seq[-1] != endpoints[1]:
                raise AnalysisFault(f"component at node {start} is not a simple path")
            components.append(tuple(seq))
            kinds.append(("path", edge_count))
        else:
            # all degrees exactly 2: must be a cycle
            first = min(comp_nodes)
            seq = _walk(adj, first, cycle=True)
            if len(seq) != len(comp_nodes):
                raise AnalysisFault(f"component at node {start} is not a simple cycle")
            components.append(tuple(seq))
            kinds.append(("cycle", edge_count))
        visited.update(comp_nodes)

    covered = [v for nodes in components for v in nodes]
    if len(covered) != len(set(covered)) or set(covered) != set(result.cover):
        raise AnalysisFault("components do not partition the cover")
    for nodes, (kind, edge_count) in zip(components, kinds):
        expected = edge_count + 1 if kind == "path" else edge_count
        if len(nodes) != expected:
            raise AnalysisFault(f"{kind} component has wrong node count")
    return PairGraph(tuple(components))


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
