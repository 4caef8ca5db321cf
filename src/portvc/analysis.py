"""Structural analysis of a run: pair symmetry, pair graphs, certificate.

Every check reads the run's node-indexed arrays in `CoverResult`: `cover`,
`partner` and `accepted`. The pair edges, one from each node to its partner,
induce a subgraph of maximum degree 2 whose non-isolated nodes are exactly
the cover; its components are paths and cycles, each found by one walk
over node-indexed neighbour arrays in O(n + m) time and kept as its node
sequence. A component of L nodes holds floor(L/2) disjoint pair edges, every
second edge along the sequence, so the sum over components is the pair
graph's maximum matching: a per-instance lower bound on any vertex cover,
certifying the cover is within factor 3 of optimal without an exact solver.
"""
from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import AnalysisFault
from .graph import PortGraph
from .simulator import CoverResult

class PairGraph(NamedTuple):
    """Pair subgraph of a run: all of V with the pair edges, decomposed into
    the node sequences of its paths and cycles. Consecutive nodes of a
    sequence are joined by a pair edge, and so are the ends of a cycle."""

    components: tuple[tuple[int, ...], ...]


class Certificate(NamedTuple):
    """Certified lower bound and the resulting approximation ratio."""

    lower_bound: int
    certified_ratio: Fraction | None  # None iff the cover is empty


def check_cover(g: PortGraph, cover) -> bool:
    """True iff every node outside `cover` has all its neighbours in it."""
    cover = frozenset(cover)
    return all(u in cover for v, es in enumerate(g.ports) if v not in cover for u, _ in es)


def check_pair_symmetry(g: PortGraph, result: CoverResult) -> bool:
    """True iff each node's partner u is a node whose accepted incoming
    proposal, port `accepted[u]`, leads back to it; else `AnalysisFault`."""
    n, ports, accepted = g.node_count, g.ports, result.accepted
    for v, u in enumerate(result.partner):
        if u == -1:
            continue
        b = accepted[u] if 0 <= u < n else 0
        if not 0 < b <= len(ports[u]) or ports[u][b - 1][0] != v:
            raise AnalysisFault(f"pair symmetry violated: node {v} is paired with node {u}, "
                                f"whose accepted port {b} does not lead back")
    return True


def build_pair_graphs(g: PortGraph, result: CoverResult) -> PairGraph:
    """Decompose the pair edges into the node sequences of their path and
    cycle components.

    Each node v with `result.partner[v] != -1` gives the pair edge
    {v, partner[v]}; a 2-cycle, two nodes each other's partner, is one edge.
    Asserts the structural guarantees (pair edges are graph edges, found in
    the port table of their smaller end; degree <= 2, else the smallest
    node above it is named; non-isolated nodes equal the cover); a violation
    is an analysis fault, never a property of a genuine run. Once they hold,
    every component is a simple path or cycle, walked once from where its
    sequence starts, in O(n + m) time: first from each path end in
    ascending order, so a path starts at its smaller end; then from each
    node not yet reached, which is the smallest node of its cycle, towards
    that node's smaller neighbour. A final sort puts the components in order
    of their smallest node.
    """
    n = g.node_count
    ports = g.ports
    partner = result.partner
    # each node's first two pair neighbours, -1 for none, and its pair degree
    first = [-1] * n
    second = [-1] * n
    deg = [0] * n
    for v, p in enumerate(partner):
        if p == -1 or 0 <= p < v and partner[p] == v:  # none, or a 2-cycle's second half
            continue
        u, w = (v, p) if v < p else (p, v)
        if not (0 <= u < w < n and w in map(itemgetter(0), ports[u])):
            raise AnalysisFault("pair edges are not a subset of the graph's edges")
        for x, y in ((u, w), (w, u)):
            if first[x] == -1:
                first[x] = y
            elif second[x] == -1:
                second[x] = y
            deg[x] += 1
    if max(deg, default=0) > 2:
        v = next(v for v in range(n) if deg[v] > 2)
        raise AnalysisFault(f"node {v} has pair degree {deg[v]} > 2")
    cover = result.cover
    if n - deg.count(0) != len(cover) or not all(0 <= v < n and deg[v] for v in cover):
        non_isolated = frozenset(v for v in range(n) if deg[v])
        raise AnalysisFault(
            "non-isolated pair-graph nodes differ from the cover: "
            f"only-pair={sorted(non_isolated - cover)} "
            f"only-cover={sorted(cover - non_isolated)}"
        )

    components: list[tuple[int, ...]] = []
    seen = [False] * n
    for d in (1, 2):  # path ends first, then the nodes left, each a cycle's smallest
        for start in range(n):
            if deg[start] != d or seen[start]:
                continue
            seq = [start]
            prev, v = start, first[start] if d == 1 else min(first[start], second[start])
            while v != -1 and v != start:  # past a path's other end, or round a cycle
                seq.append(v)
                seen[v] = True
                prev, v = v, second[v] if first[v] == prev else first[v]
            components.append(tuple(seq))
    components.sort(key=min)
    return PairGraph(tuple(components))


def certify(pg: PairGraph, cover_size: int) -> Certificate:
    """Lower bound: the pair graph's maximum matching, floor(L/2) for each
    component of L nodes, path or cycle. Every second pair edge along a
    node sequence is such a matching, and any vertex cover takes one end of
    each of its edges."""
    lb = sum(len(nodes) // 2 for nodes in pg.components)
    if lb == 0 and cover_size > 0:
        raise AnalysisFault(f"zero lower bound with nonempty cover of size {cover_size}")
    ratio = Fraction(cover_size, lb) if lb > 0 else None
    return Certificate(lb, ratio)
