"""Exact minimum vertex cover for desk-scale instances, by branch and bound.

`solve` refuses a graph over `MAX_NODES` nodes and a search over
`NODE_LIMIT` tree nodes; the certificate covers those instead. The tests
check `solve` against a second, independent method, plain subset
enumeration, so that it is not a single point of trust for the acceptance
checks that hinge on the true optimum.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import OracleRefusal
from .graph import PortGraph

MAX_NODES = 32  # larger instances are refused: use the certificate
NODE_LIMIT = 10_000_000  # search tree nodes before `solve` refuses


class OracleResult(NamedTuple):
    optimum_size: int
    optimum_cover: frozenset[int]
    explored_nodes: int


def _edges_and_adj(g: PortGraph) -> tuple[list[tuple[int, int]], list[set[int]]]:
    """The edges (v, u), v < u, in sorted order, and each node's neighbour
    set. The search branches on the first uncovered edge in this order, so
    the order fixes `explored_nodes` and the cover found."""
    adj = [{u for u, _ in row} for row in g.ports]
    edges = [(v, u) for v, nbrs in enumerate(adj) for u in sorted(nbrs) if v < u]
    return edges, adj


def solve(g: PortGraph) -> OracleResult:
    """Exact optimum by branch and bound.

    Branches on the first uncovered edge {u, v}: either u joins the cover,
    or u is excluded, forcing all of u's neighbours in. Pruned by the
    incumbent and a greedy-matching lower bound. Refuses a graph over
    `MAX_NODES` nodes and a search over `NODE_LIMIT` tree nodes. Each level
    of the search adds at least one node to the cover, so it nests at most
    `MAX_NODES + 1` levels deep.
    """
    n = g.node_count
    if n > MAX_NODES:
        raise OracleRefusal(f"instance has {n} nodes, cap is {MAX_NODES}; use the certificate")
    search = _Search(*_edges_and_adj(g), n)
    search.recurse(set())
    return OracleResult(search.best_size, frozenset(search.best_cover), search.explored)


class _Search:
    """Branch-and-bound state: the incumbent cover and the tree-node count.

    A class rather than a closure, so that the search does not refer to
    itself and leaves no reference cycle behind.
    """

    def __init__(self, edges: list[tuple[int, int]], adj: list[set[int]], n: int):
        self.edges = edges
        self.adj = adj
        self.best_size = n
        self.best_cover: set[int] = set(range(n))
        self.explored = 0

    def recurse(self, cover: set[int]) -> None:
        self.explored += 1
        if self.explored > NODE_LIMIT:
            raise OracleRefusal(
                f"search budget of {NODE_LIMIT} nodes exceeded; "
                f"best cover found so far has size {self.best_size}"
            )
        if len(cover) >= self.best_size:
            return
        # a greedy matching on the uncovered edges: its first edge is the first
        # uncovered edge, to branch on, and its size lower-bounds the extra
        # cover nodes still needed
        taken = set(cover)
        matching = []
        for u, v in self.edges:
            if u not in taken and v not in taken:
                taken.add(u)
                taken.add(v)
                matching.append((u, v))
        if not matching:
            self.best_size = len(cover)
            self.best_cover = set(cover)
            return
        if len(cover) + len(matching) >= self.best_size:
            return
        u, v = matching[0]
        self.recurse(cover | {u})
        # u excluded: every edge at u must be covered by the other endpoint
        self.recurse(cover | self.adj[u])
