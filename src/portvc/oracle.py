"""Exact minimum vertex cover for desk-scale instances, by branch and bound.

The tests check `solve` against a second, independent method, plain subset
enumeration, so that it is not a single point of trust for the acceptance
checks that hinge on the true optimum.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import OracleRefusal
from .graph import PortGraph

DEFAULT_CAP = 32
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


def _matching_bound(edges: list[tuple[int, int]], covered: set[int]) -> int:
    """Greedy matching on the uncovered edges; its size lower-bounds the
    number of extra cover nodes still needed."""
    used: set[int] = set()
    size = 0
    for u, v in edges:
        if u in covered or v in covered or u in used or v in used:
            continue
        used.add(u)
        used.add(v)
        size += 1
    return size


def solve(g: PortGraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact optimum by branch and bound.

    Branches on an uncovered edge {u, v}: either u joins the cover, or u is
    excluded, forcing all of u's neighbours in. Pruned by the incumbent and
    a greedy-matching lower bound. Refuses instances over `cap` nodes, and
    searches over `NODE_LIMIT` tree nodes or deeper than the recursion limit.
    """
    n = g.node_count
    if n > cap:
        raise OracleRefusal(f"instance has {n} nodes, cap is {cap}; use the certificate")
    edges, adj = _edges_and_adj(g)
    if not edges:
        return OracleResult(0, frozenset(), 1)

    search = _Search(edges, adj, n)
    try:
        search.recurse(set())
    except RecursionError:  # about one level per cover node
        raise OracleRefusal(
            f"search on {n} nodes nests past the recursion limit; use the certificate"
        ) from None
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
        edges = self.edges
        uncovered = next(
            ((u, v) for u, v in edges if u not in cover and v not in cover), None
        )
        if uncovered is None:
            self.best_size = len(cover)
            self.best_cover = set(cover)
            return
        if len(cover) + _matching_bound(edges, cover) >= self.best_size:
            return
        u, v = uncovered
        self.recurse(cover | {u})
        # u excluded: every edge at u must be covered by the other endpoint
        self.recurse(cover | self.adj[u])
