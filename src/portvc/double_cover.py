"""Bipartite double cover of a port graph and the matching view of a run.

Every node v has a black copy B(v) = v and a white copy W(v) = v + n; the
bipartition is implicit in the ids. Each port entry (v -> u) is the copy
edge {B(v), W(u)}, so the port table already is the cover and `DoubleCover`
only views it. The accepts in a run's flat transcript form a maximal
matching in it, checked in O(n + m) with no m-sized edge set, and held as
`mate`, one int per black copy. Projecting the matched copies back recovers
the cover, and on a genuine run `mate` equals the run's `CoverResult.partner`.
"""
from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .errors import AnalysisFault
from .graph import PortGraph


class DoubleCover(NamedTuple):
    """Double cover H of `graph`, a view of its port table, plus a matching.

    `mate[u] == v` when the black copy B(u) is matched to the white copy
    W(v); -1 when B(u) is unmatched.
    """

    graph: PortGraph
    mate: tuple[int, ...]


def build_double_cover(g: PortGraph) -> DoubleCover:
    """H on 2n nodes with 2|E| edges and an empty matching."""
    return DoubleCover(g, (-1,) * g.node_count)


def extract_matching(h: DoubleCover, flat: tuple[int | str, ...]) -> DoubleCover:
    """Fill the matching from the accepts of a flat transcript, in O(n + m).

    An `accept` sent by v on port j answers the proposal of the neighbour u
    behind that port, matching {B(u), W(v)}. Matching-ness and maximality
    are asserted, never assumed: either failing would falsify the protocol's
    maximal-matching guarantee. Maximality holds when every port entry
    (v -> u) has B(v) or W(u) matched; a fault names the first entry, in
    (v, port) order, with neither.
    """
    ports = h.graph.ports
    n = h.graph.node_count
    mate = [-1] * n
    white = [False] * n  # white[v]: W(v) is matched
    # the offset in `flat` of each accept, in transcript order
    for x in compress(range(0, len(flat), 4), map("accept".__eq__, flat[3::4])):
        step, v, j = flat[x : x + 3]
        if not (0 <= v < n and 1 <= j <= len(ports[v])):
            raise AnalysisFault(f"accept at step {step} from node {v} names no port {j}")
        u, k = ports[v][j - 1]
        if not (0 <= u < n and 1 <= k <= len(ports[u])) or ports[u][k - 1] != (v, j):
            raise AnalysisFault(f"accepted proposal maps to non-edge {(u, v + n)}")
        if mate[u] != -1:
            raise AnalysisFault(f"black copy of node {u} matched twice")
        if white[v]:
            raise AnalysisFault(f"white copy of node {v} matched twice")
        mate[u] = v
        white[v] = True
    for v, es in enumerate(ports):
        if mate[v] == -1:
            for u, _ in es:
                if not white[u]:
                    raise AnalysisFault(
                        f"matching not maximal: edge ({v}, {u + n}) has no matched endpoint"
                    )
    return h._replace(mate=tuple(mate))


def project_cover(h: DoubleCover) -> frozenset[int]:
    """Nodes whose black or white copy (or both) is matched."""
    matched = [u for u, v in enumerate(h.mate) if v != -1]
    return frozenset(matched).union(h.mate[u] for u in matched)


def project_matching_edges(h: DoubleCover) -> tuple[int, ...]:
    """The matching mapped back to the original graph, in the form of
    `CoverResult.partner`: for each node u, the node v with B(u)-W(v)
    matched, or -1."""
    return h.mate
