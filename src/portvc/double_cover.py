"""Bipartite double cover of a port graph and the matching view of a run.

Every node v gets a black copy B(v) = v and a white copy W(v) = v + n;
each original edge {u, v} becomes the two copy edges {B(u), W(v)} and
{B(v), W(u)}. The accepted proposals of a run, read off the transcript,
form a maximal matching in this graph; projecting the matched copies back
recovers the cover, and projecting the matching edges recovers the pair
edges.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .algorithm import Msg
from .errors import AnalysisFault
from .graph import PortGraph
from .simulator import Transcript, TranscriptEntry


@dataclass(frozen=True)
class DoubleCover:
    """2-coloured double cover H plus an (optionally filled) matching.

    Edges and matching entries are (black, white) pairs with black in
    0..n-1 and white in n..2n-1. The bipartition is stored explicitly.
    """

    graph: PortGraph
    blacks: tuple[int, ...]
    whites: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    matching: frozenset[tuple[int, int]]


def build_double_cover(g: PortGraph) -> DoubleCover:
    """Construct H on 2n nodes with 2|E| edges and an empty matching."""
    n = g.node_count
    return DoubleCover(
        graph=g,
        blacks=tuple(range(n)),
        whites=tuple(range(n, 2 * n)),
        # each port entry (u, _) of v is the copy edge {B(v), W(u)}
        edges=frozenset((v, u + n) for v, es in enumerate(g.ports) for u, _ in es),
        matching=frozenset(),
    )


def extract_matching(
    h: DoubleCover, t: Transcript | tuple[TranscriptEntry, ...]
) -> DoubleCover:
    """Fill the matching from a run's accepted proposals.

    An `accept` sent by v on port j answers the proposal of the neighbour u
    behind that port, matching {B(u), W(v)}. Matching-ness and maximality
    are asserted, never assumed: either failing would falsify the protocol's
    maximal-matching guarantee.
    """
    g = h.graph
    n = g.node_count
    entries = t.entries if isinstance(t, Transcript) else t
    matching: set[tuple[int, int]] = set()
    matched_black: set[int] = set()
    matched_white: set[int] = set()
    for e in entries:
        if e.kind is not Msg.ACCEPT:
            continue
        u, _ = g.ports[e.sender][e.sender_port - 1]
        edge = (u, e.sender + n)
        if edge not in h.edges:
            raise AnalysisFault(f"accepted proposal maps to non-edge {edge}")
        if u in matched_black:
            raise AnalysisFault(f"black copy of node {u} matched twice")
        if e.sender in matched_white:
            raise AnalysisFault(f"white copy of node {e.sender} matched twice")
        matched_black.add(u)
        matched_white.add(e.sender)
        matching.add(edge)
    for b, w in h.edges:
        if b not in matched_black and (w - n) not in matched_white:
            raise AnalysisFault(
                f"matching not maximal: edge ({b}, {w}) has no matched endpoint"
            )
    return replace(h, matching=frozenset(matching))


def project_cover(h: DoubleCover) -> frozenset[int]:
    """Nodes whose black or white copy (or both) is matched."""
    n = h.graph.node_count
    return frozenset(b for b, _ in h.matching) | frozenset(w - n for _, w in h.matching)


def project_matching_edges(h: DoubleCover) -> frozenset[tuple[int, int]]:
    """Matching edges mapped back to edges of the original graph."""
    n = h.graph.node_count
    return frozenset(
        (b, w - n) if b < w - n else (w - n, b) for b, w in h.matching
    )
