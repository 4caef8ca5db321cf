"""Reference matching extraction: the explicit double cover `src/` replaced.

`reference_copy_edges` materialises the 2|E| copy edges {B(v), W(u)} of the
double cover as a frozenset. `reference_extract_matching` tests each
accepted edge for membership in that set and checks maximality by iterating
over it, so its maximality fault names whichever unmatched edge the set
yields first. It returns the matching in the form of `DoubleCover.mate`.
`portvc.double_cover.extract_matching` is checked against it.
"""
from __future__ import annotations

from portvc.algorithm import Msg
from portvc.errors import AnalysisFault
from portvc.graph import PortGraph
from portvc.simulator import TranscriptEntry


def reference_copy_edges(g: PortGraph) -> frozenset[tuple[int, int]]:
    """Each port entry (u, _) of v as the copy edge (B(v), W(u)) = (v, u + n)."""
    n = g.node_count
    return frozenset((v, u + n) for v, es in enumerate(g.ports) for u, _ in es)


def reference_extract_matching(
    g: PortGraph, entries: tuple[TranscriptEntry, ...]
) -> tuple[int, ...]:
    """The matching of a run's accepted proposals, asserted maximal: for
    each node u, the node v with B(u)-W(v) matched, or -1."""
    n = g.node_count
    edges = reference_copy_edges(g)
    matching: set[tuple[int, int]] = set()
    matched_black: set[int] = set()
    matched_white: set[int] = set()
    for e in entries:
        if e.kind is not Msg.ACCEPT:
            continue
        u, _ = g.ports[e.sender][e.sender_port - 1]
        edge = (u, e.sender + n)
        if edge not in edges:
            raise AnalysisFault(f"accepted proposal maps to non-edge {edge}")
        if u in matched_black:
            raise AnalysisFault(f"black copy of node {u} matched twice")
        if e.sender in matched_white:
            raise AnalysisFault(f"white copy of node {e.sender} matched twice")
        matched_black.add(u)
        matched_white.add(e.sender)
        matching.add(edge)
    for b, w in edges:
        if b not in matched_black and (w - n) not in matched_white:
            raise AnalysisFault(
                f"matching not maximal: edge ({b}, {w}) has no matched endpoint"
            )
    mate = [-1] * n
    for b, w in matching:
        mate[b] = w - n
    return tuple(mate)
