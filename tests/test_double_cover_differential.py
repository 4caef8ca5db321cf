"""Differential tests for the implicit double cover.

`extract_matching` reads the port table directly; `reference_extract_matching`
builds the explicit set of copy edges. On the corpus, on Hypothesis graphs
and on forged transcripts (an accept dropped, duplicated, or moved to
another in-range port) both must give the same matching or raise the same
`AnalysisFault`. The one exception is the maximality fault: the reference
names whichever unmatched edge its set yields first, so there the test
checks that the edge `extract_matching` names is the first port entry, in
(v, port) order, with neither copy matched.
"""
from __future__ import annotations

import random
import re

from hypothesis import given
from hypothesis import strategies as st

from portvc.algorithm import Msg
from portvc.double_cover import build_double_cover, extract_matching
from portvc.errors import AnalysisFault
from portvc.graph import PortGraph
from portvc.simulator import TranscriptEntry, run

from conftest import g_from_pairs, load_corpus
from reference_double_cover import reference_copy_edges, reference_extract_matching
from reference_engine import flatten
from test_properties import port_graphs

NOT_MAXIMAL = re.compile(r"matching not maximal: edge \((\d+), (\d+)\) has no matched endpoint")


def _outcome(extract, g: PortGraph, entries):
    try:
        return extract(g, entries)
    except AnalysisFault as exc:
        return str(exc)


def _first_unmatched_entry(g: PortGraph, entries) -> tuple[int, int]:
    """The first port entry (v -> u), in (v, port) order, with neither B(v)
    nor W(u) matched, as the copy edge (v, u + n)."""
    accepts = [e for e in entries if e.kind is Msg.ACCEPT]
    black = {g.ports[e.sender][e.sender_port - 1][0] for e in accepts}
    white = {e.sender for e in accepts}
    return next(
        (v, u + g.node_count)
        for v, es in enumerate(g.ports)
        for u, _ in es
        if v not in black and u not in white
    )


def _assert_same_matching(g: PortGraph, entries) -> None:
    got = _outcome(
        lambda g, t: extract_matching(build_double_cover(g), flatten(t)).mate, g, entries
    )
    want = _outcome(reference_extract_matching, g, entries)
    if isinstance(want, str) and NOT_MAXIMAL.fullmatch(want):
        named = NOT_MAXIMAL.fullmatch(got)
        assert named, got
        edge = (int(named[1]), int(named[2]))
        assert edge in reference_copy_edges(g)
        assert edge == _first_unmatched_entry(g, entries)
    else:
        assert got == want


def _forge(entries, kind: str, rng: random.Random, g: PortGraph):
    """`entries` with one accept dropped, duplicated, or moved to another
    in-range (sender, port); unchanged if there is no accept."""
    accepts = [i for i, e in enumerate(entries) if e.kind is Msg.ACCEPT]
    if not accepts:
        return entries
    i = rng.choice(accepts)
    if kind == "drop":
        return entries[:i] + entries[i + 1:]
    if kind == "duplicate":
        return entries[:i + 1] + entries[i:]
    sender = rng.choice([v for v in range(g.node_count) if g.ports[v]])
    port = rng.randint(1, len(g.ports[sender]))
    moved = TranscriptEntry(entries[i].time_step, sender, port, Msg.ACCEPT)
    return entries[:i] + (moved,) + entries[i + 1:]


def test_corpus_matches_reference():
    checked = 0
    for index, (n, pairs) in enumerate(load_corpus()):
        g = g_from_pairs(n, pairs, "random", index)
        _, tr = run(g)
        assert extract_matching(build_double_cover(g), tr.flat).mate == reference_extract_matching(
            g, tr.entries
        )
        rng = random.Random(index)
        for kind in ("drop", "duplicate", "move"):
            _assert_same_matching(g, _forge(tr.entries, kind, rng, g))
        checked += 1
    assert checked == 12113


@given(port_graphs())
def test_random_graphs_match_reference(g):
    _, tr = run(g)
    _assert_same_matching(g, tr.entries)


@given(port_graphs(), st.sampled_from(["drop", "duplicate", "move"]), st.integers(0, 2**32))
def test_forged_transcripts_match_reference(g, kind, seed):
    _, tr = run(g)
    _assert_same_matching(g, _forge(tr.entries, kind, random.Random(seed), g))
