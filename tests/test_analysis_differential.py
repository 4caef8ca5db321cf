"""Differential and scale tests for the pair-graph decomposition.

`build_pair_graphs` must return a `PairGraph` equal to the one
`reference_build_pair_graphs` returns (the same node sequences, in the same
order and orientation), or raise an `AnalysisFault` with the same message:
on the corpus, on Hypothesis graphs, on long paths and cycles, and on
fabricated `CoverResult`s whose partner arrays and covers no genuine run
produces.
"""
from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portvc.analysis import build_pair_graphs, certify
from portvc.checks import analyze
from portvc.errors import AnalysisFault
from portvc.graph import PortGraph
from portvc.simulator import CoverResult, run

from conftest import consistent_cycle, cycle, g_from_pairs, k2, load_corpus, pair_edges, path, star
from reference_analysis import reference_build_pair_graphs
from test_properties import port_graphs


def _outcome(build, g: PortGraph, result: CoverResult):
    try:
        return build(g, result)
    except AnalysisFault as exc:
        return str(exc)


def _assert_same_pair_graph(g: PortGraph, result: CoverResult) -> None:
    assert _outcome(build_pair_graphs, g, result) == _outcome(reference_build_pair_graphs, g, result)


@pytest.mark.parametrize("numbering", ["sorted", "random"])
def test_corpus_matches_reference(numbering):
    checked = 0
    for index, (n, pairs) in enumerate(load_corpus()):
        g = g_from_pairs(n, pairs, numbering, index if numbering == "random" else None)
        res, _ = run(g)
        assert build_pair_graphs(g, res) == reference_build_pair_graphs(g, res)
        checked += 1
    assert checked == 12113


@pytest.mark.parametrize("numbering", ["sorted", "random"])
def test_bound_is_the_pair_graphs_maximum_matching(numbering):
    """An oracle independent of the node sequences: `certify`'s bound equals
    a maximum matching of the pair edges, found by networkx."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for index, (n, pairs) in enumerate(load_corpus(max_n=7)):
        g = g_from_pairs(n, pairs, numbering, index if numbering == "random" else None)
        res, _ = run(g)
        edges = pair_edges(res)
        pg = build_pair_graphs(g, res)
        for nodes in pg.components:
            assert all(((u, v) if u < v else (v, u)) in edges for u, v in zip(nodes, nodes[1:]))
        matching = nx.max_weight_matching(nx.Graph(list(edges)), maxcardinality=True)
        assert certify(pg, res.cover_size).lower_bound == len(matching)
        checked += 1
    assert checked == 996


@given(port_graphs())
def test_random_graphs_match_reference(g):
    res, _ = run(g)
    assert build_pair_graphs(g, res) == reference_build_pair_graphs(g, res)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 1001])
@pytest.mark.parametrize("family", [path, cycle, consistent_cycle])
def test_paths_and_cycles_match_reference(family, n):
    g = family(n)
    res, _ = run(g)
    assert build_pair_graphs(g, res) == reference_build_pair_graphs(g, res)


@st.composite
def fabricated_results(draw):
    """A graph with a `CoverResult` no run produced.

    Each node's partner is drawn: mostly -1 or a neighbour, often one that
    picked it back (a 2-cycle), now and then -2, n, the node itself or a
    non-neighbour. The draw is mostly cut down to pair degree <= 2 so that
    the decomposition is reached. The cover is mostly the set of
    non-isolated nodes, now and then with a node added or dropped.
    """
    g = draw(port_graphs().filter(lambda g: g.num_edges))
    n = g.node_count
    partner = [-1] * n
    for v in draw(st.permutations(range(n))):
        nbrs = [u for u, _ in g.ports[v]]
        kind = draw(st.integers(0, 19))
        picked_v = [u for u in nbrs if partner[u] == v]
        if kind < 6 or not nbrs:
            continue
        if kind < 10 and picked_v:
            partner[v] = draw(st.sampled_from(picked_v))
        elif kind < 19:
            partner[v] = draw(st.sampled_from(nbrs))
        else:
            partner[v] = draw(st.sampled_from([-2, n, v] + [u for u in range(n) if u not in nbrs]))
    if draw(st.integers(0, 3)):
        deg = [0] * n
        for v, p in enumerate(partner):
            if p == -1 or 0 <= p < n and partner[p] == v and p < v:  # none, or counted
                continue
            if deg[v] < 2 and (not 0 <= p < n or deg[p] < 2):
                deg[v] += 1
                if 0 <= p < n:
                    deg[p] += 1
            else:
                partner[v] = -1
    cover = {v for e in pair_edges(CoverResult(frozenset(), tuple(partner), (), 1, 0)) for v in e}
    if not draw(st.integers(0, 4)):
        if cover and draw(st.booleans()):
            cover.discard(draw(st.sampled_from(sorted(cover))))
        else:
            cover.add(draw(st.integers(min_value=0, max_value=n + 1)))
    return g, CoverResult(frozenset(cover), tuple(partner), (0,) * n, 1, 0)


def _fabricated(g: PortGraph, partner: tuple[int, ...],
                cover: frozenset[int] | None = None) -> tuple[PortGraph, CoverResult]:
    """`g` with the given partners, and `cover` as the cover: by default the
    non-isolated nodes."""
    if cover is None:
        cover = frozenset(v for e in pair_edges(CoverResult(frozenset(), partner, (), 1, 0))
                          for v in e)
    return g, CoverResult(cover, partner, (0,) * len(partner), 1, 0)


@given(fabricated_results())
@example(_fabricated(k2(), (1, 0)))  # a 2-cycle is one pair edge
@example(_fabricated(path(3), (1, 0, 1)))  # a 2-cycle inside a path
@example(_fabricated(path(3), (1, -1, 1)))  # two nodes' partner, none of its own
@example(_fabricated(star(3), (3, 0, 0, -1)))  # the same, plus its own: degree 3
@example(_fabricated(k2(), (-2, -1)))
@example(_fabricated(k2(), (2, -1)))  # partner n
@example(_fabricated(path(3), (2, -1, -1)))  # a non-neighbour
@example(_fabricated(k2(), (0, -1)))  # the node itself
# covers of the right size that are not the non-isolated nodes {0, 1}
@example(_fabricated(path(3), (1, -1, -1), frozenset({0, 2})))  # an isolated node
@example(_fabricated(path(3), (1, -1, -1), frozenset({0, 5})))  # a node out of range
@settings(max_examples=1000)
def test_fabricated_results_match_reference(case):
    _assert_same_pair_graph(*case)


@pytest.mark.parametrize("family, lengths", [
    (path, lambda n: [2, n - 2]),
    (consistent_cycle, lambda n: [n]),
], ids=["path", "consistent_cycle"])
def test_long_pair_path_in_linear_time(family, lengths):
    """`path(100_000)` numbered by ascending id gives a pair path of n - 2
    nodes, and `consistent_cycle(100_000)` one pair cycle of n nodes; a
    decomposition quadratic in their length takes minutes."""
    n = 100_000
    t0 = time.perf_counter()
    ra = analyze(family(n))
    elapsed = time.perf_counter() - t0
    assert ra.all_pass
    assert [len(nodes) for nodes in ra.pair_graph.components] == lengths(n)
    assert elapsed < 30.0, f"analyze({family.__name__}({n})) took {elapsed:.1f} s"
