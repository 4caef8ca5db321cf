"""Differential and scale tests for the pair-graph decomposition.

`build_pair_graphs` must return a `PairGraph` equal to the one
`reference_build_pair_graphs` returns (same components, in the same order,
with the same node order, edge count and removed edge), or raise an
`AnalysisFault` with the same message: on the corpus, on Hypothesis graphs,
on long paths and cycles, and on fabricated `CoverResult`s whose pair edges
and covers no genuine run produces.
"""
from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portvc import AnalysisFault, PortGraph, analyze, build_pair_graphs, run
from portvc.analysis import PATH
from portvc.simulator import CoverResult

from conftest import consistent_cycle, cycle, g_from_pairs, load_corpus, path
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

    The pair edges are a random subset of the graph's edges, mostly cut down
    to pair degree <= 2 so that the decomposition is reached, plus now and
    then a pair that is not a graph edge. The cover is mostly the set of
    non-isolated nodes, now and then with a node added or dropped.
    """
    g = draw(port_graphs().filter(lambda g: g.num_edges))
    n = g.node_count
    chosen = draw(st.permutations(sorted(g.edge_set())))
    if not draw(st.integers(0, 3)):
        chosen = chosen[: draw(st.integers(min_value=0, max_value=len(chosen)))]
    if draw(st.integers(0, 3)):
        deg: dict[int, int] = {}
        kept = []
        for u, v in chosen:
            if deg.get(u, 0) < 2 and deg.get(v, 0) < 2:
                kept.append((u, v))
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
        chosen = kept
    pair_edges = set(chosen)
    if not draw(st.integers(0, 9)):
        node = st.integers(min_value=-1, max_value=n + 1)
        pair_edges.add((draw(node), draw(node)))
    cover = {v for e in pair_edges for v in e}
    if not draw(st.integers(0, 4)):
        if cover and draw(st.booleans()):
            cover.discard(draw(st.sampled_from(sorted(cover))))
        else:
            cover.add(draw(st.integers(min_value=0, max_value=n + 1)))
    return g, CoverResult(frozenset(cover), frozenset(pair_edges), 1, 0)


@given(fabricated_results())
@settings(max_examples=1000)
def test_fabricated_results_match_reference(case):
    _assert_same_pair_graph(*case)


def test_long_pair_path_in_linear_time():
    """`path(100_000)` numbered by ascending id gives one pair path of
    n - 2 nodes; a decomposition quadratic in its length takes minutes."""
    n = 100_000
    t0 = time.perf_counter()
    ra = analyze(path(n))
    elapsed = time.perf_counter() - t0
    assert ra.all_pass
    assert [(c.kind, len(c.nodes)) for c in ra.pair_graph.components] == [(PATH, 2), (PATH, n - 2)]
    assert elapsed < 30.0, f"analyze(path({n})) took {elapsed:.1f} s"
