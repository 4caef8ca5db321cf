"""Locality: a node's output depends only on its port-numbered neighbourhood.

The protocol is local. Information moves one edge per step, and the run
lasts T = `horizon_for(g)` steps, so a node's outputs, its ports `a` and
`b`, depend only on the nodes within distance T of it, their port numbers
and the ports of their edges; never on node ids or on the rest of the graph.
So the engine run on `ball(g, v, T + 1)` alone, renumbered by (distance,
id), must give v the same `accepted` port, the same `partner` (mapped back
to g's ids) and the same cover membership as the run on all of g.

The check compares the engine with itself. It catches what is not local,
such as ids, a global order or state leaking between far nodes, but not a
wrong transition that every node applies alike; the differential against
`reference_run` covers that.
"""
from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from portvc.graph import from_edge_list, path_edges, random_bounded_edges
from portvc.simulator import horizon_for, run

from conftest import path
from reference_graph import ball, validate
from test_properties import port_graphs


def _assert_local(g, nodes) -> None:
    res, _ = run(g)
    r = horizon_for(g) + 1
    for v in nodes:
        local_g, old = ball(g, v, r)
        assert validate(local_g) == []
        local, _ = run(local_g)
        p = local.partner[0]  # v is node 0 of its ball
        assert (local.accepted[0], old[p] if p != -1 else -1, 0 in local.cover) == (
            res.accepted[v], res.partner[v], v in res.cover), f"node {v}"


def test_ball_keeps_inner_rows_and_renumbers_its_rim():
    # path 0-1-2-3-4 with sorted ports, around node 2: nodes 1 and 3 lie at
    # distance 1 = r, and each keeps only its port to node 2, as port 1
    g, old = ball(path(5), 2, 1)
    assert old == [2, 1, 3]
    assert g.ports == (((1, 1), (2, 1)), ((0, 1),), ((0, 2),))
    # around node 1 at radius 2, node 2 keeps its whole row, and node 3, on
    # the rim, only its port to node 2
    g, old = ball(path(5), 1, 2)
    assert old == [1, 0, 2, 3]
    assert g.ports == (((1, 1), (2, 1)), ((0, 1),), ((0, 2), (3, 1)), ((2, 2),))


def test_path_with_random_numbering_is_local():
    g = from_edge_list(path_edges(2000), "random", 3)
    _assert_local(g, range(0, g.node_count, 7))


def test_bounded_degree_graph_is_local():
    g = from_edge_list(random_bounded_edges(3000, 3, 0.001, 5), "random", 5)
    assert g.max_degree <= 3  # balls of radius 8: about 120 nodes, at most a few hundred
    _assert_local(g, range(0, g.node_count, 31))


@given(port_graphs(), st.data())
def test_random_graphs_are_local(g, data):
    nodes = data.draw(st.sets(st.integers(0, g.node_count - 1), max_size=3)) if g.node_count else ()
    _assert_local(g, sorted(nodes))
