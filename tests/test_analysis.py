from fractions import Fraction

import pytest

from portvc.analysis import (
    PairGraph,
    build_pair_graphs,
    certify,
    check_cover,
    check_pair_symmetry,
)
from portvc.errors import AnalysisFault
from portvc.graph import EdgeList, PortGraph, from_edge_list
from portvc.simulator import CoverResult, run

from conftest import consistent_cycle, cycle, k2, pair_edges, path, star


class TestCheckCover:
    def test_k2_single_node_covers(self):
        assert check_cover(k2(), {0})

    def test_k2_empty_does_not(self):
        assert not check_cover(k2(), set())

    def test_run_output_covers_4_cycle(self):
        g = cycle(4)
        res, _ = run(g)
        assert check_cover(g, res.cover)

    def test_empty_graph_covered_by_empty_set(self):
        g = from_edge_list(EdgeList.from_pairs(3, []))
        assert check_cover(g, set())


class TestCheckPairSymmetry:
    @pytest.mark.parametrize("g", [k2(), star(3), cycle(5), consistent_cycle(6)])
    def test_genuine_run_is_symmetric(self, g):
        assert check_pair_symmetry(g, run(g)[0]) is True

    def test_partner_that_accepted_nothing_is_a_fault(self):
        # on K2, node 0 is paired with node 1, which accepted no proposal
        res = CoverResult(frozenset({0, 1}), (1, -1), (0, 0), 3, 2)
        with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 is paired "
                           r"with node 1, whose accepted port 0 does not lead back$"):
            check_pair_symmetry(k2(), res)

    def test_accepted_port_to_a_third_node_is_a_fault(self):
        # on the triangle, node 0 is paired with node 1, whose accepted port
        # leads on to node 2
        g = cycle(3)
        port_to_2 = 1 + [u for u, _ in g.ports[1]].index(2)
        res = CoverResult(frozenset({0, 1, 2}), (1, -1, -1), (0, port_to_2, 0), 5, 2)
        with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 is paired "
                           rf"with node 1, whose accepted port {port_to_2} does not lead back$"):
            check_pair_symmetry(g, res)

    def test_accepted_port_outside_the_row_is_a_fault(self):
        # on the triangle, node 1's row has ports 1 and 2: port -1 would index
        # its port 1, which leads back to node 0, and port 3 no entry
        g = cycle(3)
        for port in (-1, 3):
            res = CoverResult(frozenset({0, 1}), (1, -1, -1), (0, port, 0), 5, 2)
            with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 is paired "
                               rf"with node 1, whose accepted port {port} does not lead back$"):
                check_pair_symmetry(g, res)

    def test_partner_that_is_no_node_is_a_fault(self):
        # node 0's port 1 names node u, outside 0..1, and node 0 ends with its
        # proposal on that port accepted: it is paired with a node that is
        # not there. (`run` refuses the proposal; this is the result an
        # engine that read u as node 1 returned. -1 is `partner`'s "none".)
        for u in (2, -2):
            g = PortGraph((((u, 1),), ((0, 1),)))
            res = CoverResult(frozenset({0, 1}), (u, -1), (1, 1), 3, 2)
            with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 is paired "
                               rf"with node {u}, whose accepted port 0 does not lead back$"):
                check_pair_symmetry(g, res)


class TestBuildPairGraphs:
    def test_k2_single_path(self):
        g = k2()
        res, _ = run(g)
        pg = build_pair_graphs(g, res)
        assert pg.components == ((0, 1),)

    def test_consistent_c4_single_cycle(self):
        g = consistent_cycle(4)
        res, _ = run(g)
        pg = build_pair_graphs(g, res)
        # a cycle starts at its smallest node, towards its smaller neighbour
        assert pg.components == ((0, 1, 2, 3),)
        assert pair_edges(res) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_empty_graph_no_components(self):
        g = from_edge_list(EdgeList.from_pairs(4, []))
        res, _ = run(g)
        pg = build_pair_graphs(g, res)
        assert pg.components == ()
        assert res.partner == (-1,) * 4

    def test_star_components_partition_cover(self):
        g = star(5)
        res, _ = run(g)
        pg = build_pair_graphs(g, res)
        covered = [v for nodes in pg.components for v in nodes]
        assert sorted(covered) == sorted(res.cover)
        assert len(covered) == len(set(covered))

    def test_fabricated_extra_pair_edge_is_a_fault(self):
        g = cycle(5)
        res, _ = run(g)
        # node 0 gets a partner outside the graph, node 99
        bogus = res._replace(partner=(99,) + res.partner[1:])
        with pytest.raises(AnalysisFault, match="not a subset"):
            build_pair_graphs(g, bogus)

    def test_cover_mismatch_is_a_fault(self):
        g = k2()
        res, _ = run(g)
        bogus = res._replace(
            cover=res.cover | {7} if g.node_count > 7 else frozenset({0}))
        with pytest.raises(AnalysisFault, match="differ from the cover"):
            build_pair_graphs(g, bogus)


def _single_component_pg(nodes: tuple[int, ...]) -> PairGraph:
    return PairGraph(components=(nodes,))


class TestCertify:
    def test_worst_case_path_of_two_edges(self):
        pg = _single_component_pg((0, 1, 2))
        cert = certify(pg, 3)
        assert cert.lower_bound == 1
        assert cert.certified_ratio == Fraction(3, 1)

    def test_single_edge_path(self):
        pg = _single_component_pg((0, 1))
        cert = certify(pg, 2)
        assert cert.lower_bound == 1
        assert cert.certified_ratio == Fraction(2, 1)

    def test_cycle_of_four(self):
        pg = _single_component_pg((0, 1, 2, 3))
        cert = certify(pg, 4)
        assert cert.lower_bound == 2
        assert cert.certified_ratio == Fraction(2, 1)

    def test_empty_cover_has_no_ratio(self):
        pg = PairGraph(())
        cert = certify(pg, 0)
        assert cert.lower_bound == 0
        assert cert.certified_ratio is None

    def test_zero_bound_with_cover_is_a_fault(self):
        pg = PairGraph(())
        with pytest.raises(AnalysisFault):
            certify(pg, 2)

    @pytest.mark.parametrize("kind, nodes", [("path", n) for n in range(2, 8)]
                             + [("cycle", n) for n in range(3, 8)])
    def test_bound_is_half_the_node_count(self, kind, nodes):
        # each node pairs with the next, around the cycle too: a path of L - 1
        # pair edges or a cycle of L, both with floor(L/2) disjoint ones
        g = path(nodes) if kind == "path" else cycle(nodes)
        nxt = tuple(v + 1 if v + 1 < nodes else -1 if kind == "path" else 0
                    for v in range(nodes))
        res = CoverResult(frozenset(range(nodes)), nxt, (0,) * nodes, 1, 0)
        assert len(pair_edges(res)) == (nodes - 1 if kind == "path" else nodes)
        pg = build_pair_graphs(g, res)
        assert [len(c) for c in pg.components] == [nodes]
        cert = certify(pg, nodes)
        assert cert.lower_bound == nodes // 2
        assert cert.certified_ratio == Fraction(nodes, nodes // 2)

    def test_multi_component_sum(self):
        pg = PairGraph(components=((0, 1), (2, 3, 4)))
        cert = certify(pg, 5)
        assert cert.lower_bound == 2
        assert cert.certified_ratio == Fraction(5, 2)
