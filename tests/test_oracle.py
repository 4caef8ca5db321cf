import pytest

from portvc import oracle
from portvc.analysis import check_cover
from portvc.errors import OracleRefusal
from portvc.graph import clique_edges, from_edge_list, permute_ports, random_bounded_edges
from portvc.oracle import _edges_and_adj, solve

from conftest import clique, cycle, g_from_pairs, k2, load_corpus, path, petersen, star
from reference_graph import edge_set
from reference_oracle import brute_force


class TestSolve:
    def test_k2(self):
        assert solve(k2()).optimum_size == 1

    @pytest.mark.parametrize("leaves", [1, 3, 7])
    def test_star_centre_suffices(self, leaves):
        res = solve(star(leaves))
        assert res.optimum_size == 1
        assert res.optimum_cover == frozenset({0})

    def test_c5_needs_three(self):
        assert solve(cycle(5)).optimum_size == 3

    def test_petersen_needs_six(self):
        assert solve(petersen()).optimum_size == 6

    def test_witness_is_a_cover(self):
        for g in [cycle(7), clique(5), star(4), petersen()]:
            res = solve(g)
            assert check_cover(g, res.optimum_cover)
            assert len(res.optimum_cover) == res.optimum_size

    def test_cap_refusal(self):
        g = from_edge_list(clique_edges(6))
        with pytest.raises(OracleRefusal, match="cap"):
            solve(g, cap=5)

    def test_node_limit_refusal(self, monkeypatch):
        monkeypatch.setattr(oracle, "NODE_LIMIT", 2)
        with pytest.raises(OracleRefusal, match="budget"):
            solve(petersen())

    def test_recursion_limit_refusal(self):
        # the search nests about one level per cover node, and the default
        # recursion limit is 1000
        with pytest.raises(OracleRefusal, match=r"^search on 1000 nodes nests past the recursion"):
            solve(path(1000), cap=1000)


    def test_edges_in_sorted_order(self):
        # the edge order fixes the branching, so `explored_nodes` and the cover.
        # In CPython a set of ints below 8 iterates in ascending order, so the
        # corpus alone cannot tell a sorted neighbour set from an unsorted one:
        # add a graph on 32 nodes, the default cap.
        graphs = [g_from_pairs(n, pairs) for n, pairs in load_corpus()]
        graphs.append(from_edge_list(random_bounded_edges(32, 4, 0.2, 1)))
        for g in graphs:
            for h in (g, permute_ports(g, 3)):
                assert _edges_and_adj(h)[0] == sorted(edge_set(h)), h


class TestBruteForce:
    def test_path_of_three(self):
        res = brute_force(path(3))
        assert res.optimum_size == 1
        assert res.optimum_cover == frozenset({1})

    def test_c4(self):
        assert brute_force(cycle(4)).optimum_size == 2

    def test_c6(self):
        assert brute_force(cycle(6)).optimum_size == 3

    def test_empty_graph(self):
        from portvc.graph import EdgeList

        g = from_edge_list(EdgeList.from_pairs(4, []))
        assert brute_force(g).optimum_size == 0

    def test_size_cap(self):
        g = from_edge_list(random_bounded_edges(25, 3, 0.2, seed=1))
        with pytest.raises(OracleRefusal):
            brute_force(g)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(20))
    def test_solvers_agree_on_random_graphs(self, seed):
        g = from_edge_list(random_bounded_edges(12, 4, 0.35, seed=seed))
        assert solve(g).optimum_size == brute_force(g).optimum_size

    def test_solvers_agree_on_named_graphs(self):
        for g in [k2(), path(5), cycle(8), clique(6), star(6), petersen()]:
            assert solve(g).optimum_size == brute_force(g).optimum_size

    def test_koenig_on_bipartite_graphs(self):
        # third, independent oracle: on bipartite graphs the optimum equals
        # the maximum matching size
        nx = pytest.importorskip("networkx")
        for maker, arg in [(cycle, 6), (cycle, 8), (path, 7), (star, 5)]:
            g = maker(arg)
            ng = nx.Graph(list(edge_set(g)))
            matching = nx.max_weight_matching(ng, maxcardinality=True)
            assert solve(g).optimum_size == len(matching)
