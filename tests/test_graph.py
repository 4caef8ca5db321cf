import pytest

from portvc import graph as graph_mod
from portvc.errors import GraphError, ParseError
from portvc.graph import (
    MAX_EDGE_LIST_NODES,
    MAX_RANDOM_CANDIDATES,
    EdgeList,
    PortGraph,
    clique_edges,
    cycle_edges,
    from_edge_list,
    generate,
    parse,
    parse_edge_list,
    path_edges,
    permute_ports,
    random_bounded_edges,
    serialize_edge_list,
    star_edges,
)

from conftest import g_from_pairs, k2, peak_bytes
from reference_graph import edge_set, serialize, validate


class TestEdgeList:
    def test_normalizes_and_keeps_order(self):
        el = EdgeList.from_pairs(3, [(2, 0), (1, 2)])
        assert el.edges == ((0, 2), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at node 1"):
            EdgeList.from_pairs(2, [(1, 1)])

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            EdgeList.from_pairs(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            EdgeList.from_pairs(2, [(0, 2)])


class TestFromEdgeList:
    def test_isolated_node(self):
        g = from_edge_list(EdgeList.from_pairs(1, []))
        assert g.node_count == 1
        assert len(g.ports[0]) == 0
        assert g.max_degree == 0

    def test_k2_reciprocity(self):
        g = k2()
        assert g.ports == (((1, 1),), ((0, 1),))

    def test_sorted_policy_on_4_cycle(self):
        g = from_edge_list(cycle_edges(4))
        # sorted rule: node 1's neighbours {0, 2} in ascending order
        assert g.ports[1][0][0] == 0
        assert g.ports[1][1][0] == 2
        assert all(len(g.ports[v]) == 2 for v in range(4))
        assert validate(g) == []

    def test_input_policy_follows_first_appearance(self):
        el = EdgeList.from_pairs(3, [(1, 2), (0, 1)])
        g = from_edge_list(el, "input")
        assert g.ports[1][0][0] == 2
        assert g.ports[1][1][0] == 0
        assert validate(g) == []

    def test_random_policy_requires_seed(self):
        with pytest.raises(GraphError, match="requires a seed"):
            from_edge_list(cycle_edges(4), "random")

    def test_random_policy_is_deterministic(self):
        el = star_edges(5)
        assert from_edge_list(el, "random", 7) == from_edge_list(el, "random", 7)

    @pytest.mark.parametrize("policy,seed", [("sorted", None), ("input", None), ("random", 3)])
    def test_edge_set_preserved(self, policy, seed):
        el = star_edges(4)
        g = from_edge_list(el, policy, seed)
        assert edge_set(g) == frozenset(el.edges)
        assert validate(g) == []

    def test_unknown_policy(self):
        with pytest.raises(GraphError, match="unknown numbering policy"):
            from_edge_list(cycle_edges(4), "alphabetical")


class TestValidate:
    def test_valid_cycle(self):
        assert validate(from_edge_list(cycle_edges(4))) == []

    def test_reciprocity_violation(self):
        # 0's port 1 claims (1, 1) but 1's port 1 points at node 2
        g = PortGraph((((1, 1),), ((2, 1),), ((1, 1),)))
        assert any("reciprocity violation at node 0 port 1" in v for v in validate(g))

    def test_port_range_gap(self):
        # node 1 references port 3 of node 0, which only has ports 1..2
        g = PortGraph((((1, 1), (2, 1)), ((0, 3),), ((0, 2),)))
        assert any("reciprocal port 3 out of range" in v for v in validate(g))

    def test_self_loop_detected(self):
        g = PortGraph((((0, 1),),))
        assert any("self-loop" in v for v in validate(g))

    def test_parallel_edge_detected(self):
        g = PortGraph((((1, 1), (1, 2)), ((0, 1), (0, 2))))
        assert any("parallel edge" in v for v in validate(g))


class TestPermutePorts:
    def test_preserves_edge_set_and_degrees(self):
        g = from_edge_list(star_edges(5))
        p = permute_ports(g, 99)
        assert edge_set(p) == edge_set(g)
        assert [len(p.ports[v]) for v in range(6)] == [len(g.ports[v]) for v in range(6)]
        assert validate(p) == []

    def test_k2_has_no_freedom(self):
        g = k2()
        assert permute_ports(g, 123) == g

    def test_deterministic(self):
        g = from_edge_list(clique_edges(5))
        assert permute_ports(g, 42) == permute_ports(g, 42)

    def test_different_seeds_both_valid(self):
        g = from_edge_list(star_edges(3))
        assert validate(permute_ports(g, 1)) == []
        assert validate(permute_ports(g, 2)) == []


class TestGenerators:
    def test_cycle_4(self):
        assert set(cycle_edges(4).edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_star_3(self):
        assert set(star_edges(3).edges) == {(0, 1), (0, 2), (0, 3)}

    def test_path_single_node(self):
        el = path_edges(1)
        assert el.node_count == 1 and el.edges == ()

    def test_clique_counts(self):
        assert len(clique_edges(5).edges) == 10

    @pytest.mark.parametrize("make,pairs", [
        (cycle_edges, lambda n: [(i, (i + 1) % n) for i in range(n)]),
        (path_edges, lambda n: [(i, i + 1) for i in range(n - 1)]),
        (clique_edges, lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]),
        (star_edges, lambda n: [(0, i) for i in range(1, n + 1)]),
    ])
    @pytest.mark.parametrize("n", [3, 4, 7, 40])
    def test_built_as_from_pairs_builds_them(self, make, pairs, n):
        """Each kind builds its `EdgeList` without `from_pairs`: the edges are
        normalized, distinct and in the order `from_pairs` gives its pairs."""
        el = make(n)
        assert el == EdgeList.from_pairs(el.node_count, el.edges)
        assert el == EdgeList.from_pairs(el.node_count, pairs(n))

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_edges(2)

    def test_random_bounded_respects_degree_cap(self):
        el = random_bounded_edges(20, 4, 0.3, seed=7)
        deg = [0] * 20
        for u, v in el.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 4

    def test_random_bounded_deterministic(self):
        assert random_bounded_edges(30, 5, 0.2, seed=11) == random_bounded_edges(30, 5, 0.2, seed=11)

    def test_random_bounded_large_n_sparse(self):
        n = 2000
        p = 2 * n / (n * (n - 1) / 2)  # about 2n candidate edges
        el = random_bounded_edges(n, 3, p, seed=5)
        deg = [0] * n
        for u, v in el.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3
        assert len(el.edges) > 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_random_tiny_n(self, n):
        el = random_bounded_edges(n, 3, 1.0, seed=1)
        assert el.node_count == n
        assert el.edges == (((0, 1),) if n == 2 else ())

    def test_random_zero_degree_cap_gives_no_edges(self):
        assert random_bounded_edges(10, 0, 1.0, seed=1).edges == ()

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300])
    def test_random_vanishing_p_gives_no_edges(self, p):
        # a denormal p makes the geometric skip infinite; it must not overflow
        assert random_bounded_edges(50, 3, p, seed=1).edges == ()

    def test_random_p_one_is_the_complete_graph(self):
        el = random_bounded_edges(7, 6, 1.0, seed=3)
        assert sorted(el.edges) == sorted(clique_edges(7).edges)

    def test_random_p_one_is_degree_filtered_and_maximal(self):
        n, cap = 12, 3
        el = random_bounded_edges(n, cap, 1.0, seed=4)
        deg = [0] * n
        for u, v in el.edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= cap
        edges = set(el.edges)
        # every missing pair has an endpoint at the cap, or the filter would have kept it
        for u in range(n):
            for v in range(u + 1, n):
                assert (u, v) in edges or deg[u] == cap or deg[v] == cap

    def test_random_node_cap(self):
        assert random_bounded_edges(MAX_EDGE_LIST_NODES, 3, 0.0, seed=1).node_count == MAX_EDGE_LIST_NODES
        with pytest.raises(GraphError, match=f"n {MAX_EDGE_LIST_NODES + 1} exceeds the limit"):
            random_bounded_edges(MAX_EDGE_LIST_NODES + 1, 3, 0.0, seed=1)

    def test_random_candidate_cap(self):
        n = 2001  # C(n,2) = 2,001,000, just above the cap at p = 1
        assert n * (n - 1) // 2 > MAX_RANDOM_CANDIDATES >= 2000 * 1999 // 2
        with pytest.raises(GraphError, match="expected candidate count .* exceeds the limit"):
            random_bounded_edges(n, 3, 1.0, seed=1)

    @pytest.mark.parametrize("kind, n", [
        ("cycle", 11), ("path", 11), ("clique", 11), ("star", 10), ("random", 11),
    ])
    def test_every_kind_refuses_too_many_nodes(self, monkeypatch, kind, n):
        # a small limit keeps the cost of a missing check small
        monkeypatch.setattr(graph_mod, "MAX_EDGE_LIST_NODES", 10)
        params = (n, 3, 0.5) if kind == "random" else (n,)
        with pytest.raises(GraphError, match="^n 11 exceeds the limit of 10$"):
            generate(kind, *params, seed=1)
        params = (n - 1, 3, 0.5) if kind == "random" else (n - 1,)
        assert generate(kind, *params, seed=1).node_count == 10

    def test_generate_dispatcher(self):
        assert generate("cycle", 5) == cycle_edges(5)
        assert generate("random", 10, 3, 0.5, seed=1) == random_bounded_edges(10, 3, 0.5, 1)
        assert generate("random", "10", "3", "0.5", seed=1) == random_bounded_edges(10, 3, 0.5, 1)
        with pytest.raises(GraphError):
            generate("torus", 5)
        with pytest.raises(GraphError, match="--seed"):
            generate("random", 10, 3, 0.5)


class TestSerialization:
    def test_k2_exact_text(self):
        assert serialize(k2()) == "2 1\n0 1 1\n1 1 0\n"

    def test_empty_graph(self):
        g = from_edge_list(EdgeList.from_pairs(0, []))
        assert serialize(g) == "0 0\n"
        assert parse("0 0\n") == g

    def test_round_trip_4_cycle(self):
        g = from_edge_list(cycle_edges(4))
        assert parse(serialize(g)) == g

    def test_round_trip_permuted(self):
        g = permute_ports(from_edge_list(clique_edges(5)), 3)
        assert parse(serialize(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n2 1\n\n0 1 1\n1 1 0\n"
        assert parse(text) == k2()

    def test_parse_error_carries_line_number(self):
        # `int` alone reads `1_0` as 10 and `٢` as 2
        for token in ("x", "1_0", "٢"):
            with pytest.raises(ParseError, match="^line 2: non-integer token"):
                parse(f"2 1\n0 1 {token}\n1 1 0\n")

    def test_parse_rejects_unreciprocated(self):
        with pytest.raises(ParseError, match="not reciprocated"):
            parse("3 2\n0 1 1\n1 1 0\n2 1 0\n")

    def test_parse_rejects_wrong_edge_count(self):
        with pytest.raises(ParseError, match="claims 2 edges"):
            parse("2 2\n0 1 1\n1 1 0\n")

    def test_parse_rejects_degree_mismatch(self):
        with pytest.raises(ParseError, match="declares degree"):
            parse("2 1\n0 2 1\n1 1 0\n")

    def test_edge_list_round_trip(self):
        el = star_edges(3)
        assert parse_edge_list(serialize_edge_list(el)) == el

    def test_edge_list_parse_error(self):
        with pytest.raises(ParseError):
            parse_edge_list("2\n0 1 9\n")
        with pytest.raises(ParseError, match="self-loop"):
            parse_edge_list("2\n1 1\n")
        # an edge, or a node count, that the edge list refuses is reported
        # on the line that holds it
        for text, message, line in (
            ("-1\n", "node_count must be non-negative, got -1", 1),
            ("2\n0 1\n1 1\n", "self-loop at node 1", 3),
            ("3\n0 1\n# c\n1 2\n\n1 0\n", "duplicate edge {0, 1}", 6),
            ("2\n0 1\n0 2\n", "node id out of range in edge {0, 2}", 3),
            # only an optional sign and ASCII digits make an integer
            ("3\n0 ٢\n", "non-integer token in ['0', '٢']", 2),
            ("11\n1_0 2\n", "non-integer token in ['1_0', '2']", 2),
        ):
            with pytest.raises(ParseError) as exc:
                parse_edge_list(text)
            assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
    def test_empty_input_messages(self, text):
        for parser, expected in (
            (parse, "empty input, expected `n m` header"),
            (parse_edge_list, "empty input, expected node count header"),
        ):
            with pytest.raises(ParseError) as exc:
                parser(text)
            assert (str(exc.value), exc.value.line) == (expected, None)

    def test_edge_list_line_numbers_count_skipped_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("# c\n2\n\n0 1 9\n")
        assert (str(exc.value), exc.value.line) == ("line 4: edge line must be `u v`", 4)

    def test_edge_list_node_cap(self):
        cap = MAX_EDGE_LIST_NODES
        assert parse_edge_list(f"{cap}\n0 1\n").node_count == cap
        with pytest.raises(ParseError, match=f"line 1: node count {cap + 1} exceeds"):
            parse_edge_list(f"{cap + 1}\n0 1\n")


# A reader's peak over the port table it returns. The table is the one thing
# a reader must hold; holding the tokens of a whole `.pg` text, or the
# per-node position dicts next to the built rows, takes the ratio past 2.
READER_PEAK_RATIO = 1.6


def _sparse_edges() -> EdgeList:
    """A seeded random graph: n = 5000, degree cap 10, mean degree about 6."""
    return random_bounded_edges(5000, 10, 6 / 5000, seed=3)


class TestReaderPeak:
    @staticmethod
    def _assert_peak_near_table(f, *args):
        peak, retained = peak_bytes(f, *args)
        assert peak <= READER_PEAK_RATIO * retained, (peak, retained, peak / retained)

    @pytest.mark.parametrize("g", [
        lambda: permute_ports(from_edge_list(clique_edges(300)), 7),
        lambda: from_edge_list(_sparse_edges(), "random", 5),
    ], ids=["clique", "sparse"])
    def test_parse_peaks_at_its_port_table(self, g):
        self._assert_peak_near_table(parse, serialize(g()))

    @pytest.mark.parametrize("policy,seed", [("sorted", None), ("random", 5)])
    def test_from_edge_list_peaks_at_its_port_table(self, policy, seed):
        self._assert_peak_near_table(from_edge_list, _sparse_edges(), policy, seed)

    def test_permute_ports_peaks_at_its_port_table(self):
        self._assert_peak_near_table(permute_ports, from_edge_list(_sparse_edges()), 9)


class TestRelabel:
    def test_relabel_preserves_port_structure(self):
        from reference_graph import relabel

        g = g_from_pairs(3, [(0, 1), (1, 2)])
        perm = [2, 0, 1]
        r = relabel(g, perm)
        assert validate(r) == []
        for v in range(3):
            for j in range(1, len(g.ports[v]) + 1):
                u, k = g.ports[v][j - 1]
                assert r.ports[perm[v]][j - 1] == (perm[u], k)
