import pytest

from portvc.algorithm import Msg
from portvc.checks import analyze
from portvc.double_cover import (
    build_double_cover,
    extract_matching,
    project_cover,
    project_matching_edges,
)
from portvc.errors import AnalysisFault
from portvc.graph import EdgeList, PortGraph, from_edge_list, permute_ports
from portvc.simulator import TranscriptEntry, run

from conftest import clique, cycle, k2, peak_bytes, star
from reference_double_cover import reference_copy_edges
from reference_engine import flatten


class TestBuildDoubleCover:
    """The copy edges {B(v), W(u)} that `extract_matching` reads from the
    port table, materialised by `reference_copy_edges`."""

    def test_k2_two_disjoint_edges(self):
        assert reference_copy_edges(k2()) == frozenset({(0, 3), (1, 2)})

    def test_sizes(self):
        g = cycle(5)
        assert len(reference_copy_edges(g)) == 2 * g.num_edges

    def test_empty_matching(self):
        assert build_double_cover(cycle(5)).mate == (-1,) * 5

    def test_triangle_becomes_six_cycle(self):
        adj: dict[int, set[int]] = {}
        for b, w in reference_copy_edges(clique(3)):
            adj.setdefault(b, set()).add(w)
            adj.setdefault(w, set()).add(b)
        assert all(len(nbrs) == 2 for nbrs in adj.values())
        # connected 2-regular on 6 nodes: a single 6-cycle
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert len(seen) == 6

    def test_square_becomes_two_squares(self):
        comps = 0
        seen: set[int] = set()
        adj: dict[int, set[int]] = {}
        for b, w in reference_copy_edges(cycle(4)):
            adj.setdefault(b, set()).add(w)
            adj.setdefault(w, set()).add(b)
        for v in sorted(adj):
            if v in seen:
                continue
            comps += 1
            frontier = [v]
            seen.add(v)
            while frontier:
                x = frontier.pop()
                for u in adj[x]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
        assert comps == 2


class TestExtractMatching:
    def test_k2_both_edges_matched(self):
        g = k2()
        _, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert h.mate == (1, 0)  # B(0)-W(1) and B(1)-W(0)

    def test_star_matching(self):
        g = star(3)
        _, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        # leaf 1's proposal accepted by the centre, and vice versa
        assert h.mate == (1, 0, -1, -1)

    def test_empty_graph_empty_matching(self):
        g = from_edge_list(EdgeList.from_pairs(3, []))
        _, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert h.mate == (-1, -1, -1)

    def test_forged_double_accept_is_a_fault(self):
        g = star(3)
        _, tr = run(g)
        forged = tr.entries + (TranscriptEntry(4, 0, 2, Msg.ACCEPT),)
        with pytest.raises(AnalysisFault, match="matched twice"):
            extract_matching(build_double_cover(g), flatten(forged))

    def test_dropped_accept_breaks_maximality(self):
        g = k2()
        _, tr = run(g)
        pruned = tuple(
            e for e in tr.entries if not (e.kind is Msg.ACCEPT and e.sender == 0)
        )
        # B(0) and W(1) stay matched; the first port entry in (v, port)
        # order with neither copy matched is (1 -> 0), the copy edge (1, 2)
        with pytest.raises(AnalysisFault, match=r"not maximal: edge \(1, 2\) has no"):
            extract_matching(build_double_cover(g), flatten(pruned))

    def test_accept_on_unreciprocated_port_is_a_fault(self):
        # port 1 of node 0 leads to node 1, whose port 1 leads on to node 2
        g = PortGraph((((1, 1),), ((2, 1),), ((1, 1),)))
        accept = (TranscriptEntry(2, 0, 1, Msg.ACCEPT),)
        with pytest.raises(AnalysisFault, match=r"^accepted proposal maps to non-edge \(1, 3\)$"):
            extract_matching(build_double_cover(g), flatten(accept))

    @pytest.mark.parametrize("sender,port", [(9, 1), (0, 5), (0, 0), (-1, 1)])
    def test_forged_accept_off_the_port_table_is_a_fault(self, sender, port):
        """An accept from no node, or on no port of its sender, is named as
        such: never an `IndexError`, and never wrapped round by a negative
        index to another node's port."""
        g = star(3)
        _, tr = run(g)
        forged = tr.entries + (TranscriptEntry(4, sender, port, Msg.ACCEPT),)
        with pytest.raises(
            AnalysisFault, match=rf"^accept at step 4 from node {sender} names no port {port}$"
        ):
            extract_matching(build_double_cover(g), flatten(forged))


class TestFlatFaults:
    """Each `extract_matching` fault, from a transcript in the flat form:
    four slots per send, step, sender, sender port and kind text."""

    def test_accept_names_no_port(self):
        with pytest.raises(AnalysisFault, match=r"^accept at step 2 from node 0 names no port 5$"):
            extract_matching(build_double_cover(k2()), (2, 0, 5, "accept"))

    def test_accept_maps_to_non_edge(self):
        g = PortGraph((((1, 1),), ((2, 1),), ((1, 1),)))
        with pytest.raises(AnalysisFault, match=r"^accepted proposal maps to non-edge \(1, 3\)$"):
            extract_matching(build_double_cover(g), (2, 0, 1, "accept"))

    @pytest.mark.parametrize("u", [3, -1])
    def test_accept_answered_from_no_node(self, u):
        # port 1 of node 0 names node u, which does not exist: never an
        # `IndexError`, and never wrapped round by -1 to node 2, whose port 1
        # leads back to node 0
        g = PortGraph((((u, 1),), ((2, 1),), ((0, 1),)))
        with pytest.raises(AnalysisFault, match=rf"^accepted proposal maps to non-edge \({u}, 3\)$"):
            extract_matching(build_double_cover(g), (2, 0, 1, "accept"))

    def test_accept_on_a_port_numbered_below_one(self):
        # node 1's port 1 claims node 0's port -1: never read as node 0's
        # last port, (1, 1), which would make the accept an edge
        g = PortGraph((((1, 1), (1, 1)), ((0, -1),)))
        with pytest.raises(AnalysisFault, match=r"^accepted proposal maps to non-edge \(0, 3\)$"):
            extract_matching(build_double_cover(g), (2, 1, 1, "accept"))

    def test_black_copy_matched_twice(self):
        # leaves 1 and 2 both accept the centre's proposal: B(0) twice
        flat = (2, 1, 1, "accept", 2, 2, 1, "accept")
        with pytest.raises(AnalysisFault, match=r"^black copy of node 0 matched twice$"):
            extract_matching(build_double_cover(star(3)), flat)

    def test_white_copy_matched_twice(self):
        # the centre accepts on ports 1 and 2: W(0) twice
        flat = (2, 0, 1, "accept", 2, 0, 2, "accept")
        with pytest.raises(AnalysisFault, match=r"^white copy of node 0 matched twice$"):
            extract_matching(build_double_cover(star(3)), flat)

    def test_matching_not_maximal(self):
        # proposals and rejects match nothing
        flat = (1, 0, 1, "propose", 2, 1, 1, "reject")
        with pytest.raises(
            AnalysisFault, match=r"^matching not maximal: edge \(0, 3\) has no matched endpoint$"
        ):
            extract_matching(build_double_cover(k2()), flat)


class TestProjection:
    def test_k2(self):
        g = k2()
        res, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert project_cover(h) == res.cover == frozenset({0, 1})
        assert project_matching_edges(h) == res.partner

    def test_star(self):
        g = star(3)
        res, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert project_cover(h) == frozenset({0, 1})
        assert project_matching_edges(h) == (1, 0, -1, -1)

    def test_empty_matching_projects_to_nothing(self):
        g = from_edge_list(EdgeList.from_pairs(2, []))
        _, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert project_cover(h) == frozenset()

    @pytest.mark.parametrize("maker,arg", [(cycle, 5), (cycle, 6), (star, 4), (clique, 4)])
    def test_projection_matches_simulator(self, maker, arg):
        g = maker(arg)
        res, tr = run(g)
        h = extract_matching(build_double_cover(g), tr.flat)
        assert project_cover(h) == res.cover
        assert project_matching_edges(h) == res.partner


def test_analyze_peak_memory_close_to_run():
    """`analyze` reads the port table instead of building m-sized edge sets,
    so on a dense graph its peak stays within a small factor of `run`'s."""
    g = permute_ports(clique(400), 7)
    run_peak, _ = peak_bytes(run, g)
    analyze_peak, _ = peak_bytes(analyze, g)
    assert analyze_peak <= 3 * run_peak, (analyze_peak, run_peak)
