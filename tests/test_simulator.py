import re
from collections import Counter

import pytest

from portvc.algorithm import Msg
from portvc.errors import ProtocolFault
from portvc.graph import EdgeList, PortGraph, from_edge_list, permute_ports
from portvc.simulator import (
    TranscriptEntry,
    format_transcript,
    horizon_for,
    parse_transcript,
    replay,
    run,
)

from conftest import consistent_cycle, cycle, g_from_pairs, k2, pair_edges, path, star
from reference_engine import flatten, reference_run
from reference_graph import edge_set


class TestRun:
    def test_k2_mutual_accept(self):
        res, tr = run(k2())
        assert res.cover == frozenset({0, 1})
        assert res.partner == (1, 0)
        assert res.rounds_run == 3
        assert res.last_active_step == 2
        kinds = Counter(e.kind for e in tr.entries)
        assert kinds == {Msg.PROPOSE: 2, Msg.ACCEPT: 2}

    def test_star_covers_centre_and_first_leaf(self):
        # star(20000): activity ends at step 2 of a 40001-step horizon
        for leaves in (3, 20_000):
            res, _ = run(star(leaves))
            assert res.cover == frozenset({0, 1})
            assert pair_edges(res) == frozenset({(0, 1)})
            assert res.rounds_run == 2 * leaves + 1
            assert res.last_active_step == 2

    def test_consistent_cycle_covers_everything(self):
        g = consistent_cycle(4)
        res, _ = run(g)
        assert res.cover == frozenset({0, 1, 2, 3})
        assert pair_edges(res) == edge_set(g)

    def test_isolated_nodes_never_covered(self):
        g = from_edge_list(EdgeList.from_pairs(5, []))
        res, tr = run(g)
        assert res.cover == frozenset()
        assert res.rounds_run == 1  # delta = 0 still runs a single step
        assert tr.entries == ()
        assert res.last_active_step == 0

    def test_deterministic(self):
        g = permute_ports(cycle(7), 5)
        assert run(g) == run(g)

    def test_final_states_within_port_range(self):
        g = permute_ports(star(6), 9)
        res, _ = run(g)
        for v, row in enumerate(g.ports):
            assert 0 <= res.accepted[v] <= len(row)
            assert res.partner[v] == -1 or res.partner[v] in [u for u, _ in row]

    def test_message_conservation(self):
        g = permute_ports(cycle(9), 2)
        _, tr = run(g)
        by_step: dict[int, Counter] = {}
        for e in tr.entries:
            by_step.setdefault(e.time_step, Counter())[e.kind] += 1
        for t, kinds in by_step.items():
            if t % 2 == 1:
                assert set(kinds) == {Msg.PROPOSE}
                responses = by_step.get(t + 1, Counter())
                assert responses[Msg.ACCEPT] + responses[Msg.REJECT] == kinds[Msg.PROPOSE]
            else:
                assert Msg.PROPOSE not in kinds

    def test_propose_budget_per_node(self):
        g = path(6)
        _, tr = run(g)
        proposals = Counter(e.sender for e in tr.entries if e.kind is Msg.PROPOSE)
        for v, count in proposals.items():
            assert count <= len(g.ports[v])

    def test_quiescent_after_two_delta(self):
        for g in [k2(), star(4), cycle(5), path(7)]:
            res, _ = run(g)
            assert res.last_active_step <= 2 * g.max_degree

    def test_extra_steps_change_nothing(self):
        g = permute_ports(cycle(6), 8)
        res, tr = run(g)
        res2, tr2, history = reference_run(g, extra_steps=2, record_history=True)
        assert tr2.entries == tr.entries
        assert history[-1] == history[-3]  # the states at the horizon and past it
        assert (res2.cover, res2.partner, res2.accepted) == (res.cover, res.partner, res.accepted)

    def test_monotone_state_evolution(self):
        g = permute_ports(star(5), 4)
        _, _, history = reference_run(g, record_history=True)
        for before, after in zip(history, history[1:]):
            for sb, sa in zip(before, after):
                assert sa.i >= sb.i
                assert sb.c <= sa.c
                if sb.a is not None:
                    assert sa.a == sb.a
                if sb.b is not None:
                    assert sa.b == sb.b

    def test_horizon(self):
        assert horizon_for(k2()) == 3
        assert horizon_for(from_edge_list(EdgeList.from_pairs(3, []))) == 1


class TestMalformedTables:
    """A malformed port table built in code is refused by `run`, with a
    `ProtocolFault` naming the step and the node."""

    @pytest.mark.parametrize("u", [-1, 5])
    def test_proposal_to_no_node_is_refused(self, u):
        # -1 must not be read as node 1, and 5 must not be an `IndexError`
        g = PortGraph((((u, 1),), ((0, 1),)))
        with pytest.raises(
            ProtocolFault, match=rf"^step 1, node 0: proposal on port 1 to node {u}, outside 0..1$"
        ):
            run(g)

    def test_first_proposer_in_id_order_is_named(self):
        # node 0 rejects the proposals of nodes 2 and 3, which then propose
        # on their port 2, to nodes -1 and 4: both ends of the receivers
        g = PortGraph((((1, 1), (2, 1), (3, 1)), ((0, 1),), ((0, 2), (-1, 1)),
                       ((0, 3), (4, 1))))
        with pytest.raises(
            ProtocolFault, match=r"^step 3, node 2: proposal on port 2 to node -1, outside 0..3$"
        ):
            run(g)

    def test_response_to_no_node_is_refused(self):
        # node 0 receives proposals on its ports 2 and 3, and accepts the
        # first through its port 2, whose entry names node 4
        g = PortGraph((((1, 2), (4, 0), (2, 1)), ((2, 2), (0, 1)), ((0, 3), (1, 1)),
                       ((0, 2),)))
        with pytest.raises(
            ProtocolFault, match=r"^step 2, node 0: accept on port 2 to node 4, outside 0..3$"
        ):
            run(g)

    def test_reject_to_no_node_is_refused(self):
        # node 0 accepts node 1's proposal on port 1 and rejects node 2's on
        # port 2, through the entry that names node 5
        g = PortGraph((((1, 1), (5, 1)), ((0, 1),), ((0, 2),)))
        with pytest.raises(
            ProtocolFault, match=r"^step 2, node 0: reject on port 2 to node 5, outside 0..2$"
        ):
            run(g)

    @pytest.mark.parametrize("ports, message", [
        # a response sent at step 4: node 0 rejects node 2, which proposes to
        # node 1; node 1, already paired with node 0, rejects it through the
        # entry that names node 9
        ((((1, 1), (2, 1)), ((0, 1), (9, 1)), ((0, 2), (1, 2))),
         "step 4, node 1: reject on port 2 to node 9, outside 0..2"),
        # nodes 0 and 3 each reject one proposal toward no node at step 2;
        # the first sent, node 0's, is named
        ((((1, 1), (7, 1)), ((0, 1),), ((0, 2),), ((4, 1), (8, 1)), ((3, 1),), ((3, 2),)),
         "step 2, node 0: reject on port 2 to node 7, outside 0..5"),
        # proposals to nodes -1 and 9 at step 1: both ends of the range fail
        ((((1, 1),), ((-1, 1),), ((9, 1),)),
         "step 1, node 1: proposal on port 1 to node -1, outside 0..2"),
        # read as node 1, node -1 would answer node 0 through a reciprocal
        # entry, so only a range check on the receiver refuses it
        ((((-1, 2), (1, 1)), ((0, 2), (0, 1))),
         "step 1, node 0: proposal on port 1 to node -1, outside 0..1"),
    ])
    def test_first_send_to_no_node_is_named(self, ports, message):
        with pytest.raises(ProtocolFault, match=rf"^{re.escape(message)}$"):
            run(PortGraph(ports))

    @pytest.mark.parametrize("ports, message", [
        # port 0 would read the last entry of node 1's row, which names node 0
        # on port 1 as if the table were reciprocal
        ((((1, 0),), ((0, 1),)),
         "step 2, node 1: unexpected even-step delivery ('propose' on port 0)"),
        # port 2 of a node of degree 1
        ((((1, 2),), ((0, 1),)),
         "step 2, node 1: unexpected even-step delivery ('propose' on port 2)"),
        # nodes 0 and 2 both propose to node 1's port 1
        ((((1, 1),), ((0, 1),), ((1, 1),)),
         "step 2, node 1: unexpected even-step delivery ('propose' on port 1)"),
        # node 0's port 1 names itself: both proposals reach node 0, and so
        # do both its answers
        ((((0, 2), (0, 3)), ((0, 1),)),
         "step 3, node 0: 2 odd-step deliveries"),
        # node 1's answer comes back to node 0 on port 2, not the port 1 it
        # proposed on
        ((((1, 1), (1, 1)), ((0, 2),)),
         "step 3, node 0: unexpected odd-step delivery ('accept' on port 2) "
         "in state a=None i=1 d=2"),
        # node 0's port 1 names its own port 2, so it accepts its own
        # proposal through port 2, whose entry names node 1: an answer
        # reaches a node of degree 0, which never proposed
        ((((0, 2), (1, 1)), ()),
         "step 3, node 1: unexpected odd-step delivery ('accept' on port 1) "
         "in state a=None i=1 d=0"),
        # node 0, paired with itself in round 1, receives in round 2 its own
        # reject of node 1's proposal, with no proposal of its own out
        ((((0, 1), (1, 1)), ((0, 2), (0, 1))),
         "step 5, node 0: unexpected odd-step delivery ('reject' on port 1) "
         "in state a=1 i=1 d=2"),
    ])
    def test_round_fault_is_named(self, ports, message):
        with pytest.raises(ProtocolFault, match=rf"^{re.escape(message)}$"):
            run(PortGraph(ports))


class TestTranscriptText:
    def test_round_trip(self):
        _, tr = run(star(3))
        text = format_transcript(tr.flat)
        assert parse_transcript(text) == flatten(
            sorted(tr.entries, key=lambda e: (e.time_step, e.sender, e.sender_port))
        )

    def test_k2_golden_text(self):
        _, tr = run(k2())
        assert format_transcript(tr.flat) == (
            "1 0 1 propose\n1 1 1 propose\n2 0 1 accept\n2 1 1 accept\n"
        )

    def test_parse_rejects_garbage(self):
        from portvc.errors import ProtocolFault

        with pytest.raises(ProtocolFault, match="line 1"):
            parse_transcript("1 0 propose\n")
        for text in ("1 0 1_0 propose\n", "1 ٠ 1 propose\n"):
            with pytest.raises(ProtocolFault, match=r"^transcript line 1: malformed entry$"):
                parse_transcript(text)

    @pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n"])
    def test_empty_transcript_parses_to_nothing(self, text):
        assert parse_transcript(text) == ()

    def test_error_line_numbers_count_skipped_lines(self):
        from portvc.errors import ProtocolFault

        with pytest.raises(ProtocolFault, match=r"^transcript line 4: expected `t v port kind`$"):
            parse_transcript("# c\n1 0 1 propose\n\n1 0 propose\n")
        with pytest.raises(ProtocolFault, match=r"^transcript line 3: malformed entry$"):
            parse_transcript("\n# c\n1 0 1 offer\n")


class TestReplay:
    def test_genuine_transcript_is_clean(self):
        g = permute_ports(cycle(6), 1)
        _, tr = run(g)
        assert replay(g, format_transcript(tr.flat)) == []

    def test_reordered_complete_transcript_is_clean(self):
        g = permute_ports(cycle(6), 1)
        _, tr = run(g)
        shuffled = tuple(reversed(tr.entries))
        assert shuffled != tr.entries
        assert replay(g, format_transcript(flatten(shuffled))) == []

    def test_flipped_entry_detected(self):
        g = k2()
        _, tr = run(g)
        corrupted = tuple(
            TranscriptEntry(e.time_step, e.sender, e.sender_port,
                            Msg.REJECT if e.kind is Msg.ACCEPT and e.sender == 0 else e.kind)
            for e in tr.entries
        )
        violations = replay(g, format_transcript(flatten(corrupted)))
        assert any("not derivable" in v for v in violations)
        assert any("missing" in v for v in violations)

    def test_transcript_of_other_numbering_detected(self):
        g = g_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        _, tr = run(g)
        g_permuted = permute_ports(g, 6)
        assert run(g_permuted)[1].entries != tr.entries  # seed chosen to differ
        assert replay(g_permuted, format_transcript(tr.flat)) != []
