import pytest

from portvc.algorithm import Msg, NodeState, even_step, odd_step
from portvc.errors import ProtocolFault


class TestOddStep:
    def test_first_step_proposes_on_port_1(self):
        s = NodeState(degree=1)
        s2, out = odd_step(s, None)
        assert s2 == NodeState(degree=1, i=1)
        assert out == (1, Msg.PROPOSE)

    def test_accept_sets_a_and_cover_flag(self):
        s = NodeState(degree=1, i=1)
        s2, out = odd_step(s, (1, Msg.ACCEPT))
        assert s2 == NodeState(degree=1, a=1, i=1, c=True)
        assert out is None

    def test_reject_advances_past_last_port(self):
        s = NodeState(degree=1, i=1)
        s2, out = odd_step(s, (1, Msg.REJECT))
        assert s2 == NodeState(degree=1, i=2)
        assert out is None

    def test_settled_node_is_inert(self):
        s = NodeState(degree=3, a=2, i=2, c=True)
        s2, out = odd_step(s, None)
        assert s2 is s
        assert out is None

    def test_reject_then_next_proposal(self):
        s = NodeState(degree=3, i=1)
        s2, out = odd_step(s, (1, Msg.REJECT))
        assert s2 == NodeState(degree=3, i=2)
        assert out == (2, Msg.PROPOSE)

    def test_degree_zero_node_stays_silent(self):
        s = NodeState(degree=0)
        s2, out = odd_step(s, None)
        assert out is None
        assert s2.c is False
        assert s2.a is None

    def test_delivery_on_wrong_port_is_a_fault(self):
        s = NodeState(degree=3, i=2)
        with pytest.raises(ProtocolFault):
            odd_step(s, (1, Msg.REJECT))

    def test_propose_at_odd_step_is_a_fault(self):
        s = NodeState(degree=2, i=1)
        with pytest.raises(ProtocolFault):
            odd_step(s, (1, Msg.PROPOSE))

    def test_delivery_to_settled_node_is_a_fault(self):
        s = NodeState(degree=2, a=1, i=1, c=True)
        with pytest.raises(ProtocolFault):
            odd_step(s, (1, Msg.ACCEPT))

    def test_pure(self):
        s = NodeState(degree=2, i=1)
        assert odd_step(s, (1, Msg.REJECT)) == odd_step(s, (1, Msg.REJECT))


class TestEvenStep:
    def test_accepts_lowest_port_rejects_rest(self):
        s = NodeState(degree=3)
        s2, out = even_step(s, [(3, Msg.PROPOSE), (1, Msg.PROPOSE)])
        assert s2 == NodeState(degree=3, b=1, c=True)
        assert out == [(1, Msg.ACCEPT), (3, Msg.REJECT)]

    def test_already_taken_rejects_all(self):
        s = NodeState(degree=3, b=2, c=True)
        s2, out = even_step(s, [(1, Msg.PROPOSE)])
        assert s2 is s
        assert out == [(1, Msg.REJECT)]

    def test_empty_inbox_is_noop(self):
        s = NodeState(degree=2)
        s2, out = even_step(s, [])
        assert s2 is s
        assert out == []

    def test_one_response_per_proposal(self):
        s = NodeState(degree=4)
        _, out = even_step(s, [(2, Msg.PROPOSE), (4, Msg.PROPOSE), (3, Msg.PROPOSE)])
        assert len(out) == 3
        assert sorted(p for p, _ in out) == [2, 3, 4]

    def test_non_propose_is_a_fault(self):
        s = NodeState(degree=2)
        with pytest.raises(ProtocolFault):
            even_step(s, [(1, Msg.ACCEPT)])

    def test_duplicate_port_is_a_fault(self):
        s = NodeState(degree=2)
        with pytest.raises(ProtocolFault):
            even_step(s, [(1, Msg.PROPOSE), (1, Msg.PROPOSE)])

    def test_pure(self):
        s = NodeState(degree=3)
        inbox = [(2, Msg.PROPOSE), (1, Msg.PROPOSE)]
        assert even_step(s, inbox) == even_step(s, inbox)
