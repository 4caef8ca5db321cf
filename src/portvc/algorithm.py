"""Per-node transition functions for the proposal-based cover protocol.

Both transitions are pure functions of (state, inbox); they know nothing
about the engine or the global graph. Odd steps scan ports with a counter
and propose; even steps answer the proposals received, accepting at most
one neighbour ever.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ProtocolFault


class Msg(enum.Enum):
    PROPOSE = "propose"
    ACCEPT = "accept"
    REJECT = "reject"


class NodeState(NamedTuple):
    """Algorithm state of one node.

    `a` is the port of the accepted outgoing proposal, `b` the port of the
    accepted incoming one, `i` the proposal scan counter, `c` the cover
    membership flag. `a` and `b` are never overwritten once set; `i` never
    decreases; `c` never goes true -> false.
    """

    degree: int
    a: int | None = None
    b: int | None = None
    i: int = 0
    c: bool = False


def odd_step(
    state: NodeState, inbox: tuple[int, Msg] | None
) -> tuple[NodeState, tuple[int, Msg] | None]:
    """Odd time step: read the pending response, advance the scan, propose.

    The inbox holds at most the single response to this node's outstanding
    proposal, delivered on port `i`. Any other delivery is an engine fault.
    """
    if inbox is not None:
        port, msg = inbox
        expected = (
            state.a is None
            and 1 <= state.i <= state.degree
            and port == state.i
            and msg is not Msg.PROPOSE
        )
        if not expected:
            raise ProtocolFault(
                f"unexpected odd-step delivery ({msg.value!r} on port {port}) "
                f"in state a={state.a} i={state.i} d={state.degree}"
            )

    a, i, c = state.a, state.i, state.c
    if inbox is not None and inbox[1] is Msg.ACCEPT:
        a = i
        c = True
    # a reject is read and discarded; only accept mutates the state
    if a is None and i <= state.degree:
        i += 1
    outbox = None
    if a is None and i <= state.degree:
        outbox = (i, Msg.PROPOSE)
    if a == state.a and i == state.i and c == state.c:
        return state, outbox
    return state._replace(a=a, i=i, c=c), outbox


def even_step(
    state: NodeState, inbox: list[tuple[int, Msg]]
) -> tuple[NodeState, list[tuple[int, Msg]]]:
    """Even time step: answer every proposal, accepting the first if free.

    Proposals are handled in increasing port order; the first one finding
    `b` unset is accepted (setting `b` and the cover flag), all others are
    rejected. Non-proposal deliveries are engine faults.
    """
    proposals = []
    seen_ports: set[int] = set()
    for port, msg in inbox:
        if msg is not Msg.PROPOSE or port in seen_ports or not 1 <= port <= state.degree:
            raise ProtocolFault(f"unexpected even-step delivery ({msg.value!r} on port {port})")
        seen_ports.add(port)
        proposals.append(port)

    outbox: list[tuple[int, Msg]] = []
    b, c = state.b, state.c
    for port in sorted(proposals):
        if b is None:
            outbox.append((port, Msg.ACCEPT))
            b = port
            c = True
        else:
            outbox.append((port, Msg.REJECT))
    if b == state.b and c == state.c:
        return state, outbox
    return state._replace(b=b, c=c), outbox
