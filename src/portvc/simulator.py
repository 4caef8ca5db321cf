"""Synchronous round engine for the anonymous port-numbering model.

Time steps are 1-based; step 1 is odd. A message sent at step t through
port j of node v is delivered at step t+1 on the reciprocal port of the
neighbour. Every send is recorded as four slots of one flat tuple, the
transcript: step, sender, sender port and kind text. `run` returns it as
`Transcript.flat`; `format_transcript` and `parse_transcript` convert it to
and from the text form, which `replay` takes. `Transcript.entries` builds
one `TranscriptEntry` per send from it, again on each read.

The protocol's horizon is max(1, 2*max_degree + 1) steps, and `rounds_run`
reports it. A node's state and output are `a` and `b`, the ports of its
accepted proposals, 0 for none: at step 2r-1 each node with none accepted
proposes on its port r, if it has one. Step 1 scans every node; later steps
visit only the proposers of two steps earlier, or the receivers of
proposals. The run stops at the first step that sends nothing. Each node
proposes at most d(v) times, so it costs O(n + m). `CoverResult` holds the
outputs as node-indexed arrays: `cover`, the nodes with `a` or `b` set;
`partner`, the neighbour behind port `a`, or -1; `accepted`, port `b`.

The transitions in `algorithm` remain the specification. Any delivery the
engine does not expect goes to one helper, `_fault`. It raises the fault a
step-by-step run meets first: the first send of the step before to no node,
else the lowest node whose delivery the transitions refuse.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple, NoReturn

from .algorithm import Msg, NodeState, even_step, odd_step
from .errors import ProtocolFault
from .graph import PortGraph, _lines, _plain_ints

PROPOSE, ACCEPT, REJECT = Msg.PROPOSE, Msg.ACCEPT, Msg.REJECT
# kind text -> its `Msg`, and -> the one copy of the text that parsed kinds share
_MSG = {m.value: m for m in Msg}
_KIND_TEXT = {m.value: m.value for m in Msg}


class TranscriptEntry(NamedTuple):
    time_step: int
    sender: int
    sender_port: int
    kind: Msg


class Transcript(NamedTuple):
    """Every send as (step, sender, sender port, kind text) in `flat`."""

    flat: tuple[int | str, ...]

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        f = self.flat
        return tuple(map(TranscriptEntry, f[0::4], f[1::4], f[2::4], map(_MSG.__getitem__, f[3::4])))


class CoverResult(NamedTuple):
    cover: frozenset[int]
    partner: tuple[int, ...]  # per node: where its accepted proposal went, or -1
    accepted: tuple[int, ...]  # per node: the port of its accepted incoming proposal, or 0
    rounds_run: int
    last_active_step: int

    @property
    def cover_size(self) -> int:
        return len(self.cover)


def horizon_for(g: PortGraph) -> int:
    return max(1, 2 * g.max_degree + 1)


def run(g: PortGraph) -> tuple[CoverResult, Transcript]:
    """Execute the protocol on g until no message is in flight.

    `rounds_run` is the full horizon. Deterministic: identical inputs yield
    identical outputs.
    """
    n = g.node_count
    ports = g.ports
    deg = [len(p) for p in ports]
    # node state: the ports of the accepted outgoing and incoming proposals
    a = [0] * n
    b = [0] * n
    horizon = horizon_for(g)
    flat: list[int | str] = []
    extend = flat.extend
    sent = 0  # where the current step's sends begin in `flat`
    last_active = 0
    # deliveries for the current step: (port, response) pairs at odd steps,
    # proposal ports at even steps, each list in arrival order
    responses: defaultdict[int, list[tuple[int, Msg]]] = defaultdict(list)
    proposals: defaultdict[int, list[int]] = defaultdict(list)
    proposers: range | list[int] = range(n)  # step 1 scans every node

    for t in range(1, horizon + 1):
        begun, sent = sent, len(flat)  # step t - 1 sent flat[begun:sent]
        if t % 2:
            if responses and not responses.keys() <= set(proposers):
                _fault(ports, a, b, t, flat[begun:sent], responses)
            asked = t // 2  # the port every proposer of step t - 2 proposed on
            visit, proposers = proposers, []
            proposals = defaultdict(list)
            for v in visit:
                box = responses.get(v)
                if box is not None:
                    if len(box) > 1 or box[0][0] != asked:
                        _fault(ports, a, b, t, (), {v: box})
                    if box[0][1] is ACCEPT:  # only even steps respond, never with PROPOSE
                        a[v] = asked
                        continue
                if asked < deg[v]:
                    proposers.append(v)
                    extend((t, v, asked + 1, "propose"))
                    u, k = ports[v][asked]
                    proposals[u].append(k)
        else:
            responses = defaultdict(list)
            receivers = sorted(proposals)
            if receivers and (receivers[0] < 0 or receivers[-1] >= n):
                _fault(ports, a, b, t, flat[begun:sent], proposals)
            for v in receivers:
                arrived = proposals[v]
                box = sorted(arrived) if len(arrived) > 1 else arrived
                if box[0] < 1 or box[-1] > deg[v] or len(set(box)) < len(box):
                    _fault(ports, a, b, t, (), {v: arrived})
                for port in box:
                    if b[v]:
                        msg = REJECT
                        extend((t, v, port, "reject"))
                    else:
                        b[v] = port
                        msg = ACCEPT
                        extend((t, v, port, "accept"))
                    u, k = ports[v][port - 1]
                    responses[u].append((k, msg))
        if len(flat) == sent:
            break
        last_active = t

    cover = frozenset([v for v in range(n) if a[v] or b[v]])
    # v's accepted proposal went to the neighbour behind port a[v]
    partner = tuple([row[av - 1][0] if av else -1 for row, av in zip(ports, a)])
    return CoverResult(cover, partner, tuple(b), horizon, last_active), Transcript(tuple(flat))


def _fault(ports, a, b, t: int, sends, inboxes) -> NoReturn:
    """Raise the fault a step-by-step run meets first at step t: the first of
    step t - 1's flat `sends` to no node, else the lowest node in `inboxes`
    whose delivery the transitions refuse. A node's state is rebuilt from `a`,
    `b` and t: with no accepted proposal, its scan counter is the round."""
    for x in range(0, len(sends), 4):
        s, v, j, kind = sends[x : x + 4]
        u = ports[v][j - 1][0]
        if not 0 <= u < len(a):
            kind = "proposal" if kind == "propose" else kind
            raise ProtocolFault(f"step {s}, node {v}: {kind} on port {j} to node {u}, "
                                f"outside 0..{len(a) - 1}")
    for v in sorted(inboxes):
        box, d = inboxes[v], len(ports[v])
        if t % 2 and len(box) > 1:
            raise ProtocolFault(f"step {t}, node {v}: {len(box)} odd-step deliveries")
        av, bv = a[v] or None, b[v] or None
        state = NodeState(d, av, bv, av or min(t // 2, d + 1), bool(av or bv))
        step, inbox = (odd_step, box[0]) if t % 2 else (even_step, [(k, PROPOSE) for k in box])
        try:
            step(state, inbox)
        except ProtocolFault as exc:
            raise ProtocolFault(f"step {t}, node {v}: {exc}") from exc
    raise AssertionError(f"step {t}: no fault in {sends!r} or {dict(inboxes)!r}")


# ---------------------------------------------------------------------------
# Transcript text format and replay
# ---------------------------------------------------------------------------

def format_transcript(flat: tuple[int | str, ...]) -> str:
    """One `t v port kind` line per send of the flat form, in its order: for
    `Transcript.flat`, the (t, v, port) order in which `run` emits them."""
    return ("%d %d %d %s\n" * (len(flat) // 4)) % flat


def parse_transcript(text: str) -> tuple[int | str, ...]:
    """Inverse of `format_transcript`, in the flat form, read line by line.
    The first line that is not `t v port kind`, with integers and a known
    kind, is refused."""
    flat: list[int | str] = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if len(tokens) != 4:
            raise ProtocolFault(f"transcript line {lineno}: expected `t v port kind`")
        step, v, port, kind = tokens
        try:
            if not _plain_ints(line, tokens):
                raise ValueError
            flat += int(step), int(v), int(port), _KIND_TEXT[kind]
        except (KeyError, ValueError):
            raise ProtocolFault(f"transcript line {lineno}: malformed entry") from None
    return tuple(flat)


def replay(g: PortGraph, text: str) -> list[str]:
    """Re-derive the transcript of g and report where the transcript `text`
    differs from it as a multiset of sends: claimed sends not derivable,
    then derivable sends missing, each sorted. Text that is byte for byte
    `format_transcript` of the fresh run is accepted unparsed; any other
    text is parsed, with `parse_transcript`'s errors, and compared."""
    fresh = run(g)[1].flat
    if text == format_transcript(fresh):
        return []
    flat = parse_transcript(text)
    claimed, derived = (Counter(zip(f[0::4], f[1::4], f[2::4], f[3::4])) for f in (flat, fresh))
    return ([f"claimed entry not derivable: {e}" for e in sorted((claimed - derived).elements())]
            + [f"missing entry: {e}" for e in sorted((derived - claimed).elements())])
