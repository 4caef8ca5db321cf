"""Synchronous round engine for the anonymous port-numbering model.

Time steps are 1-based; step 1 is odd. A message sent at step t through
port j of node v is delivered at step t+1 on the reciprocal port of the
neighbour. Every send is recorded in a transcript, as four slots of one flat
tuple: step, sender, sender port and kind text. `Transcript.entries` builds
one `TranscriptEntry` per send from it, when something first reads it.

The protocol's horizon is max(1, 2*max_degree + 1) steps, and `rounds_run`
reports it. The engine steps only the nodes with a message in flight: step 1
scans every node; after that an odd step visits the nodes that proposed two
steps earlier, and an even step the receivers of proposals. It stops at the
first step that sends nothing, because no node can act after one. Each node
proposes at most d(v) times, so a run costs O(n + m).

The pure transition functions in `algorithm` remain the specification: any
delivery the engine does not expect is handed to them, so a malformed port
table raises the same `ProtocolFault` they raise. A proposal, accept or
reject sent through a port entry that names no node is refused by the
engine itself, naming the sending node and port.

`CoverResult.partner` holds the run's pair relation as one int per node:
the neighbour behind the port of its accepted proposal, or -1.
"""
from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, NoReturn

from .algorithm import Msg, NodeState, even_step, odd_step
from .errors import ProtocolFault
from .graph import PortGraph, _rows

PROPOSE, ACCEPT, REJECT = Msg.PROPOSE, Msg.ACCEPT, Msg.REJECT
# kind text -> its `Msg`, and -> the one copy of the text that parsed kinds share
_MSG = {m.value: m for m in Msg}
_KIND_TEXT = {m.value: m.value for m in Msg}


class TranscriptEntry(NamedTuple):
    time_step: int
    sender: int
    sender_port: int
    kind: Msg


@dataclass(frozen=True)
class Transcript:
    """Every send as (step, sender, sender port, kind text) in `flat`, plus the
    final node states."""

    flat: tuple[int | str, ...]
    final_states: tuple[NodeState, ...]
    last_active_step: int

    @cached_property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        f = self.flat
        return tuple(map(TranscriptEntry, f[0::4], f[1::4], f[2::4], map(_MSG.__getitem__, f[3::4])))


@dataclass(frozen=True)
class CoverResult:
    cover: frozenset[int]
    partner: tuple[int, ...]  # per node: where its accepted proposal went, or -1
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
    # node state in flat lists, one entry per NodeState field
    a: list[int | None] = [None] * n
    b: list[int | None] = [None] * n
    i = [0] * n
    c = [False] * n
    horizon = horizon_for(g)
    flat: list[int | str] = []
    extend = flat.extend
    last_active = 0
    # deliveries for the current step: (port, response) pairs at odd steps,
    # proposal ports at even steps, each list in arrival order
    responses: defaultdict[int, list[tuple[int, Msg]]] = defaultdict(list)
    proposals: defaultdict[int, list[int]] = defaultdict(list)
    proposers: range | list[int] = range(n)  # step 1 scans every node

    for t in range(1, horizon + 1):
        sent = len(flat)
        if t % 2:
            visit = proposers
            if responses and not responses.keys() <= set(proposers):
                if not all(0 <= u < n for u in responses):
                    # name the first response of step t - 1, in send order,
                    # whose port entry names no node
                    v, j, kind = next(
                        flat[x + 1 : x + 4] for x in range(0, len(flat), 4)
                        if flat[x] == t - 1 and not 0 <= ports[flat[x + 1]][flat[x + 2] - 1][0] < n)
                    raise ProtocolFault(f"step {t - 1}, node {v}: {kind} on port {j} to node "
                                        f"{ports[v][j - 1][0]}, outside 0..{n - 1}")
                # a response reached a node with no proposal out: visit in id
                # order, so that the fault raised is the lowest node's
                visit = sorted(set(proposers).union(responses))
            proposers = []
            proposals = defaultdict(list)
            for v in visit:
                iv = i[v]
                box = responses.get(v)
                if box is not None:
                    if len(box) > 1:
                        raise ProtocolFault(f"step {t}, node {v}: {len(box)} odd-step deliveries")
                    port, msg = box[0]  # only even steps respond, never with PROPOSE
                    if a[v] or port != iv or not 1 <= iv <= deg[v]:
                        state = NodeState(deg[v], a[v], b[v], iv, c[v])
                        _refuse(odd_step, t, v, state, box[0])
                    if msg is ACCEPT:
                        a[v] = iv
                        c[v] = True
                        continue
                iv += 1
                i[v] = iv
                if iv <= deg[v]:
                    proposers.append(v)
                    extend((t, v, iv, "propose"))
                    u, k = ports[v][iv - 1]
                    proposals[u].append(k)
        else:
            responses = defaultdict(list)
            receivers = sorted(proposals)
            if receivers and (receivers[0] < 0 or receivers[-1] >= n):
                # name the first proposer, in id order, whose port names no node
                v = next(v for v in proposers if not 0 <= ports[v][i[v] - 1][0] < n)
                u = ports[v][i[v] - 1][0]
                raise ProtocolFault(
                    f"step {t - 1}, node {v}: proposal on port {i[v]} to node {u}, "
                    f"outside 0..{n - 1}")
            for v in receivers:
                arrived = proposals[v]
                box = sorted(arrived) if len(arrived) > 1 else arrived
                if box[0] < 1 or box[-1] > deg[v] or len(set(box)) < len(box):
                    state = NodeState(deg[v], a[v], b[v], i[v], c[v])
                    _refuse(even_step, t, v, state, [(k, PROPOSE) for k in arrived])
                for port in box:
                    if b[v]:
                        msg = REJECT
                        extend((t, v, port, "reject"))
                    else:
                        b[v] = port
                        c[v] = True
                        msg = ACCEPT
                        extend((t, v, port, "accept"))
                    u, k = ports[v][port - 1]
                    responses[u].append((k, msg))
        if len(flat) == sent:
            break
        last_active = t

    # most nodes end in one of a few states; frozen, so they can be shared
    shared: dict[tuple, NodeState] = {}
    states = tuple(
        shared.get(key) or shared.setdefault(key, NodeState(*key))
        for key in zip(deg, a, b, i, c)
    )
    cover = frozenset(v for v in range(n) if c[v])
    # v's accepted proposal went to the neighbour behind port a[v]
    partner = tuple([-1 if av is None else row[av - 1][0] for row, av in zip(ports, a)])
    result = CoverResult(cover, partner, horizon, last_active)
    transcript = Transcript(tuple(flat), states, last_active)
    return result, transcript


def _refuse(transition, t: int, v: int, state: NodeState, inbox) -> NoReturn:
    """Raise the fault `transition` finds in a delivery the engine does not expect."""
    try:
        transition(state, inbox)
    except ProtocolFault as exc:
        raise ProtocolFault(f"step {t}, node {v}: {exc}") from exc
    raise AssertionError(f"step {t}, node {v}: {transition.__name__} accepted {inbox!r}")


# ---------------------------------------------------------------------------
# Transcript text format and replay
# ---------------------------------------------------------------------------

def format_transcript(t: Transcript) -> str:
    """One `t v port kind` line per send, in the order of `t.flat`: the
    (t, v, port) order in which `run` emits them."""
    return ("%d %d %d %s\n" * (len(t.flat) // 4)) % t.flat


# `format_transcript`'s form, one `t v port kind` line per send, checked as
# in `graph.parse_edge_list`: the first line, then a search for the first
# newline not followed by another such line
_TRANSCRIPT_LINE = rf"\d+ \d+ \d+ (?:{'|'.join(_KIND_TEXT)})\n"
_FIRST_TRANSCRIPT_LINE = re.compile(rf"{_TRANSCRIPT_LINE}|\Z", re.ASCII)
_OFF_FORM_TRANSCRIPT_LINE = re.compile(rf"\n(?!{_TRANSCRIPT_LINE}|\Z)", re.ASCII)


def parse_transcript(text: str) -> tuple[int | str, ...]:
    """Inverse of `format_transcript`, in the flat form. The first line that
    is not `t v port kind`, with integers and a known kind, is refused.
    Text in `format_transcript`'s form is split in one pass; any other text
    is read line by line, with identical results and errors."""
    if _FIRST_TRANSCRIPT_LINE.match(text) and not _OFF_FORM_TRANSCRIPT_LINE.search(text):
        flat: list[int | str] = text.split()
        try:
            for slot in (0, 1, 2):
                flat[slot::4] = map(int, flat[slot::4])
        except ValueError:  # a number past `int`'s digit limit: named below
            pass
        else:
            flat[3::4] = map(_KIND_TEXT.__getitem__, flat[3::4])
            return tuple(flat)
    flat = []
    for lineno, tokens in _rows(text):
        if len(tokens) != 4:
            raise ProtocolFault(f"transcript line {lineno}: expected `t v port kind`")
        step, v, port, kind = tokens
        try:
            flat += int(step), int(v), int(port), _KIND_TEXT[kind]
        except (KeyError, ValueError):
            raise ProtocolFault(f"transcript line {lineno}: malformed entry") from None
    return tuple(flat)


def replay(g: PortGraph, t: Transcript | tuple[int | str, ...]) -> list[str]:
    """Re-derive a transcript from scratch and report every divergence from
    `t`, a transcript or its flat form."""
    _, fresh = run(g)
    flat = t.flat if isinstance(t, Transcript) else t
    violations = []
    if flat != fresh.flat:  # a differing order alone is no violation
        claimed, derived = (
            Counter(zip(f[0::4], f[1::4], f[2::4], f[3::4])) for f in (flat, fresh.flat))
        for entry in sorted((claimed - derived).elements()):
            violations.append(f"claimed entry not derivable: {entry}")
        for entry in sorted((derived - claimed).elements()):
            violations.append(f"missing entry: {entry}")
    if isinstance(t, Transcript):
        if t.last_active_step != fresh.last_active_step:
            violations.append(
                f"last_active_step mismatch: claimed {t.last_active_step}, "
                f"derived {fresh.last_active_step}"
            )
        if t.final_states != fresh.final_states:
            violations.append("final states diverge")
    return violations
