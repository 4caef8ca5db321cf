"""Reference stepper: drives the pure transition functions over every node.

It runs every step of the 2*delta+1 horizon plus `extra_steps`, calls
`odd_step` on every node that is not permanently quiescent and `even_step`
on every receiver, and can keep a snapshot of all node states after each
step. It is the executable specification the frontier engine in
`portvc.simulator.run` is checked against. It records its sends as
`TranscriptEntry`s and `flatten` turns them into the flat form a
`Transcript` holds; tests build forged transcripts the same way.

`reference_format_transcript` and `reference_parse_transcript` are the
text writer and reader that worked one `TranscriptEntry` per line; the flat
`format_transcript` and `parse_transcript` are checked against them. The
reader takes integers as the graph reference readers do, `INTEGER_TOKEN`.
`reference_replay` parses every transcript before it compares, as `replay`
did before it accepted `format_transcript`'s text unparsed.
"""
from __future__ import annotations

from collections import Counter

from portvc.algorithm import Msg, NodeState, even_step, odd_step
from portvc.errors import ProtocolFault
from portvc.graph import PortGraph
from portvc.simulator import (
    CoverResult,
    Transcript,
    TranscriptEntry,
    horizon_for,
)

from reference_graph import INTEGER_TOKEN


def flatten(entries) -> tuple[int | str, ...]:
    """The flat form of `TranscriptEntry`s: step, sender, port, kind text."""
    return tuple(x for e in entries for x in (e.time_step, e.sender, e.sender_port, e.kind.value))


def reference_format_transcript(entries) -> str:
    lines = [f"{e.time_step} {e.sender} {e.sender_port} {e.kind.value}" for e in entries]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_parse_transcript(text: str) -> tuple[TranscriptEntry, ...]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ProtocolFault(f"transcript line {lineno}: expected `t v port kind`")
        try:
            if not all(INTEGER_TOKEN.fullmatch(t) for t in tokens[:3]):
                raise ValueError
            step, v, port = int(tokens[0]), int(tokens[1]), int(tokens[2])
            kind = Msg(tokens[3])
        except ValueError:
            raise ProtocolFault(f"transcript line {lineno}: malformed entry") from None
        entries.append(TranscriptEntry(step, v, port, kind))
    return tuple(entries)


def reference_run(
    g: PortGraph, extra_steps: int = 0, record_history: bool = False
) -> tuple[CoverResult, Transcript, list[tuple[NodeState, ...]]]:
    """Step every node for the horizon plus `extra_steps`.

    Returns the result, the transcript and, when `record_history` is set,
    the state snapshot after every step (else an empty list).
    """
    n = g.node_count
    states = [NodeState(degree=len(g.ports[v])) for v in range(n)]
    steps = horizon_for(g) + extra_steps
    entries: list[TranscriptEntry] = []
    inboxes: dict[int, list[tuple[int, Msg]]] = {}
    last_active = 0
    history: list[tuple[NodeState, ...]] = []

    for t in range(1, steps + 1):
        sends: list[tuple[int, int, Msg]] = []
        if t % 2 == 1:
            for v in range(n):
                delivered = inboxes.get(v)
                single: tuple[int, Msg] | None = None
                if delivered:
                    if len(delivered) > 1:
                        raise ProtocolFault(
                            f"step {t}, node {v}: {len(delivered)} odd-step deliveries"
                        )
                    single = delivered[0]
                elif states[v].a is not None or states[v].i > states[v].degree:
                    continue  # permanently quiescent, nothing to read or send
                try:
                    states[v], out = odd_step(states[v], single)
                except ProtocolFault as exc:
                    raise ProtocolFault(f"step {t}, node {v}: {exc}") from exc
                if out is not None:
                    sends.append((v, out[0], out[1]))
        else:
            for v in sorted(inboxes):
                try:
                    states[v], outs = even_step(states[v], inboxes[v])
                except ProtocolFault as exc:
                    raise ProtocolFault(f"step {t}, node {v}: {exc}") from exc
                sends.extend((v, port, msg) for port, msg in outs)

        inboxes = {}
        for v, port, msg in sends:
            entries.append(TranscriptEntry(t, v, port, msg))
            u, k = g.ports[v][port - 1]
            if not 0 <= u < n:  # as `run` refuses it
                what = "proposal" if msg is Msg.PROPOSE else msg.value
                raise ProtocolFault(
                    f"step {t}, node {v}: {what} on port {port} to node {u}, outside 0..{n - 1}")
            inboxes.setdefault(u, []).append((k, msg))
        if sends:
            last_active = t
        if record_history:
            history.append(tuple(states))

    cover = frozenset(v for v in range(n) if states[v].c)
    # as in `run`: v's accepted proposal went to the neighbour behind port a,
    # and `accepted` is port b, 0 for none
    partner = tuple(g.ports[v][st.a - 1][0] if st.a else -1 for v, st in enumerate(states))
    accepted = tuple(st.b or 0 for st in states)
    result = CoverResult(cover, partner, accepted, steps, last_active)
    return result, Transcript(flatten(entries)), history


def reference_replay(g: PortGraph, text: str) -> list[str]:
    """Parse `text`, then diff its sends against those of `reference_run` as
    multisets: claimed sends not derivable, then missing ones, each sorted."""
    claimed, derived = (
        Counter((e.time_step, e.sender, e.sender_port, e.kind.value) for e in entries)
        for entries in (reference_parse_transcript(text), reference_run(g)[1].entries))
    return ([f"claimed entry not derivable: {e}" for e in sorted((claimed - derived).elements())]
            + [f"missing entry: {e}" for e in sorted((derived - claimed).elements())])
