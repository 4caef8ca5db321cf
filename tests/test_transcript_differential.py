"""Differential tests for the flat transcript text format.

`format_transcript` writes the flat form with one `%` format and
`parse_transcript` reads it back in that form; `reference_format_transcript`
and `reference_parse_transcript` work one `TranscriptEntry` per line. On
the corpus and on Hypothesis graphs the written texts must be
byte-identical. On perturbed texts (wrong token counts, non-integers,
unknown kinds, comment and blank lines, CRLF line ends) both readers must
give the same entries or raise a `ProtocolFault` with the same message.
Texts with a single perturbation each sit just outside the form
`format_transcript` writes. On the same texts `replay`, which parses only
text that differs from `format_transcript` of a fresh run, must give
`reference_replay`'s violations or its `ProtocolFault`; a genuine trace
with CRLF line ends, a comment line or its lines reversed still replays
clean.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from portvc.errors import ProtocolFault
from portvc.simulator import format_transcript, parse_transcript, replay, run

from conftest import g_from_pairs, load_corpus
from reference_engine import (
    flatten,
    reference_format_transcript,
    reference_parse_transcript,
    reference_replay,
)
from test_properties import port_graphs


def _outcome(parser, *args):
    try:
        return parser(*args)
    except ProtocolFault as exc:
        return str(exc)


def _assert_same_parse(text: str) -> None:
    got = _outcome(parse_transcript, text)
    want = _outcome(reference_parse_transcript, text)
    assert got == (want if isinstance(want, str) else flatten(want))


def _assert_same_replay(g, text: str) -> None:
    assert _outcome(replay, g, text) == _outcome(reference_replay, g, text)


def _assert_same_text(g) -> None:
    _, tr = run(g)
    text = format_transcript(tr.flat)
    assert text == reference_format_transcript(tr.entries)
    assert parse_transcript(text) == tr.flat
    _assert_same_parse(text)
    assert replay(g, text) == reference_replay(g, text) == []


def test_corpus_matches_reference():
    checked = 0
    for index, (n, pairs) in enumerate(load_corpus()):
        _assert_same_text(g_from_pairs(n, pairs, "random", index))
        checked += 1
    assert checked == 12113


@given(port_graphs())
def test_random_graphs_match_reference(g):
    _assert_same_text(g)
    lines = format_transcript(run(g)[1].flat).splitlines(keepends=True)
    for text in ("".join(lines).replace("\n", "\r\n"), "# a comment\n" + "".join(lines),
                 "".join(reversed(lines))):
        assert replay(g, text) == reference_replay(g, text) == []


BAD_TOKENS = ("x", "1.5", "", "+3", "-1", "0x1", "1_0", "٣", "Propose", "offer", "accept,", "#")
PERTURBATIONS = (
    "drop-token", "add-token", "replace-token", "comment-line", "blank-line",
    "indent", "crlf", "drop-line",
)


@st.composite
def perturbed_transcript_texts(draw):
    """A graph and the text of its genuine run with one to four perturbations applied."""
    g = draw(port_graphs(max_n=7))
    lines = format_transcript(run(g)[1].flat).splitlines()
    crlf = False
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(PERTURBATIONS))
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        if op == "comment-line":
            lines.insert(i, draw(st.sampled_from(["#", "# 1 0 1 propose", "  #x", "#1 0 1 offer"])))
            continue
        if op == "blank-line":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if op == "crlf":
            crlf = True
            continue
        if not lines or i == len(lines):
            continue
        tokens = lines[i].split()
        if op == "drop-token" and tokens:
            del tokens[draw(st.integers(min_value=0, max_value=len(tokens) - 1))]
        elif op == "add-token":
            tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))),
                          draw(st.sampled_from(("1", "propose", "x"))))
        elif op == "replace-token" and tokens:
            tokens[draw(st.integers(min_value=0, max_value=len(tokens) - 1))] = draw(
                st.sampled_from(BAD_TOKENS))
        elif op == "indent":
            lines[i] = " \t" + lines[i]
            continue
        elif op == "drop-line":
            del lines[i]
            continue
        lines[i] = " ".join(tokens)
    end = "\r\n" if crlf else "\n"
    return g, end.join(lines) + (end if draw(st.booleans()) else "")


@given(perturbed_transcript_texts())
@settings(max_examples=1000)
def test_perturbed_texts_parse_like_reference(case):
    g, text = case
    _assert_same_parse(text)
    _assert_same_replay(g, text)


SINGLE_PERTURBATIONS = (
    "tab", "crlf", "comment-line", "blank-line", "no-final-newline", "three-tokens",
    "five-tokens", "unknown-kind", "plus-sign", "joined-lines",
)


@st.composite
def single_perturbation_transcript_texts(draw):
    """A graph and the text of its genuine run with one perturbation applied."""
    g = draw(port_graphs(max_n=7))
    lines = format_transcript(run(g)[1].flat).splitlines()
    op = draw(st.sampled_from(SINGLE_PERTURBATIONS))
    if op == "crlf":
        return g, "".join(line + "\r\n" for line in lines)
    if op == "no-final-newline":
        return g, "\n".join(lines)
    i = draw(st.integers(min_value=0, max_value=len(lines)))
    if op == "comment-line":
        lines.insert(i, draw(st.sampled_from(["#", "# 1 0 1 propose", "#1 0 1 offer"])))
    elif op == "blank-line":
        lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
    elif i + 1 < len(lines) and op == "joined-lines":
        # eight tokens on one line: a whole split would read two sends
        lines[i : i + 2] = [f"{lines[i]} {lines[i + 1]}"]
    elif i < len(lines) and op == "tab":
        lines[i] = lines[i].replace(" ", "\t", draw(st.integers(min_value=1, max_value=3)))
    elif i < len(lines):
        tokens = lines[i].split()
        j = draw(st.integers(min_value=0, max_value=3))
        if op == "three-tokens":
            del tokens[j]
        elif op == "five-tokens":
            tokens.insert(j, draw(st.sampled_from(["1", "propose"])))
        elif op == "unknown-kind":
            tokens[3] = draw(st.sampled_from(["offer", "Propose", "accepted", "rejec"]))
        elif op == "plus-sign":
            tokens[min(j, 2)] = "+" + tokens[min(j, 2)]
        lines[i] = " ".join(tokens)
    return g, "".join(line + "\n" for line in lines)


@given(single_perturbation_transcript_texts())
@settings(max_examples=1000)
def test_single_perturbations_parse_like_reference(case):
    g, text = case
    _assert_same_parse(text)
    _assert_same_replay(g, text)


TRANSCRIPT_LIKE = st.lists(
    st.sampled_from([*"0123456789 -\n\r#\tx", "propose", "accept", "reject"]), max_size=40
).map("".join)


@given(st.one_of(TRANSCRIPT_LIKE, st.text(max_size=40)))
@settings(max_examples=1000)
def test_arbitrary_text_parses_like_reference(text):
    _assert_same_parse(text)
