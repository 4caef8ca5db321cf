"""Differential and fuzz tests for the linear-time graph layer.

`parse` must return a graph equal to the one `reference_parse` returns, or
raise a `ParseError` with the same message and line, on valid `.pg` texts,
on perturbed ones and on arbitrary text. The perturbations include tokens
that `int` reads but `parse`'s table of ids 0..n-1 does not (`+3`, `03`,
`-0`, a degree of n or more), which reach its line-by-line fallback.
Both parsers must never raise
anything but `ParseError`. `parse_edge_list`, whose bulk pass reads the
form `serialize_edge_list` writes, must agree the same way with the
line-by-line `reference_parse_edge_list`: on every corpus graph, on
Hypothesis edge lists, on those texts with one perturbation each, and on
arbitrary text. `check_cover` must agree with its `edge_set`-based
reference, and the copy edges read off a built port table, which
`extract_matching` walks, with the two copies of every `edge_set` edge. `from_edge_list`, under
each numbering policy, and `permute_ports` must derive the same reciprocal
ports as the tuple-keyed dict of the reference. `random_bounded_edges` must
draw from the same distribution as `reference_random_bounded_edges`, and
its edges must pass the checks of `EdgeList.from_pairs` unchanged.
"""
from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portvc.analysis import check_cover
from portvc.errors import ParseError
from portvc.graph import (
    MAX_EDGE_LIST_NODES,
    EdgeList,
    from_edge_list,
    parse,
    parse_edge_list,
    permute_ports,
    random_bounded_edges,
    serialize_edge_list,
)

from conftest import load_corpus
from reference_double_cover import reference_copy_edges
from reference_graph import (
    reference_check_cover,
    reference_double_cover_edges,
    reference_from_edge_list,
    reference_parse,
    reference_parse_edge_list,
    reference_permute_ports,
    reference_random_bounded_edges,
    serialize,
)
from test_engine_differential import port_tables
from test_properties import edge_lists, port_graphs


def _outcome(parser, text: str):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.line


def _assert_same_parse(text: str) -> None:
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def _assert_same_edge_list_parse(text: str) -> None:
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)


@given(port_graphs(), st.integers(min_value=0, max_value=2**32))
def test_round_trip(g, seed):
    for h in (g, permute_ports(g, seed)):
        assert parse(serialize(h)) == h
        _assert_same_parse(serialize(h))


@given(edge_lists(max_n=12), st.integers(min_value=0, max_value=2**32))
def test_reciprocal_ports_match_reference(el, seed):
    for policy in ("sorted", "input", "random"):
        g = from_edge_list(el, policy, seed)
        assert g == reference_from_edge_list(el, policy, seed)
        assert permute_ports(g, seed) == reference_permute_ports(g, seed)


# neighbour edits are listed twice: they are what reaches the reciprocity check
PERTURBATIONS = (
    "drop-neighbour", "add-neighbour", "drop-neighbour", "add-neighbour", "shuffle",
    "out-of-range", "wrong-m", "wrong-n", "drop-line", "duplicate-line", "swap-lines",
    "garbage-token", "comment-line", "blank-line", "respell-token",
)


@st.composite
def perturbed_pg_texts(draw):
    """A serialized port graph with one to three perturbations applied."""
    g = draw(port_graphs(max_n=8))
    n = g.node_count
    lines = serialize(g).splitlines()
    header = lines[0].split()
    rows = [line.split() for line in lines[1:]]
    node_id = st.integers(min_value=-2, max_value=n + 2).map(str)
    skipped = []  # (index among the final lines, text) of each line the readers skip
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(PERTURBATIONS))
        if op in ("comment-line", "blank-line"):
            skipped.append((draw(st.integers(min_value=0, max_value=len(rows) + 1)), draw(
                st.sampled_from(["#", "# 0 1", "#1 1 0", "  # 2 0", "\t#"]
                                if op == "comment-line" else ["", " ", "\t", " \t  "]))))
            continue
        if op == "wrong-m":
            header[1] = str(int(header[1]) + draw(st.sampled_from([-2, -1, 1, 2])))
            continue
        if op == "wrong-n":
            header[0] = str(int(header[0]) + draw(st.sampled_from([-1, 1])))
            continue
        if not rows:
            continue
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        row = rows[i]
        if op == "drop-neighbour" and len(row) > 2:
            del row[draw(st.integers(min_value=2, max_value=len(row) - 1))]
        elif op == "add-neighbour":
            row.insert(draw(st.integers(min_value=2, max_value=len(row))), draw(node_id))
        elif op == "shuffle":
            row[2:] = draw(st.permutations(row[2:]))
        elif op == "out-of-range":
            row[draw(st.sampled_from([0] + list(range(2, len(row)))))] = draw(
                st.sampled_from(["-1", str(n), str(n + 5)])
            )
        elif op == "drop-line":
            del rows[i]
        elif op == "duplicate-line":
            rows.insert(i, list(row))
        elif op == "swap-lines":
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "garbage-token":
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(
                st.sampled_from(["x", "1_0", "٢"]))
        elif op == "respell-token":  # `int` reads it; the table of ids 0..n-1 does not
            j = draw(st.integers(min_value=0, max_value=len(row) - 1))
            spelling = draw(st.sampled_from(["+", "0", "-0", "degree"]))
            if spelling == "degree":
                row[1] = str(n + draw(st.integers(min_value=0, max_value=2)))
            else:
                row[j] = "-0" if spelling == "-0" else spelling + row[j]
        if op in ("drop-neighbour", "add-neighbour") and draw(st.integers(0, 3)):
            row[1] = str(len(row) - 2)  # mostly keep the declared degree consistent
    lines = [" ".join(tokens) for tokens in [header] + rows]
    for index, line in skipped:
        lines.insert(index, line)
    return "\n".join(lines) + "\n"


@given(perturbed_pg_texts())
@settings(max_examples=1000)
def test_perturbed_texts_parse_like_reference(text):
    _assert_same_parse(text)


PG_LIKE = st.text(alphabet=st.sampled_from("0123456789  -\n#x\t_٢"), max_size=60)


@given(st.one_of(PG_LIKE, st.text(max_size=40)))
@settings(max_examples=1000)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    _assert_same_parse(text)
    _assert_same_edge_list_parse(text)


def test_corpus_edge_lists_parse_like_reference():
    checked = 0
    for n, pairs in load_corpus():
        text = serialize_edge_list(EdgeList.from_pairs(n, pairs))
        assert parse_edge_list(text) == reference_parse_edge_list(text)
        checked += 1
    assert checked == 12113


@given(edge_lists(max_n=12))
def test_edge_lists_parse_like_reference(el):
    text = serialize_edge_list(el)
    assert parse_edge_list(text) == el
    _assert_same_edge_list_parse(text)


EDGE_LIST_PERTURBATIONS = (
    "tab", "crlf", "comment-line", "blank-line", "sign", "leading-zero", "one-token",
    "three-tokens", "no-final-newline", "self-loop", "duplicate", "id-equal-n",
    "header-over-limit", "non-ascii-integer",
)


@st.composite
def perturbed_edge_list_texts(draw):
    """A serialized edge list with one perturbation applied."""
    el = draw(edge_lists(max_n=10))
    n = el.node_count
    lines = serialize_edge_list(el).splitlines()
    op = draw(st.sampled_from(EDGE_LIST_PERTURBATIONS))
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))  # 0 is the header
    after_header = st.integers(min_value=1, max_value=len(lines))
    node = st.integers(min_value=0, max_value=max(n - 1, 0))
    tokens = lines[i].split()
    j = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    if op == "tab":
        lines[i] = lines[i].replace(" ", "\t")
    elif op == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif op == "comment-line":
        lines.insert(i + draw(st.integers(0, 1)), draw(st.sampled_from(["#", "# 0 1", "#0 1"])))
    elif op == "blank-line":
        lines.insert(i + draw(st.integers(0, 1)), draw(st.sampled_from(["", " ", "\t"])))
    elif op in ("sign", "leading-zero"):
        tokens[j] = draw(st.sampled_from(["+", "-"] if op == "sign" else ["0", "00"])) + tokens[j]
        lines[i] = " ".join(tokens)
    elif op == "one-token":
        lines[i] = tokens[0]
    elif op == "three-tokens":
        lines[i] += f" {draw(node)}"
    elif op == "no-final-newline":
        return "\n".join(lines)
    elif op == "self-loop":
        v = draw(node)
        lines.insert(draw(after_header), f"{v} {v}")
    elif op == "duplicate" and el.edges:
        u, v = draw(st.sampled_from(el.edges))
        lines.insert(draw(after_header), draw(st.sampled_from([f"{u} {v}", f"{v} {u}"])))
    elif op == "id-equal-n":
        u = draw(node)
        lines.insert(draw(after_header), draw(st.sampled_from([f"{u} {n}", f"{n} {u}"])))
    elif op == "header-over-limit":
        lines[0] = str(MAX_EDGE_LIST_NODES + 1)
    elif op == "non-ascii-integer":  # `int` alone reads these as 10 and 2
        tokens[j] = draw(st.sampled_from(["1_0", "٢"]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(perturbed_edge_list_texts())
@settings(max_examples=1000)
def test_perturbed_edge_list_texts_parse_like_reference(text):
    _assert_same_edge_list_parse(text)


@given(port_tables(), st.data())
def test_check_cover_matches_reference(g, data):
    cover = data.draw(st.sets(st.integers(min_value=-2, max_value=g.node_count + 1)))
    assert check_cover(g, cover) == reference_check_cover(g, cover)


@given(port_graphs())
def test_double_cover_edges_match_reference(g):
    """Each port entry (v -> u) is one copy edge {B(v), W(u)}: read off the
    port table, the copy edges are the two copies of every graph edge."""
    assert reference_copy_edges(g) == reference_double_cover_edges(g)


DISTRIBUTION_SEEDS = range(2000)


def _edge_count_and_degree_histogram(generate, n: int, max_degree: int, p: float):
    """Per seed: the edge count, then the number of nodes of each degree 0..max_degree."""
    rows = []
    for seed in DISTRIBUTION_SEEDS:
        el = generate(n, max_degree, p, seed)
        assert el == EdgeList.from_pairs(n, el.edges)  # in range, simple, normalized
        deg = [0] * n
        for u, v in el.edges:
            deg[u] += 1
            deg[v] += 1
        rows.append([len(el.edges)] + [deg.count(k) for k in range(max_degree + 1)])
    return list(zip(*rows))


@pytest.mark.parametrize("n,max_degree,p", [(12, 3, 0.4), (40, 2, 0.1), (60, 5, 0.08), (8, 10, 1.0)])
def test_random_generator_matches_reference_distribution(n, max_degree, p):
    """The means of the edge count and of every degree-histogram bin, over
    2000 fixed seeds, differ by at most 5 standard errors of the difference."""
    new = _edge_count_and_degree_histogram(random_bounded_edges, n, max_degree, p)
    ref = _edge_count_and_degree_histogram(reference_random_bounded_edges, n, max_degree, p)
    labels = ["edges"] + [f"nodes of degree {k}" for k in range(max_degree + 1)]
    for label, a, b in zip(labels, new, ref):
        se = math.sqrt((statistics.pvariance(a) + statistics.pvariance(b)) / len(DISTRIBUTION_SEEDS))
        diff = statistics.fmean(a) - statistics.fmean(b)
        assert abs(diff) <= 5 * se + 1e-9, f"{label}: mean differs by {diff:.4f}, 5 SE = {5 * se:.4f}"
