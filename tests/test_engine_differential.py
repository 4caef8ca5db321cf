"""Differential tests: the frontier engine `run` against the reference stepper.

On valid graphs the two must agree on every field of the result and the
transcript, entry order included, and `run`'s entries must come in
(t, sender, port) order. On malformed port tables (not reciprocal,
out of range or not simple) `run` must return what the reference returns or
raise the same exception type with the same message, and `analyze` must
raise only what `run` raises: its own layers turn a fault into a failed
check.
"""
from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portvc.checks import analyze
from portvc.graph import PortGraph
from portvc.simulator import run

from conftest import g_from_pairs, load_corpus
from reference_engine import reference_run
from test_properties import port_graphs


def _outcome(engine, g: PortGraph):
    try:
        result, transcript = engine(g)[:2]
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return result, transcript


def _raised(call, g: PortGraph):
    """The type and message of what `call(g)` raises, or None if it returns."""
    try:
        call(g)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _assert_same_run(g: PortGraph) -> None:
    res, tr = run(g)
    ref_res, ref_tr, _ = reference_run(g)
    assert tr.entries == ref_tr.entries
    # (t, v, port) order, which `format_transcript` writes without sorting
    assert list(tr.entries) == sorted(tr.entries, key=itemgetter(0, 1, 2))
    # cover, partner and accepted (the final states' c, a and b), rounds_run
    # and last_active_step
    assert res == ref_res


@pytest.mark.parametrize("numbering", ["sorted", "random"])
def test_corpus_matches_reference(numbering):
    checked = 0
    for index, (n, pairs) in enumerate(load_corpus()):
        seed = index if numbering == "random" else None
        _assert_same_run(g_from_pairs(n, pairs, numbering, seed))
        checked += 1
    assert checked == 12113


@given(port_graphs())
def test_random_graphs_match_reference(g):
    _assert_same_run(g)


@st.composite
def port_tables(draw, max_n=6):
    """Port tables with no validity guarantee, entries near the valid range."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    entry = st.tuples(st.integers(-2, n + 1), st.integers(-1, 5))
    ports = tuple(tuple(draw(st.lists(entry, max_size=4))) for _ in range(n))
    return PortGraph(ports)


@st.composite
def corrupted_port_graphs(draw):
    """A valid port graph with up to three entries rewritten.

    Unlike a random table, most of these run several steps before the first
    fault, so faults are found mid-run, at odd and at even steps.
    """
    g = draw(port_graphs(max_n=8))
    n = g.node_count
    ports = [list(p) for p in g.ports]
    slots = [(v, j) for v in range(n) for j in range(len(ports[v]))]
    if not slots:
        return g
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        v, j = draw(st.sampled_from(slots))
        ports[v][j] = (draw(st.integers(-2, n + 1)), draw(st.integers(-1, g.max_degree + 2)))
    return PortGraph(tuple(tuple(p) for p in ports))


@given(st.one_of(port_tables(), corrupted_port_graphs()))
@example(PortGraph((((1, 1),), ((2, 1),), ((0, 1),))))
@settings(max_examples=500)
def test_malformed_tables_fail_like_reference(g):
    # in the example each answer reaches the wrong proposer, on the port it
    # waits on: no fault, and both return partner (1, 2, 0) with the last
    # send at step 2
    assert _outcome(run, g) == _outcome(reference_run, g)


@given(st.one_of(port_tables(), corrupted_port_graphs()))
@example(PortGraph((((1, 2), (4, 0), (2, 1)), ((2, 2), (0, 1)), ((0, 3), (1, 1)), ((0, 2),))))
@settings(max_examples=500)
def test_malformed_tables_never_crash_the_analysis(g):
    # in the example node 0 sends an accept through its port 2, which names
    # node 4 of a 4-node graph: `run` refuses it, and `analyze` with it
    assert _raised(analyze, g) == _raised(run, g)
