"""Verdicts of `checks.analyze` when one layer faults or gives a wrong answer.

Each case replaces one layer and pins the exact set of checks that fail,
which checks keep passing, and which of `pair_graph` and `certificate` are
missing.
"""
import dataclasses
from fractions import Fraction

import pytest

from portvc import analysis, double_cover, simulator
from portvc.checks import CHECK_NAMES, analyze
from portvc.errors import AnalysisFault
from portvc.graph import PortGraph
from portvc.simulator import run

from conftest import petersen

PAIR_GRAPH_CHECKS = {"g1-max-degree-2", "g1-nonisolated-equals-C", "components-paths-or-cycles"}


def _raises(original):
    def fault(*args):
        raise AnalysisFault("injected")
    return fault


def _ratio_7_2(original):
    return lambda pg, size: dataclasses.replace(original(pg, size), certified_ratio=Fraction(7, 2))


def _one_more_node(original):
    return lambda h: original(h) | {h.graph.node_count}


def _no_edges(original):
    return lambda h: frozenset()


def _cover_invalid(original):
    return lambda g, cover: False


def _late_last_step(original):
    def run(g):
        result, transcript = original(g)
        return dataclasses.replace(result, last_active_step=2 * g.max_degree + 1), transcript
    return run


# case -> (module, function, replacement, failing checks, no pair graph, no certificate)
CASES = {
    "build_pair_graphs-raises": (analysis, "build_pair_graphs", _raises,
                                 PAIR_GRAPH_CHECKS | {"certified-ratio-le-3"}, True, True),
    "certify-raises": (analysis, "certify", _raises, {"certified-ratio-le-3"}, False, True),
    "certify-ratio-7-over-2": (analysis, "certify", _ratio_7_2,
                               {"certified-ratio-le-3"}, False, False),
    "extract_matching-raises": (double_cover, "extract_matching", _raises,
                                {"double-cover-maximal-matching", "projection-equals-cover"},
                                False, False),
    "project_cover-wrong": (double_cover, "project_cover", _one_more_node,
                            {"projection-equals-cover"}, False, False),
    "project_matching_edges-wrong": (double_cover, "project_matching_edges", _no_edges,
                                     {"projection-equals-cover"}, False, False),
    "check_cover-false": (analysis, "check_cover", _cover_invalid, {"cover-valid"}, False, False),
    "check_pair_symmetry-raises": (analysis, "check_pair_symmetry", _raises, {"pair-symmetry"},
                                   False, False),
    "run-past-2-delta": (simulator, "run", _late_last_step, {"round-bound"}, False, False),
}


def test_genuine_run_passes_every_check():
    ra = analyze(petersen())
    assert tuple(ra.checks) == CHECK_NAMES
    assert ra.all_pass
    assert ra.pair_graph is not None
    assert ra.certificate is not None and ra.certificate.certified_ratio is not None


@pytest.mark.parametrize("case", CASES)
def test_one_faulty_layer_fails_exactly_its_checks(monkeypatch, case):
    module, name, replacement, failing, no_pair_graph, no_certificate = CASES[case]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    ra = analyze(petersen())
    assert tuple(ra.checks) == CHECK_NAMES
    assert {check for check, ok in ra.checks.items() if not ok} == failing
    assert not ra.all_pass
    assert (ra.pair_graph is None, ra.certificate is None) == (no_pair_graph, no_certificate)


def test_directed_triangle_yields_a_full_report():
    # each node's port leads on to the next node, never back: every proposal
    # is accepted, but no accepted proposal is answered by its partner's b
    g = PortGraph(3, (((1, 1),), ((2, 1),), ((0, 1),)))
    with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 accepted via "
                       r"port 1 to node 1, whose b=1 does not lead back$"):
        analysis.check_pair_symmetry(g, run(g)[1].final_states)
    ra = analyze(g)
    assert tuple(ra.checks) == CHECK_NAMES
    assert ra.checks["pair-symmetry"] is False
    assert {check for check, ok in ra.checks.items() if ok} == {"cover-valid", "round-bound"}


def test_reversed_pair_fails_only_the_projection(monkeypatch):
    """`projection-equals-cover` compares the double-cover `mate` with
    `partner` as directed arrays. Reversing one non-reciprocal pair, u's
    proposal accepted by v read as v's accepted by u, leaves the pair edges,
    and so the pair-graph checks, as they are."""
    original = simulator.run

    def reversed_pair(g):
        result, transcript = original(g)
        partner = list(result.partner)
        u = next(u for u, v in enumerate(partner) if v != -1 and partner[v] == -1)
        partner[partner[u]], partner[u] = u, -1
        return dataclasses.replace(result, partner=tuple(partner)), transcript

    monkeypatch.setattr(simulator, "run", reversed_pair)
    ra = analyze(petersen())
    assert {check for check, ok in ra.checks.items() if not ok} == {"projection-equals-cover"}
    assert ra.pair_graph == analysis.build_pair_graphs(petersen(), original(petersen())[0])
