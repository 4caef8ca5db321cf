"""Verdicts of `checks.analyze` when one layer faults or gives a wrong answer.

Each case replaces one layer and pins the exact set of checks that fail,
which checks keep passing, and which of `pair_graph` and `certificate` are
missing.
"""
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
    return lambda pg, size: original(pg, size)._replace(certified_ratio=Fraction(7, 2))


def _one_more_node(original):
    return lambda h: original(h) | {h.graph.node_count}


def _no_edges(original):
    return lambda h: frozenset()


def _cover_invalid(original):
    return lambda g, cover: False


def _late_last_step(original):
    def run(g):
        result, transcript = original(g)
        return result._replace(last_active_step=2 * g.max_degree + 1), transcript
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
    # is accepted, but no partner's accepted port leads back
    g = PortGraph((((1, 1),), ((2, 1),), ((0, 1),)))
    with pytest.raises(AnalysisFault, match=r"^pair symmetry violated: node 0 is paired with "
                       r"node 1, whose accepted port 1 does not lead back$"):
        analysis.check_pair_symmetry(g, run(g)[0])
    ra = analyze(g)
    assert tuple(ra.checks) == CHECK_NAMES
    assert ra.checks["pair-symmetry"] is False
    assert {check for check, ok in ra.checks.items() if ok} == {"cover-valid", "round-bound"}


def test_reversed_pair_fails_only_the_projection(monkeypatch):
    """`projection-equals-cover` compares the double-cover `mate` with
    `partner` as directed arrays. Reversing a chain of accepted proposals,
    each u's proposal accepted by v read as v's accepted by u, with
    `accepted` reversed to match, leaves the pair edges, and so the
    pair-graph and pair-symmetry checks, as they are.

    A single pair cannot be reversed alone: a node v whose proposals were all
    rejected proposed to every neighbour, so u, whose proposal v accepted,
    had already accepted one, and reversing u and v alone leaves two nodes
    paired with u. The chain starts at a node that accepted none and
    follows `partner` to a node whose proposals were all rejected; on
    Petersen it is 6, 8, 3, 2."""
    original = simulator.run
    chains = []

    def reversed_chain(g):
        result, transcript = original(g)
        partner, accepted = list(result.partner), list(result.accepted)
        chain = [next(x for x, u in enumerate(partner) if u != -1 and not accepted[x])]
        while partner[chain[-1]] != -1:
            chain.append(partner[chain[-1]])
        chains.append(chain)
        partner[chain[0]], accepted[chain[-1]] = -1, 0
        for x, y in zip(chain, chain[1:]):
            partner[y] = x
            accepted[x] = 1 + [u for u, _ in g.ports[x]].index(y)
        return result._replace(partner=tuple(partner), accepted=tuple(accepted)), \
            transcript

    monkeypatch.setattr(simulator, "run", reversed_chain)
    ra = analyze(petersen())
    assert chains == [[6, 8, 3, 2]]
    assert {check for check, ok in ra.checks.items() if not ok} == {"projection-equals-cover"}
    assert ra.pair_graph == analysis.build_pair_graphs(petersen(), original(petersen())[0])
