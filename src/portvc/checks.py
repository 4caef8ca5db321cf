"""Named invariant checks over a single run, shared by the CLI and tests.

Each check maps to a stable name so scripts can pinpoint what failed; a
check whose layer raises `AnalysisFault` counts as failed, never as
skipped. The nine names, in report order, are `CHECK_NAMES`. The three
pair-graph checks (`g1-max-degree-2`, `g1-nonisolated-equals-C`,
`components-paths-or-cycles`) share one layer, `build_pair_graphs`, so they
fail together, and `certified-ratio-le-3` fails with them because the
certificate is computed from the pair graph. Pair symmetry is a verdict
like the others, read from `CoverResult.partner` and `accepted`.
`projection-equals-cover` compares two independent derivations of the run:
the projected cover with `CoverResult.cover`, and the double-cover `mate`
array, read from the accepts in `Transcript.flat`, with `partner`, built by
the engine from each node's port `a`. The second is directed: node u's
proposal accepted by v on one side, u's partner v on the other. A failed
check still yields a full report (`vc` prints it and exits 3); only a
`ProtocolFault` from the engine ends `vc` with no report.
"""
from __future__ import annotations

from typing import NamedTuple

from . import analysis, double_cover, simulator
from .errors import AnalysisFault
from .graph import PortGraph

CHECK_NAMES = (
    "cover-valid",
    "pair-symmetry",
    "g1-max-degree-2",
    "g1-nonisolated-equals-C",
    "components-paths-or-cycles",
    "certified-ratio-le-3",
    "round-bound",
    "double-cover-maximal-matching",
    "projection-equals-cover",
)


class RunAnalysis(NamedTuple):
    result: simulator.CoverResult
    transcript: simulator.Transcript
    pair_graph: analysis.PairGraph | None
    certificate: analysis.Certificate | None
    checks: dict[str, bool]

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def _or_none(layer, *args):
    """`layer(*args)`, or None when that layer raises `AnalysisFault`."""
    try:
        return layer(*args)
    except AnalysisFault:
        return None


def analyze(g: PortGraph) -> RunAnalysis:
    """Run the algorithm on g and evaluate every named check."""
    result, transcript = simulator.run(g)
    pair_graph = _or_none(analysis.build_pair_graphs, g, result)
    certificate = (
        None if pair_graph is None else _or_none(analysis.certify, pair_graph, result.cover_size)
    )
    ratio = certificate.certified_ratio if certificate else None
    h = _or_none(double_cover.extract_matching, double_cover.build_double_cover(g), transcript.flat)
    checks = {
        "cover-valid": analysis.check_cover(g, result.cover),
        "pair-symmetry": bool(_or_none(analysis.check_pair_symmetry, g, result)),
        "g1-max-degree-2": pair_graph is not None,
        "g1-nonisolated-equals-C": pair_graph is not None,
        "components-paths-or-cycles": pair_graph is not None,
        "certified-ratio-le-3": certificate is not None and (ratio is None or ratio <= 3),
        "round-bound": result.last_active_step <= 2 * g.max_degree,
        "double-cover-maximal-matching": h is not None,
        "projection-equals-cover": h is not None
        and double_cover.project_cover(h) == result.cover
        and double_cover.project_matching_edges(h) == result.partner,
    }
    return RunAnalysis(result, transcript, pair_graph, certificate, checks)
