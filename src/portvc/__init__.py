"""Local 3-approximation of minimum vertex cover in the port-numbering model.

Library layout:

- `graph`: port-numbered graphs, generators, serialization
- `algorithm`: the pure per-node odd/even transition functions
- `simulator`: the synchronous round engine, transcripts, replay
- `analysis`: pair-graph decomposition and the certified lower bound
- `double_cover`: the bipartite double-cover / maximal-matching view
- `oracle`: exact minimum vertex cover for small instances, by branch and bound
- `checks`: named invariant checks over a run
- `cli`: the `vc` command-line tool
"""

from .algorithm import Msg, NodeState, even_step, odd_step
from .analysis import Certificate, PairGraph, build_pair_graphs, certify, check_cover
from .checks import analyze
from .double_cover import (
    DoubleCover,
    build_double_cover,
    extract_matching,
    project_cover,
    project_matching_edges,
)
from .errors import (
    AnalysisFault,
    GraphError,
    OracleRefusal,
    ParseError,
    ProtocolFault,
)
from .graph import (
    EdgeList,
    PortGraph,
    from_edge_list,
    generate,
    parse,
    parse_edge_list,
    permute_ports,
    relabel,
    serialize,
    serialize_edge_list,
    validate,
)
from .oracle import OracleResult, solve
from .simulator import CoverResult, Transcript, replay, run

__all__ = [
    "Msg", "NodeState", "even_step", "odd_step",
    "Certificate", "PairGraph", "build_pair_graphs", "certify", "check_cover",
    "analyze",
    "DoubleCover", "build_double_cover", "extract_matching",
    "project_cover", "project_matching_edges",
    "AnalysisFault", "GraphError", "OracleRefusal", "ParseError", "ProtocolFault",
    "EdgeList", "PortGraph", "from_edge_list", "generate", "parse",
    "parse_edge_list", "permute_ports", "relabel", "serialize",
    "serialize_edge_list", "validate",
    "OracleResult", "solve",
    "CoverResult", "Transcript", "replay", "run",
]
