"""Reference oracle: exact minimum vertex cover by plain subset enumeration.

`brute_force` tries every node subset in increasing size and returns the
first that covers every edge. It shares nothing with the branch-and-bound
search of `portvc.oracle.solve`, so the two are independent checks of the
true optimum that the acceptance criteria hinge on.
"""
from __future__ import annotations

import itertools

from portvc.errors import OracleRefusal
from portvc.graph import PortGraph
from portvc.oracle import OracleResult

from reference_graph import edge_set

BRUTE_FORCE_CAP = 20


def brute_force(g: PortGraph) -> OracleResult:
    """Exhaustive subset enumeration in increasing size; first cover wins."""
    n = g.node_count
    if n > BRUTE_FORCE_CAP:
        raise OracleRefusal(f"instance has {n} nodes, brute-force cap is {BRUTE_FORCE_CAP}")
    edges = sorted(edge_set(g))
    if not edges:
        return OracleResult(0, frozenset(), 1)
    checked = 0
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            checked += 1
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return OracleResult(k, frozenset(chosen), checked)
    raise AssertionError("unreachable: the full node set always covers")
