"""Local 3-approximation of minimum vertex cover in the port-numbering model.

Library layout:

- `graph`: port-numbered graphs, generators, the `.pg` and `.el` text formats
- `algorithm`: the pure per-node odd/even transition functions
- `simulator`: the synchronous round engine, transcripts, replay
- `analysis`: pair-graph decomposition and the certified lower bound
- `double_cover`: the bipartite double-cover / maximal-matching view
- `oracle`: exact minimum vertex cover for small instances, by branch and bound
- `checks`: named invariant checks over a run
- `cli`: the `vc` command-line tool

The package re-exports nothing: import each name from its module.
"""
