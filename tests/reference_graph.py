"""Reference graph-layer code: the quadratic-time derivations `src/` replaced.

`reference_parse` checks reciprocity by scanning neighbour lists, O(Σd²),
and derives ports through a tuple-keyed dict, one entry per port, as do
`reference_from_edge_list` and `reference_permute_ports`.
`reference_check_cover` and `reference_double_cover_edges` read the graph
through `edge_set`.
`reference_random_bounded_edges` shuffles all C(n,2) pairs and keeps each
with probability p. `reference_parse_edge_list` reads `.el` text line by
line and checks each pair in turn, refusing the first bad one. They are the
specifications the linear-time and bulk code in `portvc.graph` and
`portvc.analysis` is checked against; `reference_double_cover_edges` is
the one the port-table view of the double cover is checked against.

The reference readers take an integer token only as an optional sign then
ASCII digits, `INTEGER_TOKEN`: `int` alone would also read `1_0` as 10 and
non-ASCII digits such as `٢` as 2.

`edge_set`, `validate`, `relabel`, `serialize` and `ball` are graph helpers
that only the tests use: a port table's undirected edges, the list of its
broken invariants, a renaming of its nodes, the `.pg` text that
`portvc.graph.parse` reads, and the port-numbered neighbourhood of a node.
"""
from __future__ import annotations

import random
import re
from typing import Sequence

from portvc.errors import GraphError, ParseError
from portvc.graph import MAX_EDGE_LIST_NODES, EdgeList, PortGraph

INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")


def edge_set(g: PortGraph) -> frozenset[tuple[int, int]]:
    return frozenset(
        (v, u) if v < u else (u, v)
        for v, entries in enumerate(g.ports)
        for u, _ in entries
    )


def validate(g: PortGraph) -> list[str]:
    """Return all invariant violations, empty iff the graph is well formed."""
    violations: list[str] = []
    n = g.node_count
    for v in range(n):
        seen_nbrs: set[int] = set()
        for j, (u, k) in enumerate(g.ports[v], start=1):
            if not 0 <= u < n:
                violations.append(f"node {v} port {j}: neighbour {u} out of range")
                continue
            if u == v:
                violations.append(f"node {v} port {j}: self-loop")
                continue
            if u in seen_nbrs:
                violations.append(f"node {v}: parallel edge to {u}")
            seen_nbrs.add(u)
            if not 1 <= k <= len(g.ports[u]):
                violations.append(
                    f"node {v} port {j}: reciprocal port {k} out of range "
                    f"1..{len(g.ports[u])} at node {u}"
                )
                continue
            if g.ports[u][k - 1] != (v, j):
                violations.append(
                    f"reciprocity violation at node {v} port {j}: "
                    f"claims ({u}, {k}) but node {u} port {k} is {g.ports[u][k - 1]}"
                )
    return violations


def relabel(g: PortGraph, perm: Sequence[int]) -> PortGraph:
    """Rename node ids by `perm` (old id -> new id), preserving port structure."""
    if sorted(perm) != list(range(g.node_count)):
        raise GraphError("perm must be a permutation of 0..n-1")
    new_ports: list[tuple[tuple[int, int], ...] | None] = [None] * g.node_count
    for v in range(g.node_count):
        new_ports[perm[v]] = tuple((perm[u], k) for u, k in g.ports[v])
    return PortGraph(tuple(new_ports))  # type: ignore[arg-type]


def serialize(g: PortGraph) -> str:
    """Port-graph text format: header `n m`, then `v d(v) u_1 .. u_d` per node."""
    lines = [f"{g.node_count} {g.num_edges}"]
    for v in range(g.node_count):
        entries = g.ports[v]
        lines.append(" ".join([str(v), str(len(entries))] + [str(u) for u, _ in entries]))
    return "\n".join(lines) + "\n"


def ball(g: PortGraph, v: int, r: int) -> tuple[PortGraph, list[int]]:
    """The ball of radius r around v, and the old id of each of its nodes.

    The nodes within distance r of v are renumbered by (distance, id), so v
    is node 0. A node at distance < r keeps its row: all its neighbours are
    in the ball, and each keeps its port number. A node at distance r keeps
    only its edges to nodes in the ball, renumbered 1, 2, ... in their old
    order.
    """
    dist = {v: 0}
    frontier = [v]
    for d in range(1, r + 1):
        reached = []
        for x in frontier:
            for u, _ in g.ports[x]:
                if u not in dist:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    old = sorted(dist, key=lambda x: (dist[x], x))
    new = {x: i for i, x in enumerate(old)}
    port = {}  # (old id, old port) -> new port, of each edge kept
    for x in old:
        kept = [j for j, (u, _) in enumerate(g.ports[x], start=1) if u in new]
        port.update(((x, j), k) for k, j in enumerate(kept, start=1))
    rows = tuple(tuple((new[u], port[u, k]) for u, k in g.ports[x] if u in new) for x in old)
    return PortGraph(rows), old


def _from_neighbour_orders(orders) -> PortGraph:
    port_of: dict[tuple[int, int], int] = {}
    for v, nbrs in enumerate(orders):
        for j, u in enumerate(nbrs, start=1):
            port_of[(v, u)] = j
    ports = tuple(
        tuple((u, port_of[(u, v)]) for u in nbrs) for v, nbrs in enumerate(orders)
    )
    return PortGraph(ports)


def reference_from_edge_list(
    el: EdgeList, policy: str = "sorted", seed: int | None = None
) -> PortGraph:
    orders: list[list[int]] = [[] for _ in range(el.node_count)]
    for u, v in el.edges:
        orders[u].append(v)
        orders[v].append(u)
    if policy == "sorted":
        for nbrs in orders:
            nbrs.sort()
    elif policy == "random":
        rng = random.Random(seed)
        for nbrs in orders:
            nbrs.sort()
            rng.shuffle(nbrs)
    return _from_neighbour_orders(orders)


def reference_permute_ports(g: PortGraph, seed: int) -> PortGraph:
    rng = random.Random(seed)
    orders = []
    for v in range(g.node_count):
        nbrs = [u for u, _ in g.ports[v]]
        rng.shuffle(nbrs)
        orders.append(nbrs)
    return _from_neighbour_orders(orders)


def _int_tokens(tokens: list[str], line: int) -> list[int]:
    try:
        if not all(INTEGER_TOKEN.fullmatch(t) for t in tokens):
            raise ValueError
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"non-integer token in {tokens!r}", line) from None


def reference_parse(text: str) -> PortGraph:
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    if not rows:
        raise ParseError("empty input, expected `n m` header")
    header_line, header = rows[0]
    nums = _int_tokens(header, header_line)
    if len(nums) != 2:
        raise ParseError("header must be `n m`", header_line)
    n, m = nums
    if n < 0 or m < 0:
        raise ParseError("n and m must be non-negative", header_line)
    body = rows[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} node lines, found {len(body)}",
                         body[-1][0] if body else header_line)
    orders: list = [None] * n
    node_line = [0] * n
    for lineno, tokens in body:
        nums = _int_tokens(tokens, lineno)
        if len(nums) < 2:
            raise ParseError("node line must be `v d(v) neighbours...`", lineno)
        v, d, nbrs = nums[0], nums[1], nums[2:]
        if not 0 <= v < n:
            raise ParseError(f"node id {v} out of range", lineno)
        if orders[v] is not None:
            raise ParseError(f"duplicate line for node {v}", lineno)
        if len(nbrs) != d:
            raise ParseError(f"node {v} declares degree {d} but lists {len(nbrs)} neighbours", lineno)
        if len(set(nbrs)) != len(nbrs):
            raise ParseError(f"node {v} lists a neighbour twice", lineno)
        for u in nbrs:
            if not 0 <= u < n:
                raise ParseError(f"neighbour {u} of node {v} out of range", lineno)
            if u == v:
                raise ParseError(f"self-loop at node {v}", lineno)
        orders[v] = nbrs
        node_line[v] = lineno
    for v in range(n):
        for u in orders[v]:
            if v not in orders[u]:
                raise ParseError(f"edge {v}->{u} not reciprocated by node {u}", node_line[v])
    g = _from_neighbour_orders(orders)
    if g.num_edges != m:
        raise ParseError(f"header claims {m} edges, node lines give {g.num_edges}", header_line)
    return g


def reference_parse_edge_list(text: str) -> EdgeList:
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            rows.append((lineno, tokens))
    if not rows:
        raise ParseError("empty input, expected node count header")
    header_line, header = rows[0]
    nums = _int_tokens(header, header_line)
    if len(nums) != 1:
        raise ParseError("header must be a single node count", header_line)
    n = nums[0]
    if n > MAX_EDGE_LIST_NODES:
        raise ParseError(f"node count {n} exceeds the limit of {MAX_EDGE_LIST_NODES}", header_line)
    edges: list[tuple[int, int]] = []
    for lineno, tokens in rows[1:]:
        nums = _int_tokens(tokens, lineno)
        if len(nums) != 2:
            raise ParseError("edge line must be `u v`", lineno)
        edges.append((nums[0], nums[1]))
    # every line is read before any pair is checked, the node count first
    if n < 0:
        raise ParseError(f"node_count must be non-negative, got {n}", header_line)
    seen: set[tuple[int, int]] = set()
    for (lineno, _), (u, v) in zip(rows[1:], edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"node id out of range in edge {{{u}, {v}}}", lineno)
        if u == v:
            raise ParseError(f"self-loop at node {u}", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(f"duplicate edge {{{e[0]}, {e[1]}}}", lineno)
        seen.add(e)
    return EdgeList(n, tuple((u, v) if u < v else (v, u) for u, v in edges))


def reference_check_cover(g: PortGraph, cover) -> bool:
    cover = set(cover)
    return all(u in cover or v in cover for u, v in edge_set(g))


def reference_double_cover_edges(g: PortGraph) -> frozenset[tuple[int, int]]:
    n = g.node_count
    edges = set()
    for u, v in edge_set(g):
        edges.add((u, v + n))
        edges.add((v, u + n))
    return frozenset(edges)


def reference_random_bounded_edges(n: int, max_degree: int, p: float, seed: int) -> EdgeList:
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    picked: list[tuple[int, int]] = []
    for u, v in pairs:
        if rng.random() < p and deg[u] < max_degree and deg[v] < max_degree:
            picked.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return EdgeList.from_pairs(n, picked)
