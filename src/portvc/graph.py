"""Port-numbered graphs: construction, generators, the `.pg` and `.el` formats.

A `PortGraph` is a simple undirected graph in which every node privately
orders its incident edges by port numbers 1..d(v). It is the single source
of truth for topology; everything downstream (simulator, analysis, double
cover) consumes it read-only. Parsing either text format costs O(n + m),
and `parse` and the port numbering peak at about the port table they build.
An `.el` text in the form `serialize_edge_list` writes is read in one bulk
pass; any other valid text is read line by line, with identical results.
"""
from __future__ import annotations

import math
import random
import re
from itertools import combinations, count
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GraphError, ParseError

NUMBERING_POLICIES = ("sorted", "input", "random")

# Largest node count an `.el` header may declare. Ports are allocated per
# node before any edge is read, so a larger header is refused unread.
MAX_EDGE_LIST_NODES = 1_000_000

# Largest number of node pairs a generator will materialize: the C(n,2)
# pairs of a clique, and the expected number of G(n, p) candidate pairs,
# p*C(n,2), that `random_bounded_edges` samples before the degree filter.
MAX_RANDOM_CANDIDATES = 2_000_000


class EdgeList(NamedTuple):
    """Plain undirected edge list, the input representation before ports."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, node_count: int, pairs: Iterable[tuple[int, int]]) -> "EdgeList":
        """Normalize each pair to (low, high) and check it, in one scan: node
        ids in 0..n-1, no self-loop, no edge twice. The first pair refused
        raises a `GraphError` whose `index` is that pair's position in
        `pairs`, or -1 when the node count is refused."""
        if node_count < 0:
            raise _refused(f"node_count must be non-negative, got {node_count}", -1)
        edges: dict[tuple[int, int], None] = {}  # a dict keeps the first-seen order
        for p in pairs:
            u, v = p
            e = p if u < v else (v, u)
            if not (0 <= e[0] and e[1] < node_count):
                raise _refused(f"node id out of range in edge {{{u}, {v}}}", len(edges))
            if u == v:
                raise _refused(f"self-loop at node {u}", len(edges))
            if e in edges:
                raise _refused(f"duplicate edge {{{e[0]}, {e[1]}}}", len(edges))
            edges[e] = None  # each pair before the refused one added one edge
        return cls(node_count, tuple(edges))


def _refused(reason: str, index: int) -> GraphError:
    exc = GraphError(reason)
    exc.index = index  # type: ignore[attr-defined]
    return exc


class PortGraph(NamedTuple):
    """Simple graph with 1-based port numbering at every node.

    `ports[v][j-1] == (u, k)` means port j of node v connects to port k of
    node u. One row per node: the node count is the row count. Immutable
    after construction; safe to share across threads.
    """

    ports: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.ports)

    @property
    def max_degree(self) -> int:
        return max(map(len, self.ports), default=0)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.ports)) // 2


def _from_neighbour_orders(orders: Sequence[Sequence[int]]) -> PortGraph:
    """Build a PortGraph from per-node neighbour orderings.

    Reciprocal port numbers are derived from the position of each node in
    its neighbour's ordering: ids in 0..n-1, no duplicates. The first u, in
    row order, whose ordering lacks v raises `KeyError(v, u)`. The position
    dicts are freed once the reciprocal ports are read, before the rows.
    """
    position = [dict(zip(nbrs, count(1))) for nbrs in orders]
    try:  # v's port at each u it lists, row by row
        recip = iter([position[u][v] for v, nbrs in enumerate(orders) for u in nbrs])
    except KeyError as exc:  # the row of v = exc.args[0] lists a u that lacks v
        v = exc.args[0]
        raise KeyError(v, next(u for u in orders[v] if v not in position[u])) from None
    del position
    ports = tuple(tuple(zip(nbrs, recip)) for nbrs in orders)  # zip stops at the row's end
    return PortGraph(ports)


def from_edge_list(el: EdgeList, policy: str = "sorted", seed: int | None = None) -> PortGraph:
    """Assign port numbers to an edge list under the given numbering policy.

    Policies: "sorted" (ascending neighbour id), "input" (order of first
    appearance in the edge list), "random" (seeded per-node shuffle; seed
    required). Deterministic for fixed (edges, policy, seed).
    """
    if policy not in NUMBERING_POLICIES:
        raise GraphError(f"unknown numbering policy {policy!r}")
    if policy == "random" and seed is None:
        raise GraphError("random numbering policy requires a seed")
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


def permute_ports(g: PortGraph, seed: int) -> PortGraph:
    """Independently shuffle every node's port order with a seeded RNG."""
    rng = random.Random(seed)
    orders = []
    for row in g.ports:
        nbrs = [u for u, _ in row]
        rng.shuffle(nbrs)
        orders.append(nbrs)
    return _from_neighbour_orders(orders)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_node_count(n: int) -> None:
    """Refuse, before anything is allocated, a graph `vc run` could not read back."""
    if n > MAX_EDGE_LIST_NODES:
        raise GraphError(f"n {n} exceeds the limit of {MAX_EDGE_LIST_NODES}")


def cycle_edges(n: int) -> EdgeList:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    _check_node_count(n)
    return EdgeList(n, (*zip(range(n - 1), range(1, n)), (0, n - 1)))


def path_edges(n: int) -> EdgeList:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    _check_node_count(n)
    return EdgeList(n, tuple(zip(range(n - 1), range(1, n))))


def clique_edges(n: int) -> EdgeList:
    if n < 1:
        raise GraphError(f"clique needs n >= 1, got {n}")
    _check_node_count(n)
    pairs = n * (n - 1) // 2
    if pairs > MAX_RANDOM_CANDIDATES:
        raise GraphError(
            f"clique pair count C(n,2) = {pairs} exceeds the limit of {MAX_RANDOM_CANDIDATES}")
    return EdgeList(n, tuple(combinations(range(n), 2)))


def star_edges(leaves: int) -> EdgeList:
    if leaves < 1:
        raise GraphError(f"star needs >= 1 leaf, got {leaves}")
    _check_node_count(leaves + 1)
    return EdgeList(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def random_bounded_edges(n: int, max_degree: int, p: float, seed: int) -> EdgeList:
    """Seeded random graph with max degree <= max_degree.

    Samples G(n, p) by geometric skipping over the pairs (w, v), w < v, in
    row order (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005), shuffles
    the sample with the same seeded RNG, then keeps each pair in that order
    unless it would push an endpoint over the degree bound. Expected cost
    O(n + p*C(n,2)). Deterministic for fixed (n, max_degree, p, seed).
    Refuses n above `MAX_EDGE_LIST_NODES` and an expected candidate count
    p*C(n,2) above `MAX_RANDOM_CANDIDATES`.
    """
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    if max_degree < 0:
        raise GraphError(f"max_degree must be non-negative, got {max_degree}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    if seed is None:
        raise GraphError("random generator requires a seed")
    _check_node_count(n)
    total = n * (n - 1) // 2
    if p * total > MAX_RANDOM_CANDIDATES:
        raise GraphError(
            f"expected candidate count p*C(n,2) = {p * total:.0f} exceeds the limit of "
            f"{MAX_RANDOM_CANDIDATES}"
        )
    rng = random.Random(seed)
    log_q = math.log1p(-p) if p < 1 else -math.inf
    sample: list[tuple[int, int]] = []
    w, v = -1, 1 if p > 0 else n  # p = 0 draws nothing (and log_q would be 0)
    while v < n:
        skip = math.log(1.0 - rng.random()) / log_q
        if skip >= total:  # past the last pair; also an infinite skip from a denormal p
            break
        w += 1 + int(skip)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            sample.append((w, v))
    rng.shuffle(sample)
    deg = [0] * n
    picked: list[tuple[int, int]] = []
    for u, v in sample:
        if deg[u] < max_degree and deg[v] < max_degree:
            picked.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return EdgeList(n, tuple(picked))  # distinct pairs (w, v), w < v, by construction


# kind -> (generator, parameter names, parameter types)
GENERATORS = {
    "cycle": (cycle_edges, ("n",), (int,)),
    "path": (path_edges, ("n",), (int,)),
    "clique": (clique_edges, ("n",), (int,)),
    "star": (star_edges, ("leaves",), (int,)),
    "random": (random_bounded_edges, ("n", "max_degree", "p"), (int, int, float)),
}


def generate(kind: str, *params, seed: int | None = None) -> EdgeList:
    """Dispatch to a named generator; used by the CLI.

    Each parameter, a string on the command line, is read by `plain_number`
    as the type the generator expects. A wrong parameter count or a value
    that does not convert raises `GraphError` naming the kind and its params.
    """
    if kind not in GENERATORS:
        raise GraphError(f"unknown generator kind {kind!r}")
    make, names, types = GENERATORS[kind]
    expected = f"{kind} generator takes params: {' '.join(names)}"
    if len(params) != len(names):
        raise GraphError(f"{expected}; got {len(params)}")
    values = []
    for name, typ, raw in zip(names, types, params):
        try:
            values.append(plain_number(typ, raw) if isinstance(raw, str) else typ(raw))
        except (TypeError, ValueError):
            kind_of = "an integer" if typ is int else "a number"
            raise GraphError(f"{expected}; {name} must be {kind_of}, got {raw!r}") from None
    if kind != "random":
        return make(*values)
    if seed is None:
        raise GraphError("random generator requires --seed")
    return make(*values, seed)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def _plain_ints(line: str, tokens: list[str]) -> bool:
    """Whether no token of `line` holds `_` or a non-ASCII character: `int` reads both."""
    return "_" not in line and (line.isascii() or all(map(str.isascii, tokens)))


def plain_number(typ: type, token: str):
    """`typ(token)`, `typ` being `int` or `float`, but `ValueError` for a token
    with whitespace or one `_plain_ints` refuses, although `typ` reads both."""
    if token.split() != [token] or not _plain_ints(token, [token]):
        raise ValueError(token)
    return typ(token)


def _int_tokens(line: str, lineno: int) -> list[int]:
    tokens = line.split()
    try:
        if not _plain_ints(line, tokens):
            raise ValueError
        return list(map(int, tokens))
    except ValueError:
        raise ParseError(f"non-integer token in {tokens!r}", lineno) from None


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) per line that is neither blank nor a `#` comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip()[:1] not in ("", "#"):
            yield lineno, line


def parse(text: str) -> PortGraph:
    """Port-graph text format: header `n m`, then one line `v d(v) u_1 .. u_d`
    per node, listing v's neighbours in port order, port 1 first. Lines may
    come in any node order; `#` starts a comment line. Costs O(n + m).
    A node line whose tokens are all ids 0..n-1 in plain decimal is read
    through one table lookup per token; any other line as `_int_tokens`
    reads it, with identical results and errors."""
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty input, expected `n m` header")
    header_line, header = lines[0]
    nums = _int_tokens(header, header_line)
    if len(nums) != 2:
        raise ParseError("header must be `n m`", header_line)
    n, m = nums
    if n < 0 or m < 0:
        raise ParseError("n and m must be non-negative", header_line)
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} node lines, found {len(body)}",
                         body[-1][0] if body else header_line)
    orders: list[list[int] | None] = [None] * n
    node_line = [0] * n
    ids = {str(i): i for i in range(n)}  # sized by n only after n node lines were found
    for lineno, line in body:  # split one line at a time: no token outlives its line
        try:
            nums, in_range = list(map(ids.__getitem__, line.split())), True
        except KeyError:  # another spelling, or a value outside 0..n-1
            nums, in_range = _int_tokens(line, lineno), False
        if len(nums) < 2:
            raise ParseError("node line must be `v d(v) neighbours...`", lineno)
        v, d, nbrs = nums[0], nums[1], nums[2:]
        if not 0 <= v < n:
            raise ParseError(f"node id {v} out of range", lineno)
        if orders[v] is not None:
            raise ParseError(f"duplicate line for node {v}", lineno)
        if len(nbrs) != d:
            raise ParseError(f"node {v} declares degree {d} but lists {len(nbrs)} neighbours", lineno)
        listed = set(nbrs)
        if len(listed) != len(nbrs):
            raise ParseError(f"node {v} lists a neighbour twice", lineno)
        if v in listed or not in_range and nbrs and (min(nbrs) < 0 or max(nbrs) >= n):
            u = next(u for u in nbrs if not 0 <= u < n or u == v)
            if u == v:
                raise ParseError(f"self-loop at node {v}", lineno)
            raise ParseError(f"neighbour {u} of node {v} out of range", lineno)
        orders[v] = nbrs
        node_line[v] = lineno
    del lines, body, ids  # freed before the port rows are built
    try:
        g = _from_neighbour_orders(orders)  # type: ignore[arg-type]
    except KeyError as exc:
        v, u = exc.args
        raise ParseError(f"edge {v}->{u} not reciprocated by node {u}", node_line[v]) from None
    if g.num_edges != m:
        raise ParseError(f"header claims {m} edges, node lines give {g.num_edges}", header_line)
    return g


def serialize_edge_list(el: EdgeList) -> str:
    lines = [str(el.node_count)]
    lines.extend(f"{u} {v}" for u, v in el.edges)
    return "\n".join(lines) + "\n"


# `serialize_edge_list`'s form: a node count line, then `u v` lines, in ASCII
# digits and single spaces, each ending in `\n`. The search for the first
# newline not followed by a `u v` line keeps no state per line, unlike a
# `fullmatch` of `(?:\d+ \d+\n)*`, which keeps one backtracking frame per line.
_EDGE_LIST_HEADER = re.compile(r"\d+\n", re.ASCII)
_OFF_FORM_EDGE_LINE = re.compile(r"\n(?!\d+ \d+\n|\Z)", re.ASCII)


def parse_edge_list(text: str) -> EdgeList:
    """Edge-list text format: header `n`, then one `u v` pair per line.

    Text in the form `serialize_edge_list` writes is read in one pass: one
    split, one `int` conversion of every token. Any other text (comments,
    blank lines, tabs, CRLF, signs, a malformed line) is read line by line,
    with identical results and errors.
    """
    if _EDGE_LIST_HEADER.match(text) and not _OFF_FORM_EDGE_LINE.search(text):
        numbers = map(int, text.split())
        try:
            n = next(numbers)
            pairs = list(zip(numbers, numbers))
        except ValueError:  # a number past `int`'s digit limit: read line by line
            pass
        else:
            if n <= MAX_EDGE_LIST_NODES:  # else the line-by-line reader refuses it
                return _edge_list(n, pairs, range(1, len(pairs) + 2))
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty input, expected node count header")
    header_line, header = lines[0]
    nums = _int_tokens(header, header_line)
    if len(nums) != 1:
        raise ParseError("header must be a single node count", header_line)
    n = nums[0]
    if n > MAX_EDGE_LIST_NODES:
        raise ParseError(f"node count {n} exceeds the limit of {MAX_EDGE_LIST_NODES}", header_line)
    pairs = []
    for lineno, line in lines[1:]:
        nums = _int_tokens(line, lineno)
        if len(nums) != 2:
            raise ParseError("edge line must be `u v`", lineno)
        pairs.append((nums[0], nums[1]))
    return _edge_list(n, pairs, [lineno for lineno, _ in lines])


def _edge_list(n: int, pairs: list[tuple[int, int]], lines: Sequence[int]) -> EdgeList:
    """`EdgeList.from_pairs(n, pairs)`, with a refusal raised on the line of
    the pair refused: `lines[index + 1]` for the pair at `index`, and
    `lines[0]`, the header's, for the node count."""
    try:
        return EdgeList.from_pairs(n, pairs)
    except GraphError as exc:
        raise ParseError(str(exc), lines[exc.index + 1]) from exc
