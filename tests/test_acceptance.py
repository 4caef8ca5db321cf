"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight sweeps (exhaustive small graphs, the large random
sweep) live here and nowhere else.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from portvc.analysis import (
    PairGraph,
    build_pair_graphs,
    certify,
    check_cover,
)
from portvc.checks import analyze
from portvc.double_cover import (
    build_double_cover,
    extract_matching,
    project_cover,
    project_matching_edges,
)
from portvc.graph import (
    EdgeList,
    clique_edges,
    cycle_edges,
    from_edge_list,
    parse,
    path_edges,
    random_bounded_edges,
    star_edges,
)
from portvc.oracle import solve
from portvc.simulator import format_transcript, replay, run

from conftest import consistent_cycle, g_from_pairs, load_corpus, pair_edges, petersen
from reference_engine import reference_run
from reference_graph import relabel
from test_golden import TIGHT6

THREE = Fraction(3)


def _passed(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS  {text}")


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

def _named_graphs():
    graphs = []
    for n in range(3, 10):
        graphs.append(from_edge_list(cycle_edges(n)))
    for n in range(1, 9):
        graphs.append(from_edge_list(path_edges(n)))
    for n in range(1, 8):
        graphs.append(from_edge_list(clique_edges(n)))
    for k in range(1, 8):
        graphs.append(from_edge_list(star_edges(k)))
    for n in (4, 5, 8):
        graphs.append(consistent_cycle(n))
    graphs.append(petersen())
    graphs.append(from_edge_list(EdgeList.from_pairs(6, [])))  # isolated nodes
    for seed in range(30):
        el = random_bounded_edges(18, 5, 0.25, seed=seed)
        graphs.append(from_edge_list(el, "random", seed))
    return graphs


@pytest.fixture(scope="module")
def corpus_graphs():
    graphs = list(_named_graphs())
    for n, pairs in load_corpus(max_n=7):
        graphs.append(g_from_pairs(n, pairs))
    return graphs


@pytest.fixture(scope="module")
def corpus_runs(corpus_graphs):
    return [(g, analyze(g)) for g in corpus_graphs]


# ---------------------------------------------------------------------------
# Criterion 1: 3-approximation against the exact oracle
# ---------------------------------------------------------------------------

def test_criterion_01_three_approx_oracle():
    checked = 0
    for n, pairs in load_corpus(max_n=8):
        g = g_from_pairs(n, pairs)
        res, _ = run(g)
        opt = solve(g)
        assert check_cover(g, res.cover), f"invalid cover on corpus graph {pairs}"
        assert res.cover_size <= 3 * opt.optimum_size, (
            f"ratio violated on {pairs}: |C|={res.cover_size}, |C*|={opt.optimum_size}"
        )
        checked += 1
    assert checked == 12113  # every connected graph on <= 8 nodes

    rng = random.Random(20080521)
    for _ in range(1000):
        n = rng.randint(2, 16)
        delta = rng.randint(1, 5)
        p = rng.uniform(0.1, 0.5)
        el = random_bounded_edges(n, delta, p, seed=rng.getrandbits(32))
        opt = solve(from_edge_list(el))
        for _ in range(5):
            g = from_edge_list(el, "random", rng.getrandbits(32))
            res, _ = run(g)
            assert check_cover(g, res.cover)
            assert res.cover_size <= 3 * opt.optimum_size
            checked += 1
    _passed(1, f"|C| <= 3|C*| on {checked} oracle-checked runs")


# ---------------------------------------------------------------------------
# Criterion 2: certificate form at large scale
# ---------------------------------------------------------------------------

def test_criterion_02_three_approx_certificate_large():
    rng = random.Random(424242)
    oracle_checked = 0
    largest = 0
    for trial in range(10_000):
        if trial == 0:
            n = 10_000  # pin the extreme size
        elif trial % 100 == 0:
            n = int(round(300 * (10_000 / 300) ** rng.random()))
        else:
            n = int(round(4 * (300 / 4) ** rng.random()))
        largest = max(largest, n)
        delta = rng.randint(1, 10)
        d_target = rng.uniform(0.5, min(delta, 6))
        p = min(1.0, d_target / max(1, n - 1))
        el = random_bounded_edges(n, delta, p, seed=rng.getrandbits(32))
        g = from_edge_list(el, "random", rng.getrandbits(32))
        res, _ = run(g)
        pg = build_pair_graphs(g, res)
        cert = certify(pg, res.cover_size)
        if cert.certified_ratio is not None:
            assert cert.certified_ratio <= THREE, (
                f"certified ratio {cert.certified_ratio} > 3 at trial {trial}"
            )
        if n <= 14:
            opt = solve(g)
            assert cert.lower_bound <= opt.optimum_size, (
                f"unsound bound at trial {trial}: LB={cert.lower_bound}, "
                f"|C*|={opt.optimum_size}"
            )
            oracle_checked += 1
    assert largest == 10_000
    _passed(2, f"certified ratio <= 3 on 10000 graphs up to n={largest}; "
               f"LB sound on {oracle_checked} oracle-checked instances")


# ---------------------------------------------------------------------------
# Criterion 3: round bound and fixed point
# ---------------------------------------------------------------------------

def test_criterion_03_round_bound(corpus_graphs):
    for g in corpus_graphs:
        res, tr = run(g)
        assert res.last_active_step <= 2 * g.max_degree, (
            f"message after step 2*delta on {g}"
        )
        # the reference steps every node two steps past the horizon
        res2, tr2, history = reference_run(g, extra_steps=2, record_history=True)
        assert tr2.entries == tr.entries, "messages sent past the horizon"
        assert history[-1] == history[-3], "states not a fixed point"
        assert (res2.cover, res2.partner, res2.accepted) == (res.cover, res.partner, res.accepted)
    _passed(3, f"no message after 2*delta and fixed point on {len(corpus_graphs)} graphs")


# ---------------------------------------------------------------------------
# Criterion 4: cover validity
# ---------------------------------------------------------------------------

def test_criterion_04_cover_validity(corpus_runs):
    for g, ra in corpus_runs:
        assert ra.checks["cover-valid"], f"invalid cover on {g}"
        assert check_cover(g, ra.result.cover)
    _passed(4, f"cover valid on {len(corpus_runs)} corpus runs "
               "(the criterion-1 sweep asserts it on its runs too)")


# ---------------------------------------------------------------------------
# Criterion 5: pair-graph structure
# ---------------------------------------------------------------------------

def test_criterion_05_pair_graph_structure(corpus_runs):
    for g, ra in corpus_runs:
        pg = ra.pair_graph
        assert pg is not None
        edges = pair_edges(ra.result)
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d <= 2 for d in deg.values())
        assert frozenset(deg) == ra.result.cover
        covered = [v for nodes in pg.components for v in nodes]
        assert sorted(covered) == sorted(ra.result.cover)
        held = 0
        for nodes in pg.components:
            # a path of L nodes holds its L - 1 steps; a cycle also the edge
            # joining its ends, which needs L >= 3
            assert len(nodes) >= 2
            assert all(((u, v) if u < v else (v, u)) in edges for u, v in zip(nodes, nodes[1:]))
            inside = sum(u in nodes and v in nodes for u, v in edges)
            joined = len(nodes) >= 3 and tuple(sorted((nodes[0], nodes[-1]))) in edges
            assert inside == len(nodes) - 1 + joined
            held += inside
        assert held == len(edges)
    _passed(5, f"pair-graph invariants hold on {len(corpus_runs)} runs")


# ---------------------------------------------------------------------------
# Criterion 6: double-cover equivalence
# ---------------------------------------------------------------------------

def test_criterion_06_double_cover_equivalence(corpus_runs):
    for g, ra in corpus_runs:
        h = extract_matching(build_double_cover(g), ra.transcript.flat)  # asserts maximality
        assert project_cover(h) == ra.result.cover
        assert project_matching_edges(h) == ra.result.partner
    _passed(6, f"matching maximal and projections agree on {len(corpus_runs)} runs")


# ---------------------------------------------------------------------------
# Criterion 7: worst-case component arithmetic
# ---------------------------------------------------------------------------

def test_criterion_07_worst_case_component():
    pg = PairGraph(((0, 1, 2),))
    cert = certify(pg, 3)
    assert cert.lower_bound == 1
    assert cert.certified_ratio == Fraction(3, 1)
    _passed(7, "3-node path: LB contribution 1, local ratio 3")


def test_factor_three_is_reached():
    """A genuine run reaches the factor 3. Over all 144 port numberings of
    the golden case `tight6` (optimum {4, 5}), every check passes, every
    certified ratio is at most 3, and the largest true ratio is exactly 3,
    reached by the golden numbering with cover 6 and lower bound 2."""
    tight = parse(TIGHT6)
    optimum = solve(tight).optimum_size
    assert optimum == 2
    orders = [[u for u, _ in row] for row in tight.ports]
    worst = Fraction(0)
    numberings = 0
    for order in itertools.product(*map(itertools.permutations, orders)):
        lines = "".join(f"{v} {len(nbrs)} {' '.join(map(str, nbrs))}\n"
                        for v, nbrs in enumerate(order))
        g = parse(f"6 6\n{lines}")
        ra = analyze(g)
        assert all(ra.checks.values()), ra.checks
        assert ra.certificate.certified_ratio <= THREE
        worst = max(worst, Fraction(ra.result.cover_size, optimum))
        if g == tight:
            assert (ra.result.cover_size, ra.certificate.lower_bound) == (6, 2)
        numberings += 1
    assert numberings == 144
    assert worst == THREE
    _passed(7, f"factor 3 reached on {numberings} numberings of a 6-node graph")


# ---------------------------------------------------------------------------
# Criterion 8: golden traces
# ---------------------------------------------------------------------------

GOLDEN_K2 = "1 0 1 propose\n1 1 1 propose\n2 0 1 accept\n2 1 1 accept\n"
GOLDEN_STAR3 = (
    "1 0 1 propose\n1 1 1 propose\n1 2 1 propose\n1 3 1 propose\n"
    "2 0 1 accept\n2 0 2 reject\n2 0 3 reject\n2 1 1 accept\n"
)
GOLDEN_C4 = (
    "1 0 1 propose\n1 1 1 propose\n1 2 1 propose\n1 3 1 propose\n"
    "2 0 2 accept\n2 1 2 accept\n2 2 2 accept\n2 3 2 accept\n"
)


def test_criterion_08_golden_traces():
    cases = [
        (g_from_pairs(2, [(0, 1)]), GOLDEN_K2, {0, 1}),
        (from_edge_list(star_edges(3)), GOLDEN_STAR3, {0, 1}),
        (consistent_cycle(4), GOLDEN_C4, {0, 1, 2, 3}),
    ]
    for g, golden, cover in cases:
        res1, tr1 = run(g)
        res2, tr2 = run(g)
        assert format_transcript(tr1.flat) == golden
        assert format_transcript(tr2.flat) == golden  # byte-identical across runs
        assert res1.cover == res2.cover == frozenset(cover)
        assert replay(g, format_transcript(tr1.flat)) == []
    _passed(8, "K_2, star(3), consistent C_4 reproduce the hand-derived traces")


# ---------------------------------------------------------------------------
# Criterion 9: determinism and anonymity
# ---------------------------------------------------------------------------

def test_criterion_09_determinism_and_anonymity():
    rng = random.Random(9)
    for trial in range(100):
        n = rng.randint(2, 16)
        el = random_bounded_edges(n, rng.randint(1, 5), rng.uniform(0.1, 0.5),
                                  seed=rng.getrandbits(32))
        g = from_edge_list(el, "random", rng.getrandbits(32))
        res1, tr1 = run(g)
        res2, tr2 = run(g)
        assert res1 == res2
        assert format_transcript(tr1.flat) == format_transcript(tr2.flat)

        perm = list(range(n))
        rng.shuffle(perm)
        res_r, _ = run(relabel(g, perm))
        assert res_r.cover == frozenset(perm[v] for v in res1.cover)
        assert pair_edges(res_r) == frozenset(
            tuple(sorted((perm[u], perm[v]))) for u, v in pair_edges(res1)
        )
    _passed(9, "100 trials byte-identical and relabelling-equivariant")


# ---------------------------------------------------------------------------
# Criterion 10: regular graphs, all-nodes is a 2-approximation
# ---------------------------------------------------------------------------

def _regular_corpus():
    graphs = []
    for n in range(3, 15):
        graphs.append(("cycle", from_edge_list(cycle_edges(n))))
    for n in range(2, 13):
        graphs.append(("clique", from_edge_list(clique_edges(n))))
    for d in range(1, 8):  # complete bipartite K_{d,d}
        pairs = [(u, d + v) for u in range(d) for v in range(d)]
        graphs.append((f"K_{d},{d}", g_from_pairs(2 * d, pairs)))
    for k in range(3, 8):  # prism: two k-cycles joined by a perfect matching
        pairs = (
            [(i, (i + 1) % k) for i in range(k)]
            + [(k + i, k + (i + 1) % k) for i in range(k)]
            + [(i, k + i) for i in range(k)]
        )
        graphs.append((f"prism_{k}", g_from_pairs(2 * k, pairs)))
    for n in range(5, 15):  # circulant C_n(1, 2), 4-regular
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
        graphs.append((f"circulant_{n}", g_from_pairs(n, pairs)))
    graphs.append(("petersen", petersen()))
    return graphs


def test_criterion_10_regular_graph_remark():
    checked = 0
    for name, g in _regular_corpus():
        degrees = {len(row) for row in g.ports}
        assert len(degrees) == 1 and degrees != {0}, f"{name} is not regular"
        opt = solve(g)
        assert g.node_count <= 2 * opt.optimum_size, (
            f"{name}: n={g.node_count} > 2*|C*|={2 * opt.optimum_size}"
        )
        checked += 1
    _passed(10, f"|V| <= 2|C*| on {checked} connected regular graphs (n <= 14)")
