"""Property-based tests over randomly drawn small graphs."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from portvc.analysis import check_cover
from portvc.checks import analyze
from portvc.double_cover import build_double_cover, extract_matching, project_cover
from portvc.graph import EdgeList, from_edge_list, parse, permute_ports
from portvc.oracle import solve
from portvc.simulator import run
from conftest import pair_edges
from reference_engine import reference_run
from reference_graph import edge_set, relabel, serialize, validate
from reference_oracle import brute_force


@st.composite
def edge_lists(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return EdgeList.from_pairs(n, chosen)


@st.composite
def port_graphs(draw, max_n=9):
    el = draw(edge_lists(max_n=max_n))
    policy = draw(st.sampled_from(["sorted", "input", "random"]))
    seed = draw(st.integers(min_value=0, max_value=2**32)) if policy == "random" else None
    return from_edge_list(el, policy, seed)


@given(port_graphs())
def test_constructed_graphs_validate(g):
    assert validate(g) == []


@given(edge_lists(), st.sampled_from(["sorted", "input"]))
def test_numbering_preserves_edge_set(el, policy):
    assert edge_set(from_edge_list(el, policy)) == frozenset(el.edges)


@given(port_graphs(), st.integers(min_value=0, max_value=2**32))
def test_permute_ports_preserves_structure(g, seed):
    p = permute_ports(g, seed)
    assert validate(p) == []
    assert edge_set(p) == edge_set(g)
    assert sorted(len(p.ports[v]) for v in range(p.node_count)) == sorted(
        len(g.ports[v]) for v in range(g.node_count)
    )


@given(port_graphs())
def test_serialize_parse_round_trip(g):
    assert parse(serialize(g)) == g


@given(port_graphs())
def test_run_is_deterministic(g):
    assert run(g) == run(g)


@given(port_graphs())
def test_cover_is_valid_and_certified(g):
    ra = analyze(g)
    assert ra.all_pass, ra.checks
    assert check_cover(g, ra.result.cover)
    if ra.certificate and ra.certificate.certified_ratio is not None:
        assert ra.certificate.certified_ratio <= Fraction(3)


@given(port_graphs(max_n=8))
@settings(max_examples=50)
def test_cover_within_three_of_optimum(g):
    res, _ = run(g)
    opt = brute_force(g)
    assert res.cover_size <= 3 * opt.optimum_size
    # certified bound is sound against the true optimum
    ra = analyze(g)
    if ra.certificate:
        assert ra.certificate.lower_bound <= opt.optimum_size


@given(port_graphs(max_n=8))
@settings(max_examples=50)
def test_solvers_agree(g):
    assert solve(g).optimum_size == brute_force(g).optimum_size


@given(port_graphs())
def test_round_bound_and_fixed_point(g):
    res, tr = run(g)
    assert res.last_active_step <= 2 * g.max_degree
    res2, tr2, history = reference_run(g, extra_steps=2, record_history=True)
    assert tr2.entries == tr.entries
    # the states at the horizon and two steps past it, and the run's outputs
    assert history[-1] == history[-3]
    assert (res2.cover, res2.partner, res2.accepted) == (res.cover, res.partner, res.accepted)


@given(port_graphs())
def test_state_monotonicity_over_run(g):
    _, _, history = reference_run(g, record_history=True)
    for before, after in zip(history, history[1:]):
        for sb, sa in zip(before, after):
            assert sa.i >= sb.i
            assert sb.c <= sa.c
            if sb.a is not None:
                assert sa.a == sb.a
            if sb.b is not None:
                assert sa.b == sb.b


@given(port_graphs())
def test_double_cover_view_agrees(g):
    res, tr = run(g)
    h = extract_matching(build_double_cover(g), tr.flat)
    assert project_cover(h) == res.cover


@given(port_graphs(max_n=8), st.randoms(use_true_random=False))
def test_anonymity_under_relabelling(g, rnd):
    perm = list(range(g.node_count))
    rnd.shuffle(perm)
    res, _ = run(g)
    res_r, _ = run(relabel(g, perm))
    assert res_r.cover == frozenset(perm[v] for v in res.cover)
    assert pair_edges(res_r) == frozenset(
        tuple(sorted((perm[u], perm[v]))) for u, v in pair_edges(res)
    )
