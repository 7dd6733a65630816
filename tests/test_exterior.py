import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfgraph.algebra import (Alphabet, GroupAlphabet, OrderedAlphabet, group_tables,
                             make_product_domain)
from nfgraph.factor import Factor, OpCounter, factors_allclose
from nfgraph.indicators import make_indicator
from nfgraph.nfg import HalfEdge, InternalEdge, NfgGraph
from nfgraph.codes import LinearCodeSpec, parity_realization
from nfgraph import exterior as exterior_module
from nfgraph.exterior import (
    TableSizeError,
    _scatter_fold,
    block_order,
    derivative_sum_product,
    eliminate,
    exterior_bruteforce,
    sum_product,
)

from helpers import (
    SPECIAL_PARTS,
    add_at_fold,
    assert_same_bits,
    group_alphabets,
    loop_exterior_bruteforce,
    mesh_graph,
    oracle_edge_marginal,
    oracle_exterior,
    rand_factor,
    random_nfg,
    random_tree,
    special_complex,
)


def test_single_vertex_half_edges_only():
    rng = np.random.default_rng(0)
    b = Alphabet(3)
    f = rand_factor(rng, ["a", "b"], [b, b])
    g = NfgGraph({"v": f}, half_edges=[
        HalfEdge("h1", ("v", "a"), b, "x"),
        HalfEdge("h2", ("v", "b"), b, "y")])
    z = exterior_bruteforce(g)
    assert z.labels == ("x", "y")
    assert np.array_equal(z.values, f.values)


def test_mesh_matches_literal_nested_loops():
    rng = np.random.default_rng(1)
    g = mesh_graph(rng)
    z = exterior_bruteforce(g)
    f1, f2, f3, f4 = (g.factor(v).values for v in ("f1", "f2", "f3", "f4"))
    expected = np.zeros((2, 2), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            total = 0.0
            for s1 in range(2):
                for s2 in range(2):
                    for s3 in range(2):
                        for s4 in range(2):
                            for s5 in range(2):
                                total += (f1[x1, s1, s2] * f2[x2, s2, s3, s5]
                                          * f3[s3, s4] * f4[s1, s4, s5])
            expected[x1, x2] = total
    assert np.allclose(z.values, expected, atol=1e-12)


def test_closed_constant_one_counts_assignments():
    b = Alphabet(2)
    ones2 = Factor(make_product_domain([("a", b), ("b", b)]), np.ones((2, 2)))
    g = NfgGraph(
        {"u": ones2, "v": ones2},
        internal_edges=[
            InternalEdge("e1", (("u", "a"), ("v", "a")), b),
            InternalEdge("e2", (("u", "b"), ("v", "b")), b),
        ])
    z = exterior_bruteforce(g)
    assert z.item() == pytest.approx(4.0)  # 2^k with k = 2 binary edges


def test_bruteforce_cap_refuses():
    rng = np.random.default_rng(2)
    g = mesh_graph(rng)
    with pytest.raises(TableSizeError) as err:
        exterior_bruteforce(g, cap=16)
    assert err.value.states == 2 ** 7


# -- block enumeration against the per-assignment loop ------------------------------

# A closed complex graph's terms are array products, which may round a part
# of a complex product in one step where the loop's scalar products round its
# two halves apart; near +-1e308 that can move an overflow, so such graphs
# draw the other special values only.
NO_OVERFLOW_PARTS = SPECIAL_PARTS[np.abs(SPECIAL_PARTS) != 1e308]


def _nan_parts(values):
    return np.isnan(np.ascontiguousarray(values).reshape(-1).view(np.float64))


def assert_matches_loop(g):
    """The loop's bytes (NaN sign bits aside), or within 1e-12 on closed complex graphs."""
    with np.errstate(all="ignore"):
        got, want = exterior_bruteforce(g), loop_exterior_bruteforce(g)
    assert got.domain == want.domain
    real = not any(f.values.imag.any() for f in g.vertices.values())
    if g.half_edges or real:
        assert_same_bits(got.values, want.values)
        return
    assert (_nan_parts(got.values) == _nan_parts(want.values)).all()
    if np.isfinite(want.values).all():
        assert factors_allclose(got, want, tol=1e-12)


def _with_values(g, draw):
    return NfgGraph({v: Factor(f.domain, draw(f.domain.shape)) for v, f in g.vertices.items()},
                    g.internal_edges, g.half_edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([1, 2, 5, 64, 2 ** 12]))
def test_bruteforce_matches_the_loop(seed, real, block):
    rng = np.random.default_rng(seed)
    g = random_nfg(rng, max_vertices=5, max_internal=5, max_alpha=3, max_half=2, loops=True)
    specials = SPECIAL_PARTS if g.half_edges or real else NO_OVERFLOW_PARTS
    g = _with_values(g, lambda shape: special_complex(rng, shape, specials=specials).real
                     if real else special_complex(rng, shape, specials=specials))
    with mock.patch.object(exterior_module, "_BLOCK_TERMS", block):
        assert_matches_loop(g)


def test_bruteforce_block_boundary_does_not_divide_the_count():
    # 3^8 = 6,561 assignments: one block of 4,096 and one of 2,465
    rng = np.random.default_rng(11)
    t = Alphabet(3)
    axes = [f"a{k}" for k in range(8)]
    g = NfgGraph({v: rand_factor(rng, axes, [t] * 8) for v in ("u", "w")},
                 [InternalEdge(f"e{k}", (("u", a), ("w", a)), t) for k, a in enumerate(axes)])
    assert 3 ** 8 % exterior_module._BLOCK_TERMS != 0
    assert_matches_loop(g)
    assert np.isclose(exterior_bruteforce(g).item(),
                      np.sum(g.factor("u").values * g.factor("w").values))


def test_bruteforce_accumulator_larger_than_a_block():
    # 2^14 accumulator entries: every block holds a single assignment
    rng = np.random.default_rng(12)
    b = Alphabet(2)
    u_axes = [f"h{k}" for k in range(13)] + ["s", "r"]
    g = NfgGraph(
        {"u": Factor(make_product_domain([(a, b) for a in u_axes]),
                     special_complex(rng, (2,) * 15)),
         "w": Factor(make_product_domain([("s", b), ("k", b), ("r", b)]),
                     special_complex(rng, (2, 2, 2)))},
        [InternalEdge("s", (("u", "s"), ("w", "s")), b),
         InternalEdge("r", (("w", "r"), ("u", "r")), b)],
        [HalfEdge("hk", ("w", "k"), b, "k")]
        + [HalfEdge(f"h{k}", ("u", f"h{k}"), b, f"x{k}") for k in range(12, -1, -1)])
    assert 2 ** 14 > exterior_module._BLOCK_TERMS
    assert_matches_loop(g)


def test_bruteforce_without_internal_edges_is_the_outer_product():
    rng = np.random.default_rng(13)
    b, t = Alphabet(2), Alphabet(3)
    f = Factor(make_product_domain([("a", b), ("c", t)]), special_complex(rng, (2, 3)))
    h = Factor(make_product_domain([("d", t)]), special_complex(rng, 3))
    g = NfgGraph({"u": f, "w": h}, half_edges=[
        HalfEdge("hd", ("w", "d"), t, "z"), HalfEdge("ha", ("u", "a"), b, "x"),
        HalfEdge("hc", ("u", "c"), t, "y")])
    assert_matches_loop(g)
    z = exterior_bruteforce(g)
    assert z.labels == ("z", "x", "y")


def test_bruteforce_loop_takes_the_diagonal():
    rng = np.random.default_rng(14)
    t = Alphabet(3)
    f = rand_factor(rng, ["a", "x", "b"], [t, t, t])
    g = NfgGraph({"v": f}, [InternalEdge("e", (("v", "b"), ("v", "a")), t)],
                 [HalfEdge("hx", ("v", "x"), t, "x")])
    assert_matches_loop(g)
    assert np.allclose(exterior_bruteforce(g).values,
                       np.trace(f.values, axis1=0, axis2=2), rtol=0, atol=1e-12)


def test_bruteforce_closed_ring_of_2_20_assignments_is_fast_and_small():
    b = Alphabet(2)
    m = Factor(make_product_domain([("l", b), ("r", b)]), [[1, 1], [1, 0]])
    n = 20
    g = NfgGraph({f"v{i}": m for i in range(n)},
                 [InternalEdge(f"e{i}", ((f"v{i}", "r"), (f"v{(i + 1) % n}", "l")), b)
                  for i in range(n)])
    tracemalloc.start()
    try:
        start = time.process_time()
        z = exterior_bruteforce(g)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.item() == 15127  # trace of [[1, 1], [1, 0]]^20, the Lucas number L_20
    assert elapsed < 5.0
    assert peak < 16 * 2 ** 20


def _wide_pair(shared):
    """Two vertices with 13 binary half edges each, joined by one edge or by none."""
    b = Alphabet(2)
    vertices, half = {}, []
    for v in ("u", "w"):
        axes = [f"h{k}" for k in range(13)] + (["s"] if shared else [])
        vertices[v] = Factor(make_product_domain([(a, b) for a in axes]),
                             np.ones((2,) * len(axes)))
        half += [HalfEdge(f"{v}{a}", (v, a), b, f"{v}_{a}") for a in axes if a != "s"]
    internal = [InternalEdge("s", (("u", "s"), ("w", "s")), b)] if shared else []
    return NfgGraph(vertices, internal, half)


@pytest.mark.parametrize("shared", [True, False], ids=["merge", "components"])
def test_eliminate_refuses_an_oversized_table_before_allocating(shared):
    g = _wide_pair(shared)
    tracemalloc.start()
    try:
        with pytest.raises(TableSizeError) as err:
            eliminate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.states, err.value.cap) == (2 ** 26, 2 ** 24)
    assert peak < 2 ** 24  # the refused table alone would take 1 GiB


def test_sum_product_refuses_an_oversized_message_before_allocating():
    # star t - c - {a, b}: the half-edge variables of a and b ride on their
    # messages, so c's message to t would have 2 * 2^13 * 2^13 = 2^27 entries
    b, wide = Alphabet(2), Alphabet(2 ** 13)
    leaf = Factor(make_product_domain([("s", b), ("h", wide)]), np.ones((2, 2 ** 13)))
    g = NfgGraph(
        {"t": Factor(make_product_domain([("s", b)]), np.ones(2)),
         "c": Factor(make_product_domain([(a, b) for a in ("st", "sa", "sb")]),
                     np.ones((2, 2, 2))),
         "a": leaf, "b": leaf},
        internal_edges=[InternalEdge("et", (("t", "s"), ("c", "st")), b),
                        InternalEdge("ea", (("a", "s"), ("c", "sa")), b),
                        InternalEdge("eb", (("b", "s"), ("c", "sb")), b)],
        half_edges=[HalfEdge(f"h{v}", (v, "h"), wide, f"x{v}") for v in ("a", "b")])
    tracemalloc.start()
    try:
        with pytest.raises(TableSizeError) as err:
            sum_product(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.states, err.value.cap) == (2 ** 27, 2 ** 24)
    assert peak < 2 ** 24  # the refused message alone would take 2 GiB


def test_eliminate_refuses_oversized_code_intermediate_quickly():
    # greedy elimination of this [10,5] parity realization over Z_3 reaches
    # for a 3^18-entry table although the exterior has 3^10 entries
    h = [[2, 1, 1, 0, 0, 0, 0, 0, 0, 2], [1, 2, 1, 1, 2, 2, 1, 1, 1, 2],
         [0, 2, 2, 0, 1, 2, 1, 0, 2, 2], [2, 0, 0, 2, 0, 1, 0, 0, 1, 1],
         [1, 0, 0, 0, 0, 2, 1, 1, 0, 1]]
    g = parity_realization(LinearCodeSpec(p=3, n=10, k=5, matrix=h, form="parity"))
    start = time.process_time()
    with pytest.raises(TableSizeError) as err:
        eliminate(g)
    assert time.process_time() - start < 1.0
    assert err.value.states == 3 ** 18


def test_eliminate_triangle_given_order():
    rng = np.random.default_rng(3)
    b = Alphabet(2)
    f1 = rand_factor(rng, ["x1", "y1", "y3"], [b, b, b])
    f2 = rand_factor(rng, ["x2", "y1", "y2"], [b, b, b])
    f3 = rand_factor(rng, ["x3", "y2", "y3"], [b, b, b])
    g = NfgGraph(
        {"f1": f1, "f2": f2, "f3": f3},
        internal_edges=[
            InternalEdge("y1", (("f1", "y1"), ("f2", "y1")), b),
            InternalEdge("y2", (("f2", "y2"), ("f3", "y2")), b),
            InternalEdge("y3", (("f3", "y3"), ("f1", "y3")), b),
        ],
        half_edges=[
            HalfEdge("h1", ("f1", "x1"), b, "x1"),
            HalfEdge("h2", ("f2", "x2"), b, "x2"),
            HalfEdge("h3", ("f3", "x3"), b, "x3"),
        ])
    report = eliminate(g, strategy="given-order",
                       order=[("f1", "f2"), ("f1", "f3")])
    assert [s.merged for s in report.steps] == [("f1", "f2"), ("f1", "f3")]
    assert set(report.steps[0].eliminated_edges) == {"y1"}
    # the second merge eliminates the two parallel edges at once
    assert set(report.steps[1].eliminated_edges) == {"y2", "y3"}
    expected = oracle_exterior(g)
    assert np.allclose(report.result.values, expected, atol=1e-9)


def test_step_op_count_example():
    # two degree-3 vertices sharing one binary edge: 2^5 multiply-adds
    rng = np.random.default_rng(4)
    b = Alphabet(2)
    u = rand_factor(rng, ["xa", "xb", "s"], [b, b, b])
    v = rand_factor(rng, ["s", "xc", "xd"], [b, b, b])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), b)],
        half_edges=[
            HalfEdge("ha", ("u", "xa"), b, "a"),
            HalfEdge("hb", ("u", "xb"), b, "b"),
            HalfEdge("hc", ("v", "xc"), b, "c"),
            HalfEdge("hd", ("v", "xd"), b, "d"),
        ])
    report = eliminate(g, strategy="given-order", order=[("u", "v")])
    assert report.total_ops == 32

    # instrumented naive contraction of that step
    count = 0
    for _out in itertools.product(range(2), repeat=4):
        for _s in range(2):
            count += 1
    assert count == 32


@pytest.mark.parametrize("seed", range(15))
def test_eliminate_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_nfg(rng, max_vertices=6, max_internal=6, max_alpha=3)
    z = exterior_bruteforce(g)
    rep = eliminate(g)
    assert factors_allclose(rep.result, z, tol=1e-9)
    assert rep.total_ops == sum(s.ops for s in rep.steps)


def test_eliminate_disconnected_outer_product():
    rng = np.random.default_rng(5)
    b = Alphabet(2)
    u1 = rand_factor(rng, ["a", "s"], [b, b])
    u2 = rand_factor(rng, ["s"], [b])
    w1 = rand_factor(rng, ["a", "t"], [b, b])
    w2 = rand_factor(rng, ["t"], [b])
    g = NfgGraph(
        {"u1": u1, "u2": u2, "w1": w1, "w2": w2},
        internal_edges=[
            InternalEdge("s", (("u1", "s"), ("u2", "s")), b),
            InternalEdge("t", (("w1", "t"), ("w2", "t")), b),
        ],
        half_edges=[
            HalfEdge("h1", ("u1", "a"), b, "x"),
            HalfEdge("h2", ("w1", "a"), b, "y"),
        ])
    z = exterior_bruteforce(g)
    rep = eliminate(g)
    assert factors_allclose(rep.result, z)


def test_eliminate_self_loop():
    rng = np.random.default_rng(6)
    b = Alphabet(3)
    f = rand_factor(rng, ["a", "b", "x"], [b, b, b])
    h = rand_factor(rng, ["x"], [b])
    g = NfgGraph(
        {"f": f, "h": h},
        internal_edges=[
            InternalEdge("loop", (("f", "a"), ("f", "b")), b),
            InternalEdge("e", (("f", "x"), ("h", "x")), b),
        ])
    z = exterior_bruteforce(g)
    rep = eliminate(g)
    assert rep.result.item() == pytest.approx(z.item())


def test_eliminate_bad_order_rejected():
    g = mesh_graph(np.random.default_rng(7))
    with pytest.raises(ValueError, match="not adjacent"):
        eliminate(g, strategy="given-order", order=[("f1", "f3")])
    with pytest.raises(ValueError, match="fully eliminate"):
        eliminate(g, strategy="given-order", order=[("f1", "f2")])


def test_greedy_picks_cheapest_pair_first():
    rng = np.random.default_rng(8)
    b2, b4 = Alphabet(2), Alphabet(4)
    cheap1 = rand_factor(rng, ["s"], [b2])
    cheap2 = rand_factor(rng, ["s"], [b2])
    costly1 = rand_factor(rng, ["t", "u"], [b4, b4])
    costly2 = rand_factor(rng, ["t", "u"], [b4, b4])
    g = NfgGraph(
        {"a": cheap1, "b": cheap2, "c": costly1, "d": costly2},
        internal_edges=[
            InternalEdge("s", (("a", "s"), ("b", "s")), b2),
            InternalEdge("t", (("c", "t"), ("d", "t")), b4),
            InternalEdge("u", (("c", "u"), ("d", "u")), b4),
        ])
    rep = eliminate(g, strategy="min-cost-greedy")
    assert rep.steps[0].merged == ("a", "b")
    assert rep.steps[0].ops == 2


# -- sum-product ---------------------------------------------------------------


def _chain_star_graph(rng):
    """Path f1-f2-f3-f4 with f5 hanging off f3, all edges binary."""
    b = Alphabet(2)
    f1 = rand_factor(rng, ["y1"], [b])
    f2 = rand_factor(rng, ["y1", "y2"], [b, b])
    f3 = rand_factor(rng, ["y2", "y3", "y4"], [b, b, b])
    f4 = rand_factor(rng, ["y3"], [b])
    f5 = rand_factor(rng, ["y4"], [b])
    return NfgGraph(
        {"f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5},
        internal_edges=[
            InternalEdge("y1", (("f1", "y1"), ("f2", "y1")), b),
            InternalEdge("y2", (("f2", "y2"), ("f3", "y2")), b),
            InternalEdge("y3", (("f3", "y3"), ("f4", "y3")), b),
            InternalEdge("y4", (("f3", "y4"), ("f5", "y4")), b),
        ])


def test_spa_chain_example():
    rng = np.random.default_rng(9)
    g = _chain_star_graph(rng)
    out = sum_product(g)
    assert len(out.messages) == 2 * len(g.internal_edges)
    # leaf messages are the leaf factors themselves
    assert np.allclose(out.messages[("f1", "f2")].values, g.factor("f1").values)
    # marginal on y2 equals the product of its two messages and the oracle
    m = out.marginals["y2"]
    prod = out.messages[("f2", "f3")].values * out.messages[("f3", "f2")].values
    assert np.allclose(m.values, prod)
    assert np.allclose(m.values, oracle_edge_marginal(g, "y2"), atol=1e-9)


def test_spa_two_vertex_path():
    rng = np.random.default_rng(10)
    b = Alphabet(3)
    f1 = rand_factor(rng, ["y"], [b])
    f2 = rand_factor(rng, ["y"], [b])
    g = NfgGraph({"f1": f1, "f2": f2}, internal_edges=[
        InternalEdge("y", (("f1", "y"), ("f2", "y")), b)])
    out = sum_product(g)
    assert np.allclose(out.marginals["y"].values, f1.values * f2.values)


@pytest.mark.parametrize("seed", range(10))
def test_spa_matches_bruteforce_marginals(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_tree(rng, max_vertices=8, max_alpha=3, closed=True)
    out = sum_product(g)
    for e in g.internal_edges:
        expected = oracle_edge_marginal(g, e.id)
        got = out.marginals[e.id].values
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_spa_marginals_sum_to_the_eliminated_exterior(seed):
    rng = np.random.default_rng(seed)
    g = random_tree(rng, max_vertices=10, max_alpha=4, closed=True)
    z = eliminate(g).result
    marginals = sum_product(g).marginals
    for e in g.internal_edges:
        assert factors_allclose(Factor.scalar(marginals[e.id].values.sum()), z)


def test_spa_cycle_rejected():
    rng = np.random.default_rng(11)
    b = Alphabet(2)
    f1 = rand_factor(rng, ["a", "b"], [b, b])
    f2 = rand_factor(rng, ["a", "b"], [b, b])
    g = NfgGraph({"f1": f1, "f2": f2}, internal_edges=[
        InternalEdge("e1", (("f1", "a"), ("f2", "a")), b),
        InternalEdge("e2", (("f1", "b"), ("f2", "b")), b)])
    with pytest.raises(ValueError, match="cycle"):
        sum_product(g)


def test_spa_variant_with_half_edges():
    rng = np.random.default_rng(12)
    g = random_tree(rng, max_vertices=6, max_alpha=3, closed=False)
    if not g.half_edges:
        pytest.skip("tree drew no half edges")
    out = sum_product(g)
    z = exterior_bruteforce(g)
    for e in g.internal_edges:
        joint = out.marginals[e.id]
        # summing the variant joint over the edge reproduces the exterior
        summed = joint.values.sum(axis=joint.labels.index(e.id))
        rest = [l for l in joint.labels if l != e.id]
        dom_vals = np.moveaxis(summed, range(len(rest)), range(len(rest)))
        zz = z.transpose(rest + [v for v in z.labels if v not in rest])
        collapsed = zz.values.sum(axis=tuple(range(len(rest), zz.ndim)))
        assert np.allclose(dom_vals, collapsed, atol=1e-9)


def test_spa_kernels_match_dense():
    rng = np.random.default_rng(13)
    z3 = GroupAlphabet((3,))
    center = make_indicator("sum", z3, 4).relabel(
        {"arg1": "t0", "arg2": "t1", "arg3": "t2", "arg4": "t3"})
    leaves = {f"l{i}": rand_factor(rng, [f"t{i}"], [z3]) for i in range(4)}
    g = NfgGraph(
        {"c": center, **leaves},
        internal_edges=[
            InternalEdge(f"e{i}", (("c", f"t{i}"), (f"l{i}", f"t{i}")), z3)
            for i in range(4)])
    fast = sum_product(g, use_kernels=True)
    slow = sum_product(g, use_kernels=False)
    for key in fast.messages:
        assert np.allclose(fast.messages[key].values, slow.messages[key].values,
                           atol=1e-9)
    for e in fast.marginals:
        assert np.allclose(fast.marginals[e].values, slow.marginals[e].values,
                           atol=1e-9)
    assert fast.total_ops < slow.total_ops


def test_spa_equality_kernel_and_max_kernel():
    rng = np.random.default_rng(14)
    o3 = OrderedAlphabet(3)
    center = make_indicator("max", o3, 3).relabel(
        {"arg1": "t0", "arg2": "t1", "arg3": "t2"})
    eq = make_indicator("eq", o3, 3).relabel(
        {"arg1": "t0", "arg2": "u1", "arg3": "u2"})
    leaves = {f"l{i}": rand_factor(rng, [f"t{i}"], [o3]) for i in (1, 2)}
    leaves.update({f"m{i}": rand_factor(rng, [f"u{i}"], [o3]) for i in (1, 2)})
    g = NfgGraph(
        {"mx": center, "eq": eq, **leaves},
        internal_edges=[
            InternalEdge("e0", (("mx", "t0"), ("eq", "t0")), o3),
            InternalEdge("e1", (("mx", "t1"), ("l1", "t1")), o3),
            InternalEdge("e2", (("mx", "t2"), ("l2", "t2")), o3),
            InternalEdge("e3", (("eq", "u1"), ("m1", "u1")), o3),
            InternalEdge("e4", (("eq", "u2"), ("m2", "u2")), o3),
        ])
    fast = sum_product(g, use_kernels=True)
    slow = sum_product(g, use_kernels=False)
    for key in fast.messages:
        assert np.allclose(fast.messages[key].values, slow.messages[key].values,
                           atol=1e-9)


def test_spa_scale_extraction_mode():
    rng = np.random.default_rng(15)
    g = random_tree(rng, max_vertices=7, max_alpha=3, closed=True)
    plain = sum_product(g, extract_scales=False)
    scaled = sum_product(g, extract_scales=True)
    assert scaled.scales is not None
    for e in g.internal_edges:
        a, b = plain.marginals[e.id].values, scaled.marginals[e.id].values
        norm = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) <= 1e-12 * norm


# -- elimination with indicator kernels ----------------------------------------


def test_block_kernel_sum_star():
    rng = np.random.default_rng(16)
    z3 = GroupAlphabet((3,))
    n_leaves = 3
    center = make_indicator("sum", z3, n_leaves + 1).relabel(
        {"arg1": "x", **{f"arg{i + 2}": f"t{i}" for i in range(n_leaves)}})
    leaves = {f"l{i}": rand_factor(rng, [f"t{i}"], [z3], integer=True)
              for i in range(n_leaves)}
    g = NfgGraph(
        {"c": center, **leaves},
        internal_edges=[
            InternalEdge(f"e{i}", (("c", f"t{i}"), (f"l{i}", f"t{i}")), z3)
            for i in range(n_leaves)],
        half_edges=[HalfEdge("hx", ("c", "x"), z3, "x")])
    fast = eliminate(g, strategy="given-order", order=[("block", "c")],
                     use_kernels=True)
    dense = eliminate(g, strategy="min-cost-greedy")
    # chain kernel result is bit-identical on integer tables
    assert np.array_equal(fast.result.values, dense.result.values)
    assert len(fast.steps) == 1
    assert fast.steps[0].ops == (n_leaves - 1) * 3 ** 2
    z = exterior_bruteforce(g)
    assert factors_allclose(fast.result, z)


def test_block_kernel_equality_star():
    rng = np.random.default_rng(17)
    b = Alphabet(4)
    n_leaves = 3
    center = make_indicator("eq", b, n_leaves + 1).relabel(
        {"arg1": "x", **{f"arg{i + 2}": f"t{i}" for i in range(n_leaves)}})
    leaves = {f"l{i}": rand_factor(rng, [f"t{i}"], [b], integer=True)
              for i in range(n_leaves)}
    g = NfgGraph(
        {"c": center, **leaves},
        internal_edges=[
            InternalEdge(f"e{i}", (("c", f"t{i}"), (f"l{i}", f"t{i}")), b)
            for i in range(n_leaves)],
        half_edges=[HalfEdge("hx", ("c", "x"), b, "x")])
    fast = eliminate(g, strategy="given-order", order=[("block", "c")],
                     use_kernels=True)
    assert fast.steps[0].ops == (n_leaves - 1) * 4
    dense = eliminate(g)
    assert np.array_equal(fast.result.values, dense.result.values)


def test_block_order_preset():
    g = mesh_graph(np.random.default_rng(18))
    order = block_order(g, ["f1", "f2", "f3", "f4"])
    rep = eliminate(g, strategy="given-order", order=order)
    z = exterior_bruteforce(g)
    assert factors_allclose(rep.result, z)


# -- derivative sum-product ------------------------------------------------------


def _dsp_graph(rng, size=3):
    """Two equality interfaces over chain latents f1 - f2 - f3."""
    o = OrderedAlphabet(size)
    q1 = make_indicator("eq", o, 3).relabel(
        {"arg1": "y", "arg2": "yp", "arg3": "ypp"})
    q2 = make_indicator("eq", o, 3).relabel(
        {"arg1": "y", "arg2": "ypp", "arg3": "yp"})
    f1 = rand_factor(rng, ["a"], [o], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [o, o], positive=True)
    f3 = rand_factor(rng, ["a"], [o], positive=True)
    return NfgGraph(
        {"q1": q1, "q2": q2, "f1": f1, "f2": f2, "f3": f3},
        internal_edges=[
            InternalEdge("yp1", (("q1", "yp"), ("f1", "a")), o),
            InternalEdge("ypp1", (("q1", "ypp"), ("f2", "a")), o),
            InternalEdge("ypp2", (("q2", "ypp"), ("f2", "b")), o),
            InternalEdge("yp2", (("q2", "yp"), ("f3", "a")), o),
        ],
        half_edges=[
            HalfEdge("h1", ("q1", "y"), o, "x1"),
            HalfEdge("h2", ("q2", "y"), o, "x2"),
        ])


def _dsp_oracle(g, evidence, size):
    """Direct per-axis difference transform of the hidden-function product."""
    D = np.eye(size) - np.eye(size, k=-1)
    f1 = g.factor("f1").values
    f2 = g.factor("f2").values
    f3 = g.factor("f3").values
    P = f1[:, None] * f2 * f3[None, :]
    out = {}
    for i, var in enumerate(["x1", "x2"]):
        table = P
        other = 1 - i
        # reduce the other axis: difference-then-evaluate for evidence,
        # evaluate at the top rank for marginalized variables
        other_var = ["x1", "x2"][other]
        if other_var in evidence:
            t = np.tensordot(D, table, axes=([1], [other]))
            reduced = t[evidence[other_var]]
        else:
            reduced = np.take(table, size - 1, axis=other)
        out[var] = D @ reduced
    return out


def test_dsp_matches_direct_difference_transform():
    rng = np.random.default_rng(19)
    g = _dsp_graph(rng, size=3)
    evidence = {"x1": 1, "x2": 2}
    got = derivative_sum_product(g, evidence)
    expected = _dsp_oracle(g, evidence, 3)
    for var in ("x1", "x2"):
        assert np.allclose(got[var].values, expected[var], atol=1e-9)


def test_dsp_marginalization_by_evaluation():
    rng = np.random.default_rng(20)
    g = _dsp_graph(rng, size=4)
    evidence = {"x2": 1}  # x1 marginalized via a constant-one vertex
    got = derivative_sum_product(g, evidence)
    expected = _dsp_oracle(g, evidence, 4)
    for var in ("x1", "x2"):
        assert np.allclose(got[var].values, expected[var], atol=1e-9)


def test_dsp_single_interface():
    rng = np.random.default_rng(21)
    o = OrderedAlphabet(4)
    q = make_indicator("eq", o, 2).relabel({"arg1": "y", "arg2": "yp"})
    f = rand_factor(rng, ["a"], [o], positive=True)
    g = NfgGraph(
        {"q": q, "f": f},
        internal_edges=[InternalEdge("e", (("q", "yp"), ("f", "a")), o)],
        half_edges=[HalfEdge("h", ("q", "y"), o, "x")])
    got = derivative_sum_product(g, {"x": 0})
    D = np.eye(4) - np.eye(4, k=-1)
    assert np.allclose(got["x"].values, D @ f.values, atol=1e-12)


def test_dsp_rejects_cyclic_and_nonconstrained():
    rng = np.random.default_rng(22)
    g = mesh_graph(rng)
    with pytest.raises(ValueError):
        derivative_sum_product(g, {})


def test_spa_variant_joint_sums_to_closed_marginals():
    rng = np.random.default_rng(23)
    g = random_tree(rng, max_vertices=6, max_alpha=3, closed=False)
    if not g.half_edges:
        pytest.skip("tree drew no half edges")
    out = sum_product(g)
    # close the graph by gluing constant-one vertices on every half edge
    vertices = dict(g.vertices)
    internal = list(g.internal_edges)
    for h in g.half_edges:
        w = g.fresh_id(f"one_{h.var}")
        vertices[w] = make_indicator("one", h.alphabet, 1)
        internal.append(InternalEdge(g.fresh_id(f"c_{h.var}"),
                                     (h.end, (w, "arg1")), h.alphabet))
    closed = NfgGraph(vertices, internal, half_edges=())
    closed_out = sum_product(closed)
    for e in g.internal_edges:
        joint = out.marginals[e.id]
        ext_axes = tuple(i for i, l in enumerate(joint.labels) if l != e.id)
        summed = joint.values.sum(axis=ext_axes)
        expected = closed_out.marginals[e.id].values
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(summed - expected)) <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(group_alphabets, st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_scatter_fold_matches_add_at(g, k, seed):
    rng = np.random.default_rng(seed)
    vectors = [special_complex(rng, g.size) for _ in range(k)]
    index = group_tables(g)[0]
    counter = OpCounter()
    with np.errstate(all="ignore"):
        got = _scatter_fold(vectors, index, counter)
        want = add_at_fold(vectors, index)
    assert_same_bits(got, want)
    assert counter.mults == (k - 1) * g.size ** 2


def _sum_star(center, leaves, open_axis=None):
    """``center`` with a leaf on each axis but ``open_axis``, which is a half edge."""
    z = center.alphabet(center.labels[0])
    vertices, internal, half = {"c": center}, [], []
    for k, axis in enumerate(center.labels):
        if axis == open_axis:
            half.append(HalfEdge("h", ("c", axis), z, "s"))
            continue
        vertices[f"l{k}"] = leaves[k]
        internal.append(InternalEdge(f"e{k}", (("c", axis), (f"l{k}", "a")), z))
    return NfgGraph(vertices, internal, half)


def test_kernels_on_a_transposed_sum_indicator_match_the_dense_path():
    rng = np.random.default_rng(41)
    z = GroupAlphabet((5,))
    leaves = [rand_factor(rng, ["a"], [z], positive=True) for _ in range(3)]
    swapped = make_indicator("sum", z, 3).transpose(["arg2", "arg1", "arg3"])
    assert swapped.tag is None
    g = _sum_star(swapped, leaves)
    kernel = sum_product(g, use_kernels=True)
    dense = sum_product(g, use_kernels=False)
    for eid in ("e0", "e1", "e2"):
        want = oracle_edge_marginal(g, eid)
        assert np.allclose(kernel.marginals[eid].values, want, rtol=1e-12, atol=0)
        assert np.array_equal(kernel.marginals[eid].values, dense.marginals[eid].values)
    open_g = _sum_star(swapped, leaves, open_axis="arg1")
    block = eliminate(open_g, strategy="given-order", order=[("block", "c")], use_kernels=True)
    assert factors_allclose(block.result, exterior_bruteforce(open_g), tol=1e-12)
    # the head still first keeps the tag, and the kernels then agree too
    kept = make_indicator("sum", z, 3).transpose(["arg1", "arg3", "arg2"])
    assert kept.tag == "sum"
    g = _sum_star(kept, leaves)
    kernel = sum_product(g, use_kernels=True)
    for eid in ("e0", "e1", "e2"):
        want = oracle_edge_marginal(g, eid)
        assert np.allclose(kernel.marginals[eid].values, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("engine", ["sum_product", "block"])
def test_kernels_close_a_z255_sum_star_without_building_its_table(engine):
    # 255^3 = 16,581,375 entries, under the cap: 253 MiB if the table were built
    rng = np.random.default_rng(42)
    z = GroupAlphabet((255,))
    leaves = [Factor(make_product_domain([("a", z)]), rng.uniform(0.2, 1.0, z.size))
              for _ in range(3)]
    tracemalloc.start()
    try:
        center = make_indicator("sum", z, 3)
        if engine == "sum_product":
            out = sum_product(_sum_star(center, leaves)).marginals["e0"].values
        else:
            out = eliminate(_sum_star(center, leaves, open_axis="arg1"),
                            strategy="given-order", order=[("block", "c")],
                            use_kernels=True).result.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    conv = np.zeros(z.size)
    for x, y in itertools.product(range(z.size), repeat=2):
        conv[(x + y) % z.size] += leaves[1].values[x].real * leaves[2].values[y].real
    want = conv * leaves[0].values.real if engine == "sum_product" else conv
    assert np.allclose(out, want, rtol=1e-12, atol=0)
