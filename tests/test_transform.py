import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfgraph.algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    make_product_domain,
)
from nfgraph.factor import Factor, OpCounter, TableSizeError, contract, factors_allclose
from nfgraph.indicators import (
    TransformerPair,
    make_cumulus_pair,
    make_fourier_pair,
    make_indicator,
)
from nfgraph.nfg import HalfEdge, InternalEdge, NfgGraph, classify
from nfgraph.exterior import exterior_bruteforce
from nfgraph.transform import (
    HolographicSpec,
    fast_axis_transform,
    holographic_transform,
    insert_transformer,
    insert_transformer_pair,
    merge_vertices,
    split_vertex_guided,
)

from helpers import (
    assert_same_graph,
    chain_holographic_transform,
    mesh_graph,
    rand_factor,
    random_external_transformer,
    random_holographic_spec,
    random_nfg,
    random_transformer_pair,
)


def test_merge_two_vertex_chain():
    rng = np.random.default_rng(0)
    b = Alphabet(3)
    u = rand_factor(rng, ["x", "s"], [b, b])
    v = rand_factor(rng, ["s", "y"], [b, b])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), b)],
        half_edges=[HalfEdge("hx", ("u", "x"), b, "x"),
                    HalfEdge("hy", ("v", "y"), b, "y")])
    merged = merge_vertices(g, "u", "v")
    assert set(merged.vertex_ids) == {"u"}
    expected = contract([u.relabel({"x": "hx"}), v.relabel({"y": "hy"})])
    assert factors_allclose(merged.factor("u"), expected)


def test_merge_preserves_exterior_and_counts():
    rng = np.random.default_rng(1)
    g = mesh_graph(rng)
    merged = merge_vertices(g, "f3", "f4")
    assert len(merged.vertices) == len(g.vertices) - 1
    assert len(merged.internal_edges) == len(g.internal_edges) - 1
    za = exterior_bruteforce(g)
    zb = exterior_bruteforce(merged)
    assert factors_allclose(za, zb)


def test_merge_requires_adjacency():
    g = mesh_graph(np.random.default_rng(2))
    with pytest.raises(ValueError, match="not adjacent"):
        merge_vertices(g, "f1", "f3")


def test_merge_refuses_an_oversized_table_before_allocating():
    # one shared binary edge, a 2^13-state half edge on each side: 2^26 entries
    b, wide = Alphabet(2), Alphabet(2 ** 13)
    g = NfgGraph(
        {v: Factor(make_product_domain([("s", b), ("h", wide)]), np.ones((2, 2 ** 13)))
         for v in ("u", "v")},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), b)],
        half_edges=[HalfEdge(f"h{v}", (v, "h"), wide, f"x{v}") for v in ("u", "v")])
    tracemalloc.start()
    try:
        with pytest.raises(TableSizeError) as err:
            merge_vertices(g, "u", "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.states, err.value.cap) == (2 ** 26, 2 ** 24)
    assert peak < 2 ** 24  # the refused table alone would take 1 GiB


@pytest.mark.parametrize("seed", range(6))
def test_merge_invariance_random_single_step(seed):
    rng = np.random.default_rng(50 + seed)
    g = random_nfg(rng, max_vertices=5, max_internal=6, max_alpha=3)
    pairs = [(u, v) for u in g.vertex_ids for v in g.neighbors(u) if u < v]
    if not pairs:
        pytest.skip("no adjacent pair drawn")
    u, v = pairs[int(rng.integers(0, len(pairs)))]
    za = exterior_bruteforce(g)
    zb = exterior_bruteforce(merge_vertices(g, u, v))
    assert factors_allclose(za, zb)


def test_insert_cumulus_pair_preserves_exterior():
    rng = np.random.default_rng(3)
    o = OrderedAlphabet(2)
    u = rand_factor(rng, ["x", "s"], [o, o])
    v = rand_factor(rng, ["s", "y"], [o, o])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), o)],
        half_edges=[HalfEdge("hx", ("u", "x"), o, "x"),
                    HalfEdge("hy", ("v", "y"), o, "y")])
    za = exterior_bruteforce(g)
    g2 = insert_transformer_pair(g, "s", make_cumulus_pair(o), orientation="u")
    assert len(g2.vertices) == 4
    zb = exterior_bruteforce(g2)
    assert factors_allclose(za, zb)


def test_insert_fourier_pair_preserves_exterior():
    rng = np.random.default_rng(4)
    z3 = GroupAlphabet((3,))
    u = rand_factor(rng, ["x", "s"], [z3, z3])
    v = rand_factor(rng, ["s", "y"], [z3, z3])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), z3)],
        half_edges=[HalfEdge("hx", ("u", "x"), z3, "x"),
                    HalfEdge("hy", ("v", "y"), z3, "y")])
    za = exterior_bruteforce(g)
    zb = exterior_bruteforce(
        insert_transformer_pair(g, "s", make_fourier_pair(z3), orientation="v"))
    assert factors_allclose(za, zb)


def test_insert_non_inverse_pair_rejected():
    rng = np.random.default_rng(5)
    b = GroupAlphabet((2,))
    u = rand_factor(rng, ["s"], [b])
    v = rand_factor(rng, ["s"], [b])
    g = NfgGraph({"u": u, "v": v},
                 internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), b)])
    kappa = make_indicator("fourier", b, 2)
    bad = TransformerPair(forward=kappa, inverse=kappa)
    with pytest.raises(ValueError, match="inverse pair"):
        insert_transformer_pair(g, "s", bad, orientation="u")


def test_holographic_identity_externals():
    rng = np.random.default_rng(6)
    g = mesh_graph(rng)
    b = Alphabet(2)
    ident = make_indicator("eq", b, 2)
    pair = make_fourier_pair(GroupAlphabet((2,)))
    # group-valued pair on a plain binary edge only works if alphabets match;
    # use a fresh graph over the group alphabet instead
    z2 = GroupAlphabet((2,))
    u = rand_factor(rng, ["x", "s", "t"], [z2, z2, z2])
    v = rand_factor(rng, ["s", "t", "y"], [z2, z2, z2])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), z2),
                        InternalEdge("t", (("u", "t"), ("v", "t")), z2)],
        half_edges=[HalfEdge("hx", ("u", "x"), z2, "x"),
                    HalfEdge("hy", ("v", "y"), z2, "y")])
    za = exterior_bruteforce(g)
    spec = HolographicSpec(
        external={"x": make_indicator("eq", z2, 2), "y": make_indicator("eq", z2, 2)},
        internal={"s": (make_fourier_pair(z2), "u"),
                  "t": (make_fourier_pair(z2), "v")})
    out = holographic_transform(g, spec)
    assert set(out.vertex_ids) == set(g.vertex_ids)
    assert {e.id for e in out.internal_edges} == {e.id for e in g.internal_edges}
    assert out.external_vars == g.external_vars
    zb = exterior_bruteforce(out)
    assert np.max(np.abs(zb.transpose(za.labels).values - za.values)) <= 1e-12 * \
        max(1.0, np.max(np.abs(za.values)))


@pytest.mark.parametrize("seed", range(8))
def test_ght_identity_random_externals(seed):
    rng = np.random.default_rng(100 + seed)
    z2 = GroupAlphabet((2,))
    z3 = GroupAlphabet((3,))
    u = rand_factor(rng, ["x", "s"], [z2, z3])
    v = rand_factor(rng, ["s", "y"], [z3, z2])
    g = NfgGraph(
        {"u": u, "v": v},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), z3)],
        half_edges=[HalfEdge("hx", ("u", "x"), z2, "x"),
                    HalfEdge("hy", ("v", "y"), z2, "y")])
    gx = rand_factor(rng, ["arg1", "arg2"], [z2, z2])
    gy = rand_factor(rng, ["arg1", "arg2"], [z2, z2])
    spec = HolographicSpec(external={"x": gx, "y": gy},
                           internal={"s": (make_fourier_pair(z3), "u")})
    out = holographic_transform(g, spec)
    z_in = exterior_bruteforce(g)
    z_out = exterior_bruteforce(out)
    # the transformed exterior factors through the external transformers:
    # Z_out(y_L) = <Z_in(x_L), prod g_i(x_i, y_i)>
    expected = contract([
        z_in.relabel({"x": "x_in", "y": "y_in"}),
        gx.relabel({"arg1": "x_in", "arg2": "x"}),
        gy.relabel({"arg1": "y_in", "arg2": "y"}),
    ])
    assert factors_allclose(z_out, expected, tol=1e-9)


def test_holographic_internal_only_invariance():
    rng = np.random.default_rng(7)
    o = OrderedAlphabet(3)
    u = rand_factor(rng, ["x", "s", "t"], [o, o, o])
    v = rand_factor(rng, ["s", "y"], [o, o])
    w = rand_factor(rng, ["t"], [o])
    g = NfgGraph(
        {"u": u, "v": v, "w": w},
        internal_edges=[InternalEdge("s", (("u", "s"), ("v", "s")), o),
                        InternalEdge("t", (("u", "t"), ("w", "t")), o)],
        half_edges=[HalfEdge("hx", ("u", "x"), o, "x"),
                    HalfEdge("hy", ("v", "y"), o, "y")])
    spec = HolographicSpec(internal={"s": (make_cumulus_pair(o), "v"),
                                     "t": (make_cumulus_pair(o), "u")})
    out = holographic_transform(g, spec)
    assert factors_allclose(exterior_bruteforce(out), exterior_bruteforce(g),
                            tol=1e-9)


def test_split_vertex_guided_roundtrip():
    rng = np.random.default_rng(8)
    b = Alphabet(2)
    g = mesh_graph(rng)
    merged = merge_vertices(g, "f3", "f4")
    # split the merged vertex back into the two originals
    f3, f4 = g.factor("f3"), g.factor("f4")
    repl = NfgGraph(
        {"p": f3, "q": f4},
        internal_edges=[InternalEdge("s4", (("p", "s4"), ("q", "s4")), b)],
        half_edges=[HalfEdge("r1", ("p", "s3"), b, "s3"),
                    HalfEdge("r2", ("q", "s1"), b, "s1"),
                    HalfEdge("r3", ("q", "s5"), b, "s5")])
    back = split_vertex_guided(merged, "f3", repl)
    assert len(back.vertices) == 4
    assert factors_allclose(exterior_bruteforce(back), exterior_bruteforce(g))


def test_split_vertex_guided_verifies():
    rng = np.random.default_rng(9)
    b = Alphabet(2)
    g = mesh_graph(rng)
    merged = merge_vertices(g, "f3", "f4")
    bad = NfgGraph(
        {"p": rand_factor(rng, ["s3", "s4"], [b, b]),
         "q": rand_factor(rng, ["s4", "s1", "s5"], [b, b, b])},
        internal_edges=[InternalEdge("s4", (("p", "s4"), ("q", "s4")), b)],
        half_edges=[HalfEdge("r1", ("p", "s3"), b, "s3"),
                    HalfEdge("r2", ("q", "s1"), b, "s1"),
                    HalfEdge("r3", ("q", "s5"), b, "s5")])
    with pytest.raises(ValueError, match="does not reproduce"):
        split_vertex_guided(merged, "f3", bad)


# -- fast transforms -------------------------------------------------------------


def test_cumulus_prefix_sum_example():
    o = OrderedAlphabet(3)
    f = Factor(make_product_domain([("x", o)]), [3, 5, 2])
    out = fast_axis_transform(f, "cumulus", ["x"])
    assert np.allclose(out.values, [3, 8, 10])


def test_fast_transforms_match_dense_kernels():
    rng = np.random.default_rng(10)
    for sizes in [(2,), (3,), (5,), (2, 3), (4, 2, 3)]:
        labels = [f"x{i}" for i in range(len(sizes))]
        o_axes = [(l, OrderedAlphabet(s)) for l, s in zip(labels, sizes)]
        f = Factor(make_product_domain(o_axes), rng.standard_normal(sizes))
        for kernel, member in [("cumulus", "forward"), ("difference", "inverse")]:
            got = fast_axis_transform(f, kernel, labels)
            expected = f
            for l, s in zip(labels, sizes):
                pair = make_cumulus_pair(OrderedAlphabet(s))
                k = getattr(pair, member).relabel({"arg1": "out", "arg2": l})
                expected = contract([expected, k]).relabel({"out": l})
            expected = expected.transpose(labels)
            assert np.max(np.abs(got.values - expected.values)) <= 1e-9 * \
                max(1.0, np.max(np.abs(expected.values)))


def test_fast_fourier_matches_dense_and_inverts():
    rng = np.random.default_rng(11)
    g23 = GroupAlphabet((2, 3))
    z4 = GroupAlphabet((4,))
    dom = make_product_domain([("a", g23), ("b", z4)])
    f = Factor(dom, rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape))
    hat = fast_axis_transform(f, "fourier", ["a", "b"])
    expected = f
    for l, alpha in [("a", g23), ("b", z4)]:
        k = make_indicator("fourier", alpha, 2).relabel({"arg1": l, "arg2": "out"})
        expected = contract([expected, k]).relabel({"out": l})
    expected = expected.transpose(["a", "b"])
    assert np.max(np.abs(hat.values - expected.values)) <= 1e-9 * \
        np.max(np.abs(expected.values))
    back = fast_axis_transform(hat, "fourier_inv", ["a", "b"])
    assert np.max(np.abs(back.values - f.values)) <= 1e-9 * np.max(np.abs(f.values))


def test_cumulus_difference_roundtrip_random():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 5)) for _ in range(n)]
        labels = [f"x{i}" for i in range(n)]
        dom = make_product_domain([(l, OrderedAlphabet(s))
                                   for l, s in zip(labels, sizes)])
        f = Factor(dom, rng.standard_normal(sizes))
        fwd = fast_axis_transform(f, "cumulus", labels)
        back = fast_axis_transform(fwd, "difference", labels)
        assert np.allclose(back.values, f.values, atol=1e-9)
        other = fast_axis_transform(fast_axis_transform(f, "difference", labels),
                                    "cumulus", labels)
        assert np.allclose(other.values, f.values, atol=1e-9)


def test_cumulus_addition_counter():
    rng = np.random.default_rng(13)
    n, size = 3, 4
    labels = [f"x{i}" for i in range(n)]
    dom = make_product_domain([(l, OrderedAlphabet(size)) for l in labels])
    f = Factor(dom, rng.standard_normal((size,) * n))
    counter = OpCounter()
    fast_axis_transform(f, "cumulus", labels, counter=counter)
    assert counter.adds == n * (size - 1) * size ** (n - 1)
    counter = OpCounter()
    fast_axis_transform(f, "difference", labels, counter=counter)
    assert counter.adds == n * (size - 1) * size ** (n - 1)


def test_fast_transform_on_product_axis():
    rng = np.random.default_rng(14)
    prod = OrderedProductAlphabet((2, 3))
    dom = make_product_domain([("x", prod)])
    f = Factor(dom, rng.standard_normal(6))
    got = fast_axis_transform(f, "cumulus", ["x"])
    pair = make_cumulus_pair(prod)
    k = pair.forward.relabel({"arg1": "out", "arg2": "x"})
    expected = contract([f, k]).relabel({"out": "x"})
    assert np.allclose(got.values, expected.values, atol=1e-12)


def test_fast_transform_errors():
    rng = np.random.default_rng(15)
    f = rand_factor(rng, ["x"], [Alphabet(3)])
    with pytest.raises(TypeError):
        fast_axis_transform(f, "cumulus", ["x"])
    with pytest.raises(ValueError, match="group"):
        fast_axis_transform(f, "fourier", ["x"])
    with pytest.raises(ValueError, match="unknown kernel"):
        fast_axis_transform(f, "prefix", ["x"])


def test_classification_closure_under_internal_transforms():
    # empirical check: constrained and extended-generative flags survive an
    # internal holographic transformation on a small model
    rng = np.random.default_rng(16)
    o = OrderedAlphabet(2)
    parts = [rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(2)]
    table = np.einsum("pa,pb->pab", *parts)
    gx = Factor(make_product_domain([("x", o), ("t1", o), ("t2", o)]), table)
    gy = Factor(make_product_domain([("x", o), ("t", o)]),
                rng.uniform(0.1, 1.0, size=(2, 2)))
    f1 = rand_factor(rng, ["a"], [o], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [o, o], positive=True)
    g = NfgGraph(
        {"gx": gx, "gy": gy, "f1": f1, "f2": f2},
        internal_edges=[
            InternalEdge("e1", (("gx", "t1"), ("f1", "a")), o),
            InternalEdge("e2", (("gx", "t2"), ("f2", "a")), o),
            InternalEdge("e3", (("gy", "t"), ("f2", "b")), o),
        ],
        half_edges=[HalfEdge("h1", ("gx", "x"), o, "x"),
                    HalfEdge("h2", ("gy", "x"), o, "y")])
    before = classify(g)
    assert before.constrained
    spec = HolographicSpec(internal={
        "e1": (make_cumulus_pair(o), "gx"),
        "e2": (make_cumulus_pair(o), "f2"),
        "e3": (make_cumulus_pair(o), "gy"),
    })
    after = classify(holographic_transform(g, spec))
    assert after.nfg_model
    assert after.constrained == before.constrained


def test_fourier_pipeline_on_generative_sum_model():
    # a generative model with sum interfaces maps to a constrained model with
    # equality interfaces and Fourier-transformed latents, with exact scales
    rng = np.random.default_rng(17)
    z3 = GroupAlphabet((3,))
    s1 = make_indicator("sum", z3, 2).relabel({"arg1": "x", "arg2": "t"})
    s2 = make_indicator("sum", z3, 3).relabel(
        {"arg1": "x", "arg2": "t1", "arg3": "t2"})
    f12 = rand_factor(rng, ["a", "b"], [z3, z3])
    f3 = rand_factor(rng, ["a"], [z3])
    g = NfgGraph(
        {"i1": s1, "i2": s2, "f12": f12, "f3": f3},
        internal_edges=[
            InternalEdge("e1", (("i1", "t"), ("f12", "a")), z3),
            InternalEdge("e2", (("i2", "t1"), ("f12", "b")), z3),
            InternalEdge("e3", (("i2", "t2"), ("f3", "a")), z3),
        ],
        half_edges=[HalfEdge("h1", ("i1", "x"), z3, "x1"),
                    HalfEdge("h2", ("i2", "x"), z3, "x2")])
    assert classify(g).generative

    kappa = make_indicator("fourier", z3, 2)
    spec = HolographicSpec(
        external={"x1": kappa, "x2": kappa},
        internal={e.id: (make_fourier_pair(z3), e.ends[1][0])
                  for e in g.internal_edges})
    out = holographic_transform(g, spec)
    flags = classify(out)
    assert flags.constrained

    # interfaces became exact equality indicators (the scales cancel)
    for i in ("i1", "i2"):
        f = out.factor(i)
        eq = make_indicator("eq", z3, f.ndim)
        lead = [out.half_at(i)[0].end[1]] + \
            [l for l in f.labels if l != out.half_at(i)[0].end[1]]
        assert np.allclose(f.transpose(lead).values, eq.values, atol=1e-12)

    # latents are exactly the Fourier transforms of the originals, aligned
    # through the edges that bind their axes
    edge_to_orig = {"e1": "a", "e2": "b", "e3": "a"}
    for j, orig in (("f12", f12), ("f3", f3)):
        got = out.factor(j)
        rename = {}
        for axis in got.labels:
            e = next(e for e in out.internal_at(j) if (j, axis) in e.ends)
            rename[edge_to_orig[e.id]] = axis
        hat = fast_axis_transform(orig, "fourier", list(orig.labels)) \
            .relabel(rename)
        assert factors_allclose(got, hat, tol=1e-9)

    # transformed-exterior identity by brute force
    z_in = exterior_bruteforce(g)
    z_out = exterior_bruteforce(out)
    kx = kappa.relabel({"arg1": "x1_in", "arg2": "x1"})
    ky = kappa.relabel({"arg1": "x2_in", "arg2": "x2"})
    expected = contract([z_in.relabel({"x1": "x1_in", "x2": "x2_in"}), kx, ky])
    assert factors_allclose(z_out, expected, tol=1e-9)


# -- the local rewrite against the chain of graph rewrites ------------------------


def _outcome(transform, g, spec):
    try:
        return transform(g, spec), None
    except (KeyError, ValueError) as exc:
        return None, exc


def assert_matches_chain(g, spec):
    got, got_err = _outcome(holographic_transform, g, spec)
    want, want_err = _outcome(chain_holographic_transform, g, spec)
    if want_err is not None or got_err is not None:
        assert type(got_err) is type(want_err)
        assert str(got_err) == str(want_err)
    else:
        assert_same_graph(got, want)
    return got


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_holographic_transform_matches_chain_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_nfg(rng, max_vertices=5, max_internal=6, max_half=3, loops=True)
    assert_matches_chain(g, random_holographic_spec(rng, g, errors=True))


def _collision_graph():
    """Edge ``s`` beside an edge ``s_m``, a vertex ``s_m.1`` and a vertex ``x_g``."""
    b = Alphabet(2)
    rng = np.random.default_rng(21)
    return NfgGraph(
        {"u": rand_factor(rng, ["x", "s", "p", "q"], [b] * 4),
         "x_g": rand_factor(rng, ["s", "p", "y"], [b] * 3),
         "s_m.1": rand_factor(rng, ["q"], [b])},
        internal_edges=[InternalEdge("s", (("u", "s"), ("x_g", "s")), b),
                        InternalEdge("s_m", (("u", "p"), ("x_g", "p")), b),
                        InternalEdge("t", (("u", "q"), ("s_m.1", "q")), b)],
        half_edges=[HalfEdge("hx", ("u", "x"), b, "x"),
                    HalfEdge("hs", ("x_g", "y"), b, "s")])


@pytest.mark.parametrize("orientation", ["u", "x_g"])
def test_holographic_transform_id_collisions(orientation):
    g = _collision_graph()
    rng = np.random.default_rng(22)
    b = Alphabet(2)
    spec = HolographicSpec(
        external={"x": random_external_transformer(rng, b),
                  "s": random_external_transformer(rng, b)},
        internal={"s": (random_transformer_pair(rng, b), orientation),
                  "s_m": (random_transformer_pair(rng, b), "x_g"),
                  "t": (random_transformer_pair(rng, b), "s_m.1")})
    out = assert_matches_chain(g, spec)
    # s_m and s_m.1 are taken, so the middle segment of s is labelled s_m.2
    assert out.internal_edge("s").ends == (
        (orientation, "s_m.2"), ({"u": "x_g", "x_g": "u"}[orientation], "s_m.2"))
    assert out.internal_edge("s_m").ends == (("x_g", "s_m_m"), ("u", "s_m_m"))
    assert out.internal_edge("t").ends == (("s_m.1", "t_m"), ("u", "t_m"))


def test_holographic_transform_paired_edge_named_like_a_loop_end():
    # the loop e labels its ends e#0 and e#1 once u is transformed; the axis of
    # the paired edge e#0 is summed over, so its label must not clash with them
    b = Alphabet(2)
    rng = np.random.default_rng(24)
    g = NfgGraph(
        {"u": rand_factor(rng, ["l0", "l1", "p", "x"], [b] * 4),
         "w": rand_factor(rng, ["p"], [b])},
        internal_edges=[InternalEdge("e", (("u", "l0"), ("u", "l1")), b),
                        InternalEdge("e#0", (("u", "p"), ("w", "p")), b)],
        half_edges=[HalfEdge("h", ("u", "x"), b, "x")])
    spec = HolographicSpec(external={"x": random_external_transformer(rng, b)},
                           internal={"e#0": (random_transformer_pair(rng, b), "u")})
    out = assert_matches_chain(g, spec)
    assert out.factor("u").labels == ("e#0", "e#1", "h", "e#0_m")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_holographic_identity_on_random_pairs(seed):
    # Z_out(y) = <Z_in(x), prod_i g_i(x_i, y_i)>: the pairs cancel, the
    # external transformers act on the exterior
    rng = np.random.default_rng(seed)
    g = random_nfg(rng, max_vertices=4, max_internal=4, max_alpha=3, max_half=2,
                   loops=True)
    spec = random_holographic_spec(rng, g)
    out = holographic_transform(g, spec)
    z_in = exterior_bruteforce(g)
    parts = [z_in.relabel({var: f"{var}_in" for var in spec.external})]
    parts += [t.relabel({"arg1": f"{var}_in", "arg2": var})
              for var, t in spec.external.items()]
    expected = contract(parts)
    assert factors_allclose(exterior_bruteforce(out), expected, tol=1e-9)


def test_holographic_transform_builds_one_graph(monkeypatch):
    rng = np.random.default_rng(23)
    g = random_nfg(rng, max_vertices=6, max_internal=8, loops=True)
    spec = HolographicSpec(
        external={h.var: random_external_transformer(rng, h.alphabet) for h in g.half_edges},
        internal={e.id: (random_transformer_pair(rng, e.alphabet), e.vertices[0])
                  for e in g.internal_edges if not e.is_loop()})
    calls = []
    init = NfgGraph.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NfgGraph, "__init__", counting_init)
    holographic_transform(g, spec)
    assert len(calls) == 1


# -- loop-end labels and transformer axis names ---------------------------------------


def _loop_beside(half):
    """A loop ``s`` at ``u`` beside an internal edge (or, if ``half``, a half edge) ``s#0``."""
    b = Alphabet(2)
    rng = np.random.default_rng(31)
    taken = ("e", "s#0") if half else ("s#0", "h")
    return NfgGraph(
        {"u": rand_factor(rng, ["l0", "l1", "p", "x"], [b] * 4),
         "w": rand_factor(rng, ["p", "q"], [b] * 2)},
        internal_edges=[InternalEdge("s", (("u", "l0"), ("u", "l1")), b),
                        InternalEdge(taken[0], (("u", "p"), ("w", "p")), b)],
        half_edges=[HalfEdge(taken[1], ("u", "x"), b, "x"),
                    HalfEdge("hq", ("w", "q"), b, "q")])


@pytest.mark.parametrize("half", [False, True], ids=["edge", "half-edge"])
def test_loop_end_label_skips_a_taken_edge_id(half):
    g = _loop_beside(half)
    merged = merge_vertices(g, "u", "w")
    assert merged.internal_edge("s").ends == (("u", "s#0.1"), ("u", "s#1"))
    assert factors_allclose(exterior_bruteforce(merged), exterior_bruteforce(g), tol=1e-12)

    rng = np.random.default_rng(32)
    spec = HolographicSpec(external={"x": random_external_transformer(rng, Alphabet(2))})
    out = assert_matches_chain(g, spec)
    assert out.internal_edge("s").ends == (("u", "s#0.1"), ("u", "s#1"))
    t = spec.external["x"].relabel({"arg1": "x_in", "arg2": "x"})
    expected = contract([exterior_bruteforce(g).relabel({"x": "x_in"}), t])
    assert factors_allclose(exterior_bruteforce(out), expected, tol=1e-9)


def _renamed(t, names=("a", "b")):
    return t.relabel(dict(zip(t.labels, names)))


def test_misnamed_external_transformer_is_refused():
    rng = np.random.default_rng(33)
    g = mesh_graph(rng)
    t = _renamed(random_external_transformer(rng, Alphabet(2)))
    message = r"transformer for 'x1' must have axes 'arg1' and 'arg2', got \['a', 'b'\]"
    with pytest.raises(ValueError, match=message):
        insert_transformer(g, "x1", t)
    with pytest.raises(ValueError, match=message):
        holographic_transform(g, HolographicSpec(external={"x1": t}))


@pytest.mark.parametrize("member", ["forward", "inverse"])
def test_misnamed_pair_member_is_refused(member):
    rng = np.random.default_rng(34)
    g = mesh_graph(rng)
    pair = random_transformer_pair(rng, Alphabet(2))
    members = {"forward": pair.forward, "inverse": pair.inverse}
    members[member] = _renamed(members[member], ("arg1", "s"))
    bad = TransformerPair(**members)
    message = rf"{member} transformer of edge 's2' must have axes 'arg1' and 'arg2'"
    with pytest.raises(ValueError, match=message):
        insert_transformer_pair(g, "s2", bad, orientation="f1")
    with pytest.raises(ValueError, match=message):
        holographic_transform(g, HolographicSpec(internal={"s2": (bad, "f1")}))


def _swapped(t):
    return t.transpose(["arg2", "arg1"])


def test_transformers_stored_arg2_first_are_bound_by_name():
    rng = np.random.default_rng(35)
    g = mesh_graph(rng)
    h = g.half_edge_for_var("x1")
    t = random_external_transformer(rng, h.alphabet)
    while t.alphabet("arg2") == h.alphabet:
        t = random_external_transformer(rng, h.alphabet)
    want = exterior_bruteforce(insert_transformer(g, "x1", t))
    got = insert_transformer(g, "x1", _swapped(t))
    assert got.half_edge_for_var("x1").alphabet == t.alphabet("arg2")
    assert factors_allclose(exterior_bruteforce(got), want, tol=1e-12)
    out = holographic_transform(g, HolographicSpec(external={"x1": _swapped(t)}))
    assert out.half_edge_for_var("x1").alphabet == t.alphabet("arg2")
    assert factors_allclose(exterior_bruteforce(out), want, tol=1e-12)

    e = g.internal_edge("s2")
    pair = random_transformer_pair(rng, e.alphabet)
    while pair.forward.alphabet("arg2") == e.alphabet:
        pair = random_transformer_pair(rng, e.alphabet)
    swapped = TransformerPair(_swapped(pair.forward), _swapped(pair.inverse))
    assert swapped.alphabet == e.alphabet
    inserted = insert_transformer_pair(g, "s2", swapped, orientation=e.vertices[0])
    assert factors_allclose(exterior_bruteforce(inserted), exterior_bruteforce(g), tol=1e-9)
    out = holographic_transform(g, HolographicSpec(internal={"s2": (swapped, e.vertices[0])}))
    assert out.internal_edge("s2").alphabet == pair.forward.alphabet("arg2")
    assert factors_allclose(exterior_bruteforce(out), exterior_bruteforce(g), tol=1e-9)
