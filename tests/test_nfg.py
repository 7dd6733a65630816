import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfgraph.algebra import Alphabet, GroupAlphabet, make_product_domain
from nfgraph.exterior import eliminate, exterior_bruteforce
from nfgraph.factor import Factor, factors_allclose
from nfgraph.indicators import make_indicator
from nfgraph.nfg import (
    HalfEdge,
    InternalEdge,
    NfgGraph,
    classify,
    separated,
    wrap_half_edge_with_equality,
)

from helpers import (
    mesh_graph,
    rand_factor,
    scan_edge_at,
    scan_edges_between,
    scan_fresh_id,
    scan_half_at,
    scan_internal_at,
    scan_neighbors,
)


def test_mesh_graph_validates():
    g = mesh_graph(np.random.default_rng(0))
    assert set(g.vertex_ids) == {"f1", "f2", "f3", "f4"}
    assert len(g.internal_edges) == 5
    assert g.external_vars == ("x1", "x2")
    assert g.degree("f2") == 4


def test_unbound_axis_rejected():
    b = Alphabet(2)
    f = rand_factor(np.random.default_rng(1), ["a", "b", "c"], [b, b, b])
    with pytest.raises(ValueError, match="not bound"):
        NfgGraph({"v": f}, half_edges=[
            HalfEdge("h1", ("v", "a"), b, "x1"),
            HalfEdge("h2", ("v", "b"), b, "x2"),
        ])


def test_alphabet_mismatch_rejected():
    rng = np.random.default_rng(2)
    f = rand_factor(rng, ["a"], [Alphabet(2)])
    g = rand_factor(rng, ["a"], [Alphabet(3)])
    with pytest.raises(ValueError, match="alphabet mismatch"):
        NfgGraph({"u": f, "v": g}, internal_edges=[
            InternalEdge("e", (("u", "a"), ("v", "a")), Alphabet(2))])


@pytest.mark.parametrize("axis", ["z", ["a"]], ids=["missing", "unhashable"])
def test_unknown_axis_rejected(axis):
    b = Alphabet(2)
    f = rand_factor(np.random.default_rng(6), ["a"], [b])
    with pytest.raises(ValueError, match="binds unknown axis"):
        NfgGraph({"v": f}, half_edges=[HalfEdge("h", ("v", axis), b, "x")])


def test_doubly_bound_axis_rejected():
    b = Alphabet(2)
    f = rand_factor(np.random.default_rng(3), ["a"], [b])
    g2 = rand_factor(np.random.default_rng(4), ["a", "b"], [b, b])
    with pytest.raises(ValueError, match="bound by both"):
        NfgGraph({"u": f, "v": g2}, internal_edges=[
            InternalEdge("e1", (("u", "a"), ("v", "a")), b),
            InternalEdge("e2", (("v", "a"), ("v", "b")), b),
        ])


def test_duplicate_ids_rejected():
    b = Alphabet(2)
    rng = np.random.default_rng(5)
    u = rand_factor(rng, ["a"], [b])
    v = rand_factor(rng, ["a"], [b])
    with pytest.raises(ValueError, match="duplicate edge id"):
        NfgGraph({"u": u, "v": v}, half_edges=[
            HalfEdge("h", ("u", "a"), b, "x1"),
            HalfEdge("h", ("v", "a"), b, "x2"),
        ])
    with pytest.raises(ValueError, match="duplicate external"):
        NfgGraph({"u": u, "v": v}, half_edges=[
            HalfEdge("h1", ("u", "a"), b, "x"),
            HalfEdge("h2", ("v", "a"), b, "x"),
        ])


def _model_graph(interface_kind="split", rng=None):
    """Fig-8-style chain: interfaces g1,g2,g3 over latents f1,f2."""
    rng = rng or np.random.default_rng(7)
    b = Alphabet(2)
    if interface_kind == "split":
        tabs = {}
        for name, nax in [("g1", 2), ("g2", 3), ("g3", 2)]:
            parts = [rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(nax - 1)]
            if nax == 2:
                table = parts[0]
            else:
                table = np.einsum("pa,pb->pab", *parts)
            tabs[name] = table
        g1 = Factor(make_product_domain([("x", b), ("t", b)]), tabs["g1"])
        g2 = Factor(make_product_domain([("x", b), ("t1", b), ("t2", b)]), tabs["g2"])
        g3 = Factor(make_product_domain([("x", b), ("t", b)]), tabs["g3"])
    elif interface_kind == "conditional":
        def cond(nax):
            raw = rng.uniform(0.1, 1.0, size=(2,) * nax)
            return raw / raw.sum(axis=0, keepdims=True)
        g1 = Factor(make_product_domain([("x", b), ("t", b)]), cond(2))
        g2 = Factor(make_product_domain([("x", b), ("t1", b), ("t2", b)]), cond(3))
        g3 = Factor(make_product_domain([("x", b), ("t", b)]), cond(2))
    else:
        raise ValueError(interface_kind)
    f1 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    return NfgGraph(
        {"g1": g1, "g2": g2, "g3": g3, "f1": f1, "f2": f2},
        internal_edges=[
            InternalEdge("e1", (("g1", "t"), ("f1", "a")), b),
            InternalEdge("e2", (("g2", "t1"), ("f1", "b")), b),
            InternalEdge("e3", (("g2", "t2"), ("f2", "a")), b),
            InternalEdge("e4", (("g3", "t"), ("f2", "b")), b),
        ],
        half_edges=[
            HalfEdge("hx", ("g1", "x"), b, "x"),
            HalfEdge("hy", ("g2", "x"), b, "y"),
            HalfEdge("hz", ("g3", "x"), b, "z"),
        ],
    )


def test_classify_constrained():
    flags = classify(_model_graph("split"))
    assert flags.simple and flags.bipartite and flags.nfg_model
    assert flags.constrained
    assert flags.interface_set == frozenset({"g1", "g2", "g3"})
    assert flags.latent_set == frozenset({"f1", "f2"})


def test_classify_generative():
    flags = classify(_model_graph("conditional"))
    assert flags.generative
    assert flags.extended_generative
    for c in flags.conditional_constants.values():
        assert c == pytest.approx(1.0)


def test_generative_implies_extended_implies_model():
    for kind in ("split", "conditional"):
        flags = classify(_model_graph(kind))
        if flags.constrained or flags.generative:
            assert flags.nfg_model
        if flags.generative:
            assert flags.extended_generative


def test_self_loop_not_simple():
    b = Alphabet(2)
    f = rand_factor(np.random.default_rng(8), ["a", "b"], [b, b])
    g = NfgGraph({"v": f}, internal_edges=[
        InternalEdge("e", (("v", "a"), ("v", "b")), b)])
    flags = classify(g)
    assert not flags.simple
    assert not flags.bipartite
    assert not flags.nfg_model


def test_parallel_edges_not_simple_but_bipartite():
    b = Alphabet(2)
    rng = np.random.default_rng(9)
    u = rand_factor(rng, ["a", "b"], [b, b])
    v = rand_factor(rng, ["a", "b"], [b, b])
    g = NfgGraph({"u": u, "v": v}, internal_edges=[
        InternalEdge("e1", (("u", "a"), ("v", "a")), b),
        InternalEdge("e2", (("u", "b"), ("v", "b")), b),
    ])
    flags = classify(g)
    assert not flags.simple
    assert flags.bipartite


def test_classify_invariant_under_renaming():
    g = _model_graph("split", rng=np.random.default_rng(10))
    flags = classify(g)
    renamed = NfgGraph(
        {f"V_{v}": f.relabel({l: f"ax_{l}" for l in f.labels})
         for v, f in g.vertices.items()},
        internal_edges=[
            InternalEdge(f"E_{e.id}",
                         ((f"V_{e.ends[0][0]}", f"ax_{e.ends[0][1]}"),
                          (f"V_{e.ends[1][0]}", f"ax_{e.ends[1][1]}")),
                         e.alphabet)
            for e in g.internal_edges],
        half_edges=[
            HalfEdge(f"H_{h.id}", (f"V_{h.end[0]}", f"ax_{h.end[1]}"),
                     h.alphabet, h.var)
            for h in g.half_edges],
    )
    flags2 = classify(renamed)
    assert flags.constrained == flags2.constrained
    assert flags.generative == flags2.generative
    assert flags.tree == flags2.tree


def test_tree_flag():
    g = _model_graph("split")
    assert classify(g).tree  # 5 vertices, 4 internal edges, connected


def test_separated_chain():
    g = _model_graph("split")
    assert separated(g, {"g1"}, {"g3"}, {"g2"})
    assert not separated(g, {"g1"}, {"g3"}, set())
    with pytest.raises(ValueError, match="disjoint"):
        separated(g, {"g1"}, {"g1"}, set())


def test_separated_symmetric_and_monotone():
    g = _model_graph("split")
    for a, bset, s in [({"g1"}, {"g3"}, {"g2"}), ({"g1"}, {"f2"}, {"g2"})]:
        assert separated(g, a, bset, s) == separated(g, bset, a, s)
    # adding vertices to S never flips true -> false
    assert separated(g, {"g1"}, {"g3"}, {"g2"})
    assert separated(g, {"g1"}, {"g3"}, {"g2", "f2"})


def test_separated_disconnected():
    b = Alphabet(2)
    rng = np.random.default_rng(11)
    g = NfgGraph(
        {"u": rand_factor(rng, ["a"], [b]), "v": rand_factor(rng, ["a"], [b])},
        half_edges=[HalfEdge("h1", ("u", "a"), b, "x"),
                    HalfEdge("h2", ("v", "a"), b, "y")])
    assert separated(g, {"u"}, {"v"}, set())


def test_wrap_half_edge_with_equality():
    from nfgraph.exterior import exterior_bruteforce

    g = mesh_graph(np.random.default_rng(12))
    wrapped = wrap_half_edge_with_equality(g, "x1")
    assert len(wrapped.vertices) == len(g.vertices) + 1
    assert len(wrapped.internal_edges) == len(g.internal_edges) + 1
    za = exterior_bruteforce(g)
    zb = exterior_bruteforce(wrapped)
    assert np.allclose(za.values, zb.transpose(za.labels).values)


def test_extended_generative_without_generative():
    # pivot sums factor into non-constant univariate profiles
    rng = np.random.default_rng(13)
    b = Alphabet(2)
    u = np.array([1.0, 2.0])
    v = np.array([0.5, 1.5])
    w = np.array([0.3, 0.7])
    table = np.einsum("x,a,b->xab", w, u, v)
    iface = Factor(make_product_domain([("x", b), ("t1", b), ("t2", b)]), table)
    lat1 = rand_factor(rng, ["a"], [b], positive=True)
    lat2 = rand_factor(rng, ["a"], [b], positive=True)
    g = NfgGraph(
        {"i": iface, "l1": lat1, "l2": lat2},
        internal_edges=[InternalEdge("e1", (("i", "t1"), ("l1", "a")), b),
                        InternalEdge("e2", (("i", "t2"), ("l2", "a")), b)],
        half_edges=[HalfEdge("h", ("i", "x"), b, "x")])
    flags = classify(g)
    assert flags.extended_generative
    assert not flags.generative


@st.composite
def multigraphs(draw):
    """Random NFGs with loops, parallel edges, isolated vertices and several components."""
    n_v = draw(st.integers(1, 5))
    vertex = st.integers(0, n_v - 1)
    size = st.integers(2, 3)
    edges = draw(st.lists(st.tuples(vertex, vertex, size), max_size=6))
    halves = draw(st.lists(st.tuples(vertex, size), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vids = [f"v{i}" for i in range(n_v)]
    axes = {v: [] for v in vids}

    def endpoint(i, alpha):
        v = vids[i]
        axes[v].append((f"a{len(axes[v])}", alpha))
        return (v, axes[v][-1][0])

    internal = []
    for k, (i, j, m) in enumerate(edges):
        alpha = Alphabet(m)
        internal.append(InternalEdge(f"e{k}", (endpoint(i, alpha), endpoint(j, alpha)), alpha))
    half = [HalfEdge(f"h{k}", endpoint(i, Alphabet(m)), Alphabet(m), f"x{k}")
            for k, (i, m) in enumerate(halves)]
    vertices = {v: rand_factor(rng, [l for l, _ in axes[v]], [a for _, a in axes[v]])
                for v in vids}
    return NfgGraph(vertices, internal, half)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_index_matches_linear_scans(g):
    probes = list(g.vertex_ids) + ["nowhere"]
    for v in probes:
        assert g.internal_at(v) == scan_internal_at(g, v)
        assert g.half_at(v) == scan_half_at(g, v)
        assert g.neighbors(v) == scan_neighbors(g, v)
        for w in probes:
            assert g.edges_between(v, w) == scan_edges_between(g, v, w)
    for v, f in g.vertices.items():
        for axis in f.labels:
            assert g.edge_at(v, axis) is scan_edge_at(g, v, axis)
    with pytest.raises(KeyError):
        g.edge_at("nowhere", "a0")
    for e in g.internal_edges:
        assert g.internal_edge(e.id) is e
    for h in g.half_edges:
        assert g.half_edge(h.id) is h
        assert g.half_edge_for_var(h.var) is h
        with pytest.raises(KeyError):
            g.internal_edge(h.id)
    for prefix in ("v0", "e0", "h0", "x0", "fresh"):
        assert g.fresh_id(prefix) == scan_fresh_id(g, prefix)
    assert factors_allclose(eliminate(g).result, exterior_bruteforce(g))
