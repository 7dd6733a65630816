import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfgraph.algebra import Alphabet, GroupAlphabet, OrderedAlphabet, make_product_domain
from nfgraph.factor import (Factor, TableSizeError, contract, factors_allclose,
                            multiply_pointwise)
from nfgraph.indicators import make_cumulus_pair, make_indicator
from nfgraph.nfg import HalfEdge, InternalEdge, NfgGraph, classify
from nfgraph.exterior import exterior_bruteforce
from nfgraph.models import (
    CdnDesc,
    CfgDesc,
    FactorGraphDesc,
    cfg_global_function,
    cfg_to_nfg,
    check_cdf_axioms,
    convolve,
    fg_global_function,
    fg_to_nfg,
    independence,
    nfg_to_cfg,
    nfg_to_fg,
    normalize_constrained,
    sample_many,
    to_cdn,
)

from helpers import assert_same_bits, loop_convolve, rand_factor, special_complex


def _triangle_fg(rng, sizes=(2, 3, 2)):
    """Three variables, three functions: f1(x1,x2), f2(x1,x3), f3(x1,x3)."""
    a1, a2, a3 = (Alphabet(s) for s in sizes)
    f1 = rand_factor(rng, ["u", "v"], [a1, a2], positive=True)
    f2 = rand_factor(rng, ["u", "v"], [a1, a3], positive=True)
    f3 = rand_factor(rng, ["u", "v"], [a1, a3], positive=True)
    return FactorGraphDesc(
        variables=(("x1", a1), ("x2", a2), ("x3", a3)),
        functions=(("f1", f1, ("x1", "x2")),
                   ("f2", f2, ("x1", "x3")),
                   ("f3", f3, ("x1", "x3"))))


def test_fg_to_nfg_equivalence():
    rng = np.random.default_rng(0)
    desc = _triangle_fg(rng)
    g = fg_to_nfg(desc)
    flags = classify(g)
    assert flags.constrained
    z = exterior_bruteforce(g)
    expected = fg_global_function(desc)
    assert factors_allclose(z, expected, tol=1e-9)


def test_fg_roundtrip_identity():
    rng = np.random.default_rng(1)
    desc = _triangle_fg(rng)
    back = nfg_to_fg(fg_to_nfg(desc))
    assert [v for v, _ in back.variables] == [v for v, _ in desc.variables]
    assert [n for n, _, _ in back.functions] == [n for n, _, _ in desc.functions]
    for (n1, f1, ne1), (n2, f2, ne2) in zip(desc.functions, back.functions):
        assert ne1 == ne2
        assert np.array_equal(f1.values, f2.values)


@pytest.mark.parametrize("seed", range(6))
def test_fg_random_equivalence(seed):
    rng = np.random.default_rng(100 + seed)
    n_vars = int(rng.integers(2, 5))
    alphas = [Alphabet(int(rng.integers(2, 4))) for _ in range(n_vars)]
    names = [f"x{i}" for i in range(n_vars)]
    funs = []
    for k in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = sorted(rng.choice(n_vars, size=size, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(size)],
                        [alphas[c] for c in chosen], positive=True)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    desc = FactorGraphDesc(tuple(zip(names, alphas)), tuple(funs))
    z = exterior_bruteforce(fg_to_nfg(desc))
    expected = fg_global_function(desc)
    assert factors_allclose(z, expected, tol=1e-9)


def _split_interface(rng, alpha, n_tail):
    parts = [rng.uniform(0.1, 1.0, size=(alpha.size, alpha.size))
             for _ in range(n_tail)]
    table = parts[0]
    if n_tail == 2:
        table = np.einsum("pa,pb->pab", *parts)
    elif n_tail == 3:
        table = np.einsum("pa,pb,pc->pabc", *parts)
    labels = ["x"] + [f"t{k}" for k in range(n_tail)]
    return Factor(make_product_domain([(l, alpha) for l in labels]), table)


def _fig6_style_model(rng):
    """Interfaces g (3 tails) and h (2 tails) over latents f1, f2, f3."""
    b = Alphabet(2)
    gi = _split_interface(rng, b, 3)
    hi = _split_interface(rng, b, 2)
    f1 = rand_factor(rng, ["a"], [b], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    f3 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    return NfgGraph(
        {"g": gi, "h": hi, "f1": f1, "f2": f2, "f3": f3},
        internal_edges=[
            InternalEdge("e1", (("g", "t0"), ("f1", "a")), b),
            InternalEdge("e2", (("g", "t1"), ("f2", "a")), b),
            InternalEdge("e3", (("g", "t2"), ("f3", "a")), b),
            InternalEdge("e4", (("h", "t0"), ("f2", "b")), b),
            InternalEdge("e5", (("h", "t1"), ("f3", "b")), b),
        ],
        half_edges=[HalfEdge("hx", ("g", "x"), b, "x"),
                    HalfEdge("hy", ("h", "x"), b, "y")])


def test_normalize_constrained_fig6():
    rng = np.random.default_rng(2)
    g = _fig6_style_model(rng)
    z_before = exterior_bruteforce(g)
    norm = normalize_constrained(g)
    # same underlying graph
    assert set(norm.vertex_ids) == set(g.vertex_ids)
    assert {e.id for e in norm.internal_edges} == {e.id for e in g.internal_edges}
    # interfaces became equality indicators
    for i in ("g", "h"):
        f = norm.factor(i)
        eq = make_indicator("eq", Alphabet(2), f.ndim)
        assert np.allclose(f.values, eq.values)
    z_after = exterior_bruteforce(norm)
    assert factors_allclose(z_before, z_after, tol=1e-9)


def test_normalize_equality_interfaces_noop():
    rng = np.random.default_rng(3)
    desc = _triangle_fg(rng)
    g = fg_to_nfg(desc)
    norm = normalize_constrained(g)
    assert factors_allclose(exterior_bruteforce(g), exterior_bruteforce(norm))


@pytest.mark.parametrize("seed", range(5))
def test_normalize_random_split_interfaces(seed):
    rng = np.random.default_rng(200 + seed)
    g = _fig6_style_model(rng)
    norm = normalize_constrained(g)
    assert factors_allclose(exterior_bruteforce(g), exterior_bruteforce(norm),
                            tol=1e-9)
    assert classify(norm).constrained  # still a constrained model


def test_nfg_to_fg_requires_equality():
    rng = np.random.default_rng(4)
    g = _fig6_style_model(rng)
    with pytest.raises(ValueError, match="normalize"):
        nfg_to_fg(g)
    desc = nfg_to_fg(normalize_constrained(g))
    expected = fg_global_function(desc)
    z = exterior_bruteforce(g)
    assert factors_allclose(z, expected, tol=1e-9)


# -- CFG ---------------------------------------------------------------------------


def test_convolve_pairwise_definition():
    rng = np.random.default_rng(5)
    z3 = GroupAlphabet((3,))
    f1 = rand_factor(rng, ["x1", "x2"], [z3, z3])
    f2 = rand_factor(rng, ["x2", "x3"], [z3, z3])
    out = convolve(f1, f2)
    assert set(out.labels) == {"x1", "x2", "x3"}
    got = out.transpose(["x1", "x2", "x3"])
    for x1 in range(3):
        for x2 in range(3):
            for x3 in range(3):
                expected = sum(f1.values[x1, (x2 - x) % 3] * f2.values[x, x3]
                               for x in range(3))
                assert got.values[x1, x2, x3] == pytest.approx(expected)


@st.composite
def _convolution_pairs(draw):
    """Two factors sharing 1-2 group axes, each with 0-2 plain axes of their own,
    axes in drawn orders, values with signed zeros, infinities and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    moduli = st.lists(st.integers(2, 4), min_size=1, max_size=2)
    shared = [(f"s{i}", GroupAlphabet(tuple(draw(moduli))))
              for i in range(draw(st.integers(1, 2)))]
    sizes = st.lists(st.integers(1, 3), max_size=2)
    a_axes = draw(st.permutations(
        shared + [(f"a{i}", Alphabet(n)) for i, n in enumerate(draw(sizes))]))
    b_axes = draw(st.permutations(
        shared + [(f"b{i}", Alphabet(n)) for i, n in enumerate(draw(sizes))]))
    out = []
    for axes in (a_axes, b_axes):
        dom = make_product_domain(axes)
        out.append(Factor(dom, special_complex(rng, dom.shape)))
    return out


@settings(max_examples=60, deadline=None)
@given(_convolution_pairs())
def test_convolve_matches_the_loop_oracle(pair):
    a, b = pair
    with np.errstate(all="ignore"):
        got = convolve(a, b)
        want = loop_convolve(a, b)
    assert got.domain == want.domain
    assert_same_bits(got.values, want.values)


@pytest.mark.parametrize("shared", [True, False], ids=["convolve", "pointwise"])
def test_convolve_refuses_an_oversized_output_before_allocating(shared):
    b, z2 = Alphabet(2), GroupAlphabet((2,))
    common = [("s", z2)] if shared else []
    a = Factor(make_product_domain([(f"a{k}", b) for k in range(13)] + common),
               np.ones(2 ** (13 + len(common))))
    c = Factor(make_product_domain(common + [(f"c{k}", b) for k in range(13)]),
               np.ones(2 ** (13 + len(common))))
    tracemalloc.start()
    try:
        with pytest.raises(TableSizeError) as err:
            convolve(a, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.states == 2 ** (26 + len(common))
    assert peak < 2 ** 24


def test_convolution_sum_indicator_identity():
    # <f(x,t), g(u,z), sum-indicator(y,t,u)> = (f * g)(x, y, z)
    rng = np.random.default_rng(6)
    z3 = GroupAlphabet((3,))
    f = rand_factor(rng, ["x", "t"], [z3, z3])
    g = rand_factor(rng, ["u", "z"], [z3, z3])
    s = make_indicator("sum", z3, 3).relabel(
        {"arg1": "y", "arg2": "t", "arg3": "u"})
    got = contract([f, g, s]).transpose(["x", "y", "z"])
    expected = convolve(f.relabel({"t": "y"}), g.relabel({"u": "y"})) \
        .transpose(["x", "y", "z"])
    assert np.allclose(got.values, expected.values, atol=1e-9)


def test_cfg_example_two_sources():
    rng = np.random.default_rng(7)
    z4 = GroupAlphabet((4,))
    p12 = rand_factor(rng, ["s1", "s2"], [z4, z4], positive=True)
    p3 = rand_factor(rng, ["s3"], [z4], positive=True)
    desc = CfgDesc(
        variables=(("x1", z4), ("x2", z4)),
        functions=(("p12", p12, ("x1", "x2")), ("p3", p3, ("x2",))))
    g = cfg_to_nfg(desc)
    assert classify(g).generative
    z = exterior_bruteforce(g)
    expected = cfg_global_function(desc)
    assert factors_allclose(z, expected, tol=1e-9)
    # degree-2 sum interface acts as a pass-through equality
    assert np.array_equal(g.factor("x1").values.real, np.eye(4))


def test_cfg_roundtrip():
    rng = np.random.default_rng(8)
    z3 = GroupAlphabet((3,))
    f1 = rand_factor(rng, ["a", "b"], [z3, z3], positive=True)
    f2 = rand_factor(rng, ["a"], [z3], positive=True)
    desc = CfgDesc(variables=(("x", z3), ("y", z3)),
                   functions=(("f1", f1, ("x", "y")), ("f2", f2, ("y",))))
    back = nfg_to_cfg(cfg_to_nfg(desc))
    assert [v for v, _ in back.variables] == ["x", "y"]
    for (n1, fa, ne1), (n2, fb, ne2) in zip(desc.functions, back.functions):
        assert (n1, ne1) == (n2, ne2)
        assert np.array_equal(fa.values, fb.values)


@pytest.mark.parametrize("seed", range(5))
def test_cfg_random_equivalence(seed):
    rng = np.random.default_rng(300 + seed)
    z3 = GroupAlphabet((3,))
    names = ["x0", "x1", "x2"]
    funs = []
    for k in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, 3))
        chosen = sorted(rng.choice(3, size=size, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(size)], [z3] * size)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    desc = CfgDesc(tuple((n, z3) for n in names), tuple(funs))
    z = exterior_bruteforce(cfg_to_nfg(desc))
    expected = cfg_global_function(desc)
    assert factors_allclose(z, expected, tol=1e-9)


# -- CDN ---------------------------------------------------------------------------


def _cdn_transformed_model(rng, size=3):
    """Two max interfaces over three distribution latents, cumulus externals."""
    o = OrderedAlphabet(size)
    m1 = make_indicator("max", o, 4).relabel(
        {"arg1": "out", "arg2": "t1", "arg3": "t2", "arg4": "t3"})
    m2 = make_indicator("max", o, 3).relabel(
        {"arg1": "out", "arg2": "t1", "arg3": "t2"})
    def dist(shape):
        p = rng.uniform(0.1, 1.0, size=shape)
        return p / p.sum()
    f1 = Factor(make_product_domain([("a", o)]), dist((size,)))
    f2 = Factor(make_product_domain([("a", o), ("b", o)]), dist((size, size)))
    f3 = Factor(make_product_domain([("a", o), ("b", o)]), dist((size, size)))
    A = make_indicator("cumulus", o, 2)
    return NfgGraph(
        {"m1": m1, "m2": m2, "f1": f1, "f2": f2, "f3": f3,
         "A1": A, "A2": A},
        internal_edges=[
            InternalEdge("e1", (("m1", "t1"), ("f1", "a")), o),
            InternalEdge("e2", (("m1", "t2"), ("f2", "a")), o),
            InternalEdge("e3", (("m1", "t3"), ("f3", "a")), o),
            InternalEdge("e4", (("m2", "t1"), ("f2", "b")), o),
            InternalEdge("e5", (("m2", "t2"), ("f3", "b")), o),
            InternalEdge("a1", (("m1", "out"), ("A1", "arg2")), o),
            InternalEdge("a2", (("m2", "out"), ("A2", "arg2")), o),
        ],
        half_edges=[HalfEdge("h1", ("A1", "arg1"), o, "x1"),
                    HalfEdge("h2", ("A2", "arg1"), o, "x2")])


def test_to_cdn_equivalence():
    rng = np.random.default_rng(9)
    g = _cdn_transformed_model(rng)
    desc = to_cdn(g)
    assert isinstance(desc, CdnDesc)
    z = exterior_bruteforce(g)
    expected = fg_global_function(desc)
    assert factors_allclose(z, expected, tol=1e-9)
    # all produced local functions pass the CDF axioms
    for _, f, _ in desc.functions:
        assert check_cdf_axioms(f) == []
    top = fg_global_function(desc).values[tuple(-1 for _ in desc.variables)]
    assert top == pytest.approx(1.0)


def test_to_cdn_single_latent_running_sum():
    rng = np.random.default_rng(10)
    o = OrderedAlphabet(4)
    m = make_indicator("max", o, 2).relabel({"arg1": "out", "arg2": "t"})
    p = rng.uniform(0.1, 1.0, size=4)
    p /= p.sum()
    f = Factor(make_product_domain([("a", o)]), p)
    A = make_indicator("cumulus", o, 2)
    g = NfgGraph(
        {"m": m, "f": f, "A": A},
        internal_edges=[InternalEdge("e", (("m", "t"), ("f", "a")), o),
                        InternalEdge("a", (("m", "out"), ("A", "arg2")), o)],
        half_edges=[HalfEdge("h", ("A", "arg1"), o, "x")])
    desc = to_cdn(g)
    (_, cdf, _), = desc.functions
    assert np.allclose(cdf.values.real, np.cumsum(p))


def test_to_cdn_itemizes_problems():
    rng = np.random.default_rng(11)
    g = _cdn_transformed_model(rng)
    # corrupt one latent so it is no longer a distribution
    bad_vertices = dict(g.vertices)
    f1 = bad_vertices["f1"]
    bad_vertices["f1"] = Factor(f1.domain, f1.values * 3.0)
    bad = NfgGraph(bad_vertices, g.internal_edges, g.half_edges)
    with pytest.raises(ValueError, match="does not sum to 1"):
        to_cdn(bad)


# -- sampling ----------------------------------------------------------------------


def _empirical_distribution(res, shape):
    counts = np.zeros(shape)
    for row in res.assignments:
        counts[tuple(row)] += 1
    return counts / res.assignments.shape[0]


def _tv_distance(p, q):
    return 0.5 * np.abs(p - q).sum()


def test_sample_uniform_when_latents_trivial():
    rng = np.random.default_rng(12)
    b = Alphabet(2)
    iface = Factor(make_product_domain([("x", b), ("t", b)]),
                   np.full((2, 2), 0.25))
    lat = make_indicator("one", b, 1).relabel({"arg1": "a"})
    g = NfgGraph(
        {"i1": iface, "l1": lat},
        internal_edges=[InternalEdge("e", (("i1", "t"), ("l1", "a")), b)],
        half_edges=[HalfEdge("h", ("i1", "x"), b, "x")])
    res = sample_many(g, 4000, seed=0)
    assert res.rejected == 0
    emp = _empirical_distribution(res, (2,))
    assert _tv_distance(emp, np.array([0.5, 0.5])) < 0.03


def test_sample_single_variable_shaping():
    # uniform prior on two symbols against latent weights [1, 0.5]
    b = Alphabet(2)
    iface = Factor(make_product_domain([("x", b), ("t", b)]),
                   np.diag([0.5, 0.5]))
    lat = Factor(make_product_domain([("a", b)]), [1.0, 0.5])
    g = NfgGraph(
        {"i1": iface, "l1": lat},
        internal_edges=[InternalEdge("e", (("i1", "t"), ("l1", "a")), b)],
        half_edges=[HalfEdge("h", ("i1", "x"), b, "x")])
    z = exterior_bruteforce(g)
    target = z.values.real / z.values.real.sum()
    assert np.allclose(target, [2 / 3, 1 / 3])
    res = sample_many(g, 30000, seed=1)
    emp = _empirical_distribution(res, (2,))
    assert _tv_distance(emp, target) < 0.02
    assert res.rejected > 0


def test_sample_generative_matches_exterior():
    rng = np.random.default_rng(13)
    b = Alphabet(2)
    def cond(nax):
        raw = rng.uniform(0.1, 1.0, size=(2,) * nax)
        return raw / raw.sum(axis=0, keepdims=True)
    i1 = Factor(make_product_domain([("x", b), ("t", b)]), cond(2))
    i2 = Factor(make_product_domain([("x", b), ("t1", b), ("t2", b)]), cond(3))
    f12 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    f3 = rand_factor(rng, ["a"], [b], positive=True)
    g = NfgGraph(
        {"i1": i1, "i2": i2, "f12": f12, "f3": f3},
        internal_edges=[
            InternalEdge("s1", (("i1", "t"), ("f12", "a")), b),
            InternalEdge("s2", (("i2", "t1"), ("f12", "b")), b),
            InternalEdge("s3", (("i2", "t2"), ("f3", "a")), b),
        ],
        half_edges=[HalfEdge("h1", ("i1", "x"), b, "x1"),
                    HalfEdge("h2", ("i2", "x"), b, "x2")])
    z = exterior_bruteforce(g)
    target = z.values.real / z.values.real.sum()
    res = sample_many(g, 30000, seed=2)
    order = [res.variables.index(v) for v in ("x1", "x2")]
    emp = np.zeros((2, 2))
    for row in res.assignments:
        emp[row[order[0]], row[order[1]]] += 1
    emp /= res.assignments.shape[0]
    assert _tv_distance(emp, target) < 0.02
    assert res.scale == pytest.approx(float(f12.values.real.sum()
                                            * f3.values.real.sum()), rel=1e-9)


def test_sample_deterministic_given_seed():
    rng = np.random.default_rng(14)
    g = _fig6_style_model(rng)
    a = sample_many(g, 500, seed=42)
    b = sample_many(g, 500, seed=42)
    assert np.array_equal(a.assignments, b.assignments)
    c = sample_many(g, 500, seed=43)
    assert not np.array_equal(a.assignments, c.assignments)


def test_sample_rejects_negative_factors():
    b = Alphabet(2)
    iface = Factor(make_product_domain([("x", b), ("t", b)]),
                   np.diag([0.5, 0.5]))
    lat = Factor(make_product_domain([("a", b)]), [1.0, -0.5])
    g = NfgGraph(
        {"i1": iface, "l1": lat},
        internal_edges=[InternalEdge("e", (("i1", "t"), ("l1", "a")), b)],
        half_edges=[HalfEdge("h", ("i1", "x"), b, "x")])
    with pytest.raises(ValueError, match="negative"):
        sample_many(g, 10, seed=0)


def test_sample_budget_exhaustion():
    b = Alphabet(2)
    iface = Factor(make_product_domain([("x", b), ("t", b)]),
                   np.full((2, 2), 0.25))
    lat = Factor(make_product_domain([("a", b)]), [1.0, 1e-9])
    g = NfgGraph(
        {"i1": iface, "l1": lat},
        internal_edges=[InternalEdge("e", (("i1", "t"), ("l1", "a")), b)],
        half_edges=[HalfEdge("h", ("i1", "x"), b, "x")])
    with pytest.raises(RuntimeError, match="budget"):
        sample_many(g, 1000, seed=0, max_rejects=50)


# -- independence ------------------------------------------------------------------


def _chain_model(kind, rng):
    b = Alphabet(2)
    if kind == "split":
        def iface(nax):
            parts = [rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(nax - 1)]
            table = parts[0] if nax == 2 else np.einsum("pa,pb->pab", *parts)
            labels = ["x"] + [f"t{k}" for k in range(nax - 1)]
            return Factor(make_product_domain([(l, b) for l in labels]), table)
    else:
        def iface(nax):
            raw = rng.uniform(0.1, 1.0, size=(2,) * nax)
            raw = raw / raw.sum(axis=0, keepdims=True)
            labels = ["x"] + [f"t{k}" for k in range(nax - 1)]
            return Factor(make_product_domain([(l, b) for l in labels]), raw)
    g1, g2, g3 = iface(2), iface(3), iface(2)
    f1 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    return NfgGraph(
        {"g1": g1, "g2": g2, "g3": g3, "f1": f1, "f2": f2},
        internal_edges=[
            InternalEdge("e1", (("g1", "t0"), ("f1", "a")), b),
            InternalEdge("e2", (("g2", "t0"), ("f1", "b")), b),
            InternalEdge("e3", (("g2", "t1"), ("f2", "a")), b),
            InternalEdge("e4", (("g3", "t0"), ("f2", "b")), b),
        ],
        half_edges=[HalfEdge("hx", ("g1", "x"), b, "x"),
                    HalfEdge("hy", ("g2", "x"), b, "y"),
                    HalfEdge("hz", ("g3", "x"), b, "z")])


def test_independence_verdicts():
    rng = np.random.default_rng(15)
    constrained = _chain_model("split", rng)
    v = independence(constrained, ["x"], ["z"], ["y"])
    assert v.kind == "conditional"
    assert v.witness == ("y",)
    generative = _chain_model("conditional", rng)
    # separation by y yields an unconditional claim in the generative case
    v2 = independence(generative, ["x"], ["z"], ["y"])
    assert v2.kind == "marginal"
    assert v2.witness == ()
    # without the separator nothing is separated, so nothing is claimed
    v3 = independence(generative, ["x"], ["z"], [])
    assert v3.kind == "unknown"
    # non-separated query asserts nothing
    v4 = independence(constrained, ["x"], ["y"], [])
    assert v4.kind == "unknown"


def test_independence_numerical_validation():
    rng = np.random.default_rng(16)
    constrained = _chain_model("split", rng)
    z = exterior_bruteforce(constrained).transpose(["x", "y", "z"]).values.real
    p = z / z.sum()
    # conditional: p(x,z|y) = p(x|y) p(z|y) wherever p(y) > 0
    for y in range(2):
        py = p[:, y, :].sum()
        assert py > 1e-12
        joint = p[:, y, :] / py
        assert np.allclose(joint, np.outer(joint.sum(1), joint.sum(0)), atol=1e-8)

    generative = _chain_model("conditional", rng)
    z2 = exterior_bruteforce(generative).transpose(["x", "y", "z"]).values.real
    q = z2 / z2.sum()
    qxz = q.sum(axis=1)
    assert np.allclose(qxz, np.outer(qxz.sum(1), qxz.sum(0)), atol=1e-8)


def test_independence_requires_model():
    rng = np.random.default_rng(17)
    from helpers import mesh_graph

    g = mesh_graph(rng)
    with pytest.raises(ValueError, match="NFG model"):
        independence(g, ["x1"], ["x2"], [])


def test_sampler_acceptance_probability_reported():
    rng = np.random.default_rng(18)
    g = _fig6_style_model(rng)
    res = sample_many(g, 20000, seed=5)
    # reported, not asserted: the exact expected acceptance accompanies the
    # empirical rate, and both live in (0, 1]
    assert res.expected_acceptance is not None
    assert 0.0 < res.expected_acceptance <= 1.0
    assert 0.0 < res.acceptance_rate <= 1.0
    print(f"acceptance: empirical {res.acceptance_rate:.4f} "
          f"vs exact {res.expected_acceptance:.4f}")
