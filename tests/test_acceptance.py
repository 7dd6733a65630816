"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest

from nfgraph.algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    make_product_domain,
)
from nfgraph.factor import Factor, OpCounter, contract, factors_allclose, multiply_pointwise
from nfgraph.indicators import (
    TransformerPair,
    make_cumulus_pair,
    make_fourier_pair,
    make_indicator,
)
from nfgraph.nfg import HalfEdge, InternalEdge, NfgGraph, classify
from nfgraph.exterior import derivative_sum_product, eliminate, exterior_bruteforce, sum_product
from nfgraph.transform import HolographicSpec, fast_axis_transform, holographic_transform
from nfgraph.models import (
    CfgDesc,
    FactorGraphDesc,
    cfg_global_function,
    cfg_to_nfg,
    check_cdf_axioms,
    fg_global_function,
    fg_to_nfg,
    nfg_to_cfg,
    nfg_to_fg,
    normalize_constrained,
    sample_many,
    to_cdn,
)
from nfgraph.codes import (
    LinearCodeSpec,
    codewords,
    dual_via_fourier,
    generator_realization,
    parity_realization,
    weight_distribution,
)
from nfgraph.inference import Query, query

from helpers import rand_factor, random_nfg, random_tree


def _report(n, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {n}: {label}{suffix}")


def _rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


def _first_adjacent_order(g):
    """A deterministic full merge order derived without touching any values."""
    edges = {e.id: set(e.vertices) for e in g.internal_edges}
    order = []
    while True:
        pairs = sorted(tuple(sorted(ends)) for ends in edges.values()
                       if len(ends) == 2)
        if not pairs:
            break
        u, v = pairs[0]
        order.append((u, v))
        for eid, ends in list(edges.items()):
            if ends == {u, v}:
                del edges[eid]
            elif v in ends:
                ends.discard(v)
                ends.add(u)
    return order


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        g = random_nfg(rng, max_vertices=6, max_internal=8, max_alpha=4)
        z = exterior_bruteforce(g)
        greedy = eliminate(g, strategy="min-cost-greedy").result
        given = eliminate(g, strategy="given-order",
                          order=_first_adjacent_order(g)).result
        for got in (greedy, given):
            err = _rel_err(got.transpose(z.labels).values, z.values)
            worst = max(worst, err)
            assert err <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, "elimination matches brute force on 200 random graphs",
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_spa_correctness():
    from helpers import broadcast_joint

    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        g = random_tree(rng, max_vertices=10, max_alpha=4, closed=True)
        out = sum_product(g)
        ids, _, joint = broadcast_joint(g)
        for e in g.internal_edges:
            k = ids.index(e.id)
            expected = joint.sum(axis=tuple(i for i in range(len(ids)) if i != k))
            got = out.marginals[e.id].values
            prod = (out.messages[(e.vertices[0], e.vertices[1])].values
                    * out.messages[(e.vertices[1], e.vertices[0])].values)
            err = max(_rel_err(got, expected), _rel_err(got, prod))
            worst = max(worst, err)
            assert err <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, "sum-product marginals equal brute force and message products",
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_inverse_pairs():
    for size in (2, 3, 4, 5, 10):
        assert make_cumulus_pair(OrderedAlphabet(size)).verify(tol=1e-12) <= 1e-12
    for sizes in ((2, 2), (3, 2), (4, 5), (2, 2, 2), (3, 3, 3), (2, 3, 4)):
        pair = make_cumulus_pair(OrderedProductAlphabet(sizes))
        assert pair.verify(tol=1e-12) <= 1e-12
    for moduli in ((2,), (3,), (4,), (2, 3)):
        assert make_fourier_pair(GroupAlphabet(moduli)).verify(tol=1e-12) <= 1e-12
    _report(3, "cumulus/difference and Fourier kernels verify as inverse pairs")


def test_criterion_4_dressed_max_identity():
    for n in (3, 4):
        for size in (2, 3, 4):
            o = OrderedAlphabet(size)
            labels = [f"x{i}" for i in range(n)]
            mx = make_indicator("max", o, n).relabel(
                {f"arg{i + 1}": f"t{i}" for i in range(n)})
            vertices = {"mx": mx}
            internal = []
            half = []
            pair = make_cumulus_pair(o)
            vertices["A"] = pair.forward  # A(x1, t0): dotted side external
            internal.append(InternalEdge("eA", (("A", "arg2"), ("mx", "t0")), o))
            half.append(HalfEdge("h0", ("A", "arg1"), o, "x0"))
            for i in range(1, n):
                vertices[f"D{i}"] = pair.inverse  # D(t_i, x_i): dotted side inward
                internal.append(InternalEdge(
                    f"eD{i}", ((f"D{i}", "arg1"), ("mx", f"t{i}")), o))
                half.append(HalfEdge(f"h{i}", (f"D{i}", "arg2"), o, f"x{i}"))
            g = NfgGraph(vertices, internal, half)
            z = exterior_bruteforce(g).transpose([f"x{i}" for i in range(n)])
            rounded = np.where(np.abs(z.values) <= 1e-9, 0.0,
                               np.round(z.values.real, 9))
            eq = make_indicator("eq", o, n)
            assert np.array_equal(rounded, eq.values.real)
    _report(4, "cumulus/difference-dressed max star equals the equality indicator",
            "n in {3,4}, |X| in {2,3,4}")


def _random_invertible_pair(rng, alpha, exact=False):
    n = alpha.size
    if exact:
        style = rng.integers(0, 3)
        if style == 0:
            perm = rng.permutation(n)
            fwd = np.zeros((n, n))
            fwd[np.arange(n), perm] = 1.0
            inv = fwd.T
        elif style == 1:
            d = 2.0 ** rng.integers(-2, 3, size=n)
            fwd = np.diag(d)
            inv = np.diag(1.0 / d)
        else:
            fwd = np.tril(np.ones((n, n)))
            inv = np.eye(n) - np.eye(n, k=-1)
    else:
        while True:
            fwd = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            if np.linalg.cond(fwd) < 50:
                break
        inv = np.linalg.inv(fwd)
    dom = make_product_domain([("arg1", alpha), ("arg2", alpha)])
    return TransformerPair(Factor(dom, fwd), Factor(dom, inv))


def _random_graph_with_half_edges(rng, **kw):
    for _ in range(50):
        g = random_nfg(rng, **kw)
        if g.half_edges:
            return g
    raise RuntimeError("could not draw a graph with half edges")


def test_criterion_5_holographic_identity():
    worst_main = 0.0
    worst_ident = 0.0
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        g = _random_graph_with_half_edges(rng, max_vertices=5, max_internal=5,
                                          max_alpha=3, max_half=3)
        z_in = exterior_bruteforce(g)

        external = {}
        for h in g.half_edges:
            external[h.var] = rand_factor(rng, ["arg1", "arg2"],
                                          [h.alphabet, h.alphabet])
        internal = {}
        for e in g.internal_edges:
            if e.is_loop():
                continue
            if rng.random() < 0.6:
                internal[e.id] = (_random_invertible_pair(rng, e.alphabet),
                                  sorted(e.vertices)[0])
        out = holographic_transform(g, HolographicSpec(external, internal))
        z_out = exterior_bruteforce(out)
        operands = [z_in.relabel({v: f"{v}__in" for v in z_in.labels})]
        for h in g.half_edges:
            operands.append(external[h.var].relabel(
                {"arg1": f"{h.var}__in", "arg2": h.var}))
        expected = contract(operands).transpose(z_out.labels)
        err = _rel_err(z_out.values, expected.values)
        worst_main = max(worst_main, err)
        assert err <= 1e-9

        # identity externals with exactly invertible internal pairs
        ident_internal = {}
        for e in g.internal_edges:
            if e.is_loop():
                continue
            ident_internal[e.id] = (_random_invertible_pair(rng, e.alphabet,
                                                            exact=True),
                                    sorted(e.vertices)[0])
        out2 = holographic_transform(g, HolographicSpec({}, ident_internal))
        z_out2 = exterior_bruteforce(out2).transpose(z_in.labels)
        err2 = _rel_err(z_out2.values, z_in.values)
        worst_ident = max(worst_ident, err2)
        assert err2 <= 1e-12
    _report(5, "holographic transformation identity on 100 random graphs",
            f"worst rel err {worst_main:.2e}, identity {worst_ident:.2e}")


def test_criterion_6_fast_transforms():
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(40_000 + seed)
        n = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 6)) for _ in range(n)]
        labels = [f"x{i}" for i in range(n)]
        dom = make_product_domain([(l, OrderedAlphabet(s))
                                   for l, s in zip(labels, sizes)])
        f = Factor(dom, rng.standard_normal(sizes))
        for kernel, member in (("cumulus", "forward"), ("difference", "inverse")):
            got = fast_axis_transform(f, kernel, labels)
            expected = f
            for l, s in zip(labels, sizes):
                k = getattr(make_cumulus_pair(OrderedAlphabet(s)), member)
                expected = contract([expected,
                                     k.relabel({"arg1": "o", "arg2": l})]) \
                    .relabel({"o": l})
            expected = expected.transpose(labels)
            err = _rel_err(got.values, expected.values)
            worst = max(worst, err)
            assert err <= 1e-9
        roundtrip = fast_axis_transform(
            fast_axis_transform(f, "cumulus", labels), "difference", labels)
        assert _rel_err(roundtrip.values, f.values) <= 1e-9
        other = fast_axis_transform(
            fast_axis_transform(f, "difference", labels), "cumulus", labels)
        assert _rel_err(other.values, f.values) <= 1e-9

        gdom = make_product_domain([("a", GroupAlphabet((3,))),
                                    ("b", GroupAlphabet((2, 2)))])
        fg = Factor(gdom, rng.standard_normal(gdom.shape)
                    + 1j * rng.standard_normal(gdom.shape))
        hat = fast_axis_transform(fg, "fourier", ["a", "b"])
        expected = fg
        for l, alpha in [("a", GroupAlphabet((3,))), ("b", GroupAlphabet((2, 2)))]:
            k = make_indicator("fourier", alpha, 2).relabel(
                {"arg1": l, "arg2": "o"})
            expected = contract([expected, k]).relabel({"o": l})
        assert _rel_err(hat.values, expected.transpose(["a", "b"]).values) <= 1e-9
        back = fast_axis_transform(hat, "fourier_inv", ["a", "b"])
        assert _rel_err(back.values, fg.values) <= 1e-9

    # addition counters: uniform alphabets, full pass over all axes
    for n, size in ((1, 5), (2, 3), (3, 4)):
        labels = [f"x{i}" for i in range(n)]
        dom = make_product_domain([(l, OrderedAlphabet(size)) for l in labels])
        f = Factor(dom, np.arange(size ** n, dtype=float))
        for kernel in ("cumulus", "difference"):
            counter = OpCounter()
            fast_axis_transform(f, kernel, labels, counter=counter)
            assert counter.adds == n * (size - 1) * size ** (n - 1)
    _report(6, "fast cumulus/difference/Fourier match dense kernels",
            f"worst rel err {worst:.2e}; counters exact")


def _random_fg(rng):
    n_vars = int(rng.integers(2, 5))
    alphas = [Alphabet(int(rng.integers(2, 4))) for _ in range(n_vars)]
    names = [f"x{i}" for i in range(n_vars)]
    funs = []
    for k in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = sorted(rng.choice(n_vars, size=width, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(width)],
                        [alphas[c] for c in chosen], positive=True)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    return FactorGraphDesc(tuple(zip(names, alphas)), tuple(funs))


def _random_split_model(rng):
    b = Alphabet(int(rng.integers(2, 4)))
    n_lat = int(rng.integers(1, 4))
    n_int = int(rng.integers(1, 4))
    latent_axes = {j: [] for j in range(n_lat)}
    vertices = {}
    internal = []
    half = []
    for i in range(n_int):
        n_tail = int(rng.integers(1, n_lat + 1))
        targets = sorted(rng.choice(n_lat, size=n_tail, replace=False))
        parts = [rng.uniform(0.1, 1.0, size=(b.size, b.size))
                 for _ in range(n_tail)]
        table = parts[0]
        for extra in parts[1:]:
            table = np.einsum("p...,pz->p...z", table, extra)
        labels = ["x"] + [f"t{k}" for k in range(n_tail)]
        vertices[f"g{i}"] = Factor(
            make_product_domain([(l, b) for l in labels]), table)
        half.append(HalfEdge(f"h{i}", (f"g{i}", "x"), b, f"x{i}"))
        for k, j in enumerate(targets):
            axis = f"a{len(latent_axes[j])}"
            latent_axes[j].append(axis)
            internal.append(InternalEdge(f"e{i}_{j}",
                                         ((f"g{i}", f"t{k}"), (f"lat{j}", axis)), b))
    for j in range(n_lat):
        if not latent_axes[j]:
            continue
        vertices[f"lat{j}"] = rand_factor(
            rng, latent_axes[j], [b] * len(latent_axes[j]), positive=True)
    used = {e.ends[1][0] for e in internal} | {e.ends[0][0] for e in internal} \
        | {h.end[0] for h in half}
    vertices = {v: f for v, f in vertices.items() if v in used}
    return NfgGraph(vertices, internal, half)


def _random_cfg(rng):
    moduli = (int(rng.integers(2, 4)),)
    z = GroupAlphabet(moduli)
    n_vars = int(rng.integers(2, 4))
    names = [f"x{i}" for i in range(n_vars)]
    funs = []
    for k in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, min(2, n_vars) + 1))
        chosen = sorted(rng.choice(n_vars, size=width, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(width)], [z] * width,
                        positive=True)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    return CfgDesc(tuple((n, z) for n in names), tuple(funs))


def _random_cdn_model(rng):
    o = OrderedAlphabet(int(rng.integers(2, 4)))
    n_lat = int(rng.integers(1, 4))
    n_int = int(rng.integers(1, 3))
    vertices = {}
    internal = []
    half = []
    latent_axes = {j: [] for j in range(n_lat)}
    A = make_indicator("cumulus", o, 2)
    for i in range(n_int):
        width = int(rng.integers(1, n_lat + 1))
        targets = sorted(rng.choice(n_lat, size=width, replace=False))
        mx = make_indicator("max", o, width + 1).relabel(
            {"arg1": "out", **{f"arg{k + 2}": f"t{k}" for k in range(width)}})
        vertices[f"m{i}"] = mx
        vertices[f"A{i}"] = A
        internal.append(InternalEdge(f"a{i}", ((f"m{i}", "out"),
                                               (f"A{i}", "arg2")), o))
        half.append(HalfEdge(f"h{i}", (f"A{i}", "arg1"), o, f"x{i}"))
        for k, j in enumerate(targets):
            axis = f"a{len(latent_axes[j])}"
            latent_axes[j].append(axis)
            internal.append(InternalEdge(f"e{i}_{j}",
                                         ((f"m{i}", f"t{k}"), (f"lat{j}", axis)), o))
    for j in range(n_lat):
        axes = latent_axes[j]
        if not axes:
            continue
        raw = rng.uniform(0.1, 1.0, size=(o.size,) * len(axes))
        vertices[f"lat{j}"] = Factor(
            make_product_domain([(a, o) for a in axes]), raw / raw.sum())
    used = {v for e in internal for v, _ in e.ends} | {h.end[0] for h in half}
    vertices = {v: f for v, f in vertices.items() if v in used}
    return NfgGraph(vertices, internal, half)


def test_criterion_7_conversions():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(50_000 + seed)

        fg = _random_fg(rng)
        g = fg_to_nfg(fg)
        err = _rel_err(exterior_bruteforce(g).transpose(
            [v for v, _ in fg.variables]).values,
            fg_global_function(fg).values)
        worst = max(worst, err)
        assert err <= 1e-9
        back = nfg_to_fg(g)
        assert [n for n, _, _ in back.functions] == [n for n, _, _ in fg.functions]

        model = _random_split_model(rng)
        norm = normalize_constrained(model)
        za = exterior_bruteforce(model)
        zb = exterior_bruteforce(norm).transpose(za.labels)
        err = _rel_err(za.values, zb.values)
        worst = max(worst, err)
        assert err <= 1e-9

        cfg = _random_cfg(rng)
        gc = cfg_to_nfg(cfg)
        err = _rel_err(
            exterior_bruteforce(gc).transpose([v for v, _ in cfg.variables]).values,
            cfg_global_function(cfg).values)
        worst = max(worst, err)
        assert err <= 1e-9
        back_cfg = nfg_to_cfg(gc)
        assert [n for n, _, _ in back_cfg.functions] == \
            [n for n, _, _ in cfg.functions]

        cdn_model = _random_cdn_model(rng)
        desc = to_cdn(cdn_model)
        for _, f, _ in desc.functions:
            assert check_cdf_axioms(f) == []
        za = exterior_bruteforce(cdn_model)
        zb = fg_global_function(desc).transpose(za.labels)
        err = _rel_err(za.values, zb.values)
        worst = max(worst, err)
        assert err <= 1e-9
    _report(7, "FG/normalization/CFG/CDN conversions on 50 random instances each",
            f"worst rel err {worst:.2e}")


HAMMING_G = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
HAMMING_H = ((1, 1, 0, 1, 1, 0, 0), (1, 0, 1, 1, 0, 1, 0), (0, 1, 1, 1, 0, 0, 1))


def test_criterion_8_hamming_code():
    start = time.monotonic()
    gen = generator_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G))
    par = parity_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_H,
                                            form="parity"))
    wg, _ = codewords(gen)
    wp, _ = codewords(par)
    assert wg == wp and len(wg) == 16
    assert weight_distribution(wg, 7) == (1, 0, 0, 7, 7, 0, 0, 1)
    dual = dual_via_fourier(gen)
    wd, _ = codewords(dual)
    assert len(wd) == 8
    assert weight_distribution(wd, 7) == (1, 0, 0, 0, 7, 0, 0, 0)
    # exhaustive confirmation over the full 2^7 space
    full = set(itertools.product(range(2), repeat=7))
    assert all(all(sum(a * b for a, b in zip(c, d)) % 2 == 0 for c in wg)
               for d in wd)
    assert len(wg) * len(wd) == 2 ** 7
    assert wg <= full and wd <= full
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(8, "Hamming generator/parity/dual realizations",
            f"{elapsed * 1000:.0f} ms")


def _fig8_chain(rng, kind):
    b = Alphabet(2)
    if kind == "constrained":
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


def test_criterion_9_independence():
    worst_c = 0.0
    worst_m = 0.0
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        cons = _fig8_chain(rng, "constrained")
        assert classify(cons).constrained
        p = exterior_bruteforce(cons).transpose(["x", "y", "z"]).values.real
        p = p / p.sum()
        for y in range(2):
            ps = p[:, y, :].sum()
            if ps <= 1e-12:
                continue
            joint = p[:, y, :]
            pa = joint.sum(axis=1)
            pb = joint.sum(axis=0)
            resid = np.max(np.abs(joint - np.outer(pa, pb) / ps))
            worst_c = max(worst_c, resid)
            assert resid <= 1e-8

        gen = _fig8_chain(rng, "generative")
        assert classify(gen).generative
        q = exterior_bruteforce(gen).transpose(["x", "y", "z"]).values.real
        q = q / q.sum()
        qxz = q.sum(axis=1)
        resid = np.max(np.abs(qxz - np.outer(qxz.sum(axis=1), qxz.sum(axis=0))))
        worst_m = max(worst_m, resid)
        assert resid <= 1e-8
    _report(9, "separation verdicts validated numerically on 100 models each",
            f"worst residuals: conditional {worst_c:.2e}, marginal {worst_m:.2e}")


def _tv(emp, exact):
    return 0.5 * float(np.abs(emp - exact).sum())


def _empirical(res, order, shape):
    counts = np.zeros(shape)
    cols = [res.variables.index(v) for v in order]
    np.add.at(counts, tuple(res.assignments[:, c] for c in cols), 1.0)
    return counts / res.assignments.shape[0]


def test_criterion_10_sampling():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(70_000 + seed)
        kind = "constrained" if seed % 2 == 0 else "generative"
        g = _fig8_chain(rng, kind) if seed % 4 < 2 else _random_model(rng, kind)
        z = exterior_bruteforce(g)
        exact = z.values.real / z.values.real.sum()
        res = sample_many(g, 100_000, seed=seed)
        emp = _empirical(res, z.labels, exact.shape)
        tv = _tv(emp, exact)
        worst = max(worst, tv)
        assert tv < 0.05
    # determinism given the seed
    rng = np.random.default_rng(70_001)
    g = _fig8_chain(rng, "generative")
    a = sample_many(g, 2000, seed=99)
    b = sample_many(g, 2000, seed=99)
    assert np.array_equal(a.assignments, b.assignments)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(10, "empirical law within TV 0.05 of the exterior at 100k samples",
            f"worst TV {worst:.3f}, {elapsed:.1f}s")


def _random_model(rng, kind):
    if kind == "constrained":
        return _random_split_model(rng)
    b = Alphabet(2)
    def cond(nax):
        raw = rng.uniform(0.1, 1.0, size=(2,) * nax)
        return Factor(make_product_domain(
            [(l, b) for l in ["x"] + [f"t{k}" for k in range(nax - 1)]]),
            raw / raw.sum(axis=0, keepdims=True))
    i1, i2 = cond(2), cond(3)
    f1 = rand_factor(rng, ["a", "b"], [b, b], positive=True)
    f2 = rand_factor(rng, ["a"], [b], positive=True)
    return NfgGraph(
        {"i1": i1, "i2": i2, "f1": f1, "f2": f2},
        internal_edges=[
            InternalEdge("s1", (("i1", "t0"), ("f1", "a")), b),
            InternalEdge("s2", (("i2", "t0"), ("f1", "b")), b),
            InternalEdge("s3", (("i2", "t1"), ("f2", "a")), b),
        ],
        half_edges=[HalfEdge("h1", ("i1", "x"), b, "x1"),
                    HalfEdge("h2", ("i2", "x"), b, "x2")])


def _dsp_instance(rng, size=3):
    o = OrderedAlphabet(size)
    q1 = make_indicator("eq", o, 3).relabel(
        {"arg1": "y", "arg2": "yp", "arg3": "ypp"})
    q2 = make_indicator("eq", o, 3).relabel(
        {"arg1": "y", "arg2": "ypp", "arg3": "yp"})
    f1 = rand_factor(rng, ["a"], [o], positive=True)
    f2 = rand_factor(rng, ["a", "b"], [o, o], positive=True)
    f3 = rand_factor(rng, ["a"], [o], positive=True)
    g = NfgGraph(
        {"q1": q1, "q2": q2, "f1": f1, "f2": f2, "f3": f3},
        internal_edges=[
            InternalEdge("yp1", (("q1", "yp"), ("f1", "a")), o),
            InternalEdge("ypp1", (("q1", "ypp"), ("f2", "a")), o),
            InternalEdge("ypp2", (("q2", "ypp"), ("f2", "b")), o),
            InternalEdge("yp2", (("q2", "yp"), ("f3", "a")), o),
        ],
        half_edges=[HalfEdge("h1", ("q1", "y"), o, "x1"),
                    HalfEdge("h2", ("q2", "y"), o, "x2")])
    return g


def _dsp_oracle(g, evidence, size):
    D = np.eye(size) - np.eye(size, k=-1)
    P = (g.factor("f1").values[:, None] * g.factor("f2").values
         * g.factor("f3").values[None, :])
    out = {}
    for i, var in enumerate(("x1", "x2")):
        other = 1 - i
        other_var = ("x1", "x2")[other]
        if other_var in evidence:
            t = np.tensordot(D, P, axes=([1], [other]))
            reduced = t[evidence[other_var]]
        else:
            reduced = np.take(P, size - 1, axis=other)
        out[var] = D @ reduced
    return out


def test_criterion_11_derivative_sum_product():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(80_000 + seed)
        size = int(rng.integers(2, 5))
        g = _dsp_instance(rng, size=size)
        full = {"x1": int(rng.integers(0, size)), "x2": int(rng.integers(0, size))}
        got = derivative_sum_product(g, full)
        expected = _dsp_oracle(g, full, size)
        for var in ("x1", "x2"):
            err = _rel_err(got[var].values, expected[var])
            worst = max(worst, err)
            assert err <= 1e-9
        # marginalization-by-evaluation variant: drop one evidence entry
        partial = {"x2": full["x2"]}
        got_p = derivative_sum_product(g, partial)
        expected_p = _dsp_oracle(g, partial, size)
        for var in ("x1", "x2"):
            err = _rel_err(got_p[var].values, expected_p[var])
            worst = max(worst, err)
            assert err <= 1e-9
    _report(11, "derivative-sum-product equals direct difference transforms",
            f"worst rel err {worst:.2e}")


def _random_constrained_eq_model(rng):
    n_vars = int(rng.integers(2, 4))
    alphas = [Alphabet(int(rng.integers(2, 4))) for _ in range(n_vars)]
    names = [f"x{i}" for i in range(n_vars)]
    funs = []
    for k in range(int(rng.integers(1, 4))):
        width = int(rng.integers(1, min(2, n_vars) + 1))
        chosen = sorted(rng.choice(n_vars, size=width, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(width)],
                        [alphas[c] for c in chosen], integer=True)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    return fg_to_nfg(FactorGraphDesc(tuple(zip(names, alphas)), tuple(funs)))


def _random_generative_sum_model(rng):
    z = GroupAlphabet((int(rng.integers(2, 4)),))
    names = [f"x{i}" for i in range(3)]
    funs = []
    for k in range(int(rng.integers(1, 3))):
        width = int(rng.integers(1, 3))
        chosen = sorted(rng.choice(3, size=width, replace=False))
        f = rand_factor(rng, [f"a{j}" for j in range(width)], [z] * width,
                        integer=True)
        funs.append((f"f{k}", f, tuple(names[c] for c in chosen)))
    return cfg_to_nfg(CfgDesc(tuple((n, z) for n in names), tuple(funs)))


def test_criterion_12_inference_shortcuts():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(90_000 + seed)
        if seed % 2 == 0:
            g = _random_constrained_eq_model(rng)
            ext = list(g.external_vars)
            size = g.half_edge_for_var(ext[0]).alphabet.size
            q = Query(targets=tuple(ext[1:]),
                      evidence={ext[0]: int(rng.integers(0, size))},
                      algorithm="bruteforce")
        else:
            g = _random_generative_sum_model(rng)
            ext = list(g.external_vars)
            q = Query(targets=tuple(ext[1:]), marginalized=(ext[0],),
                      algorithm="bruteforce")
        generic = query(g, q, shortcuts=False)
        fast = query(g, q, shortcuts=True)
        # integer tables keep both float paths exact
        assert np.array_equal(generic.table.values, fast.table.values)

        joint = exterior_bruteforce(g).transpose(g.external_vars).values
        axes_names = list(g.external_vars)
        idx = [slice(None)] * len(axes_names)
        for var, val in q.evidence.items():
            idx[axes_names.index(var)] = val
        mass = complex(joint[tuple(idx)].sum())
        err = abs(generic.total - mass) / max(abs(mass), 1e-30)
        worst = max(worst, err)
        assert err <= 1e-9
    _report(12, "query shortcuts equal the generic reduction exactly",
            f"worst total err {worst:.2e}")
