"""Workload ``sparse_exterior``: elimination, sum-product and queries on sparse graphs.

Seeded chains, bounded-degree trees and narrow grids over 2- and 3-symbol
alphabets.  Tables are tiny, so nearly all of a request's time is graph
bookkeeping in ``nfg`` and ``exterior``; ``contract`` does little.  Request
kinds take turns in a fixed order and sizes are stratified draws from a
continuous range, so every seed gives the same mix.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from nfgraph import (
    Alphabet,
    Factor,
    HalfEdge,
    InternalEdge,
    NfgGraph,
    Query,
    eliminate,
    make_product_domain,
    query,
    sum_product,
)

from harness import Request, stratified
from refs import (
    chain_transfer,
    einsum_labels,
    grid_transfer,
    require,
    require_close,
    tree_peel,
)

PER_KIND = 20
# (kind, smallest size, largest size): vertices for chains and trees,
# columns for grids
KINDS = (
    ("chain_eliminate", 16, 56),
    ("tree_eliminate", 16, 48),
    ("grid_eliminate", 4, 14),
    ("chain_spa", 24, 96),
    ("tree_spa", 24, 80),
    ("chain_query", 12, 40),
    ("tree_query", 12, 36),
)
MAX_TREE_DEGREE = 3

Net = Dict[str, Tuple[np.ndarray, Tuple[str, ...]]]


def _table(rng, q: int, labels: Sequence[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    return rng.uniform(0.2, 1.0, size=(q,) * len(labels)), tuple(labels)


def chain_net(rng, n: int, q: int, ext: Dict[int, List[str]]) -> Net:
    net = {}
    for i in range(n):
        labels = ([f"e{i - 1:03d}"] if i > 0 else []) + \
                 ([f"e{i:03d}"] if i < n - 1 else []) + ext.get(i, [])
        net[f"c{i:03d}"] = _table(rng, q, labels)
    return net


def tree_edges(rng, n: int) -> List[Tuple[int, int]]:
    """Random attachment tree with internal degree at most ``MAX_TREE_DEGREE``."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        open_ = [u for u in range(v) if degree[u] < MAX_TREE_DEGREE]
        u = open_[int(rng.integers(len(open_)))]
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v))
    return edges


def tree_net(rng, n: int, q: int, ext: Dict[int, List[str]]) -> Net:
    labels: List[List[str]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(tree_edges(rng, n)):
        labels[u].append(f"e{k:03d}")
        labels[v].append(f"e{k:03d}")
    return {f"t{i:03d}": _table(rng, q, labels[i] + ext.get(i, [])) for i in range(n)}


def grid_net(rng, w: int, length: int, q: int) -> Net:
    """A w x length grid with external ``x`` at the top-left, ``y`` at the bottom-right."""
    net = {}
    for r in range(w):
        for c in range(length):
            labels = []
            if c > 0:
                labels.append(f"h{r}_{c - 1:03d}")
            if c < length - 1:
                labels.append(f"h{r}_{c:03d}")
            if r > 0:
                labels.append(f"v{r - 1}_{c:03d}")
            if r < w - 1:
                labels.append(f"v{r}_{c:03d}")
            if (r, c) == (0, 0):
                labels.append("x")
            if (r, c) == (w - 1, length - 1):
                labels.append("y")
            net[f"g{r}_{c:03d}"] = _table(rng, q, labels)
    return net


def to_graph(net: Net, q: int, externals: Sequence[str]) -> NfgGraph:
    """The library graph of a net; half edges in the order of ``externals``."""
    alphabet = Alphabet(q)
    owners: Dict[str, List[str]] = {}
    vertices = {}
    for v, (values, labels) in net.items():
        vertices[v] = Factor(make_product_domain([(l, alphabet) for l in labels]), values)
        for l in labels:
            owners.setdefault(l, []).append(v)
    internal = [InternalEdge(l, ((vs[0], l), (vs[1], l)), alphabet)
                for l, vs in owners.items() if len(vs) == 2]
    half = [HalfEdge(f"h_{x}", (owners[x][0], x), alphabet, x) for x in externals]
    return NfgGraph(vertices, internal, half)


# -- references ------------------------------------------------------------------

def chain_reference(net: Net, free: Sequence[str]) -> np.ndarray:
    """Transfer-matrix exterior of a chain with ``free`` on its two end vertices."""
    order = sorted(net)
    mats = []
    for i, v in enumerate(order):
        values, labels = net[v]
        left = [free[0]] if i == 0 and free else ([f"e{i - 1:03d}"] if i > 0 else [])
        right = [free[1]] if i == len(order) - 1 and free else \
            ([f"e{i:03d}"] if i < len(order) - 1 else [])
        t = einsum_labels([(values, labels)], left + right)
        mats.append(t.reshape(t.shape[0] if left else 1, -1))
    return chain_transfer(mats).reshape([net[order[0]][0].shape[0]] * len(free))


def grid_reference(net: Net, w: int, length: int) -> np.ndarray:
    columns, left, right = [], [], []
    for c in range(length):
        columns.append([net[f"g{r}_{c:03d}"] for r in range(w)])
        left.append(["x"] if c == 0 else [f"h{r}_{c - 1:03d}" for r in range(w)])
        right.append(["y"] if c == length - 1 else [f"h{r}_{c:03d}" for r in range(w)])
    return grid_transfer(columns, left, right)


def reduced_net(net: Net, evidence: Dict[str, int], marginalized: Sequence[str]) -> Net:
    """Slice evidence variables and sum out marginalized ones, vertex by vertex."""
    out = {}
    for v, (values, labels) in net.items():
        for l in [l for l in labels if l in evidence or l in marginalized]:
            ax = labels.index(l)
            values = np.take(values, evidence[l], axis=ax) if l in evidence \
                else values.sum(axis=ax)
            labels = labels[:ax] + labels[ax + 1:]
        out[v] = (values, labels)
    return out


# -- requests --------------------------------------------------------------------

def _cached(compute):
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]
    return get


def _eliminate_request(kind: str, g: NfgGraph, reference) -> Request:
    def check(report):
        require(report.result.labels == ("x", "y"), f"axes {report.result.labels}")
        require_close(report.result.values, reference(), "exterior")
        require(report.total_ops > 0 and len(report.steps) >= len(g.vertices) - 1,
                "elimination report is missing steps")
    return Request(kind, lambda: eliminate(g), check)


def _spa_request(kind: str, g: NfgGraph, reference) -> Request:
    edge_ids = sorted(e.id for e in g.internal_edges)

    def check(result):
        z = reference()
        require(sorted(result.marginals) == edge_ids, "marginals do not cover every edge")
        for eid in edge_ids:
            require_close(result.marginals[eid].values.sum(), z, f"marginal {eid} total")
    return Request(kind, lambda: sum_product(g), check)


def _query_request(kind: str, g: NfgGraph, q: Query, reference) -> Request:
    def check(res):
        want = reference()
        require(res.table.labels == q.targets, f"axes {res.table.labels}")
        require_close(res.total, want.sum(), "evidence mass")
        if q.normalize:
            require(res.normalized, "table not marked normalized")
            require_close(res.table.values.sum(), 1.0, "normalized total")
            want = want / want.sum()
        require_close(res.table.values, want, "query table")
    return Request(kind, lambda: query(g, q), check)


def _query_case(rng, net_builder, n: int, q: int, index: int):
    spots = rng.choice(n, size=4, replace=False)
    names = [f"x{k}" for k in range(4)]
    net = net_builder(rng, n, q, {int(s): [nm] for s, nm in zip(spots, names)})
    target, marg = names[0], names[1:1 + int(rng.integers(1, 3))]
    evidence = {nm: int(rng.integers(q)) for nm in names[1 + len(marg):]}
    qry = Query(targets=(target,), marginalized=tuple(marg), evidence=evidence,
                algorithm=("eliminate", "spa")[index % 2], normalize=index % 4 >= 2)
    root = next(v for v, (_, labels) in net.items() if target in labels)
    reference = _cached(lambda: tree_peel(reduced_net(net, evidence, marg), root, [target]))
    return net, names, qry, reference


def build(seed: int, workdir=None) -> List[Request]:
    rng = np.random.default_rng([seed, 1])
    sizes = {kind: stratified(rng, lo, hi + 1, PER_KIND).astype(int) for kind, lo, hi in KINDS}
    requests = []
    for i in range(PER_KIND):
        for kind, _, _ in KINDS:
            n = int(sizes[kind][i])
            q = 2 + i % 2
            if kind == "chain_eliminate":
                net = chain_net(rng, n, q, {0: ["x"], n - 1: ["y"]})
                ref = _cached(lambda net=net: chain_reference(net, ["x", "y"]))
                requests.append(_eliminate_request(kind, to_graph(net, q, ["x", "y"]), ref))
            elif kind == "tree_eliminate":
                a, b = (int(s) for s in rng.choice(n, size=2, replace=False))
                net = tree_net(rng, n, q, {a: ["x"], b: ["y"]})
                ref = _cached(lambda net=net, a=a: tree_peel(net, f"t{a:03d}", ["x", "y"]))
                requests.append(_eliminate_request(kind, to_graph(net, q, ["x", "y"]), ref))
            elif kind == "grid_eliminate":
                w = 2 + i // 2 % 2
                q = 2 if w == 3 else q
                net = grid_net(rng, w, n, q)
                ref = _cached(lambda net=net, w=w, n=n: grid_reference(net, w, n))
                requests.append(_eliminate_request(kind, to_graph(net, q, ["x", "y"]), ref))
            elif kind == "chain_spa":
                net = chain_net(rng, n, q, {})
                ref = _cached(lambda net=net: chain_reference(net, []).item())
                requests.append(_spa_request(kind, to_graph(net, q, []), ref))
            elif kind == "tree_spa":
                net = tree_net(rng, n, q, {})
                ref = _cached(lambda net=net: tree_peel(net, "t000", []).item())
                requests.append(_spa_request(kind, to_graph(net, q, []), ref))
            else:
                builder = chain_net if kind == "chain_query" else tree_net
                net, names, qry, ref = _query_case(rng, builder, n, q, i)
                requests.append(_query_request(kind, to_graph(net, q, names), qry, ref))
    return requests
