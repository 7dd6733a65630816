"""Shared builders and independent oracles for the test suite.

The oracles here enumerate assignments with plain Python loops and index
lookups; they deliberately avoid the package's contraction machinery.
"""

import cmath
import itertools

import numpy as np
from hypothesis import strategies as st

from nfgraph.algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    character,
    group_add,
    group_neg,
    make_product_domain,
)
from nfgraph.factor import REL_TOL, Factor
from nfgraph.indicators import TransformerPair
from nfgraph.nfg import HalfEdge, InternalEdge, NfgGraph
from nfgraph.transform import (
    HolographicSpec,
    insert_transformer,
    insert_transformer_pair,
    merge_vertices,
)


def rand_factor(rng, labels, alphabets, positive=False, integer=False):
    dom = make_product_domain(list(zip(labels, alphabets)))
    if integer:
        vals = rng.integers(0, 5, size=dom.shape).astype(float)
    elif positive:
        vals = rng.uniform(0.1, 1.0, size=dom.shape)
    else:
        vals = rng.standard_normal(dom.shape)
    return Factor(dom, vals)


def mesh_graph(rng, positive=False):
    """Four vertices on a ring with a chord, five internal edges, two half edges."""
    b = Alphabet(2)
    f1 = rand_factor(rng, ["x1", "s1", "s2"], [b, b, b], positive=positive)
    f2 = rand_factor(rng, ["x2", "s2", "s3", "s5"], [b, b, b, b], positive=positive)
    f3 = rand_factor(rng, ["s3", "s4"], [b, b], positive=positive)
    f4 = rand_factor(rng, ["s1", "s4", "s5"], [b, b, b], positive=positive)
    return NfgGraph(
        {"f1": f1, "f2": f2, "f3": f3, "f4": f4},
        internal_edges=[
            InternalEdge("s1", (("f1", "s1"), ("f4", "s1")), b),
            InternalEdge("s2", (("f1", "s2"), ("f2", "s2")), b),
            InternalEdge("s3", (("f2", "s3"), ("f3", "s3")), b),
            InternalEdge("s4", (("f3", "s4"), ("f4", "s4")), b),
            InternalEdge("s5", (("f2", "s5"), ("f4", "s5")), b),
        ],
        half_edges=[
            HalfEdge("hx1", ("f1", "x1"), b, "x1"),
            HalfEdge("hx2", ("f2", "x2"), b, "x2"),
        ],
    )


def random_nfg(rng, max_vertices=6, max_internal=8, max_alpha=4, max_half=3,
               integer=False, positive=False, loops=False):
    """A random NFG: possibly disconnected, parallel edges (and loops) allowed."""
    n_v = int(rng.integers(2, max_vertices + 1))
    vids = [f"v{i}" for i in range(n_v)]
    axes_of = {v: [] for v in vids}
    internal = []
    n_e = int(rng.integers(1, max_internal + 1))
    for k in range(n_e):
        u, v = rng.choice(n_v, size=2, replace=loops)
        u, v = vids[u], vids[v]
        alpha = Alphabet(int(rng.integers(2, max_alpha + 1)))
        ends = []
        for w in (u, v):
            ends.append((w, f"a{len(axes_of[w])}"))
            axes_of[w].append((ends[-1][1], alpha))
        internal.append(InternalEdge(f"e{k}", tuple(ends), alpha))
    half = []
    n_h = int(rng.integers(0, max_half + 1))
    for k in range(n_h):
        v = vids[int(rng.integers(0, n_v))]
        alpha = Alphabet(int(rng.integers(2, max_alpha + 1)))
        axes_of[v].append((f"a{len(axes_of[v])}", alpha))
        half.append(HalfEdge(f"h{k}", (v, axes_of[v][-1][0]), alpha, f"x{k}"))
    vertices = {}
    for v in vids:
        labels = [l for l, _ in axes_of[v]]
        alphas = [a for _, a in axes_of[v]]
        vertices[v] = rand_factor(rng, labels, alphas, integer=integer, positive=positive)
    return NfgGraph(vertices, internal, half)


def random_tree(rng, max_vertices=10, max_alpha=4, closed=True, max_half=3, min_vertices=2):
    """A random connected tree NFG."""
    n_v = int(rng.integers(min_vertices, max_vertices + 1))
    vids = [f"v{i}" for i in range(n_v)]
    axes_of = {v: [] for v in vids}
    internal = []
    for k in range(1, n_v):
        parent = int(rng.integers(0, k))
        u, v = vids[parent], vids[k]
        alpha = Alphabet(int(rng.integers(2, max_alpha + 1)))
        axes_of[u].append((f"a{len(axes_of[u])}", alpha))
        axes_of[v].append((f"a{len(axes_of[v])}", alpha))
        internal.append(InternalEdge(
            f"e{k}", ((u, axes_of[u][-1][0]), (v, axes_of[v][-1][0])), alpha))
    half = []
    if not closed:
        for k in range(int(rng.integers(1, max_half + 1))):
            v = vids[int(rng.integers(0, n_v))]
            alpha = Alphabet(int(rng.integers(2, max_alpha + 1)))
            axes_of[v].append((f"a{len(axes_of[v])}", alpha))
            half.append(HalfEdge(f"h{k}", (v, axes_of[v][-1][0]), alpha, f"x{k}"))
    vertices = {}
    for v in vids:
        labels = [l for l, _ in axes_of[v]]
        alphas = [a for _, a in axes_of[v]]
        vertices[v] = rand_factor(rng, labels, alphas)
    return NfgGraph(vertices, internal, half)


def grid_nfg(rng, rows, cols, alpha=Alphabet(2)):
    """A rows x cols grid of random factors over one alphabet, half edges at two corners.

    Vertex ids are unpadded (``v0_10`` sorts before ``v0_2``), so greedy
    tie-breaks see string order, not grid order.  A 1 x n grid is a chain.
    """
    vid = [[f"v{r}_{c}" for c in range(cols)] for r in range(rows)]
    axes_of = {v: [] for row in vid for v in row}
    internal = []
    pairs = [(vid[r][c], vid[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
    pairs += [(vid[r][c], vid[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
    for k, (u, v) in enumerate(pairs):
        ends = []
        for w in (u, v):
            ends.append((w, f"a{len(axes_of[w])}"))
            axes_of[w].append(ends[-1][1])
        internal.append(InternalEdge(f"e{k}", tuple(ends), alpha))
    half = []
    for k, v in enumerate((vid[0][0], vid[-1][-1])):
        axes_of[v].append(f"a{len(axes_of[v])}")
        half.append(HalfEdge(f"h{k}", (v, axes_of[v][-1]), alpha, f"x{k}"))
    vertices = {v: rand_factor(rng, labels, [alpha] * len(labels))
                for v, labels in axes_of.items()}
    return NfgGraph(vertices, internal, half)


def enumerate_joint(g):
    """Oracle: the full joint table over every edge variable, by explicit loops.

    Returns (edge_ids, sizes, table) where table is indexed by the assignment
    of internal edges first, then half edges, in declaration order.
    """
    ids = [e.id for e in g.internal_edges] + [h.id for h in g.half_edges]
    sizes = [e.alphabet.size for e in g.internal_edges] + \
        [h.alphabet.size for h in g.half_edges]
    slot = {eid: i for i, eid in enumerate(ids)}

    vertex_axes = {}
    for v, f in g.vertices.items():
        axis_slots = []
        for axis in f.labels:
            eid = None
            for e in g.internal_edges:
                if (v, axis) in e.ends:
                    eid = e.id
                    break
            if eid is None:
                eid = next(h.id for h in g.half_edges if h.end == (v, axis))
            axis_slots.append(slot[eid])
        vertex_axes[v] = axis_slots

    table = np.zeros(tuple(sizes) if sizes else (), dtype=np.complex128)
    for assign in itertools.product(*(range(s) for s in sizes)):
        prod = 1.0 + 0.0j
        for v, f in g.vertices.items():
            prod *= f.values[tuple(assign[s] for s in vertex_axes[v])]
        table[assign] = prod
    return ids, sizes, table


def oracle_exterior(g):
    """Oracle: exterior over the external variables, via enumerate_joint."""
    ids, sizes, table = enumerate_joint(g)
    n_int = len(g.internal_edges)
    summed = table.sum(axis=tuple(range(n_int))) if n_int else table
    return summed  # indexed by half edges in declaration order


def oracle_edge_marginal(g, edge_id):
    """Oracle: marginal exterior over one internal edge of a closed NFG."""
    ids, sizes, table = enumerate_joint(g)
    k = ids.index(edge_id)
    other = tuple(i for i in range(len(ids)) if i != k)
    return table.sum(axis=other)


def broadcast_joint(g):
    """The full joint over every edge via literal broadcasting of each factor.

    Same defining formula as enumerate_joint, evaluated without per-assignment
    loops; independent of the package's contraction and message machinery.
    """
    ids = [e.id for e in g.internal_edges] + [h.id for h in g.half_edges]
    sizes = [e.alphabet.size for e in g.internal_edges] + \
        [h.alphabet.size for h in g.half_edges]
    slot = {eid: i for i, eid in enumerate(ids)}
    table = np.ones(tuple(sizes) if sizes else (), dtype=np.complex128)
    for v, f in g.vertices.items():
        pos = []
        for axis in f.labels:
            eid = None
            for e in g.internal_edges:
                if (v, axis) in e.ends:
                    eid = e.id
                    break
            if eid is None:
                eid = next(h.id for h in g.half_edges if h.end == (v, axis))
            pos.append(slot[eid])
        order = np.argsort(pos, kind="stable")
        slab = f.values.transpose(tuple(order))
        shape = [1] * len(sizes)
        for p in pos:
            shape[p] = sizes[p]
        table = table * slab.reshape(shape)
    return ids, sizes, table


def loop_exterior_bruteforce(g):
    """Referee: the exterior, one Python step per internal-edge assignment.

    Each term starts as a complex one and is multiplied by every vertex's
    slab in vertex order; terms are added onto the accumulator in
    ``itertools.product`` order.  On a closed graph the products are numpy
    scalar products, which round each part of a complex product on its own.
    """
    out_axes = [(h.var, h.alphabet) for h in g.half_edges]
    out_shape = tuple(a.size for _, a in out_axes)
    out_pos = {h.var: i for i, h in enumerate(g.half_edges)}
    acc = np.zeros(out_shape, dtype=np.complex128)
    edge_sizes = [e.alphabet.size for e in g.internal_edges]

    plans = []
    for v, factor in g.vertices.items():
        internal_axes = []  # (axis position, internal edge index)
        ext_positions = []  # accumulator axis per external factor axis
        for pos, label in enumerate(factor.labels):
            k = next((k for k, e in enumerate(g.internal_edges) if (v, label) in e.ends), None)
            if k is not None:
                internal_axes.append((pos, k))
            else:
                h = next(h for h in g.half_edges if h.end == (v, label))
                ext_positions.append(out_pos[h.var])
        plans.append((factor.values, internal_axes, ext_positions))

    for assign in itertools.product(*(range(s) for s in edge_sizes)):
        term = np.ones((), dtype=np.complex128)
        term = term.reshape([1] * len(out_shape)) if out_shape else term
        for values, internal_axes, ext_positions in plans:
            idx = [slice(None)] * values.ndim
            for pos, k in internal_axes:
                idx[pos] = assign[k]
            slab = values[tuple(idx)]
            if out_shape:
                slab = slab.transpose(tuple(np.argsort(ext_positions, kind="stable")))
                shape = [1] * len(out_shape)
                for p in ext_positions:
                    shape[p] = out_shape[p]
                slab = slab.reshape(shape)
            term = term * slab
        acc += term
    return Factor(make_product_domain(out_axes), acc)


# -- linear-scan oracles for the NfgGraph incidence index ---------------------------


def scan_edge_at(g, vertex, axis):
    for e in g.internal_edges:
        if (vertex, axis) in e.ends:
            return e
    return next(h for h in g.half_edges if h.end == (vertex, axis))


def scan_internal_at(g, vertex):
    return [e for e in g.internal_edges if vertex in (e.ends[0][0], e.ends[1][0])]


def scan_half_at(g, vertex):
    return [h for h in g.half_edges if h.end[0] == vertex]


def scan_neighbors(g, vertex):
    out = []
    for e in scan_internal_at(g, vertex):
        for v, _ in e.ends:
            if v != vertex and v not in out:
                out.append(v)
    return out


def scan_edges_between(g, u, v):
    return [e for e in g.internal_edges if {e.ends[0][0], e.ends[1][0]} == {u, v}]


def scan_fresh_id(g, prefix):
    used = set(g.vertices) | {e.id for e in g.internal_edges} | {h.id for h in g.half_edges}
    candidate, k = prefix, 0
    while candidate in used:
        k += 1
        candidate = f"{prefix}.{k}"
    return candidate


# -- loop oracles for the group-arithmetic tables and kernels -----------------------


# direct products of 1-3 cyclic groups of order 2..7
group_alphabets = st.lists(st.integers(2, 7), min_size=1, max_size=3).map(
    lambda moduli: GroupAlphabet(tuple(moduli)))

# ordered alphabets of 2..7 symbols and ordered products of 2-3 components
ordered_alphabets = st.one_of(
    st.integers(2, 7).map(OrderedAlphabet),
    st.lists(st.integers(2, 4), min_size=2, max_size=3).map(
        lambda sizes: OrderedProductAlphabet(tuple(sizes))))

SPECIAL_PARTS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])


def special_complex(rng, shape, share=0.3, specials=SPECIAL_PARTS):
    """Normal draws with about ``share`` of each part replaced by a special value."""
    parts = []
    for _ in range(2):
        part = rng.standard_normal(shape)
        hit = rng.random(shape) < share
        part[hit] = rng.choice(specials, int(hit.sum()))
        parts.append(part)
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = parts
    return out


def assert_same_bits(got, want):
    """Equal bytes, signed zeros included, except the sign bit of a NaN.

    IEEE 754 leaves a NaN result's sign open, and numpy's own loops differ in
    it: adding NaN to NaN, ``np.add.at`` keeps the accumulated NaN in the real
    part and the incoming one in the imaginary part, and a one-element ``+=``
    keeps the incoming NaN where an eight-element ``+=`` keeps the accumulated.
    """
    a = np.ascontiguousarray(got).view(np.float64)
    b = np.ascontiguousarray(want).view(np.float64)
    assert a.shape == b.shape
    nan = np.isnan(b)
    assert (np.isnan(a) == nan).all()
    assert a[~nan].tobytes() == b[~nan].tobytes()


def loop_group_tables(g):
    """Addition table and negation vector built entry by entry from the scalar ops."""
    n = g.size
    add = np.array([[group_add(g, a, b) for b in range(n)] for a in range(n)], dtype=np.intp)
    neg = np.array([group_neg(g, a) for a in range(n)], dtype=np.intp)
    return add, neg


def loop_sum_indicator(kind, g, degree):
    """The sum or parity indicator table, one assignment at a time."""
    table = np.zeros((g.size,) * degree)
    for assign in itertools.product(range(g.size), repeat=degree):
        total = 0
        for x in assign[1 if kind == "sum" else 0:]:
            total = group_add(g, total, x)
        table[assign] = float(total == (assign[0] if kind == "sum" else 0))
    return table


def _components(alphabet, x):
    return alphabet.decode(x) if isinstance(alphabet, OrderedProductAlphabet) else (x,)


def loop_indicator(kind, alphabet, degree, value=None):
    """Any indicator kind's table, one entry at a time from its definition.

    Ordered products compare componentwise.  The Fourier kernels come from the
    scalar ``character``, which rounds differently from the dense tables, so
    they agree with ``make_indicator`` within rounding, not in their bytes.
    """
    if kind in ("sum", "parity"):
        return loop_sum_indicator(kind, alphabet, degree)
    n = alphabet.size
    table = np.zeros((n,) * degree, dtype=np.complex128)
    for assign in itertools.product(range(n), repeat=degree):
        parts = [_components(alphabet, x) for x in assign]
        if kind == "eq":
            entry = float(len(set(assign)) == 1)
        elif kind == "max":
            entry = float(all(head == max(tail) for head, *tail in zip(*parts)))
        elif kind == "eval":
            entry = float(assign[0] == value)
        elif kind == "one":
            entry = 1.0
        elif kind in ("cumulus", "difference"):
            entry = 1.0
            for x, y in zip(*parts):
                if kind == "cumulus":
                    entry *= float(x >= y)
                else:
                    entry *= 1.0 if x == y else -1.0 if x == y + 1 else 0.0
        elif kind == "fourier":
            entry = character(alphabet, *assign)
        else:
            entry = character(alphabet, assign[0], group_neg(alphabet, assign[1])) / n
        table[assign] = entry
    return table


def add_at_fold(vectors, index):
    """The pairwise scatter fold through ``np.add.at``."""
    acc = vectors[0]
    n = index.shape[0]
    for vec in vectors[1:]:
        out = np.zeros(n, dtype=np.complex128)
        np.add.at(out, index.reshape(-1), np.multiply.outer(acc, vec).reshape(-1))
        acc = out
    return acc


def loop_convolve(a, b):
    """Convolution over the shared axes by a double loop over their assignments."""
    shared = [l for l in a.labels if l in b.labels]
    a_only = [l for l in a.labels if l not in shared]
    b_only = [l for l in b.labels if l not in shared]
    alpha = {l: al for l, al in list(a.domain.axes) + list(b.domain.axes)}
    dom = make_product_domain([(l, alpha[l]) for l in a_only + shared + b_only])
    out = np.zeros(dom.shape, dtype=np.complex128)
    a_t = a.transpose(a_only + shared)
    b_t = b.transpose(shared + b_only)
    groups = [alpha[l] for l in shared]
    sizes = [gp.size for gp in groups]
    n_a = len(a_only)
    for xs in itertools.product(*(range(s) for s in sizes)):
        for ys in itertools.product(*(range(s) for s in sizes)):
            diff = tuple(group_add(gp, x, group_neg(gp, y))
                         for gp, x, y in zip(groups, xs, ys))
            a_slice = a_t.values[(slice(None),) * n_a + diff]
            b_slice = b_t.values[ys]
            out[(slice(None),) * n_a + xs] += np.multiply.outer(a_slice, b_slice)
    return Factor(dom, out)


def loop_codewords(values, tol=1e-9):
    """Support and scale of a two-valued exterior table, one entry at a time."""
    flat = values.reshape(-1)
    for idx in range(flat.size):
        if not cmath.isfinite(flat[idx]):
            where = tuple(int(c) for c in np.unravel_index(idx, values.shape))
            raise ValueError(f"exterior entry {where} is not finite ({flat[idx]:.6g})")
    peak = float(np.max(np.abs(flat)))
    if peak == 0.0:
        return set(), 0.0
    ref = flat[int(np.argmax(np.abs(flat)))]
    support = set()
    for idx in range(flat.size):
        val = flat[idx]
        if abs(val) <= tol * peak:
            continue
        if abs(val - ref) > tol * peak:
            raise ValueError(
                "exterior is not proportional to a 0/1 indicator "
                f"(entry {val:.6g} vs scale {ref:.6g})")
        support.add(tuple(int(c) for c in np.unravel_index(idx, values.shape)))
    if abs(ref.imag) > tol * abs(ref):
        raise ValueError(f"indicator scale {ref:.6g} is not real")
    return support, float(ref.real)


# -- the holographic transform as a chain of graph rewrites -------------------------


def chain_holographic_transform(g, spec, tol=REL_TOL):
    """Referee: insert every transformer, merge each into its owner, then rename.

    Each step builds and validates a whole graph.  The external transformers
    go in first (sorted by variable), then the pairs (sorted by edge id); each
    original vertex then absorbs its inserted vertices in that order, and each
    pair's middle segment takes back the id of the edge it subdivided.
    """
    for var in spec.external:
        g.half_edge_for_var(var)
    for eid in spec.internal:
        g.internal_edge(eid)

    original_vertices = list(g.vertex_ids)
    work = g
    absorb = {v: [] for v in original_vertices}
    mid_edge_of = {}

    for var in sorted(spec.external):
        owner = work.half_edge_for_var(var).end[0]
        before = set(work.vertices)
        work = insert_transformer(work, var, spec.external[var])
        (w,) = set(work.vertices) - before
        absorb[owner].append(w)

    for eid in sorted(spec.internal):
        pair, orientation = spec.internal[eid]
        before = set(work.vertices)
        before_edges = {x.id for x in work.internal_edges}
        work = insert_transformer_pair(work, eid, pair, orientation, tol=tol)
        new = set(work.vertices) - before
        for w in new:
            # each inserted vertex is adjacent to exactly one original vertex
            neigh = [x for x in work.neighbors(w) if x in absorb]
            if neigh:
                absorb[neigh[0]].append(w)
        mid = next(x.id for x in work.internal_edges
                   if x.id not in before_edges and set(x.vertices) <= new)
        mid_edge_of[mid] = eid

    for v in original_vertices:
        for w in absorb[v]:
            work = merge_vertices(work, v, w)

    internal = [InternalEdge(mid_edge_of[e.id], e.ends, e.alphabet)
                if e.id in mid_edge_of else e for e in work.internal_edges]
    return NfgGraph(work.vertices, internal,
                    [work.half_edge_for_var(h.var) for h in g.half_edges])


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_transformer_pair(rng, alphabet):
    """A well-conditioned inverse pair on ``alphabet``.

    The middle alphabet is plain or ordered, of the same size or one larger
    (the inverse is then a right inverse).
    """
    n = alphabet.size
    m = n + int(rng.integers(0, 2))
    mid = (Alphabet if rng.random() < 0.5 else OrderedAlphabet)(m)
    fwd = np.eye(n, m) + 0.3 * _complex(rng, (n, m))
    inv = np.linalg.pinv(fwd)
    return TransformerPair(
        forward=Factor(make_product_domain([("arg1", alphabet), ("arg2", mid)]), fwd),
        inverse=Factor(make_product_domain([("arg1", mid), ("arg2", alphabet)]), inv))


def random_external_transformer(rng, alphabet, max_alpha=4):
    """A random g(x, y) from ``alphabet`` to a plain alphabet of random size."""
    out = Alphabet(int(rng.integers(2, max_alpha + 1)))
    dom = make_product_domain([("arg1", alphabet), ("arg2", out)])
    return Factor(dom, _complex(rng, dom.shape))


HOLOGRAPHIC_FAULTS = ("unknown var", "unknown edge", "loop", "orientation",
                      "not bivariate", "external alphabet", "not inverse",
                      "pair alphabets", "pair edge alphabet")


def random_holographic_spec(rng, g, errors=False):
    """Random external transformers and oriented pairs on about half the edges.

    Keys are inserted in a shuffled order.  With ``errors``, about a third of
    the specs carry one of ``HOLOGRAPHIC_FAULTS`` (a fault the graph cannot
    host, such as a loop on a loop-free graph, is skipped).
    """
    external, internal = {}, {}
    for k in rng.permutation(len(g.half_edges)):
        h = g.half_edges[k]
        if rng.random() < 0.5:
            external[h.var] = random_external_transformer(rng, h.alphabet)
    for k in rng.permutation(len(g.internal_edges)):
        e = g.internal_edges[k]
        if not e.is_loop() and rng.random() < 0.5:
            orientation = e.vertices[int(rng.integers(0, 2))]
            internal[e.id] = (random_transformer_pair(rng, e.alphabet), orientation)
    if errors and rng.random() < 0.35:
        fault = HOLOGRAPHIC_FAULTS[int(rng.integers(0, len(HOLOGRAPHIC_FAULTS)))]
        loops = [e for e in g.internal_edges if e.is_loop()]
        plain = [e for e in g.internal_edges if not e.is_loop()]
        if fault == "unknown var":
            external["nowhere"] = random_external_transformer(rng, Alphabet(2))
        elif fault == "unknown edge":
            internal["nowhere"] = (random_transformer_pair(rng, Alphabet(2)), "v0")
        elif fault == "loop" and loops:
            e = loops[int(rng.integers(0, len(loops)))]
            internal[e.id] = (random_transformer_pair(rng, e.alphabet), e.vertices[0])
        elif fault == "orientation" and plain:
            e = plain[int(rng.integers(0, len(plain)))]
            internal[e.id] = (random_transformer_pair(rng, e.alphabet), "nowhere")
        elif fault == "not bivariate" and g.half_edges:
            h = g.half_edges[int(rng.integers(0, len(g.half_edges)))]
            labels = ["arg1", "arg2", "arg3"][:int(rng.choice([1, 3]))]
            external[h.var] = rand_factor(rng, labels, [h.alphabet] * len(labels))
        elif fault == "external alphabet" and g.half_edges:
            h = g.half_edges[int(rng.integers(0, len(g.half_edges)))]
            external[h.var] = random_external_transformer(rng, Alphabet(h.alphabet.size + 1))
        elif fault in ("not inverse", "pair alphabets", "pair edge alphabet") and plain:
            e = plain[int(rng.integers(0, len(plain)))]
            pair = random_transformer_pair(rng, e.alphabet)
            if fault == "not inverse":
                pair = TransformerPair(pair.forward, pair.forward.relabel(
                    {"arg1": "arg2", "arg2": "arg1"}).transpose(["arg1", "arg2"]))
            elif fault == "pair alphabets":
                # a member over a same-size alphabet of another kind passes verify
                other = OrderedAlphabet(e.alphabet.size)
                inv = pair.inverse
                pair = TransformerPair(pair.forward, Factor(make_product_domain(
                    [("arg1", inv.domain.axes[0][1]), ("arg2", other)]), inv.values))
            else:
                pair = random_transformer_pair(rng, OrderedAlphabet(e.alphabet.size))
            internal[e.id] = (pair, e.vertices[int(rng.integers(0, 2))])
    return HolographicSpec(external=external, internal=internal)


def assert_same_graph(got, want):
    """Same vertex order, factor axes, tags and bytes, and the same edges in order."""
    assert list(got.vertices) == list(want.vertices)
    for v, f in want.vertices.items():
        assert got.factor(v).domain.axes == f.domain.axes, v
        assert got.factor(v).tag == f.tag, v
        assert got.factor(v).values.tobytes() == f.values.tobytes(), v
    assert got.internal_edges == want.internal_edges
    assert got.half_edges == want.half_edges
