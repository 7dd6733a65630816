"""Exterior-function evaluation engines.

``exterior_bruteforce`` enumerates internal-edge assignments explicitly and is
the independent oracle; it never routes through the contraction engine.  It
enumerates in numpy blocks of assignments, in ``itertools.product`` order,
gathering each vertex's slab by index arrays and adding the terms onto the
accumulator one after another.
``eliminate`` merges adjacent vertex pairs with multiply-add accounting per the
pair-merge cost rule.  ``sum_product`` runs the two-sweep message schedule on
trees, with low-complexity shortcuts for tagged equality/sum/max vertices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .algebra import group_tables, make_product_domain, ordered_sizes
from .factor import (STATE_CAP, Factor, OpCounter, TableSizeError, _check_size, contract,
                     multiply_pointwise)
from .indicators import make_indicator
from .nfg import HalfEdge, InternalEdge, NfgGraph, classify

__all__ = [
    "TableSizeError",
    "EliminationStep",
    "EliminationReport",
    "EdgeMarginals",
    "exterior_bruteforce",
    "eliminate",
    "block_order",
    "sum_product",
    "derivative_sum_product",
]

# Terms (assignments x accumulator entries) enumerated per numpy block.
_BLOCK_TERMS = 2 ** 12


def exterior_bruteforce(g: NfgGraph, cap: int = STATE_CAP) -> Factor:
    """Exterior function by exhaustive enumeration over internal-edge assignments.

    Assignments run in ``itertools.product`` order over ``g.internal_edges``
    (the first edge changes slowest), in blocks of about ``_BLOCK_TERMS``
    terms and at least one assignment.  Each term is complex one times every
    vertex's slab in ``g.vertices`` order, and the terms are added onto the
    accumulator one after another.
    """
    sizes = [e.alphabet.size for e in g.internal_edges]
    states = math.prod(sizes) * math.prod(h.alphabet.size for h in g.half_edges)
    _check_size(states, cap)

    out_axes = [(h.var, h.alphabet) for h in g.half_edges]
    out_shape = tuple(a.size for _, a in out_axes)
    edge_index = {e.id: k for k, e in enumerate(g.internal_edges)}
    out_pos = {h.id: i for i, h in enumerate(g.half_edges)}

    # per vertex: its table with the internal axes first and the external
    # axes after them in accumulator order, the internal edge indexing each
    # leading axis (a loop's two axes share one), and the slab's shape
    plans = []
    for v, factor in g.vertices.items():
        edges = [g.edge_at(v, label) for label in factor.labels]
        internal = [i for i, e in enumerate(edges) if isinstance(e, InternalEdge)]
        external = sorted((out_pos[e.id], i) for i, e in enumerate(edges)
                          if isinstance(e, HalfEdge))
        shape = [1] * len(out_shape)
        for p, _ in external:
            shape[p] = out_shape[p]
        plans.append((factor.values.transpose(internal + [i for _, i in external]),
                      [edge_index[edges[i].id] for i in internal], (-1, *shape)))

    count = math.prod(sizes)
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    block = max(1, _BLOCK_TERMS // math.prod(out_shape))
    acc = np.zeros((1, *out_shape), dtype=np.complex128)
    for start in range(0, count, block):
        flat = np.arange(start, min(start + block, count))
        digits = [flat // stride % size for stride, size in zip(strides, sizes)]
        term = np.ones((len(flat),) + (1,) * len(out_shape), dtype=np.complex128)
        for values, axes, shape in plans:
            term = term * values[tuple(digits[k] for k in axes)].reshape(shape)
        # a sequential running sum, so each entry adds its terms in order
        acc = np.add.accumulate(np.concatenate([acc, term]))[-1:]

    return Factor(make_product_domain(out_axes), acc[0])


@dataclass(frozen=True)
class EliminationStep:
    merged: Tuple[str, ...]
    eliminated_edges: Tuple[str, ...]
    ops: int


@dataclass
class EliminationReport:
    result: Factor
    steps: List[EliminationStep]

    @property
    def total_ops(self) -> int:
        return sum(s.ops for s in self.steps)


class _WorkGraph:
    """Mutable view used during elimination: axes are relabeled to edge ids.

    An internal-edge label sits on the factors of both its current endpoints,
    so two vertices are adjacent exactly when their factors share a label.
    """

    def __init__(self, g: NfgGraph):
        self.factors: Dict[str, Factor] = {}
        self.holders: Dict[str, Set[str]] = {}  # internal edge id -> its two vertices
        self.order = {e.id: k for k, e in enumerate(g.internal_edges)}
        self.steps: List[EliminationStep] = []

        for v, factor in g.vertices.items():
            loop_edges = g.edges_between(v, v)
            if loop_edges:
                factor, ops = _resolve_loops(factor, v, loop_edges)
                for e in loop_edges:
                    self.steps.append(EliminationStep((v,), (e.id,), ops[e.id]))
            self.factors[v] = factor.relabel(
                {axis: g.edge_at(v, axis).id for axis in factor.labels})
        for e in g.internal_edges:
            if not e.is_loop():
                self.holders[e.id] = set(e.vertices)

    def shared(self, u: str, v: str) -> List[str]:
        """Edges joining u and v, in the original declaration order."""
        common = set(self.factors[u].labels) & set(self.factors[v].labels)
        return sorted(common, key=self.order.__getitem__)

    def neighbors(self, v: str) -> List[str]:
        out = set()
        for label in self.factors[v].labels:
            out.update(self.holders.get(label, ()))
        out.discard(v)
        return sorted(out)

    def pair_cost(self, u: str, v: str) -> int:
        # output states times summed states: every label of the pair once
        sizes = dict(self.factors[u].domain.axes)
        sizes.update(self.factors[v].domain.axes)
        return math.prod(a.size for a in sizes.values())

    def merge(self, u: str, v: str) -> None:
        if u == v or u not in self.factors or v not in self.factors:
            raise ValueError(f"cannot merge {u!r} and {v!r}")
        shared = self.shared(u, v)
        if not shared:
            raise ValueError(f"vertices {u!r} and {v!r} are not adjacent")
        ops = self.pair_cost(u, v)
        fv = self.factors.pop(v)
        self.factors[u] = contract([self.factors[u], fv])
        for label in fv.labels:
            if label in shared:
                del self.holders[label]
            elif label in self.holders:
                self.holders[label].discard(v)
                self.holders[label].add(u)
        self.steps.append(EliminationStep((u, v), tuple(shared), ops))


def _resolve_loops(factor: Factor, vertex: str,
                   loops: Sequence[InternalEdge]) -> Tuple[Factor, Dict[str, int]]:
    """Sum out self-loop edges (both bound axes set equal)."""
    ops: Dict[str, int] = {}
    for e in loops:
        ax1 = factor.domain.axis_index(e.ends[0][1])
        ax2 = factor.domain.axis_index(e.ends[1][1])
        size = e.alphabet.size
        values = np.trace(factor.values, axis1=ax1, axis2=ax2)
        axes = tuple(t for i, t in enumerate(factor.domain.axes) if i not in (ax1, ax2))
        ops[e.id] = size * int(np.prod([a.size for _, a in axes], dtype=np.int64)) \
            if axes else size
        factor = Factor(make_product_domain(axes), values)
    return factor, ops


def block_order(g: NfgGraph, centers: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand a block-elimination preset (vertex plus its neighbors) to pair merges."""
    order: List[Tuple[str, str]] = []
    merged_into: Dict[str, str] = {}
    adj = {v: set(g.neighbors(v)) for v in g.vertex_ids}

    def rep(v: str) -> str:
        while v in merged_into:
            v = merged_into[v]
        return v

    for center in centers:
        c = rep(center)
        for n in sorted({rep(x) for x in adj[c]} - {c}):
            order.append((c, n))
            merged_into[n] = c
            adj[c] = adj[c] | adj[n]
        adj[c] = {rep(x) for x in adj[c]} - {c}
    return order


def eliminate(g: NfgGraph,
              strategy: str = "min-cost-greedy",
              order: Optional[Sequence] = None,
              use_kernels: bool = False) -> EliminationReport:
    """Compute the exterior function by repeated adjacent-pair merging.

    ``strategy`` is ``min-cost-greedy`` (default) or ``given-order`` with an
    ``order`` of ``(u, v)`` pairs (the merged vertex keeps the first id) or
    ``("block", center)`` entries.  With ``use_kernels``, a block step whose
    center is a tagged equality/sum/max indicator with univariate neighbors is
    computed by the chain shortcut and counted by its closed form.  A merge
    whose table would have more than ``STATE_CAP`` entries raises
    :class:`TableSizeError` before it allocates.
    """
    work = _WorkGraph(g)

    if strategy == "given-order":
        if order is None:
            raise ValueError("given-order strategy needs an order")
        for entry in order:
            if isinstance(entry, (tuple, list)) and len(entry) == 2 and entry[0] == "block":
                _eliminate_block(work, entry[1], use_kernels)
            elif isinstance(entry, (tuple, list)) and len(entry) == 2:
                u, v = entry
                work.merge(str(u), str(v))
            else:
                raise ValueError(f"bad order entry {entry!r}")
        if any(work.neighbors(v) for v in work.factors):
            raise ValueError("given order does not fully eliminate the graph")
    elif strategy == "min-cost-greedy":
        # Merge the adjacent pair with the least (cost, u, v), u < v.  A merge
        # changes only the pairs of the merged vertex, so those are pushed
        # again with its new merge count; a popped entry whose counts are out
        # of date (or whose vertex is gone) is skipped.
        merges = dict.fromkeys(work.factors, 0)
        heap = [(work.pair_cost(u, v), u, v, 0, 0)
                for u in work.factors for v in work.neighbors(u) if u < v]
        heapq.heapify(heap)
        while heap:
            _, u, v, mu, mv = heapq.heappop(heap)
            if merges.get(u) != mu or merges.get(v) != mv:
                continue
            work.merge(u, v)
            del merges[v]
            merges[u] = mu = mu + 1
            for w in work.neighbors(u):
                pair = (u, w, mu, merges[w]) if u < w else (w, u, merges[w], mu)
                heapq.heappush(heap, (work.pair_cost(u, w),) + pair)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    remaining = [work.factors[v] for v in work.factors]
    if len(remaining) > 1:
        # disconnected components combine by outer product
        combined = remaining[0]
        ids = list(work.factors)
        for k, nxt in enumerate(remaining[1:], start=1):
            combined = contract([combined, nxt])
            work.steps.append(EliminationStep((ids[0], ids[k]), (),
                                              int(np.prod(combined.domain.shape, dtype=np.int64))))
        result = combined
    else:
        result = remaining[0]

    result = result.relabel({h.id: h.var for h in g.half_edges})
    want = [h.var for h in g.half_edges]
    result = result.transpose(want)
    return EliminationReport(result=result, steps=work.steps)


def _eliminate_block(work: _WorkGraph, center: str, use_kernels: bool) -> None:
    center = str(center)
    if center not in work.factors:
        raise ValueError(f"unknown block center {center!r}")
    neighbors = work.neighbors(center)
    if use_kernels and _star_applicable(work, center, neighbors):
        _star_merge(work, center, neighbors)
        return
    for n in neighbors:
        if n in work.factors and center in work.factors and work.shared(center, n):
            work.merge(center, n)


def _star_applicable(work: _WorkGraph, center: str, neighbors: List[str]) -> bool:
    f = work.factors[center]
    if f.tag not in ("eq", "sum", "max"):
        return False
    leaf_edges = []
    for n in neighbors:
        mf = work.factors[n]
        between = work.shared(center, n)
        if mf.ndim != 1 or len(between) != 1:
            return False
        leaf_edges.append(between[0])
    return f.ndim - len(leaf_edges) <= 1


def _star_merge(work: _WorkGraph, center: str, neighbors: List[str]) -> None:
    f = work.factors[center]
    incoming: Dict[str, np.ndarray] = {}
    eliminated = []
    for n in neighbors:
        eid = work.shared(center, n)[0]
        incoming[eid] = work.factors[n].values
        eliminated.append(eid)
    target = next((l for l in f.labels if l not in incoming), None)
    counter = OpCounter()
    values = _indicator_star(f, incoming, target, counter)
    for n in neighbors:
        del work.factors[n]
    for eid in eliminated:
        del work.holders[eid]
    if target is None:
        domain = make_product_domain([])
    else:
        domain = make_product_domain([(target, f.domain.alphabet(target))])
    work.factors[center] = Factor(domain, values)
    work.steps.append(EliminationStep(tuple([center] + neighbors),
                                      tuple(eliminated), counter.total))


# -- indicator chain kernels --------------------------------------------------

def _max_table(alphabet):
    sizes = ordered_sizes(alphabet)
    n = int(np.prod(sizes))
    total = np.zeros((n, n), dtype=np.intp)
    stride = n
    for s in sizes:
        stride //= s
        comp = (np.arange(n) // stride) % s
        total += stride * np.maximum(comp[:, None], comp[None, :])
    return total


def _scatter_fold(vectors: List[np.ndarray], index: np.ndarray,
                  counter: OpCounter) -> np.ndarray:
    """Fold vectors pairwise through sum_{(x,y) -> index[x,y]} a[x] b[y].

    Each pairwise fold is |X|^2 fused multiply-adds, recorded on ``mults``.
    ``bincount`` sums each part from +0.0 in flattened order, as ``np.add.at``
    would; the parts are written in place because ``re + 1j * im`` can flip
    signed zeros.
    """
    acc = vectors[0]
    n = index.shape[0]
    flat = index.reshape(-1)
    for vec in vectors[1:]:
        outer = np.multiply.outer(acc, vec).reshape(-1)
        out = np.empty(n, dtype=np.complex128)
        out.real = np.bincount(flat, outer.real, minlength=n)
        out.imag = np.bincount(flat, outer.imag, minlength=n)
        counter.mults += n * n
        acc = out
    return acc


def _indicator_star(center: Factor, incoming: Mapping[str, np.ndarray],
                    target: Optional[str], counter: OpCounter) -> np.ndarray:
    """Close a tagged indicator vertex against univariate inputs on its axes.

    ``incoming`` maps axis labels to vectors; ``target`` is the one uncovered
    axis (None closes the star to a scalar).  Ops follow the chain schedule:
    (k-1)|X| multiplies for equality, (k-1)|X|^2 multiply-adds for sum/max,
    for k folded inputs.
    """
    labels = list(center.labels)
    alphabet = center.domain.axes[0][1]
    n = alphabet.size
    tag = center.tag

    if tag == "eq":
        acc = None
        for l in labels:
            if l == target:
                continue
            vec = np.asarray(incoming[l], dtype=np.complex128)
            if acc is None:
                acc = vec.copy()
            else:
                acc = acc * vec
                counter.mults += n
        if target is None:
            counter.adds += n
            return np.asarray(acc.sum())
        return acc

    if tag not in ("sum", "max"):
        raise ValueError(f"no chain kernel for tag {tag!r}")
    if tag == "sum":
        table, neg = group_tables(alphabet)
    else:
        table, neg = _max_table(alphabet), None

    first, tail = labels[0], labels[1:]
    if target == first:
        vecs = [np.asarray(incoming[l], dtype=np.complex128) for l in tail]
        return _scatter_fold(vecs, table, counter)

    others = [l for l in tail if l != target]
    folded = _scatter_fold(
        [np.asarray(incoming[l], dtype=np.complex128) for l in others], table, counter) \
        if others else None
    head = np.asarray(incoming[first], dtype=np.complex128)
    if target is None:
        counter.mults += n
        return np.asarray((head * folded).sum()) if folded is not None \
            else np.asarray(head.sum())
    if folded is None:
        # bivariate sum/max both reduce to the equality pass-through
        return head.copy()
    if tag == "sum":
        return _scatter_fold([head, folded[neg]], table, counter)
    counter.mults += n * n
    return head[table] @ folded


# -- sum-product ---------------------------------------------------------------

@dataclass
class EdgeMarginals:
    messages: Dict[Tuple[str, str], Factor]
    marginals: Dict[str, Factor]
    total_ops: int = 0
    scales: Optional[Dict[Tuple[str, str], float]] = None


def sum_product(g: NfgGraph,
                use_kernels: bool = True,
                extract_scales: bool = False) -> EdgeMarginals:
    """Two-sweep message passing on a tree NFG.

    The primary contract takes trees with no half edges; half edges are
    accepted and their variables accumulate onto the messages.  Tagged
    equality vertices use the product shortcut, and tagged sum/max vertices
    the pairwise chain schedule, whenever the incoming messages are
    univariate.
    """
    cycle = g.find_cycle()
    if cycle is not None:
        raise ValueError(f"sum_product needs a tree; found a cycle through {cycle}")
    if not g.is_connected():
        raise ValueError("sum_product needs a connected graph")

    def label(edge) -> str:
        return edge.var if isinstance(edge, HalfEdge) else edge.id

    graph_factors = {
        v: f.relabel({axis: label(g.edge_at(v, axis)) for axis in f.labels})
        for v, f in g.vertices.items()
    }

    counter = OpCounter()
    messages: Dict[Tuple[str, str], Factor] = {}
    scales: Dict[Tuple[str, str], float] = {}

    # collect toward the first vertex in reverse DFS preorder, then distribute
    # in preorder: every message finds its inputs already computed
    stack = list(g.vertex_ids[:1])
    parent = {v: v for v in stack}
    preorder: List[str] = []
    while stack:
        u = stack.pop()
        preorder.append(u)
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    schedule = [(u, parent[u]) for u in reversed(preorder[1:])] + \
        [(parent[u], u) for u in preorder[1:]]
    for u, v in schedule:
        messages[(u, v)] = _spa_message(g, graph_factors[u], u, v, messages, counter,
                                        use_kernels, extract_scales, scales)

    marginals: Dict[str, Factor] = {}
    for e in g.internal_edges:
        u, v = e.vertices
        m = multiply_pointwise(messages[(u, v)], messages[(v, u)])
        if extract_scales:
            m = m.scaled(scales[(u, v)] * scales[(v, u)])
        marginals[e.id] = m

    if extract_scales:
        messages = {k: f.scaled(scales[k]) for k, f in messages.items()}
    return EdgeMarginals(messages=messages, marginals=marginals,
                         total_ops=counter.total,
                         scales=scales if extract_scales else None)


def _spa_message(g: NfgGraph, factor: Factor, u: str, v: str,
                 messages: Dict[Tuple[str, str], Factor], counter: OpCounter,
                 use_kernels: bool, extract_scales: bool,
                 scales: Dict[Tuple[str, str], float]) -> Factor:
    target_edge = g.edges_between(u, v)[0].id
    incoming = []
    in_scale = 1.0
    for w in g.neighbors(u):
        if w == v:
            continue
        eid = g.edges_between(w, u)[0].id
        incoming.append((eid, messages[(w, u)]))
        if extract_scales:
            in_scale *= scales[(w, u)]

    can_kernel = (
        use_kernels
        and factor.tag in ("eq", "sum", "max")
        and all(m.ndim == 1 and m.labels == (eid,) for eid, m in incoming)
        and not g.half_at(u)
    )
    if can_kernel:
        vecs = {eid: m.values for eid, m in incoming}
        values = _indicator_star(factor, vecs, target_edge, counter)
        out = Factor(make_product_domain([(target_edge,
                                           factor.domain.alphabet(target_edge))]), values)
    else:
        # generic dense schedule: (deg-1) multiplies per assignment of the
        # non-target axes, per the update-rule cost
        deg = factor.ndim
        non_target = 1
        for label, a in factor.domain.axes:
            if label != target_edge:
                non_target *= a.size
        counter.mults += max(deg - 1, 0) * non_target
        out = contract([factor] + [m for _, m in incoming])
        lead = [target_edge] + [l for l in out.labels if l != target_edge]
        out = out.transpose(lead)
    if extract_scales:
        s = float(np.max(np.abs(out.values))) if out.values.size else 0.0
        if s == 0.0:
            s = 1.0
        scales[(u, v)] = s * in_scale
        out = out.scaled(1.0 / s)
    return out


def derivative_sum_product(g: NfgGraph, evidence: Mapping[str, int],
                           tol: float = 1e-9) -> Dict[str, Factor]:
    """Difference-transformed marginals on a constrained tree with equality interfaces.

    Each half edge is dressed with a difference vertex and, beyond it, an
    evaluation vertex at the evidence value (or a constant-one vertex for
    marginalized variables).  Returns, per variable, the message from the
    difference vertex toward the outer vertex.
    """
    flags = classify(g, tol=tol)
    if not flags.tree:
        raise ValueError("derivative_sum_product needs a tree")
    if not flags.constrained:
        raise ValueError("derivative_sum_product needs a constrained model")
    for v in flags.interface_set:
        f = g.factor(v)
        if f.ndim >= 2:
            eq = make_indicator("eq", f.domain.axes[0][1], f.ndim)
            if not np.allclose(f.values, eq.values, atol=tol):
                raise ValueError(f"interface {v!r} is not an equality indicator")
    for h in g.half_edges:
        ordered_sizes(h.alphabet)

    unknown = set(evidence) - set(g.external_vars)
    if unknown:
        raise KeyError(f"evidence names unknown variable(s) {sorted(unknown)}")

    vertices = dict(g.vertices)
    internal = list(g.internal_edges)
    diff_names: Dict[str, Tuple[str, str]] = {}
    for h in g.half_edges:
        var = h.var
        d_id = g.fresh_id(f"d_{var}")
        u_id = g.fresh_id(f"u_{var}")
        diff = make_indicator("difference", h.alphabet, 2)
        vertices[d_id] = diff
        if var in evidence:
            vertices[u_id] = make_indicator("eval", h.alphabet, 1,
                                            value=evidence[var])
        else:
            vertices[u_id] = make_indicator("one", h.alphabet, 1)
        internal.append(InternalEdge(g.fresh_id(f"y_{var}"),
                                     ((d_id, "arg2"), h.end), h.alphabet))
        internal.append(InternalEdge(g.fresh_id(f"x_{var}"),
                                     ((u_id, "arg1"), (d_id, "arg1")), h.alphabet))
        diff_names[var] = (d_id, u_id)

    closed = NfgGraph(vertices, internal, half_edges=())
    result = sum_product(closed)
    out: Dict[str, Factor] = {}
    for var, (d_id, u_id) in diff_names.items():
        msg = result.messages[(d_id, u_id)]
        alpha = g.half_edge_for_var(var).alphabet
        out[var] = Factor(make_product_domain([(var, alpha)]), msg.values)
    return out
