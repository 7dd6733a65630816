"""Graph rewrites that preserve or relate exterior functions.

Vertex merging, transformer insertion, the holographic transformation as one
local rewrite (each vertex function contracted with the transformers on its
edges; the graph is built once), and the fast per-axis cumulus, difference,
and Fourier transforms.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    AnyAlphabet,
    GroupAlphabet,
    character_table,
    dual_kernel_table,
    ordered_sizes,
)
from .factor import REL_TOL, Factor, OpCounter, contract, factors_allclose
from .indicators import TransformerPair, _check_axis_names
from .nfg import Endpoint, HalfEdge, InternalEdge, NfgGraph

__all__ = [
    "HolographicSpec",
    "merge_vertices",
    "insert_transformer_pair",
    "insert_transformer",
    "holographic_transform",
    "split_vertex_guided",
    "fast_axis_transform",
]


def _edge_labels(g: NfgGraph, group: Sequence[str], free: Collection[str] = ()
                 ) -> Dict[str, Dict[str, str]]:
    """Vertex -> axis -> working label, for vertices merged into one.

    An axis takes the id of the edge that binds it.  A loop's ends take
    ``{id}#0`` and ``{id}#1``; where another axis of ``group`` already has
    that label (edges in ``free`` aside, whose axes get other labels), the
    first of ``{id}#{slot}.1``, ``.2``, ... that none has.
    """
    labels: Dict[str, Dict[str, str]] = {v: {} for v in group}
    loops = []  # (vertex, axis, label before any suffix)
    for v in group:
        for axis in g.factor(v).labels:
            e = g.edge_at(v, axis)
            if isinstance(e, InternalEdge) and e.is_loop():
                loops.append((v, axis, f"{e.id}#{e.ends.index((v, axis))}"))
            else:
                labels[v][axis] = e.id
    taken = {label for axes in labels.values() for label in axes.values()} - set(free)
    for v, axis, name in loops:
        label, k = name, 0
        while label in taken:
            k += 1
            label = f"{name}.{k}"
        labels[v][axis] = label
    return labels


def merge_vertices(g: NfgGraph, u: str, v: str) -> NfgGraph:
    """Replace adjacent u, v with one vertex carrying their sum-of-products.

    The merged vertex keeps the id ``u``; the exterior function is unchanged.
    """
    if u == v:
        raise ValueError("cannot merge a vertex with itself")
    shared = g.edges_between(u, v)
    if not shared:
        raise ValueError(f"vertices {u!r} and {v!r} are not adjacent")

    labels = _edge_labels(g, (u, v))
    vertices = {w: f for w, f in g.vertices.items() if w not in (u, v)}
    vertices[u] = contract([g.factor(w).relabel(labels[w]) for w in (u, v)])
    internal, half = _rewired_edges(g, {u: u, v: u}, labels, {e.id for e in shared}, {})
    return NfgGraph(vertices, internal, half)


def _rewired_edges(g: NfgGraph, owner: Mapping[str, str],
                   labels: Mapping[str, Mapping[str, str]], dropped: Collection[str],
                   alphabets: Mapping[str, AnyAlphabet]
                   ) -> Tuple[List[InternalEdge], List[HalfEdge]]:
    """The edges of ``g`` but ``dropped``, in order, rewired to merged vertices.

    An end at a key of ``owner`` moves to ``owner[key]`` under its label from
    ``labels`` (see ``_edge_labels``); a moved half edge takes
    ``alphabets[var]`` if given.
    """

    def end(w: str, axis: str) -> Endpoint:
        return (owner[w], labels[w][axis]) if w in owner else (w, axis)

    internal = [InternalEdge(e.id, (end(*e.ends[0]), end(*e.ends[1])), e.alphabet)
                for e in g.internal_edges if e.id not in dropped]
    half = [HalfEdge(h.id, end(*h.end), alphabets.get(h.var, h.alphabet), h.var)
            if h.end[0] in owner else h for h in g.half_edges]
    return internal, half


def _check_pair(g: NfgGraph, edge_id: str, pair: TransformerPair, orientation: str,
                tol: float, verified: set) -> Tuple[Endpoint, Endpoint]:
    """Verify a pair for an internal edge; return the edge's (near, far) ends.

    ``verified`` holds the ``id`` of each pair that passed ``verify`` earlier
    in the same rewrite; such a pair is not verified again.
    """
    _check_axis_names(pair.forward, f"forward transformer of edge {edge_id!r}")
    _check_axis_names(pair.inverse, f"inverse transformer of edge {edge_id!r}")
    if id(pair) not in verified:
        pair.verify(tol)
        verified.add(id(pair))
    e = g.internal_edge(edge_id)
    if e.is_loop():
        raise ValueError("transformer insertion on a self-loop is not supported")
    if orientation not in e.vertices:
        raise ValueError(f"orientation {orientation!r} is not an endpoint of {edge_id!r}")
    near = e.ends[0] if e.ends[0][0] == orientation else e.ends[1]
    far = e.ends[1] if near is e.ends[0] else e.ends[0]

    x_alpha = pair.forward.alphabet("arg1")
    s_alpha = pair.forward.alphabet("arg2")
    if pair.inverse.alphabet("arg1") != s_alpha or pair.inverse.alphabet("arg2") != x_alpha:
        raise ValueError("pair member alphabets are inconsistent")
    if x_alpha != e.alphabet:
        raise ValueError(f"pair alphabet does not match edge {edge_id!r}")
    return near, far


def _check_transformer(g: NfgGraph, var: str, transformer: Factor) -> HalfEdge:
    """Check an external transformer against its half edge; return that edge."""
    if transformer.ndim != 2:
        raise ValueError("external transformer must be bivariate")
    _check_axis_names(transformer, f"transformer for {var!r}")
    h = g.half_edge_for_var(var)
    if transformer.alphabet("arg1") != h.alphabet:
        raise ValueError(f"transformer does not match the alphabet of {var!r}")
    return h


def insert_transformer_pair(g: NfgGraph, edge_id: str, pair: TransformerPair,
                            orientation: str, tol: float = REL_TOL) -> NfgGraph:
    """Subdivide an internal edge with a verified inverse pair.

    ``orientation`` names the endpoint vertex the forward transformer sits
    next to.  The exterior function is unchanged.
    """
    near, far = _check_pair(g, edge_id, pair, orientation, tol, set())
    w_fwd = g.fresh_id(f"{edge_id}_g")
    w_inv = g.fresh_id(f"{edge_id}_gi")
    e_near = g.fresh_id(f"{edge_id}_a")
    e_mid = g.fresh_id(f"{edge_id}_m")
    e_far = g.fresh_id(f"{edge_id}_b")

    vertices = dict(g.vertices)
    vertices[w_fwd] = pair.forward
    vertices[w_inv] = pair.inverse
    internal = [x for x in g.internal_edges if x.id != edge_id]
    internal.append(InternalEdge(e_near, (near, (w_fwd, "arg1")), pair.alphabet))
    internal.append(InternalEdge(e_mid, ((w_fwd, "arg2"), (w_inv, "arg1")),
                                 pair.forward.alphabet("arg2")))
    internal.append(InternalEdge(e_far, ((w_inv, "arg2"), far), pair.alphabet))
    return NfgGraph(vertices, internal, g.half_edges)


def insert_transformer(g: NfgGraph, var: str, transformer: Factor) -> NfgGraph:
    """Insert a bivariate transformer g(x, y) into a half edge.

    Axis ``arg1`` faces the original vertex; ``arg2`` becomes the new
    external variable (same name, possibly a different alphabet).
    """
    h = _check_transformer(g, var, transformer)
    w = g.fresh_id(f"{var}_g")
    e_new = g.fresh_id(f"{var}_t")
    y_alpha = transformer.alphabet("arg2")
    vertices = dict(g.vertices)
    vertices[w] = transformer
    internal = list(g.internal_edges)
    internal.append(InternalEdge(e_new, (h.end, (w, "arg1")), h.alphabet))
    half = [x for x in g.half_edges if x.id != h.id]
    half.append(HalfEdge(h.id, (w, "arg2"), y_alpha, var))
    return NfgGraph(vertices, internal, half)


@dataclass(frozen=True)
class HolographicSpec:
    """External transformers per variable and oriented internal pairs per edge."""

    external: Mapping[str, Factor] = field(default_factory=dict)
    internal: Mapping[str, Tuple[TransformerPair, str]] = field(default_factory=dict)


def holographic_transform(g: NfgGraph, spec: HolographicSpec,
                          tol: float = REL_TOL) -> NfgGraph:
    """Transform every local function while keeping the graph topology.

    A transformed vertex's axes are renamed by ``_edge_labels``, then it is
    contracted with its external transformers (by variable, ``arg1`` facing
    it) and its member of each pair (by edge id; the forward member faces the
    near end through ``arg1``, the inverse the far end through ``arg2``).
    Both ends of a paired edge take the label ``g.fresh_id(f"{id}_m")``.  A
    pair object shared by several edges is verified once.  Ids
    and variables are kept; untransformed vertices precede transformed ones,
    unpaired edges precede paired ones (by id), otherwise in input order.
    """
    for var in spec.external:
        g.half_edge_for_var(var)
    for eid in spec.internal:
        g.internal_edge(eid)

    # transformed vertex -> its relabeled transformers in fold order, and the
    # fresh labels (no loop's ``{id}#{slot}`` can clash) of axes they sum over
    members: Dict[str, List[Factor]] = defaultdict(list)
    summed: Dict[str, Dict[str, str]] = defaultdict(dict)
    for var in sorted(spec.external):
        t = spec.external[var]
        h = _check_transformer(g, var, t)
        seg = g.fresh_id(f"{var}_t")
        summed[h.end[0]][h.end[1]] = seg
        members[h.end[0]].append(t.relabel({"arg1": seg, "arg2": h.id}))
    paired: List[InternalEdge] = []
    verified: set = set()
    for eid in sorted(spec.internal):
        pair, orientation = spec.internal[eid]
        near, far = _check_pair(g, eid, pair, orientation, tol, verified)
        mid = g.fresh_id(f"{eid}_m")
        a, b = g.fresh_id(f"{eid}_a"), g.fresh_id(f"{eid}_b")
        summed[near[0]][near[1]] = a
        summed[far[0]][far[1]] = b
        members[near[0]].append(pair.forward.relabel({"arg1": a, "arg2": mid}))
        members[far[0]].append(pair.inverse.relabel({"arg1": mid, "arg2": b}))
        paired.append(InternalEdge(eid, ((near[0], mid), (far[0], mid)),
                                   pair.forward.alphabet("arg2")))

    labels: Dict[str, Dict[str, str]] = {}
    for v in members:
        labels.update(_edge_labels(g, (v,), free=spec.internal))
    vertices = {v: f for v, f in g.vertices.items() if v not in members}
    for v, f in g.vertices.items():
        if v in members:
            f = f.relabel({**labels[v], **summed[v]})
            for t in members[v]:
                f = contract([f, t])
            vertices[v] = f

    internal, half = _rewired_edges(
        g, {v: v for v in members}, labels, spec.internal,
        {var: t.alphabet("arg2") for var, t in spec.external.items()})
    return NfgGraph(vertices, internal + paired, half)


def split_vertex_guided(g: NfgGraph, vertex: str, replacement: NfgGraph,
                        tol: float = REL_TOL) -> NfgGraph:
    """Replace a vertex by a caller-supplied sub-NFG realizing the same function.

    The replacement's external variable names must be the ids of the edges
    incident on ``vertex``; its exterior must reproduce the vertex factor
    within ``tol``.
    """
    factor = g.factor(vertex)
    mapping = _edge_labels(g, (vertex,))[vertex]
    want = factor.relabel(mapping)
    from .exterior import exterior_bruteforce

    got = exterior_bruteforce(replacement)
    if set(got.labels) != set(want.labels):
        raise ValueError(
            f"replacement realizes variables {sorted(got.labels)}, expected "
            f"{sorted(want.labels)}")
    if not factors_allclose(got, want, tol=tol):
        raise ValueError("replacement does not reproduce the vertex function")

    rename = {w: g.fresh_id(f"{vertex}.{w}") for w in replacement.vertex_ids}
    vertices = {w: f for w, f in g.vertices.items() if w != vertex}
    for w, f in replacement.vertices.items():
        vertices[rename[w]] = f

    new_end: Dict[str, Tuple[str, str]] = {}
    for h in replacement.half_edges:
        new_end[h.var] = (rename[h.end[0]], h.end[1])

    internal = [e for e in g.internal_edges
                if vertex not in (e.ends[0][0], e.ends[1][0])]
    for e in replacement.internal_edges:
        internal.append(InternalEdge(
            g.fresh_id(f"{vertex}.{e.id}"),
            ((rename[e.ends[0][0]], e.ends[0][1]),
             (rename[e.ends[1][0]], e.ends[1][1])),
            e.alphabet))
    for e in g.internal_edges:
        if vertex not in (e.ends[0][0], e.ends[1][0]):
            continue
        ends = tuple(new_end[mapping[axis]] if w == vertex else (w, axis)
                     for w, axis in e.ends)
        internal.append(InternalEdge(e.id, ends, e.alphabet))

    half = []
    for h in g.half_edges:
        if h.end[0] == vertex:
            half.append(HalfEdge(h.id, new_end[mapping[h.end[1]]],
                                 h.alphabet, h.var))
        else:
            half.append(h)
    return NfgGraph(vertices, internal, half)


# -- fast per-axis transforms ---------------------------------------------------


def _axis_component_view(values: np.ndarray, axis: int, sizes: Sequence[int]) -> np.ndarray:
    shape = list(values.shape)
    new_shape = shape[:axis] + list(sizes) + shape[axis + 1:]
    return values.reshape(new_shape)


def _running_sum(values: np.ndarray, axis: int, counter: Optional[OpCounter]) -> None:
    m = values.shape[axis]
    slab = int(values.size // m)
    idx: List[object] = [slice(None)] * values.ndim
    prev: List[object] = [slice(None)] * values.ndim
    for k in range(1, m):
        idx[axis] = k
        prev[axis] = k - 1
        values[tuple(idx)] += values[tuple(prev)]
        if counter is not None:
            counter.adds += slab


def _running_difference(values: np.ndarray, axis: int, counter: Optional[OpCounter]) -> None:
    m = values.shape[axis]
    slab = int(values.size // m)
    idx: List[object] = [slice(None)] * values.ndim
    prev: List[object] = [slice(None)] * values.ndim
    for k in range(m - 1, 0, -1):
        idx[axis] = k
        prev[axis] = k - 1
        values[tuple(idx)] -= values[tuple(prev)]
        if counter is not None:
            counter.adds += slab


def fast_axis_transform(f: Factor, kernel: str, axes: Sequence[str],
                        counter: Optional[OpCounter] = None) -> Factor:
    """Apply a named kernel along each listed axis in sequence.

    ``cumulus`` and ``difference`` run the in-place slice recurrences and cost
    |X_axis|-1 whole-slab additions per axis component; ``fourier`` and
    ``fourier_inv`` apply the dense character kernel.
    """
    if kernel not in ("cumulus", "difference", "fourier", "fourier_inv"):
        raise ValueError(f"unknown kernel {kernel!r}")
    values = np.array(f.values, dtype=np.complex128)
    for label in axes:
        ax = f.domain.axis_index(label)
        alpha = f.domain.axes[ax][1]
        if kernel in ("cumulus", "difference"):
            sizes = ordered_sizes(alpha)
            view = _axis_component_view(values, ax, sizes)
            for c in range(len(sizes)):
                comp_axis = ax + c
                if kernel == "cumulus":
                    _running_sum(view, comp_axis, counter)
                else:
                    _running_difference(view, comp_axis, counter)
            values = view.reshape(values.shape)
        else:
            if not isinstance(alpha, GroupAlphabet):
                raise ValueError(f"axis {label!r} is not group-valued")
            table = character_table(alpha) if kernel == "fourier" \
                else dual_kernel_table(alpha)
            values = np.moveaxis(
                np.tensordot(values, table, axes=([ax], [0])), -1, ax)
            if counter is not None:
                counter.mults += alpha.size * values.size
    return Factor(f.domain, values)
