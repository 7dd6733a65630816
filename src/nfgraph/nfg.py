"""The normal-factor-graph structure: validation, classification, separation.

Vertices carry factors; internal edges have two endpoints and half edges one.
An endpoint names the vertex and the factor axis it binds, so every axis of
every vertex factor is bound by exactly one incident edge.  Graphs are
immutable after validation; transformations return new graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import AnyAlphabet
from .factor import REL_TOL, Factor, conditional_constant, outer_univariate_profiles, split_decompose
from .indicators import identity_transformer

__all__ = [
    "InternalEdge",
    "HalfEdge",
    "NfgGraph",
    "ClassFlags",
    "classify",
    "separated",
    "wrap_half_edge_with_equality",
]

Endpoint = Tuple[str, str]  # (vertex id, axis label)


@dataclass(frozen=True)
class InternalEdge:
    id: str
    ends: Tuple[Endpoint, Endpoint]
    alphabet: AnyAlphabet

    @property
    def vertices(self) -> Tuple[str, str]:
        return (self.ends[0][0], self.ends[1][0])

    def is_loop(self) -> bool:
        return self.ends[0][0] == self.ends[1][0]

    def other_end(self, vertex: str) -> Endpoint:
        if self.ends[0][0] == vertex:
            return self.ends[1]
        if self.ends[1][0] == vertex:
            return self.ends[0]
        raise KeyError(f"edge {self.id!r} not incident on vertex {vertex!r}")


@dataclass(frozen=True)
class HalfEdge:
    id: str
    end: Endpoint
    alphabet: AnyAlphabet
    var: str


class NfgGraph:
    """A validated NFG.  Construction performs all structural checks."""

    __slots__ = ("vertices", "internal_edges", "half_edges", "_bound", "_internal_at",
                 "_half_at", "_internal_by_id", "_half_by_id", "_half_by_var")

    def __init__(self,
                 vertices: Mapping[str, Factor],
                 internal_edges: Sequence[InternalEdge] = (),
                 half_edges: Sequence[HalfEdge] = ()):
        verts = {str(k): v for k, v in vertices.items()}
        internal = tuple(internal_edges)
        half = tuple(half_edges)

        internal_by_id = {e.id: e for e in internal}
        half_by_id = {h.id: h for h in half}
        if len(internal_by_id.keys() | half_by_id.keys()) != len(internal) + len(half):
            edge_ids = [e.id for e in internal] + [h.id for h in half]
            dup = sorted({i for i in edge_ids if edge_ids.count(i) > 1})
            raise ValueError(f"duplicate edge id(s): {dup}")
        half_by_var = {h.var: h for h in half}
        if len(half_by_var) != len(half):
            ext = [h.var for h in half]
            dup = sorted({v for v in ext if ext.count(v) > 1})
            raise ValueError(f"duplicate external variable name(s): {dup}")

        # the incidence index: each endpoint's edge, and each vertex's incident
        # edges in declaration order (a loop listed once)
        bound: Dict[Endpoint, Union[InternalEdge, HalfEdge]] = {}
        internal_at: Dict[str, List[InternalEdge]] = {v: [] for v in verts}
        half_at: Dict[str, List[HalfEdge]] = {v: [] for v in verts}

        def bind(end: Endpoint, edge: Union[InternalEdge, HalfEdge]) -> None:
            v, axis = end
            if v not in verts:
                raise ValueError(f"edge {edge.id!r} references unknown vertex {v!r}")
            domain = verts[v].domain
            try:
                pos = domain.positions[axis]
            except (KeyError, TypeError):  # TypeError: an unhashable axis from a document
                raise ValueError(
                    f"edge {edge.id!r} binds unknown axis {axis!r} of vertex {v!r}") from None
            if end in bound:
                raise ValueError(f"axis {axis!r} of vertex {v!r} bound by both "
                                 f"{bound[end].id!r} and {edge.id!r}")
            alphabet = domain.axes[pos][1]
            if alphabet is not edge.alphabet and alphabet != edge.alphabet:
                raise ValueError(
                    f"edge {edge.id!r}: alphabet mismatch on axis {axis!r} of vertex {v!r}")
            bound[end] = edge

        for e in internal:
            if len(e.ends) != 2:
                raise ValueError(f"internal edge {e.id!r} must have exactly two endpoints")
            bind(e.ends[0], e)
            bind(e.ends[1], e)
            internal_at[e.ends[0][0]].append(e)
            if not e.is_loop():
                internal_at[e.ends[1][0]].append(e)
        for h in half:
            bind(h.end, h)
            half_at[h.end[0]].append(h)

        for v, factor in verts.items():
            for axis in factor.labels:
                if (v, axis) not in bound:
                    raise ValueError(f"axis {axis!r} of vertex {v!r} is not bound by any edge")

        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "internal_edges", internal)
        object.__setattr__(self, "half_edges", half)
        object.__setattr__(self, "_bound", bound)
        object.__setattr__(self, "_internal_at", internal_at)
        object.__setattr__(self, "_half_at", half_at)
        object.__setattr__(self, "_internal_by_id", internal_by_id)
        object.__setattr__(self, "_half_by_id", half_by_id)
        object.__setattr__(self, "_half_by_var", half_by_var)

    def __setattr__(self, name, value):
        raise AttributeError("NfgGraph is immutable")

    # -- accessors -----------------------------------------------------------

    @property
    def vertex_ids(self) -> Tuple[str, ...]:
        return tuple(self.vertices.keys())

    def factor(self, vertex: str) -> Factor:
        return self.vertices[vertex]

    def degree(self, vertex: str) -> int:
        return self.vertices[vertex].ndim

    def internal_edge(self, edge_id: str) -> InternalEdge:
        return _lookup(self._internal_by_id, edge_id, "internal edge")

    def half_edge(self, edge_id: str) -> HalfEdge:
        return _lookup(self._half_by_id, edge_id, "half edge")

    def half_edge_for_var(self, var: str) -> HalfEdge:
        return _lookup(self._half_by_var, var, "external variable")

    def edge_at(self, vertex: str, axis: str) -> Union[InternalEdge, HalfEdge]:
        """The edge (internal or half) that binds ``axis`` of ``vertex``."""
        return _lookup(self._bound, (vertex, axis), "endpoint")

    @property
    def external_vars(self) -> Tuple[str, ...]:
        return tuple(h.var for h in self.half_edges)

    def internal_at(self, vertex: str) -> List[InternalEdge]:
        return list(self._internal_at.get(vertex, ()))

    def half_at(self, vertex: str) -> List[HalfEdge]:
        return list(self._half_at.get(vertex, ()))

    def neighbors(self, vertex: str) -> List[str]:
        out = []
        for e in self._internal_at.get(vertex, ()):
            w = e.other_end(vertex)[0]
            if w != vertex and w not in out:
                out.append(w)
        return out

    def edges_between(self, u: str, v: str) -> List[InternalEdge]:
        return [e for e in self._internal_at.get(u, ())
                if {e.ends[0][0], e.ends[1][0]} == {u, v}]

    def fresh_id(self, prefix: str) -> str:
        name, k = prefix, 0
        while name in self.vertices or name in self._internal_by_id or name in self._half_by_id:
            k += 1
            name = f"{prefix}.{k}"
        return name

    def components(self) -> List[List[str]]:
        seen: set[str] = set()
        comps = []
        for start in self.vertex_ids:
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def find_cycle(self) -> Optional[List[str]]:
        """A vertex cycle if one exists (loops and parallel edges included)."""
        for e in self.internal_edges:
            if e.is_loop():
                return [e.ends[0][0]]
        seen_pairs: set[frozenset] = set()
        for e in self.internal_edges:
            pair = frozenset(e.vertices)
            if pair in seen_pairs:
                return sorted(pair)
            seen_pairs.add(pair)
        parent: Dict[str, Optional[str]] = {}
        for start in self.vertex_ids:
            if start in parent:
                continue
            parent[start] = None
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for e in self.internal_at(v):
                    w = e.other_end(v)[0]
                    if w not in parent:
                        parent[w] = v
                        queue.append(w)
                    elif parent[v] != w and parent[w] != v and w != v:
                        # walk both ancestries to the meeting point
                        path_v, path_w = [v], [w]
                        av, aw = v, w
                        while av is not None:
                            av = parent[av]
                            if av is not None:
                                path_v.append(av)
                        while aw is not None:
                            aw = parent[aw]
                            if aw is not None:
                                path_w.append(aw)
                        common = next(x for x in path_v if x in set(path_w))
                        cycle = path_v[:path_v.index(common) + 1]
                        cycle += list(reversed(path_w[:path_w.index(common)]))
                        return cycle
        return None


def _lookup(table: Mapping, key, what: str):
    try:
        return table[key]
    except KeyError:
        raise KeyError(f"unknown {what} {key!r}") from None


@dataclass(frozen=True)
class ClassFlags:
    simple: bool
    bipartite: bool
    nfg_model: bool
    constrained: bool
    generative: bool
    extended_generative: bool
    tree: bool
    interface_set: FrozenSet[str] = frozenset()
    latent_set: FrozenSet[str] = frozenset()
    bipartition: Optional[Tuple[FrozenSet[str], FrozenSet[str]]] = None
    conditional_constants: Dict[str, complex] = field(default_factory=dict)


def _two_coloring(g: NfgGraph) -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    color: Dict[str, int] = {}
    for start in g.vertex_ids:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in g.internal_at(v):
                if e.is_loop():
                    return None
                w = e.other_end(v)[0]
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    part0 = frozenset(v for v, c in color.items() if c == 0)
    part1 = frozenset(v for v, c in color.items() if c == 1)
    return part0, part1


def _tail_is_univariate_product(factor: Factor, pivot_axis: str, tol: float) -> bool:
    ax = factor.domain.axis_index(pivot_axis)
    summed = factor.values.sum(axis=ax)
    return outer_univariate_profiles(summed, tol=tol) is not None


def classify(g: NfgGraph, tol: float = REL_TOL) -> ClassFlags:
    """Structural and functional classification of a validated graph."""
    loops = any(e.is_loop() for e in g.internal_edges)
    pairs = [frozenset(e.vertices) for e in g.internal_edges if not e.is_loop()]
    parallel = len(pairs) != len(set(pairs))
    simple = not loops and not parallel

    bipartition = _two_coloring(g)
    bipartite = bipartition is not None

    half_counts = {v: len(g.half_at(v)) for v in g.vertex_ids}
    interface = frozenset(v for v, c in half_counts.items() if c >= 1)
    latent = frozenset(v for v, c in half_counts.items() if c == 0)
    # half edges on one independent set only, exactly one each: equivalently,
    # every internal edge must join a half-edged vertex to a bare one.
    nfg_model = (
        simple
        and bool(interface)
        and all(half_counts[v] == 1 for v in interface)
        and all((e.vertices[0] in interface) != (e.vertices[1] in interface)
                for e in g.internal_edges)
    )

    constrained = False
    generative = False
    extended = False
    constants: Dict[str, complex] = {}
    if nfg_model:
        constrained = True
        generative = True
        extended = True
        for v in sorted(interface):
            factor = g.factor(v)
            pivot = g.half_at(v)[0].end[1]
            if constrained and factor.ndim >= 2:
                if split_decompose(factor, pivot, tol=tol) is None:
                    constrained = False
            c = conditional_constant(factor, pivot, tol=tol)
            if c is None:
                generative = False
            else:
                constants[v] = c
            if extended and not _tail_is_univariate_product(factor, pivot, tol):
                extended = False
        if not generative:
            constants = {}

    tree = g.is_connected() and len(g.internal_edges) == len(g.vertices) - 1

    return ClassFlags(
        simple=simple,
        bipartite=bipartite,
        nfg_model=nfg_model,
        constrained=constrained,
        generative=generative,
        extended_generative=extended,
        tree=tree,
        interface_set=interface if nfg_model else frozenset(),
        latent_set=latent if nfg_model else frozenset(),
        bipartition=bipartition,
        conditional_constants=constants,
    )


def separated(g: NfgGraph, a: Iterable[str], b: Iterable[str], s: Iterable[str]) -> bool:
    """True iff removing S disconnects every A-to-B path in the underlying multigraph."""
    sa, sb, ss = set(a), set(b), set(s)
    if sa & sb or sa & ss or sb & ss:
        raise ValueError("A, B, S must be pairwise disjoint")
    for v in sa | sb | ss:
        if v not in g.vertices:
            raise KeyError(f"unknown vertex {v!r}")
    seen = set(sa)
    queue = deque(sa)
    while queue:
        v = queue.popleft()
        if v in sb:
            return False
        for w in g.neighbors(v):
            if w in ss or w in seen:
                continue
            seen.add(w)
            queue.append(w)
    return not (seen & sb)


def wrap_half_edge_with_equality(g: NfgGraph, var: str) -> NfgGraph:
    """Insert a bivariate equality into a half edge, moving it to a new vertex.

    Converts a stray half edge on a latent vertex into a regular edge plus a
    fresh interface vertex; the exterior function is unchanged.
    """
    h = g.half_edge_for_var(var)
    new_vertex = g.fresh_id(f"eq_{var}")
    new_edge = g.fresh_id(f"t_{var}")
    eq = identity_transformer(h.alphabet)
    vertices = dict(g.vertices)
    vertices[new_vertex] = eq
    internal = list(g.internal_edges)
    internal.append(InternalEdge(new_edge, (h.end, (new_vertex, "arg1")), h.alphabet))
    half = [x for x in g.half_edges if x.id != h.id]
    half.append(HalfEdge(h.id, (new_vertex, "arg2"), h.alphabet, var))
    return NfgGraph(vertices, internal, half)
