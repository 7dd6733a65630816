"""Model descriptions and conversions: FG, CFG, CDN, sampling, independence.

Factor graphs multiply their local functions; convolutional factor graphs
convolve them; cumulative distribution networks are factor graphs whose local
functions satisfy the CDF axioms.  Each converts to or from an NFG model with
the matching interface kind (equality, sum, max-plus-cumulus).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    AnyAlphabet,
    GroupAlphabet,
    group_tables,
    make_product_domain,
    ordered_sizes,
)
from .factor import (
    REL_TOL,
    Factor,
    _check_size,
    contract,
    multiply_pointwise,
    split_decompose,
)
from .indicators import make_indicator
from .nfg import ClassFlags, HalfEdge, InternalEdge, NfgGraph, classify, separated
from .transform import fast_axis_transform

__all__ = [
    "FactorGraphDesc",
    "CfgDesc",
    "CdnDesc",
    "IndependenceVerdict",
    "SampleResult",
    "fg_to_nfg",
    "nfg_to_fg",
    "fg_global_function",
    "normalize_constrained",
    "cfg_to_nfg",
    "nfg_to_cfg",
    "cfg_global_function",
    "convolve",
    "check_cdf_axioms",
    "to_cdn",
    "sample_many",
    "independence",
]


@dataclass(frozen=True)
class FactorGraphDesc:
    """Bipartite variable/function description with multiplicative semantics."""

    variables: Tuple[Tuple[str, AnyAlphabet], ...]
    functions: Tuple[Tuple[str, Factor, Tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables",
                           tuple((str(n), a) for n, a in self.variables))
        object.__setattr__(self, "functions",
                           tuple((str(n), f, tuple(ne)) for n, f, ne in self.functions))
        var_names = [n for n, _ in self.variables]
        if len(set(var_names)) != len(var_names):
            raise ValueError("duplicate variable names")
        fun_names = [n for n, _, _ in self.functions]
        if len(set(fun_names)) != len(fun_names):
            raise ValueError("duplicate function names")
        if set(var_names) & set(fun_names):
            raise ValueError("variable and function names must be disjoint")
        alpha = dict(self.variables)
        for name, factor, neighbors in self.functions:
            if factor.ndim != len(neighbors):
                raise ValueError(
                    f"function {name!r} has {factor.ndim} axes for "
                    f"{len(neighbors)} neighbors")
            if len(set(neighbors)) != len(neighbors):
                raise ValueError(f"function {name!r} repeats a neighbor")
            for axis, var in zip(factor.domain.axes, neighbors):
                if var not in alpha:
                    raise ValueError(f"function {name!r} references unknown {var!r}")
                if axis[1] != alpha[var]:
                    raise ValueError(
                        f"function {name!r}: axis for {var!r} has the wrong alphabet")

    def occurrences(self, var: str) -> List[Tuple[str, int]]:
        out = []
        for name, _, neighbors in self.functions:
            for pos, v in enumerate(neighbors):
                if v == var:
                    out.append((name, pos))
        return out


@dataclass(frozen=True)
class CfgDesc(FactorGraphDesc):
    """Same shape as a factor graph, over groups, with convolutional semantics."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, alpha in self.variables:
            if not isinstance(alpha, GroupAlphabet):
                raise ValueError(f"CFG variable {name!r} needs a group alphabet")


@dataclass(frozen=True)
class CdnDesc(FactorGraphDesc):
    """A factor graph whose local functions satisfy the CDF axioms."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, alpha in self.variables:
            ordered_sizes(alpha)
        for name, factor, _ in self.functions:
            bad = check_cdf_axioms(factor)
            if bad:
                raise ValueError(f"function {name!r} violates CDF axioms: {bad}")


def fg_global_function(desc: FactorGraphDesc) -> Factor:
    """The product of all local functions, over every declared variable."""
    out: Optional[Factor] = None
    for name, factor, neighbors in desc.functions:
        renamed = factor.relabel(dict(zip(factor.labels, neighbors)))
        out = renamed if out is None else multiply_pointwise(out, renamed)
    for var, alpha in desc.variables:
        if out is None or var not in out.labels:
            ones = Factor(make_product_domain([(var, alpha)]), np.ones(alpha.size))
            out = ones if out is None else multiply_pointwise(out, ones)
    return out.transpose([v for v, _ in desc.variables])


def fg_to_nfg(desc: FactorGraphDesc) -> NfgGraph:
    """Build the constrained model with equality interface vertices."""
    vertices: Dict[str, Factor] = {}
    internal: List[InternalEdge] = []
    half: List[HalfEdge] = []
    fun_axis = {name: f.labels for name, f, _ in desc.functions}
    for var, alpha in desc.variables:
        occ = desc.occurrences(var)
        if occ:
            vertices[var] = make_indicator("eq", alpha, len(occ) + 1)
        else:
            vertices[var] = make_indicator("one", alpha, 1)
        half.append(HalfEdge(f"h_{var}", (var, "arg1"), alpha, var))
        for k, (fname, pos) in enumerate(occ):
            internal.append(InternalEdge(
                f"{fname}.{pos}",
                ((var, f"arg{k + 2}"), (fname, fun_axis[fname][pos])),
                alpha))
    for fname, factor, neighbors in desc.functions:
        vertices[fname] = factor
    return NfgGraph(vertices, internal, half)


def nfg_to_fg(g: NfgGraph, tol: float = REL_TOL) -> FactorGraphDesc:
    """Replace each equality interface vertex by a variable (the inverse bridge)."""
    flags = classify(g, tol=tol)
    if not flags.constrained:
        raise ValueError("conversion to an FG needs a constrained model")
    var_of_vertex: Dict[str, str] = {}
    variables = []
    for h in g.half_edges:
        i = h.end[0]
        f = g.factor(i)
        if f.ndim >= 2:
            eq = make_indicator("eq", h.alphabet, f.ndim)
            if not np.allclose(f.values, eq.values, atol=tol):
                raise ValueError(
                    f"interface {i!r} is not an equality indicator; "
                    "normalize the model first")
        else:
            if not np.allclose(f.values, np.ones(h.alphabet.size), atol=tol):
                raise ValueError(f"interface {i!r} is not an equality indicator")
        var_of_vertex[i] = h.var
        variables.append((h.var, h.alphabet))
    functions = [(j, g.factor(j), _neighbor_vars(g, j, var_of_vertex))
                 for j in sorted(flags.latent_set)]
    return FactorGraphDesc(tuple(variables), tuple(functions))


def _neighbor_vars(g: NfgGraph, j: str, var_of_vertex: Dict[str, str]) -> Tuple[str, ...]:
    """Per axis of latent ``j``, the variable of the interface across its edge."""
    return tuple(var_of_vertex[g.edge_at(j, axis).other_end(j)[0]]
                 for axis in g.factor(j).labels)


def normalize_constrained(g: NfgGraph, tol: float = REL_TOL) -> NfgGraph:
    """Turn every split interface into an equality indicator (same graph).

    Each latent absorbs the bivariate split pieces of its neighboring
    interfaces; the exterior function is unchanged.
    """
    flags = classify(g, tol=tol)
    if not flags.constrained:
        raise ValueError("normalize_constrained needs a constrained model")

    vertices = dict(g.vertices)
    absorb: Dict[str, List[Factor]] = {j: [] for j in flags.latent_set}

    for i in sorted(flags.interface_set):
        f = g.factor(i)
        h = g.half_at(i)[0]
        pivot = h.end[1]
        if f.ndim == 1:
            if not np.allclose(f.values, np.ones(f.domain.size), atol=tol):
                raise ValueError(
                    f"interface {i!r} has no internal edges to absorb its values")
            continue
        parts = split_decompose(f, pivot, tol=tol)
        tail_axes = [l for l in f.labels if l != pivot]
        eq = make_indicator("eq", h.alphabet, f.ndim)
        relabel = {"arg1": pivot}
        relabel.update({f"arg{k + 2}": ax for k, ax in enumerate(tail_axes)})
        vertices[i] = eq.relabel(relabel)
        for part, axis in zip(parts, tail_axes):
            e = g.edge_at(i, axis)
            j, j_axis = e.other_end(i)
            # part(pivot, tail): the pivot side becomes the latent's new axis
            absorb[j].append(part.relabel({pivot: f"{e.id}__new", axis: e.id}))

    internal = list(g.internal_edges)
    for j, pieces in absorb.items():
        if not pieces:
            continue
        f = g.factor(j)
        mapping = {axis: g.edge_at(j, axis).id for axis in f.labels}
        new = contract([f.relabel(mapping)] + pieces)
        new = new.relabel({l: l.replace("__new", "") for l in new.labels})
        vertices[j] = new
        internal = [
            InternalEdge(e.id,
                         tuple((w, e.id) if w == j else (w, ax) for w, ax in e.ends),
                         e.alphabet) if j in (e.ends[0][0], e.ends[1][0]) else e
            for e in internal
        ]
    return NfgGraph(vertices, internal, g.half_edges)


# -- convolutional factor graphs -------------------------------------------------


def convolve(a: Factor, b: Factor) -> Factor:
    """Convolution over the shared (group-valued) axes, direct definition.

    An output of more than ``STATE_CAP`` entries raises
    :class:`~nfgraph.factor.TableSizeError` before it is allocated.
    """
    shared = [l for l in a.labels if l in b.labels]
    for l in shared:
        if a.alphabet(l) != b.alphabet(l):
            raise ValueError(f"alphabet mismatch on {l!r}")
        if not isinstance(a.alphabet(l), GroupAlphabet):
            raise ValueError(f"shared variable {l!r} is not group-valued")
    a_only = [l for l in a.labels if l not in shared]
    b_only = [l for l in b.labels if l not in shared]
    out_labels = a_only + shared + b_only
    alpha = {l: al for l, al in list(a.domain.axes) + list(b.domain.axes)}
    dom = make_product_domain([(l, alpha[l]) for l in out_labels])
    _check_size(dom.size)
    if not shared:
        return multiply_pointwise(a, b)
    out = np.zeros(dom.shape, dtype=np.complex128)

    a_t = a.transpose(a_only + shared)
    b_t = b.transpose(shared + b_only)
    tables = [group_tables(alpha[l]) for l in shared]
    lead = (slice(None),) * len(a_only)
    # out[.., x, ..] += a[.., x - y] * b[y, ..] for every x at once; the y
    # loop keeps the order in which each entry sums its terms
    for ys in itertools.product(*(range(alpha[l].size) for l in shared)):
        diff = np.ix_(*[add[:, neg[y]] for (add, neg), y in zip(tables, ys)])
        out += np.multiply.outer(a_t.values[lead + diff], b_t.values[ys])
    return Factor(dom, out)


def cfg_global_function(desc: CfgDesc) -> Factor:
    """The convolution of all local functions, by the direct definition."""
    out: Optional[Factor] = None
    for name, factor, neighbors in desc.functions:
        renamed = factor.relabel(dict(zip(factor.labels, neighbors)))
        out = renamed if out is None else convolve(out, renamed)
    for var, alpha in desc.variables:
        if out is None or var not in out.labels:
            # the convolutional identity is evaluation at the group identity
            ident = np.zeros(alpha.size)
            ident[0] = 1.0
            unit = Factor(make_product_domain([(var, alpha)]), ident)
            out = unit if out is None else convolve(out, unit)
    return out.transpose([v for v, _ in desc.variables])


def cfg_to_nfg(desc: CfgDesc) -> NfgGraph:
    """Build the generative model with sum-indicator interfaces."""
    vertices: Dict[str, Factor] = {}
    internal: List[InternalEdge] = []
    half: List[HalfEdge] = []
    fun_axis = {name: f.labels for name, f, _ in desc.functions}
    for var, alpha in desc.variables:
        occ = desc.occurrences(var)
        if occ:
            vertices[var] = make_indicator("sum", alpha, len(occ) + 1)
        else:
            vertices[var] = make_indicator("eval", alpha, 1, value=0)
        half.append(HalfEdge(f"h_{var}", (var, "arg1"), alpha, var))
        for k, (fname, pos) in enumerate(occ):
            internal.append(InternalEdge(
                f"{fname}.{pos}",
                ((var, f"arg{k + 2}"), (fname, fun_axis[fname][pos])),
                alpha))
    for fname, factor, neighbors in desc.functions:
        vertices[fname] = factor
    return NfgGraph(vertices, internal, half)


def nfg_to_cfg(g: NfgGraph, tol: float = REL_TOL) -> CfgDesc:
    """Replace each sum-indicator interface vertex by a variable."""
    flags = classify(g, tol=tol)
    if not flags.generative:
        raise ValueError("conversion to a CFG needs a generative model")
    var_of_vertex: Dict[str, str] = {}
    variables = []
    for h in g.half_edges:
        i = h.end[0]
        f = g.factor(i)
        if not isinstance(h.alphabet, GroupAlphabet):
            raise ValueError(f"interface {i!r} is not group-valued")
        if f.ndim >= 2:
            pivot = h.end[1]
            ref = make_indicator("sum", h.alphabet, f.ndim)
            lead = [pivot] + [l for l in f.labels if l != pivot]
            if not np.allclose(f.transpose(lead).values, ref.values, atol=tol):
                raise ValueError(f"interface {i!r} is not a sum indicator")
        else:
            ref = make_indicator("eval", h.alphabet, 1, value=0)
            if not np.allclose(f.values, ref.values, atol=tol):
                raise ValueError(f"interface {i!r} is not a sum indicator")
        var_of_vertex[i] = h.var
        variables.append((h.var, h.alphabet))
    functions = [(j, g.factor(j), _neighbor_vars(g, j, var_of_vertex))
                 for j in sorted(flags.latent_set)]
    return CfgDesc(tuple(variables), tuple(functions))


# -- cumulative distribution networks --------------------------------------------


def check_cdf_axioms(f: Factor, tol: float = 1e-9) -> List[str]:
    """Violations of: nonnegative, axiswise nondecreasing, one at the top corner."""
    problems = []
    vals = f.values
    if np.max(np.abs(vals.imag)) > tol:
        problems.append("complex values")
    real = vals.real
    if np.min(real) < -tol:
        problems.append("negative values")
    for ax in range(f.ndim):
        diffs = np.diff(real, axis=ax)
        if diffs.size and np.min(diffs) < -tol:
            problems.append(f"not nondecreasing along {f.labels[ax]!r}")
    top = real[tuple(s - 1 for s in f.domain.shape)]
    if abs(top - 1.0) > tol:
        problems.append(f"top corner is {top:.6g}, not 1")
    return problems


def to_cdn(g: NfgGraph, tol: float = REL_TOL) -> CdnDesc:
    """Convert a cumulus-transformed max-interface model into a CDN.

    Expects explicit cumulus transformer vertices on every half edge, max
    indicator interfaces behind them, and probability-distribution latents.
    """
    problems: List[str] = []
    var_of_interface: Dict[str, str] = {}
    transformer_of: Dict[str, str] = {}
    variables = []
    for h in g.half_edges:
        t = h.end[0]
        tf = g.factor(t)
        if tf.ndim != 2:
            problems.append(f"half edge {h.var!r} does not attach to a bivariate transformer")
            continue
        try:
            sizes = ordered_sizes(h.alphabet)
        except TypeError:
            problems.append(f"variable {h.var!r} is not ordered")
            continue
        ref = make_indicator("cumulus", h.alphabet, 2)
        inner_axis = next(l for l in tf.labels if l != h.end[1])
        # the dotted first argument of the cumulus faces the external variable
        oriented = tf.transpose([h.end[1], inner_axis])
        if not np.allclose(oriented.values, ref.values, atol=tol):
            problems.append(f"transformer on {h.var!r} is not the cumulus kernel")
            continue
        inner_edges = g.internal_at(t)
        if len(inner_edges) != 1:
            problems.append(f"transformer on {h.var!r} must have exactly one inner edge")
            continue
        i, i_axis = inner_edges[0].other_end(t)
        fi = g.factor(i)
        ref_max = make_indicator("max", h.alphabet, fi.ndim)
        lead = [i_axis] + [l for l in fi.labels if l != i_axis]
        if fi.ndim < 2 or not np.allclose(fi.transpose(lead).values,
                                          ref_max.values, atol=tol):
            problems.append(f"interface {i!r} is not a max indicator")
            continue
        var_of_interface[i] = h.var
        transformer_of[i] = t
        variables.append((h.var, h.alphabet))

    latents = [v for v in g.vertex_ids
               if v not in var_of_interface and v not in transformer_of.values()]
    functions = []
    for j in sorted(latents):
        f = g.factor(j)
        total = complex(f.values.sum())
        if np.max(np.abs(f.values.imag)) > tol or np.min(f.values.real) < -tol:
            problems.append(f"latent {j!r} is not a probability distribution")
        elif abs(total - 1.0) > 1e-6:
            problems.append(f"latent {j!r} does not sum to 1 (sum {total.real:.6g})")
    if problems:
        raise ValueError("not a CDN-convertible model: " + "; ".join(problems))

    for j in sorted(latents):
        f = g.factor(j)
        cdf = fast_axis_transform(Factor(f.domain, f.values.real), "cumulus",
                                  list(f.labels))
        bad = check_cdf_axioms(cdf)
        if bad:
            raise ValueError(f"cumulus transform of latent {j!r} failed axioms: {bad}")
        functions.append((j, cdf, _neighbor_vars(g, j, var_of_interface)))
    return CdnDesc(tuple(variables), tuple(functions))


# -- sampling ----------------------------------------------------------------------


@dataclass
class SampleResult:
    variables: Tuple[str, ...]
    assignments: np.ndarray  # shape (n, len(variables)), integer symbols
    draws: int
    accepted: int
    rejected: int
    scale: float
    expected_acceptance: Optional[float] = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.draws if self.draws else float("nan")


def _require_real_nonneg(f: Factor, where: str) -> np.ndarray:
    if np.max(np.abs(f.values.imag)) > 1e-12:
        raise ValueError(f"{where} has complex values")
    real = f.values.real
    if np.min(real) < 0:
        raise ValueError(f"{where} has negative values")
    return real


def _categorical(rng, pdf: np.ndarray, n: int) -> np.ndarray:
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.intp)


def _row_categorical(rng, rows: np.ndarray) -> np.ndarray:
    """One draw per row of a (n, m) matrix of unnormalized pdfs."""
    cdf = np.cumsum(rows, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(rows.shape[0])
    return (cdf < u[:, None]).sum(axis=1).astype(np.intp)


def sample_many(g: NfgGraph, n: int, seed: Optional[int] = None,
                max_rejects: int = 1_000_000,
                rng: Optional[np.random.Generator] = None,
                tol: float = REL_TOL) -> SampleResult:
    """Draw ``n`` external assignments from the normalized exterior function.

    Constrained models use interface-driven proposals with rejection against
    the latent product; generative models sample ancestrally.  Deterministic
    given the seed.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    flags = classify(g, tol=tol)
    if flags.constrained:
        return _sample_constrained(g, flags, n, rng, max_rejects)
    if flags.generative:
        return _sample_generative(g, flags, n, rng)
    raise ValueError("sampling needs a constrained or generative model")


def _on_edge_grid(g: NfgGraph, v: str, values: np.ndarray, labels: Sequence[str],
                  edge_index: Dict[str, int], shape: Tuple[int, ...]) -> np.ndarray:
    """A table over axes ``labels`` of vertex ``v``, laid out to broadcast
    against the grid indexed by internal edges (``edge_index``, ``shape``)."""
    pos = [edge_index[g.edge_at(v, axis).id] for axis in labels]
    full = [1] * len(shape)
    for p in pos:
        full[p] = shape[p]
    return values.transpose(tuple(np.argsort(pos, kind="stable"))).reshape(full)


def _internal_product_table(g: NfgGraph, vertex_ids, edge_index: Dict[str, int],
                            shape: Tuple[int, ...]) -> np.ndarray:
    table = np.ones(shape)
    for v in vertex_ids:
        f = g.factor(v)
        real = _require_real_nonneg(f, f"latent {v!r}")
        table = table * _on_edge_grid(g, v, real, f.labels, edge_index, shape)
    return table


def _sample_constrained(g: NfgGraph, flags: ClassFlags, n: int,
                        rng: np.random.Generator, max_rejects: int) -> SampleResult:
    interfaces = sorted(flags.interface_set)
    edge_ids = [e.id for e in g.internal_edges]
    edge_index = {eid: k for k, eid in enumerate(edge_ids)}
    shape = tuple(e.alphabet.size for e in g.internal_edges)
    if math.prod(shape) > 2 ** 24:
        raise ValueError("internal state space too large for the exact rejection bound")

    h_table = _internal_product_table(g, sorted(flags.latent_set), edge_index, shape)
    h_max = float(h_table.max())
    if h_max <= 0:
        raise ValueError("latent product has empty support")
    h_flat = (h_table / h_max).reshape(-1)
    strides = np.ones(len(shape), dtype=np.intp)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]

    priors: Dict[str, np.ndarray] = {}
    cond: Dict[str, List[Tuple[str, np.ndarray]]] = {}
    z_i: Dict[str, float] = {}
    for i in interfaces:
        f = g.factor(i)
        real = _require_real_nonneg(f, f"interface {i!r}")
        pivot = g.half_at(i)[0].end[1]
        lead = [pivot] + [l for l in f.labels if l != pivot]
        arranged = f.transpose(lead).values.real
        marg = arranged.reshape(arranged.shape[0], -1).sum(axis=1)
        if np.min(marg) <= 0:
            raise ValueError(f"interface {i!r} gives some value zero prior mass")
        z_i[i] = float(marg.sum())
        priors[i] = marg / marg.sum()
        pieces = []
        if f.ndim >= 2:
            parts = split_decompose(f, pivot)
            if parts is None:
                raise ValueError(f"interface {i!r} is not split via its variable")
            for part, axis in zip(parts, [l for l in f.labels if l != pivot]):
                table = np.abs(part.values)
                # split pieces are determined up to per-value scale; conditional
                # draws only need the normalized magnitude profile
                if np.max(np.abs(part.values.imag)) > 1e-9:
                    raise ValueError(f"interface {i!r} has complex split pieces")
                if np.min(table.sum(axis=1)) <= 0:
                    raise ValueError(
                        f"interface {i!r}: a conditional row has empty support")
                pieces.append((g.edge_at(i, axis).id, table))
        cond[i] = pieces

    # exact expected acceptance: sum of the exterior over everything, times
    # the normalizer, divided by the proposal mass
    g_slab = np.ones(shape)
    for i in interfaces:
        f = g.factor(i)
        pivot = g.half_at(i)[0].end[1]
        summed = f.values.sum(axis=f.domain.axis_index(pivot)).real
        tail = [l for l in f.labels if l != pivot]
        g_slab = g_slab * _on_edge_grid(g, i, summed, tail, edge_index, shape)
    exterior_mass = float((g_slab * h_table).sum())
    proposal_mass = math.prod(z_i.values())
    expected_acceptance = exterior_mass / (h_max * proposal_mass)

    variables = tuple(g.half_at(i)[0].var for i in interfaces)
    out = np.empty((n, len(interfaces)), dtype=np.intp)
    accepted = 0
    draws = 0
    budget = n + max_rejects
    while accepted < n:
        batch = min(max(n - accepted, 64), budget - draws)
        if batch <= 0:
            raise RuntimeError(
                f"rejection budget exhausted: {draws} draws for {accepted} accepts")
        draws += batch
        xs = np.empty((batch, len(interfaces)), dtype=np.intp)
        flat = np.zeros(batch, dtype=np.intp)
        for k, i in enumerate(interfaces):
            xs[:, k] = _categorical(rng, priors[i], batch)
            for eid, table in cond[i]:
                vals = _row_categorical(rng, table[xs[:, k]])
                flat += strides[edge_index[eid]] * vals
        acc_prob = h_flat[flat] if len(shape) else np.ones(batch)
        keep = rng.random(batch) < acc_prob
        k_new = min(int(keep.sum()), n - accepted)
        out[accepted:accepted + k_new] = xs[keep][:k_new]
        accepted += k_new
    return SampleResult(variables=variables, assignments=out, draws=draws,
                        accepted=accepted, rejected=draws - accepted,
                        scale=1.0, expected_acceptance=expected_acceptance)


def _sample_generative(g: NfgGraph, flags: ClassFlags, n: int,
                       rng: np.random.Generator) -> SampleResult:
    interfaces = sorted(flags.interface_set)
    edge_vals: Dict[str, np.ndarray] = {}
    scale = 1.0
    for j in sorted(flags.latent_set):
        f = g.factor(j)
        real = _require_real_nonneg(f, f"latent {j!r}")
        total = float(real.sum())
        if total <= 0:
            raise ValueError(f"latent {j!r} has empty support")
        scale *= total
        flat = _categorical(rng, real.reshape(-1) / total, n)
        coords = np.unravel_index(flat, real.shape)
        for axis, col in zip(f.labels, coords):
            edge_vals[g.edge_at(j, axis).id] = col.astype(np.intp)

    variables = []
    out = np.empty((n, len(interfaces)), dtype=np.intp)
    for k, i in enumerate(interfaces):
        f = g.factor(i)
        real = _require_real_nonneg(f, f"interface {i!r}")
        c = flags.conditional_constants[i]
        if abs(c.imag) > 1e-12 or c.real <= 0:
            raise ValueError(f"interface {i!r} has a non-positive conditional constant")
        scale *= c.real
        pivot = g.half_at(i)[0].end[1]
        lead = [pivot] + [l for l in f.labels if l != pivot]
        arranged = f.transpose(lead).values.real
        tails = [edge_vals[g.edge_at(i, axis).id] for axis in lead[1:]]
        if tails:
            rows = arranged[(slice(None),) + tuple(tails)].T
        else:
            rows = np.broadcast_to(arranged, (n, arranged.shape[0]))
        out[:, k] = _row_categorical(rng, np.ascontiguousarray(rows))
        variables.append(g.half_at(i)[0].var)
    return SampleResult(variables=tuple(variables), assignments=out, draws=n,
                        accepted=n, rejected=0, scale=scale,
                        expected_acceptance=1.0)


# -- independence -----------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceVerdict:
    kind: str  # "conditional" | "marginal" | "unknown"
    witness: Tuple[str, ...] = ()


def independence(g: NfgGraph, a: Sequence[str], b: Sequence[str],
                 s: Sequence[str] = (), tol: float = REL_TOL) -> IndependenceVerdict:
    """Separation-based verdict; never claims the converse.

    A, B, S name external variables.  Separation plus a constrained model
    yields conditional independence given S; separation plus a generative
    model (or an extended generative model with empty S) yields marginal
    independence.  Anything else is "unknown".
    """
    flags = classify(g, tol=tol)
    if not flags.nfg_model:
        raise ValueError("independence queries need an NFG model")
    vertex_of = {h.var: h.end[0] for h in g.half_edges}
    for name in list(a) + list(b) + list(s):
        if name not in vertex_of:
            raise KeyError(f"unknown external variable {name!r}")
    va = {vertex_of[x] for x in a}
    vb = {vertex_of[x] for x in b}
    vs = {vertex_of[x] for x in s}
    if not separated(g, va, vb, vs):
        return IndependenceVerdict("unknown")
    if flags.constrained:
        return IndependenceVerdict("conditional", witness=tuple(sorted(s)))
    if flags.generative:
        return IndependenceVerdict("marginal")
    if flags.extended_generative and not s:
        return IndependenceVerdict("marginal")
    return IndependenceVerdict("unknown")
