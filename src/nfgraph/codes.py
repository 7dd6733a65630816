"""Linear-code realizations over prime fields as NFG models.

Generator form: one sum-indicator interface per codeword coordinate, one
equality latent per message coordinate, an edge per nonzero coefficient.
Parity form: equality interfaces and parity-indicator latents.  Coefficients
outside {0, 1} are applied through interposed degree-2 multiply indicators so
interfaces stay pure sum/equality indicators.  A holographic transformation
with Fourier pairs exchanges the two forms between a code and its dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .algebra import GroupAlphabet, make_product_domain
from .factor import Factor
from .indicators import make_fourier_pair, make_indicator
from .nfg import HalfEdge, InternalEdge, NfgGraph
from .transform import HolographicSpec, holographic_transform

__all__ = [
    "LinearCodeSpec",
    "parse_code_text",
    "generator_realization",
    "parity_realization",
    "dual_via_fourier",
    "codewords",
    "weight_distribution",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class LinearCodeSpec:
    """A coefficient matrix over Z_p with code parameters (n, k).

    ``generator`` form holds an n x k matrix (codeword coordinate i depends on
    message coordinate j iff entry (i, j) is nonzero); ``parity`` form holds
    an (n-k) x n matrix of check rows.
    """

    p: int
    n: int
    k: int
    matrix: Tuple[Tuple[int, ...], ...]
    form: str = "generator"

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "matrix",
                           tuple(tuple(int(x) for x in row) for row in self.matrix))
        rows = len(self.matrix)
        cols = len(self.matrix[0]) if rows else 0
        if any(len(r) != cols for r in self.matrix):
            raise ValueError("ragged coefficient matrix")
        if self.form == "generator":
            if (rows, cols) != (self.n, self.k):
                raise ValueError(
                    f"generator matrix must be n x k = {self.n} x {self.k}, "
                    f"got {rows} x {cols}")
        elif self.form == "parity":
            if (rows, cols) != (self.n - self.k, self.n):
                raise ValueError(
                    f"parity matrix must be (n-k) x n = {self.n - self.k} x "
                    f"{self.n}, got {rows} x {cols}")
        else:
            raise ValueError(f"unknown form {self.form!r}")
        for row in self.matrix:
            for x in row:
                if not 0 <= x < self.p:
                    raise ValueError(f"entry {x} out of range for Z_{self.p}")


def parse_code_text(text: str, form: str = "generator") -> LinearCodeSpec:
    """Parse the plain-text matrix format: first line "p n k", then rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code description")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError('first line must be "p n k"')
    p, n, k = (int(x) for x in head)
    matrix = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
    return LinearCodeSpec(p=p, n=n, k=k, matrix=matrix, form=form)


def _multiply_indicator(alphabet: GroupAlphabet, a: int) -> Factor:
    """Degree-2 indicator [arg1 = a * arg2] over the prime field."""
    p = alphabet.size
    table = np.zeros((p, p))
    for x in range(p):
        table[(a * x) % p, x] = 1.0
    return Factor(make_product_domain([("arg1", alphabet), ("arg2", alphabet)]),
                  table, tag="scale")


def generator_realization(spec: LinearCodeSpec) -> NfgGraph:
    """Generative model realizing the code as the image of its message space."""
    if spec.form != "generator":
        raise ValueError("generator_realization needs a generator-form spec")
    z = GroupAlphabet((spec.p,))
    matrix = spec.matrix
    col_nnz = [sum(1 for i in range(spec.n) if matrix[i][j]) for j in range(spec.k)]
    for j, d in enumerate(col_nnz):
        if d == 0:
            raise ValueError(f"message coordinate {j} has a zero column")

    vertices: Dict[str, Factor] = {}
    internal: List[InternalEdge] = []
    half: List[HalfEdge] = []
    latent_slot = {j: 0 for j in range(spec.k)}
    for j, d in enumerate(col_nnz):
        vertices[f"x{j}"] = (make_indicator("eq", z, d) if d >= 2
                             else make_indicator("one", z, 1))
    for i in range(spec.n):
        nz = [j for j in range(spec.k) if matrix[i][j]]
        deg = 1 + len(nz)
        vertices[f"y{i}"] = (make_indicator("sum", z, deg) if deg >= 2
                             else make_indicator("one", z, 1))
        half.append(HalfEdge(f"h{i}", (f"y{i}", "arg1"), z, f"y{i}"))
        for slot, j in enumerate(nz):
            a = matrix[i][j]
            latent_axis = f"arg{latent_slot[j] + 1}"
            latent_slot[j] += 1
            iface_end = (f"y{i}", f"arg{slot + 2}")
            if a == 1:
                internal.append(InternalEdge(f"e{i}_{j}",
                                             (iface_end, (f"x{j}", latent_axis)), z))
            else:
                m = f"m{i}_{j}"
                vertices[m] = _multiply_indicator(z, a)
                internal.append(InternalEdge(f"e{i}_{j}a",
                                             (iface_end, (m, "arg1")), z))
                internal.append(InternalEdge(f"e{i}_{j}b",
                                             ((m, "arg2"), (f"x{j}", latent_axis)), z))
    return NfgGraph(vertices, internal, half)


def parity_realization(spec: LinearCodeSpec) -> NfgGraph:
    """Constrained model realizing the code as the kernel of its checks."""
    if spec.form != "parity":
        raise ValueError("parity_realization needs a parity-form spec")
    z = GroupAlphabet((spec.p,))
    matrix = spec.matrix
    n_checks = spec.n - spec.k
    row_nnz = [sum(1 for i in range(spec.n) if matrix[j][i]) for j in range(n_checks)]
    for j, d in enumerate(row_nnz):
        if d == 0:
            raise ValueError(f"check {j} is the all-zero row")

    vertices: Dict[str, Factor] = {}
    internal: List[InternalEdge] = []
    half: List[HalfEdge] = []
    check_slot = {j: 0 for j in range(n_checks)}
    for j, d in enumerate(row_nnz):
        vertices[f"c{j}"] = (make_indicator("parity", z, d) if d >= 2
                             else make_indicator("eval", z, 1, value=0))
    for i in range(spec.n):
        checks = [j for j in range(n_checks) if matrix[j][i]]
        deg = 1 + len(checks)
        vertices[f"y{i}"] = (make_indicator("eq", z, deg) if deg >= 2
                             else make_indicator("one", z, 1))
        half.append(HalfEdge(f"h{i}", (f"y{i}", "arg1"), z, f"y{i}"))
        for slot, j in enumerate(checks):
            a = matrix[j][i]
            check_axis = f"arg{check_slot[j] + 1}"
            check_slot[j] += 1
            iface_end = (f"y{i}", f"arg{slot + 2}")
            if a == 1:
                internal.append(InternalEdge(f"e{j}_{i}",
                                             ((f"c{j}", check_axis), iface_end), z))
            else:
                m = f"m{j}_{i}"
                vertices[m] = _multiply_indicator(z, a)
                internal.append(InternalEdge(f"e{j}_{i}a",
                                             ((f"c{j}", check_axis), (m, "arg1")), z))
                internal.append(InternalEdge(f"e{j}_{i}b",
                                             ((m, "arg2"), iface_end), z))
    return NfgGraph(vertices, internal, half)


def dual_via_fourier(g: NfgGraph, tol: float = 1e-9) -> NfgGraph:
    """Fourier holographic transformation exchanging generator and parity forms.

    Inserts the kernel pair on every internal edge (forward kernel facing the
    latent side) and the plain kernel on every half edge; the output exterior
    is proportional to the membership function of the dual code.  Edges over
    one alphabet share one kernel and one pair.
    """
    for e in g.internal_edges:
        if not isinstance(e.alphabet, GroupAlphabet):
            raise ValueError(f"edge {e.id!r} is not group-valued")
    for h in g.half_edges:
        if not isinstance(h.alphabet, GroupAlphabet):
            raise ValueError(f"half edge {h.var!r} is not group-valued")
    interfaces = {h.end[0] for h in g.half_edges}
    if any(len(g.half_at(v)) > 1 for v in interfaces):
        raise ValueError("dual transformation needs one half edge per interface")

    kernels = {a: make_indicator("fourier", a, 2)
               for a in dict.fromkeys(h.alphabet for h in g.half_edges)}
    pairs = {a: make_fourier_pair(a) for a in dict.fromkeys(e.alphabet for e in g.internal_edges)}
    external = {h.var: kernels[h.alphabet] for h in g.half_edges}
    internal = {}
    for e in g.internal_edges:
        away = [v for v in e.vertices if v not in interfaces]
        if not away:
            raise ValueError(f"edge {e.id!r} joins two interface vertices")
        # the forward kernel faces away from the interfaces, preferring the
        # core indicator over a coefficient interposer
        core = [v for v in away if g.factor(v).tag != "scale"]
        internal[e.id] = (pairs[e.alphabet], sorted(core)[0] if core else sorted(away)[0])
    return holographic_transform(g, HolographicSpec(external=external,
                                                    internal=internal), tol=tol)


def codewords(g: NfgGraph, tol: float = 1e-9) -> Tuple[Set[Tuple[int, ...]], float]:
    """Support of the exterior function plus the common scale.

    Verifies the exterior is finite and two-valued (each entry either ~0 or
    ~scale); raises otherwise.
    """
    from .exterior import eliminate

    z = eliminate(g).result
    flat = z.values.reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        k = int(np.argmin(finite))
        where = tuple(int(c) for c in np.unravel_index(k, z.values.shape))
        raise ValueError(f"exterior entry {where} is not finite ({flat[k]:.6g})")
    mag = np.abs(flat)
    peak = float(np.max(mag))
    if peak == 0.0:
        return set(), 0.0
    ref = flat[int(np.argmax(mag))]
    kept = mag > tol * peak
    idx = np.flatnonzero(kept)
    off = idx[np.abs(flat[idx] - ref) > tol * peak]
    if off.size:
        val = flat[off[0]]
        raise ValueError(
            "exterior is not proportional to a 0/1 indicator "
            f"(entry {val:.6g} vs scale {ref:.6g})")
    support = set(map(tuple, np.argwhere(kept.reshape(z.values.shape)).tolist()))
    if abs(ref.imag) > tol * abs(ref):
        raise ValueError(f"indicator scale {ref:.6g} is not real")
    return support, float(ref.real)


def weight_distribution(words: Set[Tuple[int, ...]], n: int) -> Tuple[int, ...]:
    """Counts of codewords by Hamming weight, indices 0..n."""
    out = [0] * (n + 1)
    for w in words:
        out[sum(1 for x in w if x != 0)] += 1
    return tuple(out)
