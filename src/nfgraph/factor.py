"""Dense complex-valued functions on product domains and their sum-of-products form.

A ``Factor`` couples a :class:`~nfgraph.algebra.ProductDomain` with a dense
complex table.  ``contract`` implements the sum-of-products form with edge
semantics: a label shared by two inputs is summed over, a label appearing once
survives, and three or more occurrences are an error.  Ordering and bracketing
of the inputs never change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import AnyAlphabet, ProductDomain, make_product_domain

__all__ = [
    "Factor",
    "OpCounter",
    "REL_TOL",
    "STATE_CAP",
    "TableSizeError",
    "contract",
    "marginalize",
    "multiply_pointwise",
    "split_decompose",
    "conditional_constant",
    "outer_univariate_profiles",
    "factors_allclose",
]

# Default relative tolerance for equality checks, against the max-magnitude entry.
REL_TOL = 1e-9

STATE_CAP = 2 ** 24

# indicator kinds whose table is symmetric in all its axes, and those
# symmetric in all axes but the first (the head, ``arg1``)
_SYMMETRIC_TAGS = frozenset({"eq", "parity", "fourier", "fourier_inv"})
_HEADED_TAGS = frozenset({"sum", "max"})


class TableSizeError(ValueError):
    """A table (or enumerated state space) would have more than ``cap`` entries."""

    def __init__(self, states: int, cap: int):
        super().__init__(f"state space of size {states} exceeds the cap {cap}")
        self.states = states
        self.cap = cap


def _check_size(states: int, cap: int = STATE_CAP) -> None:
    if states > cap:
        raise TableSizeError(states, cap)


@dataclass
class OpCounter:
    """Multiply/add counters threaded through the evaluation engines."""

    mults: int = 0
    adds: int = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds


class Factor:
    """A dense complex table over a product domain with named axes.

    Values are stored row-major (last axis fastest) and are immutable after
    construction; an indicator's table may instead be built on its first read
    (``_DeferredFactor``).  Relabeling axes never changes values.  ``tag``
    optionally records the indicator kind a factor was built as, which the
    evaluation engines may use for low-complexity shortcuts.
    """

    __slots__ = ("domain", "values", "tag", "_build")

    def __init__(self, domain: ProductDomain, values: np.ndarray | Sequence, tag: str | None = None):
        arr = np.asarray(values, dtype=np.complex128)
        if arr.size != domain.size:
            raise ValueError(f"values have {arr.size} entries, domain has {domain.size}")
        arr = arr.reshape(domain.shape)
        arr.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("Factor is immutable")

    # -- structural helpers -------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.domain.labels

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    def alphabet(self, label: str) -> AnyAlphabet:
        return self.domain.alphabet(label)

    def relabel(self, mapping: dict[str, str]) -> "Factor":
        """Rename axes; values are untouched.  Renaming nothing returns ``self``."""
        axes = tuple((mapping.get(l, l), a) for l, a in self.domain.axes)
        if axes == self.domain.axes:
            return self
        return Factor(make_product_domain(axes), self.values, tag=self.tag)

    def transpose(self, labels: Sequence[str]) -> "Factor":
        """Reorder axes to the given label order; the same order returns ``self``.

        The tag survives only where the reordered table is still that
        indicator: any order of a symmetric kind, and for ``sum`` and ``max``
        any order that keeps the head axis first.
        """
        perm = [self.domain.axis_index(l) for l in labels]
        identity = list(range(self.ndim))
        if sorted(perm) != identity:
            raise ValueError(f"labels {labels!r} are not a permutation of {self.labels!r}")
        if perm == identity:
            return self
        axes = tuple(self.domain.axes[i] for i in perm)
        tag = self.tag
        if tag not in _SYMMETRIC_TAGS and not (tag in _HEADED_TAGS and perm[0] == 0):
            tag = None
        return Factor(make_product_domain(axes), self.values.transpose(perm), tag=tag)

    def scaled(self, scalar: complex) -> "Factor":
        return Factor(self.domain, self.values * scalar)

    def item(self) -> complex:
        if self.domain.ndim != 0:
            raise ValueError("item() requires a scalar factor")
        return complex(self.values.reshape(()))

    def __getitem__(self, coords) -> complex:
        return complex(self.values[coords])

    def __repr__(self) -> str:
        return f"Factor(labels={list(self.labels)}, shape={self.domain.shape})"

    @staticmethod
    def scalar(value: complex) -> "Factor":
        return Factor(make_product_domain([]), np.asarray(value, dtype=np.complex128))


class _DeferredFactor(Factor):
    """A factor whose table ``build()`` makes on the first read of ``values``.

    The ``values`` slot stays unset until then, so the first read falls
    through to ``__getattr__``, which builds, converts and freezes the table
    exactly as ``Factor.__init__`` would, fills the slot and turns the object
    into a plain ``Factor`` (attribute reads skip the hook from then on).
    Relabeling an unbuilt factor keeps the table deferred.
    """

    __slots__ = ()

    def __init__(self, domain: ProductDomain, build: Callable[[], np.ndarray],
                 tag: str | None = None):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_build", build)

    def __getattr__(self, name):
        if name != "values":
            raise AttributeError(name)
        arr = np.asarray(self._build(), dtype=np.complex128).reshape(self.domain.shape)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_build", None)
        object.__setattr__(self, "__class__", Factor)
        return arr

    def relabel(self, mapping: dict[str, str]) -> "Factor":
        axes = tuple((mapping.get(l, l), a) for l, a in self.domain.axes)
        if axes == self.domain.axes:
            return self
        # both factors share the one table, built by whichever is read first
        return _DeferredFactor(make_product_domain(axes), lambda: self.values, self.tag)


def factors_allclose(a: Factor, b: Factor, tol: float = REL_TOL) -> bool:
    """Equality within ``tol`` relative to the max-magnitude entry, after aligning axes."""
    if set(a.labels) != set(b.labels):
        return False
    b = b.transpose(a.labels)
    scale = max(np.max(np.abs(a.values)) if a.values.size else 0.0,
                np.max(np.abs(b.values)) if b.values.size else 0.0)
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(a.values - b.values)) <= tol * scale)


def _check_shared_alphabets(factors: Sequence[Factor]) -> dict[str, AnyAlphabet]:
    seen: dict[str, AnyAlphabet] = {}
    counts: dict[str, int] = {}
    for f in factors:
        for label, alpha in f.domain.axes:
            counts[label] = counts.get(label, 0) + 1
            if label in seen:
                if seen[label] != alpha:
                    raise ValueError(f"alphabet mismatch on shared label {label!r}")
            else:
                seen[label] = alpha
    bad = sorted(l for l, c in counts.items() if c > 2)
    if bad:
        raise ValueError(f"label(s) {bad} appear in more than two factors")
    return {l: seen[l] for l, c in counts.items() if c == 1}


def contract(factors: Sequence[Factor]) -> Factor:
    """Sum-of-products of the inputs.

    Labels shared by two inputs are summed over; labels appearing once survive
    in first-appearance order.  The values are bit-identical to
    ``np.einsum(..., optimize=True)`` on the same tables under numpy releases
    whose einsum contracts a pair through ``matmul`` (``bmm_einsum``, as in
    numpy 2.4); under older ones a pair may differ in the last bit.  An
    output of more than ``STATE_CAP`` entries raises :class:`TableSizeError`
    before any numeric work.
    """
    factors = list(factors)
    if not factors:
        return Factor.scalar(1.0)
    surviving = _check_shared_alphabets(factors)
    out_labels: List[str] = []
    for f in factors:
        for label in f.labels:
            if label in surviving and label not in out_labels:
                out_labels.append(label)
    _check_size(math.prod(surviving[l].size for l in out_labels))

    if len(factors) == 1:
        values = factors[0].values
    elif len(factors) == 2:
        values = _contract_pair(factors[1], factors[0])
    else:
        # numpy's greedy pairing order decides the bits; keep it
        ids: dict[str, int] = {}
        operands = []
        for f in factors:
            subscript = [ids.setdefault(l, len(ids)) for l in f.labels]
            operands.extend([f.values, subscript])
        operands.append([ids[l] for l in out_labels])
        values = np.einsum(*operands, optimize=True)

    axes = tuple((l, surviving[l]) for l in out_labels)
    return Factor(make_product_domain(axes), values)


def _contract_pair(a: Factor, b: Factor) -> np.ndarray:
    """The steps numpy's ``bmm_einsum`` takes for a pair, without path search.

    numpy contracts the pair in reverse input order, so ``a`` is the second
    factor of the call and the left operand here.  The result has ``b``'s
    surviving axes, then ``a``'s.  Each table is transposed to (kept, summed)
    or (summed, kept), fused to a matrix and multiplied with one ``matmul``;
    with nothing of size > 1 to sum, the tables broadcast through ``multiply``
    instead, which keeps signed zeros.  Where numpy drops size-1 axes it does
    so with a summing copy, which turns -0.0 into 0.0 and sets the memory
    order later steps see; ``+ 0.0`` repeats both.
    """
    pos_a, pos_b = a.domain.positions, b.domain.positions
    summed = [l for l in a.labels if l in pos_b]
    keep_a = [l for l in a.labels if l not in pos_b]
    keep_b = [l for l in b.labels if l not in pos_a]
    shape_a, shape_b = a.domain.shape, b.domain.shape
    dims_a = [shape_a[pos_a[l]] for l in keep_a]
    dims_b = [shape_b[pos_b[l]] for l in keep_b]
    k = math.prod(shape_a[pos_a[l]] for l in summed)
    va = a.values.transpose([pos_a[l] for l in keep_a + summed])
    vb = b.values.transpose([pos_b[l] for l in summed + keep_b])
    if k == 1:
        if summed:
            va, vb = va + 0.0, vb + 0.0
        return np.multiply(va.reshape([1] * len(dims_b) + dims_a),
                           vb.reshape(dims_b + [1] * len(dims_a)))
    if 1 in shape_a:
        va = va + 0.0
    if 1 in shape_b:
        vb = vb + 0.0
    ab = np.matmul(va.reshape(math.prod(dims_a), k), vb.reshape(k, math.prod(dims_b)))
    ab = ab.reshape(dims_a + dims_b)
    if dims_a and dims_b:
        ab = ab.transpose(list(range(len(dims_a), ab.ndim)) + list(range(len(dims_a))))
    return ab


def multiply_pointwise(a: Factor, b: Factor) -> Factor:
    """Pointwise product over the union of axes; shared labels are aligned, not summed.

    An output past ``STATE_CAP`` entries raises :class:`TableSizeError` first.
    """
    for label in set(a.labels) & set(b.labels):
        if a.alphabet(label) != b.alphabet(label):
            raise ValueError(f"alphabet mismatch on shared label {label!r}")
    out_labels = list(a.labels) + [l for l in b.labels if l not in a.labels]
    alpha = {l: al for l, al in list(a.domain.axes) + list(b.domain.axes)}
    _check_size(math.prod(alpha[l].size for l in out_labels))
    ids: dict[str, int] = {}
    sub_a = [ids.setdefault(l, len(ids)) for l in a.labels]
    sub_b = [ids.setdefault(l, len(ids)) for l in b.labels]
    out = [ids[l] for l in out_labels]
    values = np.einsum(a.values, sub_a, b.values, sub_b, out)
    return Factor(make_product_domain([(l, alpha[l]) for l in out_labels]), values)


def marginalize(f: Factor, label: str, mode: str = "sum", value: Optional[int] = None) -> Factor:
    """Remove an axis by summation (``sum``) or by slicing at ``value`` (``evaluate``)."""
    ax = f.domain.axis_index(label)
    axes = tuple(t for i, t in enumerate(f.domain.axes) if i != ax)
    if mode == "sum":
        values = f.values.sum(axis=ax)
    elif mode == "evaluate":
        if value is None:
            raise ValueError("evaluate mode needs a value")
        v = f.domain.axes[ax][1].check(value)
        values = np.take(f.values, v, axis=ax)
    else:
        raise ValueError(f"unknown marginalize mode {mode!r}")
    return Factor(make_product_domain(axes), values)


def outer_univariate_profiles(table: np.ndarray, tol: float = REL_TOL) -> Optional[List[np.ndarray]]:
    """Profiles v_k with ``table == table[anchor] * outer(v_1, ..., v_n)``, or None.

    Uses the per-slice anchor criterion: profiles are the axis-wise slices
    through the maximum-magnitude entry, normalized by it.  An all-zero table
    is vacuously an outer product of zero profiles.
    """
    if table.ndim == 0:
        return []
    flat_anchor = int(np.argmax(np.abs(table)))
    anchor = np.unravel_index(flat_anchor, table.shape)
    pivot_val = table[anchor]
    scale = abs(pivot_val)
    if scale == 0.0:
        return [np.zeros(n, dtype=np.complex128) for n in table.shape]
    profiles = []
    for ax in range(table.ndim):
        idx = list(anchor)
        idx[ax] = slice(None)
        profiles.append(np.array(table[tuple(idx)]) / pivot_val)
    rebuilt = pivot_val * _outer_many(profiles)
    if np.max(np.abs(table - rebuilt)) > tol * scale:
        return None
    return profiles


def _outer_many(vectors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(1.0, dtype=np.complex128)
    for v in vectors:
        out = np.multiply.outer(out, v)
    return out


def split_decompose(f: Factor, pivot: str, tol: float = REL_TOL) -> Optional[List[Factor]]:
    """Factor ``f`` as a product of bivariates pairing ``pivot`` with each other axis.

    Returns ``None`` when some pivot slice is not an outer product within
    ``tol``.  Normalization: every bivariate except the first has, per pivot
    value with a nonzero slice, its maximum-magnitude entry scaled to exactly
    1; the first bivariate absorbs the remaining scale.
    """
    if f.ndim < 2:
        raise ValueError("split_decompose needs a factor with at least 2 axes")
    p = f.domain.axis_index(pivot)
    rest = [t for i, t in enumerate(f.domain.axes) if i != p]
    if f.ndim == 2:
        return [f.transpose([pivot, rest[0][0]])]

    moved = np.moveaxis(f.values, p, 0)
    pivot_alpha = f.domain.axes[p][1]
    n_rest = len(rest)
    profiles_per_value: List[List[np.ndarray]] = []
    lead: List[complex] = []
    for v in range(pivot_alpha.size):
        slc = moved[v]
        prof = outer_univariate_profiles(slc, tol=tol)
        if prof is None:
            return None
        anchor_val = slc[np.unravel_index(int(np.argmax(np.abs(slc))), slc.shape)]
        profiles_per_value.append(prof)
        lead.append(complex(anchor_val))

    parts: List[np.ndarray] = [np.zeros((pivot_alpha.size, a.size), dtype=np.complex128)
                               for _, a in rest]
    for v in range(pivot_alpha.size):
        if lead[v] == 0:
            parts[0][v, :] = 0.0
            for k in range(1, n_rest):
                parts[k][v, :] = 1.0
            continue
        head_scale = lead[v]
        for k in range(1, n_rest):
            prof = profiles_per_value[v][k]
            m = prof[int(np.argmax(np.abs(prof)))]
            parts[k][v, :] = prof / m
            head_scale = head_scale * m
        parts[0][v, :] = profiles_per_value[v][0] * head_scale

    out = []
    for (label, alpha), table in zip(rest, parts):
        dom = make_product_domain([(pivot, pivot_alpha), (label, alpha)])
        out.append(Factor(dom, table))
    return out


def conditional_constant(f: Factor, pivot: str, tol: float = REL_TOL) -> Optional[complex]:
    """The constant c with ``sum over pivot == c`` for every tail assignment, or None."""
    ax = f.domain.axis_index(pivot)
    summed = f.values.sum(axis=ax)
    c = complex(summed.reshape(-1).mean()) if summed.size else 0.0
    scale = float(np.max(np.abs(summed))) if summed.size else 0.0
    if scale == 0.0:
        return 0.0 + 0.0j
    if np.max(np.abs(summed - c)) > tol * scale:
        return None
    return c
