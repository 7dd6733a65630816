"""Finite alphabets, finite abelian groups, product domains, and characters.

Symbols are always the integers ``0..size-1``.  Ordered alphabets carry the
natural order with rank ``r(x) = x + 1``, so ranks run ``1..size``.  Group
alphabets are direct products of cyclic groups with elements packed as
mixed-radix integers (last modulus fastest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "Alphabet",
    "OrderedAlphabet",
    "OrderedProductAlphabet",
    "GroupAlphabet",
    "ProductDomain",
    "make_product_domain",
    "group_add",
    "group_neg",
    "group_tables",
    "character",
    "character_table",
    "dual_kernel_table",
    "ordered_sizes",
]


@dataclass(frozen=True)
class Alphabet:
    """A plain finite alphabet of symbols ``0..size-1``."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")

    def check(self, symbol: int) -> int:
        s = int(symbol)
        if not 0 <= s < self.size:
            raise ValueError(f"symbol {symbol} out of range for alphabet of size {self.size}")
        return s


@dataclass(frozen=True)
class OrderedAlphabet(Alphabet):
    """A totally ordered alphabet; index order is the order, max element is size-1."""

    def rank(self, symbol: int) -> int:
        return self.check(symbol) + 1

    @property
    def top(self) -> int:
        return self.size - 1


@dataclass(frozen=True)
class OrderedProductAlphabet:
    """A product of ordered alphabets, componentwise partially ordered.

    Elements are mixed-radix integers over `sizes` (last component fastest),
    matching the GroupAlphabet encoding.
    """

    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes:
            raise ValueError("ordered product needs at least one component")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"component sizes must be >= 1, got {self.sizes}")

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @property
    def top(self) -> int:
        return self.size - 1

    def check(self, symbol: int) -> int:
        s = int(symbol)
        if not 0 <= s < self.size:
            raise ValueError(f"symbol {symbol} out of range for alphabet of size {self.size}")
        return s

    def decode(self, symbol: int) -> Tuple[int, ...]:
        return _mixed_radix_decode(self.check(symbol), self.sizes)

    def encode(self, parts: Sequence[int]) -> int:
        return _mixed_radix_encode(parts, self.sizes)


@dataclass(frozen=True)
class GroupAlphabet:
    """Direct product of cyclic groups Z_m1 x ... x Z_mr, packed mixed-radix."""

    moduli: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(m < 2 for m in self.moduli):
            raise ValueError(f"moduli must be >= 2, got {self.moduli}")

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    def check(self, symbol: int) -> int:
        s = int(symbol)
        if not 0 <= s < self.size:
            raise ValueError(f"element {symbol} out of range for group of size {self.size}")
        return s

    def decode(self, element: int) -> Tuple[int, ...]:
        return _mixed_radix_decode(self.check(element), self.moduli)

    def encode(self, parts: Sequence[int]) -> int:
        return _mixed_radix_encode(parts, self.moduli)


AnyAlphabet = Alphabet | OrderedProductAlphabet | GroupAlphabet


def _mixed_radix_decode(x: int, radices: Tuple[int, ...]) -> Tuple[int, ...]:
    parts = []
    for m in reversed(radices):
        x, r = divmod(x, m)
        parts.append(r)
    return tuple(reversed(parts))


def _mixed_radix_encode(parts: Sequence[int], radices: Tuple[int, ...]) -> int:
    if len(parts) != len(radices):
        raise ValueError(f"expected {len(radices)} components, got {len(parts)}")
    x = 0
    for p, m in zip(parts, radices):
        p = int(p)
        if not 0 <= p < m:
            raise ValueError(f"component {p} out of range for modulus {m}")
        x = x * m + p
    return x


def group_add(g: GroupAlphabet, a: int, b: int) -> int:
    """Componentwise modular sum of two packed group elements."""
    pa = g.decode(a)
    pb = g.decode(b)
    return g.encode([(x + y) % m for x, y, m in zip(pa, pb, g.moduli)])


def group_neg(g: GroupAlphabet, a: int) -> int:
    """Componentwise negation, the group inverse."""
    return g.encode([(-x) % m for x, m in zip(g.decode(a), g.moduli)])


def group_tables(g: GroupAlphabet) -> Tuple[np.ndarray, np.ndarray]:
    """The addition table ``add[a, b] = a + b`` and negation vector ``neg[a] = -a``.

    Both are ``intp`` arrays over the packed elements, computed digit by
    digit on the mixed-radix components; entry for entry they equal
    :func:`group_add` and :func:`group_neg`.
    """
    n = g.size
    x = np.arange(n, dtype=np.intp)
    add = np.zeros((n, n), dtype=np.intp)
    neg = np.zeros(n, dtype=np.intp)
    stride = n
    for m in g.moduli:
        stride //= m
        digit = (x // stride) % m
        add += stride * ((digit[:, None] + digit) % m)
        neg += stride * (-digit % m)
    return add, neg


def character(g: GroupAlphabet, x: int, xhat: int) -> complex:
    """The standard pairing kappa(x, xhat) = prod_i exp(2*pi*i * x_i*xhat_i / m_i).

    The character group is identified with ``g`` itself via this pairing.
    """
    px = g.decode(x)
    ph = g.decode(xhat)
    phase = sum(2.0 * math.pi * (a * b) / m for a, b, m in zip(px, ph, g.moduli))
    return complex(math.cos(phase), math.sin(phase))


def character_table(g: GroupAlphabet) -> np.ndarray:
    """Dense |g| x |g| table of kappa(x, xhat), Kronecker product of cyclic DFT kernels."""
    table = np.ones((1, 1), dtype=np.complex128)
    for m in g.moduli:
        idx = np.arange(m)
        block = np.exp(2j * np.pi * np.outer(idx, idx) / m)
        table = np.kron(table, block)
    return table


def dual_kernel_table(g: GroupAlphabet) -> np.ndarray:
    """Dense table of the dual kernel kappa_hat(x, xhat) = kappa(x, -xhat) / |g|."""
    kappa = character_table(g)
    return kappa[:, group_tables(g)[1]] / g.size


def ordered_sizes(alphabet: object) -> Tuple[int, ...]:
    """Component sizes of an ordered alphabet or ordered product; error otherwise."""
    if isinstance(alphabet, OrderedAlphabet):
        return (alphabet.size,)
    if isinstance(alphabet, OrderedProductAlphabet):
        return alphabet.sizes
    raise TypeError(f"expected an ordered alphabet, got {type(alphabet).__name__}")


@dataclass(frozen=True)
class ProductDomain:
    """An ordered list of (label, alphabet) axes with row-major linear indexing.

    The last axis varies fastest.  Axis labels are unique within a domain.
    ``labels``, ``shape``, ``size`` and ``positions`` (label -> axis
    position, not to be mutated) are derived from ``axes`` once, at
    construction; equality, hashing and repr depend on ``axes`` alone.
    """

    axes: Tuple[Tuple[str, AnyAlphabet], ...] = field(default_factory=tuple)
    labels: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    shape: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    positions: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple([str(l) for l, _ in self.axes])
        alphabets = [a for _, a in self.axes]
        position = dict(zip(labels, range(len(labels))))
        if len(position) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate axis label(s): {dup}")
        shape = tuple([a.size for a in alphabets])
        object.__setattr__(self, "axes", tuple(zip(labels, alphabets)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "size", math.prod(shape))
        object.__setattr__(self, "positions", position)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def axis_index(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise KeyError(f"unknown axis label {label!r}") from None

    def alphabet(self, label: str) -> AnyAlphabet:
        return self.axes[self.axis_index(label)][1]

    def index_of(self, coords: Sequence[int]) -> int:
        if len(coords) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates, got {len(coords)}")
        idx = 0
        for c, (_, a) in zip(coords, self.axes):
            idx = idx * a.size + a.check(c)
        return idx

    def coords_of(self, index: int) -> Tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"linear index {index} out of range for size {self.size}")
        return _mixed_radix_decode(index, self.shape) if self.ndim else ()


def make_product_domain(axes: Sequence[Tuple[str, AnyAlphabet]]) -> ProductDomain:
    """Build a product domain; an empty axis list yields the size-1 scalar domain."""
    return ProductDomain(tuple(axes))
