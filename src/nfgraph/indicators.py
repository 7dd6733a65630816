"""Constructors for the special local functions used as structural glue.

Kind names ("eq", "sum", "parity", "max", "eval", "one", "cumulus",
"difference", "fourier", "fourier_inv") double as the CLI and file-format
vocabulary.  Indicator axes are labeled ``arg1..argn``; for conditional-style
indicators (sum, max) ``arg1`` is the generated variable, and for the
cumulus/difference kernels the first argument is the dotted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    AnyAlphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    character_table,
    dual_kernel_table,
    group_tables,
    make_product_domain,
    ordered_sizes,
)
from .factor import REL_TOL, Factor, _check_size, contract

__all__ = [
    "INDICATOR_KINDS",
    "TransformerPair",
    "make_indicator",
    "make_cumulus_pair",
    "make_fourier_pair",
    "identity_transformer",
    "verify_transformer_pair",
]

INDICATOR_KINDS = (
    "eq", "sum", "parity", "max", "eval", "one",
    "cumulus", "difference", "fourier", "fourier_inv",
)


def _arg_domain(alphabet: AnyAlphabet, degree: int):
    return make_product_domain([(f"arg{i + 1}", alphabet) for i in range(degree)])


def _grids(size: int, degree: int):
    return np.ix_(*([np.arange(size)] * degree))


def _component_codes(sizes) -> list[np.ndarray]:
    """Per-component value of each packed index, mixed-radix with last fastest."""
    total = int(np.prod(sizes))
    codes = []
    stride = total
    for s in sizes:
        stride //= s
        codes.append((np.arange(total) // stride) % s)
    return codes


def _cumulus_table(sizes) -> np.ndarray:
    table = np.ones((1, 1))
    for s in sizes:
        table = np.kron(table, np.tril(np.ones((s, s))))
    return table


def _difference_table(sizes) -> np.ndarray:
    table = np.ones((1, 1))
    for s in sizes:
        table = np.kron(table, np.eye(s) - np.eye(s, k=-1))
    return table


def make_indicator(kind: str, alphabet: AnyAlphabet, degree: int,
                   value: Optional[int] = None) -> Factor:
    """Build the dense table of a named indicator or transformer kernel.

    A table of more than ``STATE_CAP`` entries raises
    :class:`~nfgraph.factor.TableSizeError` before it is allocated.
    """
    if kind not in INDICATOR_KINDS:
        raise ValueError(f"unknown indicator kind {kind!r}")
    size = alphabet.size

    if kind == "eq":
        if degree < 2:
            raise ValueError("equality indicator needs degree >= 2")
        _check_size(size ** degree)
        table = np.zeros((size,) * degree)
        table[tuple(np.arange(size) for _ in range(degree))] = 1.0
        return Factor(_arg_domain(alphabet, degree), table, tag="eq")

    if kind in ("sum", "parity"):
        if not isinstance(alphabet, GroupAlphabet):
            raise ValueError(f"{kind} indicator needs a group alphabet")
        if degree < 2:
            raise ValueError(f"{kind} indicator needs degree >= 2")
        _check_size(size ** degree)
        add, _ = group_tables(alphabet)
        grids = _grids(size, degree)
        if kind == "sum":
            tail = grids[1]
            for g in grids[2:]:
                tail = add[tail, g]
            table = (grids[0] == tail).astype(float)
        else:
            total = grids[0]
            for g in grids[1:]:
                total = add[total, g]
            table = (total == 0).astype(float)
        return Factor(_arg_domain(alphabet, degree), table, tag=kind)

    if kind == "max":
        sizes = ordered_sizes(alphabet)
        if degree < 2:
            raise ValueError("max indicator needs degree >= 2")
        _check_size(size ** degree)
        codes = _component_codes(sizes)
        grids = _grids(size, degree)
        table = np.ones((size,) * degree, dtype=bool)
        for comp in codes:
            tail = comp[grids[1]]
            for g in grids[2:]:
                tail = np.maximum(tail, comp[g])
            table &= comp[grids[0]] == tail
        return Factor(_arg_domain(alphabet, degree), table.astype(float), tag="max")

    if kind == "eval":
        if degree != 1:
            raise ValueError("evaluation indicator has degree 1")
        if value is None:
            raise ValueError("evaluation indicator needs a value")
        table = np.zeros(size)
        table[alphabet.check(value)] = 1.0
        return Factor(_arg_domain(alphabet, 1), table, tag="eval")

    if kind == "one":
        if degree != 1:
            raise ValueError("constant-one indicator has degree 1")
        return Factor(_arg_domain(alphabet, 1), np.ones(size), tag="one")

    # bivariate transformer kernels
    if degree != 2:
        raise ValueError(f"{kind} kernel is bivariate")
    _check_size(size * size)
    if kind in ("cumulus", "difference"):
        sizes = ordered_sizes(alphabet)
        table = _cumulus_table(sizes) if kind == "cumulus" else _difference_table(sizes)
        return Factor(_arg_domain(alphabet, 2), table, tag=kind)
    if not isinstance(alphabet, GroupAlphabet):
        raise ValueError(f"{kind} kernel needs a group alphabet")
    table = character_table(alphabet) if kind == "fourier" else dual_kernel_table(alphabet)
    return Factor(_arg_domain(alphabet, 2), table, tag=kind)


@dataclass(frozen=True)
class TransformerPair:
    """Two bivariate factors g, g~ contracting to the equality indicator.

    ``forward`` is g(x, s) and ``inverse`` is g~(s, x'); the shared axis is the
    second of ``forward`` and the first of ``inverse``.
    """

    forward: Factor
    inverse: Factor

    def __post_init__(self) -> None:
        if self.forward.ndim != 2 or self.inverse.ndim != 2:
            raise ValueError("transformer pair members must be bivariate")

    @property
    def alphabet(self) -> AnyAlphabet:
        return self.forward.domain.axes[0][1]

    def verify(self, tol: float = REL_TOL) -> float:
        """Max deviation of <g, g~> from the equality indicator; raises past tol."""
        g = self.forward.relabel({"arg1": "x", "arg2": "s"})
        ginv = self.inverse.relabel({"arg1": "s", "arg2": "xp"})
        prod = contract([g, ginv]).transpose(["x", "xp"])
        n = prod.domain.shape[0]
        resid = float(np.max(np.abs(prod.values - np.eye(n))))
        if resid > tol:
            raise ValueError(f"not an inverse pair: residual {resid:.3e} exceeds {tol:.1e}")
        return resid


def make_cumulus_pair(alphabet) -> TransformerPair:
    """Cumulus/difference inverse pair on an ordered alphabet or ordered product.

    Also accepts a sequence of OrderedAlphabets, packed componentwise.
    """
    if isinstance(alphabet, (list, tuple)):
        sizes = tuple(s for a in alphabet for s in ordered_sizes(a))
        alphabet = OrderedProductAlphabet(sizes) if len(sizes) > 1 else OrderedAlphabet(sizes[0])
    a = make_indicator("cumulus", alphabet, 2)
    d = make_indicator("difference", alphabet, 2)
    return TransformerPair(forward=a, inverse=d)


def make_fourier_pair(group: GroupAlphabet) -> TransformerPair:
    """Fourier kernel pair (kappa, kappa_hat) on a finite abelian group."""
    k = make_indicator("fourier", group, 2)
    khat = make_indicator("fourier_inv", group, 2)
    return TransformerPair(forward=k, inverse=khat)


def identity_transformer(alphabet: AnyAlphabet) -> Factor:
    """The bivariate equality indicator, the do-nothing external transformer."""
    return make_indicator("eq", alphabet, 2)
