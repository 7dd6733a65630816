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
from .factor import REL_TOL, Factor, _check_size, _DeferredFactor, contract

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


def _table(kind: str, alphabet: AnyAlphabet, degree: int, value: Optional[int]) -> np.ndarray:
    """The dense table of an indicator whose arguments ``make_indicator`` checked."""
    size = alphabet.size
    if kind == "eq":
        table = np.zeros((size,) * degree)
        table[tuple(np.arange(size) for _ in range(degree))] = 1.0
        return table
    if kind in ("sum", "parity"):
        add, _ = group_tables(alphabet)
        grids = _grids(size, degree)
        if kind == "sum":
            tail = grids[1]
            for g in grids[2:]:
                tail = add[tail, g]
            return (grids[0] == tail).astype(float)
        total = grids[0]
        for g in grids[1:]:
            total = add[total, g]
        return (total == 0).astype(float)
    if kind == "max":
        grids = _grids(size, degree)
        table = np.ones((size,) * degree, dtype=bool)
        for comp in _component_codes(ordered_sizes(alphabet)):
            tail = comp[grids[1]]
            for g in grids[2:]:
                tail = np.maximum(tail, comp[g])
            table &= comp[grids[0]] == tail
        return table.astype(float)
    if kind == "eval":
        table = np.zeros(size)
        table[value] = 1.0
        return table
    if kind == "one":
        return np.ones(size)
    if kind in ("cumulus", "difference"):
        table = np.ones((1, 1))
        for s in ordered_sizes(alphabet):
            block = np.tril(np.ones((s, s))) if kind == "cumulus" else np.eye(s) - np.eye(s, k=-1)
            table = np.kron(table, block)
        return table
    return character_table(alphabet) if kind == "fourier" else dual_kernel_table(alphabet)


def make_indicator(kind: str, alphabet: AnyAlphabet, degree: int,
                   value: Optional[int] = None) -> Factor:
    """A named indicator or transformer kernel, its dense table built on first read.

    Every argument is checked here, and a table of more than ``STATE_CAP``
    entries raises :class:`~nfgraph.factor.TableSizeError` here.  The table
    itself is built from the kind, alphabet, degree and value when the
    factor's ``values`` are first read, with the bytes an eager build gives;
    reading only the tag and the domain, as the star kernels do, never
    allocates it.
    """
    value = _checked_value(kind, alphabet, degree, value)
    return _DeferredFactor(_arg_domain(alphabet, degree),
                           lambda: _table(kind, alphabet, degree, value), tag=kind)


def _checked_value(kind: str, alphabet: AnyAlphabet, degree: int,
                   value: Optional[int]) -> Optional[int]:
    """Raise unless ``make_indicator`` takes these arguments; return the value it uses."""
    if kind not in INDICATOR_KINDS:
        raise ValueError(f"unknown indicator kind {kind!r}")
    size = alphabet.size

    if kind in ("eq", "sum", "parity", "max"):
        if kind in ("sum", "parity") and not isinstance(alphabet, GroupAlphabet):
            raise ValueError(f"{kind} indicator needs a group alphabet")
        if kind == "max":
            ordered_sizes(alphabet)
        if degree < 2:
            name = "equality" if kind == "eq" else kind
            raise ValueError(f"{name} indicator needs degree >= 2")
        _check_size(size ** degree)
    elif kind == "eval":
        if degree != 1:
            raise ValueError("evaluation indicator has degree 1")
        if value is None:
            raise ValueError("evaluation indicator needs a value")
        value = alphabet.check(value)
    elif kind == "one":
        if degree != 1:
            raise ValueError("constant-one indicator has degree 1")
    else:
        # bivariate transformer kernels
        if degree != 2:
            raise ValueError(f"{kind} kernel is bivariate")
        _check_size(size * size)
        if kind in ("cumulus", "difference"):
            ordered_sizes(alphabet)
        elif not isinstance(alphabet, GroupAlphabet):
            raise ValueError(f"{kind} kernel needs a group alphabet")
    return value


def _check_axis_names(transformer: Factor, name: str) -> None:
    """Transformers bind by axis name: refuse one whose axes are not arg1, arg2."""
    if set(transformer.labels) != {"arg1", "arg2"}:
        raise ValueError(f"{name} must have axes 'arg1' and 'arg2', "
                         f"got {list(transformer.labels)}")


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
        return self.forward.domain.alphabet("arg1")

    def verify(self, tol: float = REL_TOL) -> float:
        """Max deviation of <g, g~> from the equality indicator; raises past tol.

        A member whose axes are not ``arg1``, ``arg2`` is refused first.
        """
        _check_axis_names(self.forward, "forward transformer")
        _check_axis_names(self.inverse, "inverse transformer")
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
