"""Reference computations the benchmark checks the library against.

Everything here is plain numpy written for the benchmark: transfer matrices
for chains and narrow grids, leaf peeling for trees, a greedy pairwise
contraction for whole documents, FFT convolution for sum-indicator stars, and
brute-force enumeration for linear codes.  None of it calls into ``nfgraph``.
"""

from __future__ import annotations

import itertools
import string
from math import comb
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

REL_TOL = 1e-9

Table = Tuple[np.ndarray, Tuple[str, ...]]  # values with one label per axis


class CheckError(AssertionError):
    """An output disagrees with its reference or with a required property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def require_close(got, want, what: str, tol: float = REL_TOL) -> None:
    """Equal within ``tol`` relative to the largest magnitude of either side."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = max(float(np.max(np.abs(got), initial=0.0)),
                float(np.max(np.abs(want), initial=0.0)))
    err = float(np.max(np.abs(got - want), initial=0.0))
    require(err <= tol * max(scale, 1e-300),
            f"{what}: deviation {err:.3e} exceeds {tol:.0e} x {scale:.3e}")


def einsum_labels(tables: Sequence[Table], out: Sequence[str]) -> np.ndarray:
    """Sum-of-products of labelled tables, keeping the ``out`` labels."""
    letters: Dict[str, str] = {}
    for _, labels in tables:
        for label in labels:
            letters.setdefault(label, string.ascii_letters[len(letters)])
    lhs = ",".join("".join(letters[l] for l in labels) for _, labels in tables)
    rhs = "".join(letters[l] for l in out)
    return np.einsum(f"{lhs}->{rhs}", *(values for values, _ in tables))


def contract_network(tables: Sequence[Table], out: Sequence[str]) -> np.ndarray:
    """Exterior of a tensor network by greedy smallest-result pairwise merging.

    A label held by two tables is summed once both are merged; a label held by
    one table survives and must be listed in ``out``.
    """
    work: List[Table] = [(np.asarray(v, dtype=np.complex128), tuple(l)) for v, l in tables]
    size: Dict[str, int] = {}
    for values, labels in work:
        size.update(zip(labels, values.shape))

    def merged_labels(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
        shared = set(a) & set(b)
        return tuple(l for l in a + b if l not in shared)

    while len(work) > 1:
        best = None
        for i, j in itertools.combinations(range(len(work)), 2):
            a, b = work[i][1], work[j][1]
            if not set(a) & set(b):
                continue
            keep = merged_labels(a, b)
            cost = int(np.prod([size[l] for l in keep], dtype=np.int64))
            if best is None or cost < best[0]:
                best = (cost, i, j, keep)
        if best is None:  # disconnected parts combine by outer product
            best = (0, 0, 1, work[0][1] + work[1][1])
        _, i, j, keep = best
        merged = (einsum_labels([work[i], work[j]], keep), keep)
        work = [t for k, t in enumerate(work) if k not in (i, j)] + [merged]
    values, labels = work[0]
    require(set(labels) == set(out), f"network leaves labels {labels}, expected {tuple(out)}")
    return einsum_labels([(values, labels)], out)


def chain_transfer(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Product of the transfer matrices along a chain."""
    acc = np.asarray(matrices[0], dtype=np.complex128)
    for m in matrices[1:]:
        acc = acc @ m
    return acc


def grid_transfer(columns: Sequence[Sequence[Table]], left: Sequence[Sequence[str]],
                  right: Sequence[Sequence[str]]) -> np.ndarray:
    """Exterior of a narrow grid, one column-to-column transfer matrix at a time.

    ``columns[c]`` holds the tables of column ``c`` (vertical edges are summed
    inside the column); ``left[c]``/``right[c]`` list the labels that cross to
    the previous/next column, with external labels first on the outer columns.
    """
    mats = []
    for c, tables in enumerate(columns):
        t = einsum_labels(tables, list(left[c]) + list(right[c]))
        rows = int(np.prod(t.shape[:len(left[c])], dtype=np.int64))
        mats.append(t.reshape(rows, -1))
    return chain_transfer(mats)


def tree_peel(tables: Mapping[str, Table], root: str, free: Sequence[str]) -> np.ndarray:
    """Exterior of a tree-shaped network by peeling leaves toward ``root``.

    Labels shared by two vertices are the tree's edges; each vertex's other
    labels must be in ``free`` and ride along on the messages.
    """
    owners: Dict[str, List[str]] = {}
    for v, (_, labels) in tables.items():
        for l in labels:
            owners.setdefault(l, []).append(v)
    adjacency: Dict[str, List[Tuple[str, str]]] = {v: [] for v in tables}
    for label, vs in owners.items():
        if len(vs) == 2:
            adjacency[vs[0]].append((vs[1], label))
            adjacency[vs[1]].append((vs[0], label))
        else:
            require(label in free, f"label {label!r} is dangling but not free")

    # iterative post-order so deep chains do not hit the recursion limit
    order, parent = [], {root: (None, None)}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, label in adjacency[v]:
            if w not in parent:
                parent[w] = (v, label)
                stack.append(w)
    require(len(order) == len(tables), "network is not connected")
    messages: Dict[str, Table] = {}
    for v in reversed(order):
        incoming = [messages[w] for w, _ in adjacency[v] if parent.get(w, (None,))[0] == v]
        parts = [tables[v]] + incoming
        carried = [l for _, labels in parts for l in labels if l in free]
        up_label = parent[v][1]
        keep = ([up_label] if up_label is not None else []) + carried
        messages[v] = (einsum_labels(parts, keep), tuple(keep))
    values, labels = messages[root]
    return einsum_labels([(values, labels)], list(free))


def cyclic_convolution(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Cyclic convolution of equal-length vectors through ``np.fft``."""
    spectrum = np.ones(len(vectors[0]), dtype=np.complex128)
    for v in vectors:
        spectrum = spectrum * np.fft.fft(v)
    return np.fft.ifft(spectrum)


def code_words(generator: np.ndarray, p: int) -> Set[Tuple[int, ...]]:
    """All images G u (mod p) of the n x k generator over the message space."""
    n, k = generator.shape
    messages = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    return {tuple(int(x) for x in w) for w in (messages @ generator.T) % p}


def orthogonal_complement(spanning: np.ndarray, p: int) -> Set[Tuple[int, ...]]:
    """Brute force: every word orthogonal to each row of ``spanning`` (r x n)."""
    spanning = np.asarray(spanning, dtype=np.int64)
    space = np.array(list(itertools.product(range(p), repeat=spanning.shape[1])), dtype=np.int64)
    ok = np.all((space @ spanning.T) % p == 0, axis=1)
    return {tuple(int(x) for x in w) for w in space[ok]}


def weights(words: Iterable[Tuple[int, ...]], n: int) -> List[int]:
    out = [0] * (n + 1)
    for w in words:
        out[sum(1 for x in w if x)] += 1
    return out


def macwilliams_dual(weight_counts: Sequence[int], n: int, p: int) -> List[float]:
    """Dual weight distribution from the MacWilliams identity (Krawtchouk form)."""
    size = sum(weight_counts)
    out = []
    for j in range(n + 1):
        total = 0
        for i, a in enumerate(weight_counts):
            k = sum((-1) ** s * (p - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                    for s in range(j + 1))
            total += a * k
        out.append(total / size)
    return out

