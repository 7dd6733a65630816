"""Workload ``group_duality``: sum-indicator stars, Fourier transforms and dual codes.

Graphs are small and alphabets large, so the time goes to ``indicators``,
``factor.contract``, ``transform``, ``algebra`` and the star kernels, and
hardly any to graph bookkeeping.  Every star request builds its own sum
indicator, as a caller of the library would.  Request kinds take turns in a
fixed order; alphabet and code sizes are stratified continuous draws.

Codes are systematic with parity rows banded over three neighbouring message
coordinates.  Dense random generators are left out: greedy ``eliminate``
builds intermediates far beyond the exterior's size on them (see the FOUND
lines in CHANGES.md).
"""

from __future__ import annotations

from typing import List

import numpy as np

from nfgraph import (
    Factor,
    HalfEdge,
    InternalEdge,
    NfgGraph,
    codewords,
    dual_via_fourier,
    eliminate,
    fast_axis_transform,
    generator_realization,
    make_indicator,
    make_product_domain,
    sum_product,
)
from nfgraph.algebra import GroupAlphabet
from nfgraph.codes import LinearCodeSpec

from harness import Request, stratified
from refs import (
    code_words,
    cyclic_convolution,
    macwilliams_dual,
    orthogonal_complement,
    require,
    require_close,
    weights,
)

PER_KIND = 20
# (kind, smallest size, largest size): the group order m for stars, the
# order of each axis for transforms, the code length n for codes
KINDS = (
    ("star_spa_deg3", 16, 96),
    ("star_block_deg3", 16, 112),
    ("star_spa_deg4", 16, 32),
    ("star_block_deg4", 16, 32),
    ("fourier_pair", 24, 192),
    ("code_dual", 7, 15),
)
BAND = 3


def _leaves(rng, z: GroupAlphabet, count: int) -> List[Factor]:
    return [Factor(make_product_domain([("a", z)]), rng.uniform(0.2, 1.0, z.size))
            for _ in range(count)]


def _star(center: Factor, leaves: List[Factor], z: GroupAlphabet, open_first: bool) -> NfgGraph:
    """Sum indicator ``c`` (arg1 = arg2 + ... + argd) with one leaf per closed axis."""
    vertices = {"c": center}
    internal, half = [], []
    for k in range(center.ndim):
        axis = f"arg{k + 1}"
        if k == 0 and open_first:
            half.append(HalfEdge("h_s", ("c", axis), z, "s"))
            continue
        vertices[f"l{k}"] = leaves[k]
        internal.append(InternalEdge(f"e{k}", (("c", axis), (f"l{k}", "a")), z))
    return NfgGraph(vertices, internal, half)


def star_spa_request(kind: str, z: GroupAlphabet, degree: int, leaves: List[Factor]) -> Request:
    def call():
        center = make_indicator("sum", z, degree)
        return sum_product(_star(center, leaves, z, open_first=False))

    def check(result):
        vecs = [f.values for f in leaves]
        want = vecs[0] * cyclic_convolution(vecs[1:])
        require_close(result.marginals["e0"].values, want, "arg1 marginal")
        for eid, m in result.marginals.items():
            require_close(m.values.sum(), want.sum(), f"marginal {eid} total")
        require(len(result.marginals) == degree, "marginals do not cover every edge")
    return Request(kind, call, check)


def star_block_request(kind: str, z: GroupAlphabet, degree: int, leaves: List[Factor]) -> Request:
    def call():
        center = make_indicator("sum", z, degree)
        g = _star(center, leaves, z, open_first=True)
        return eliminate(g, strategy="given-order", order=[("block", "c")], use_kernels=True)

    def check(report):
        want = cyclic_convolution([f.values for f in leaves[1:]])
        require(report.result.labels == ("s",), f"axes {report.result.labels}")
        require_close(report.result.values, want, "star exterior")
        # closed-form chain cost: (inputs - 1) folds of |Z|^2 multiply-adds
        require(report.total_ops == (degree - 2) * z.size ** 2,
                f"kernel ops {report.total_ops} != {(degree - 2) * z.size ** 2}")
    return Request(kind, call, check)


def fourier_request(kind: str, table: Factor) -> Request:
    def call():
        forward = fast_axis_transform(table, "fourier", ["u", "v"])
        return forward, fast_axis_transform(forward, "fourier_inv", ["u", "v"])

    def check(out):
        forward, back = out
        a, b = table.domain.shape
        require_close(forward.values, a * b * np.fft.ifft2(table.values), "fourier")
        require_close(back.values, table.values, "fourier_inv after fourier")
    return Request(kind, call, check)


def banded_generator(rng, n: int, k: int) -> np.ndarray:
    """n x k systematic binary generator; parity rows cover 2-3 adjacent message bits."""
    rows = [np.eye(k, dtype=np.int64)[j] for j in range(k)]
    for _ in range(n - k):
        start = int(rng.integers(0, k - BAND + 1))
        row = np.zeros(k, dtype=np.int64)
        while row.sum() < 2:
            row[start:start + BAND] = rng.integers(0, 2, BAND)
        rows.append(row)
    return np.array(rows)[rng.permutation(n)]


def _in_coordinate_order(words, variables):
    position = [variables.index(f"y{i}") for i in range(len(variables))]
    return {tuple(w[p] for p in position) for w in words}


def code_request(kind: str, generator: np.ndarray) -> Request:
    n, k = generator.shape
    spec = LinearCodeSpec(p=2, n=n, k=k, matrix=tuple(map(tuple, generator)))

    def call():
        g = generator_realization(spec)
        words, _ = codewords(g)
        dual = dual_via_fourier(g)
        dual_words, dual_scale = codewords(dual)
        return words, g.external_vars, dual_words, dual.external_vars, dual_scale

    def check(out):
        words, variables, dual_words, dual_variables, dual_scale = out
        # codeword tuples follow each graph's half-edge order; compare them as
        # assignments to y0..y{n-1}
        words = _in_coordinate_order(words, variables)
        dual_words = _in_coordinate_order(dual_words, dual_variables)
        require(words == code_words(generator, 2), "codewords differ from G u")
        require(len(words) == 2 ** k, f"|C| = {len(words)}, expected 2^{k}")
        require(dual_words == orthogonal_complement(generator.T, 2),
                "dual codewords differ from the orthogonal complement")
        require(np.allclose(weights(dual_words, n), macwilliams_dual(weights(words, n), n, 2)),
                "weight distributions break the MacWilliams identity")
        require(dual_scale > 0, f"dual scale {dual_scale} is not positive")
    return Request(kind, call, check)


def build(seed: int, workdir=None) -> List[Request]:
    rng = np.random.default_rng([seed, 2])
    sizes = {kind: stratified(rng, lo, hi + 1, PER_KIND).astype(int) for kind, lo, hi in KINDS}
    # second axis of each transform, and each code's dimension as a share of
    # its range, stratified apart from the first size
    other_axis = stratified(rng, 24, 193, PER_KIND).astype(int)
    dimension = stratified(rng, 0.0, 1.0, PER_KIND)
    requests = []
    for i in range(PER_KIND):
        for kind, _, _ in KINDS:
            size = int(sizes[kind][i])
            if kind.startswith("star"):
                z = GroupAlphabet((size,))
                degree = int(kind[-1])
                leaves = _leaves(rng, z, degree)
                make = star_spa_request if kind.startswith("star_spa") else star_block_request
                requests.append(make(kind, z, degree, leaves))
            elif kind == "fourier_pair":
                other = int(other_axis[i])
                u, v = GroupAlphabet((size,)), GroupAlphabet((other,))
                values = rng.standard_normal((size, other)) + 1j * rng.standard_normal((size, other))
                table = Factor(make_product_domain([("u", u), ("v", v)]), values)
                requests.append(fourier_request(kind, table))
            else:
                k = BAND + 1 + int(dimension[i] * (size - BAND - 2))
                requests.append(code_request(kind, banded_generator(rng, size, k)))
    return requests
