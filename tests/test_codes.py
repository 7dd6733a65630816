import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfgraph.algebra import Alphabet, make_product_domain
from nfgraph.factor import Factor
from nfgraph.nfg import HalfEdge, NfgGraph, classify
from nfgraph.exterior import exterior_bruteforce
from nfgraph.codes import (
    LinearCodeSpec,
    codewords,
    dual_via_fourier,
    generator_realization,
    parity_realization,
    parse_code_text,
    weight_distribution,
)

from helpers import loop_codewords

# the standard [7,4] Hamming pair: G systematic (stored as n x k), H = [P^T | I]
HAMMING_G = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (0, 1, 1, 1),
)
HAMMING_H = (
    (1, 1, 0, 1, 1, 0, 0),
    (1, 0, 1, 1, 0, 1, 0),
    (0, 1, 1, 1, 0, 0, 1),
)


def _span(matrix_nk, p):
    n = len(matrix_nk)
    k = len(matrix_nk[0])
    words = set()
    for msg in itertools.product(range(p), repeat=k):
        words.add(tuple(sum(matrix_nk[i][j] * msg[j] for j in range(k)) % p
                        for i in range(n)))
    return words


def _kernel(matrix_rn, p, n):
    words = set()
    for y in itertools.product(range(p), repeat=n):
        if all(sum(a * x for a, x in zip(row, y)) % p == 0 for row in matrix_rn):
            words.add(y)
    return words


def _dual_words(words, p, n):
    out = set()
    for y in itertools.product(range(p), repeat=n):
        if all(sum(a * b for a, b in zip(y, c)) % p == 0 for c in words):
            out.add(y)
    return out


def test_repetition_code_generator():
    spec = LinearCodeSpec(p=2, n=3, k=1, matrix=((1,), (1,), (1,)))
    g = generator_realization(spec)
    assert classify(g).generative
    words, scale = codewords(g)
    assert words == {(0, 0, 0), (1, 1, 1)}
    assert scale == pytest.approx(1.0)


def test_single_parity_check():
    spec = LinearCodeSpec(p=2, n=2, k=1, matrix=((1, 1),), form="parity")
    g = parity_realization(spec)
    assert classify(g).constrained
    words, scale = codewords(g)
    assert words == {(0, 0), (1, 1)}
    assert scale == pytest.approx(1.0)


def test_degenerate_specs_rejected():
    with pytest.raises(ValueError, match="zero column"):
        generator_realization(LinearCodeSpec(p=2, n=2, k=2,
                                             matrix=((1, 0), (1, 0))))
    with pytest.raises(ValueError, match="all-zero row"):
        parity_realization(LinearCodeSpec(p=2, n=3, k=2,
                                          matrix=((0, 0, 0),), form="parity"))
    with pytest.raises(ValueError, match="not prime"):
        LinearCodeSpec(p=4, n=2, k=1, matrix=((1,), (1,)))


def test_hamming_generator_support():
    spec = LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G)
    g = generator_realization(spec)
    words, scale = codewords(g)
    assert len(words) == 16
    assert scale == pytest.approx(1.0)  # full-rank: one preimage per codeword
    assert words == _span(HAMMING_G, 2)
    assert weight_distribution(words, 7) == (1, 0, 0, 7, 7, 0, 0, 1)


def test_hamming_parity_matches_generator():
    gen = generator_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G))
    par = parity_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_H,
                                            form="parity"))
    wg, _ = codewords(gen)
    wp, sp = codewords(par)
    assert wg == wp
    assert sp == pytest.approx(1.0)  # parity realization is an exact indicator


def test_hamming_dual_is_simplex():
    gen = generator_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G))
    dual = dual_via_fourier(gen)
    words, _ = codewords(dual)
    assert len(words) == 8
    assert weight_distribution(words, 7) == (1, 0, 0, 0, 7, 0, 0, 0)
    primal, _ = codewords(gen)
    assert words == _dual_words(primal, 2, 7)
    assert len(words) * len(primal) == 2 ** 7


# an [11,3] binary code: external names y0..y10 do not sort in coordinate order
ELEVEN_THREE = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
)


def test_dual_keeps_coordinate_order_past_ten():
    g = generator_realization(LinearCodeSpec(p=2, n=11, k=3, matrix=ELEVEN_THREE))
    dual = dual_via_fourier(g)
    assert dual.external_vars == g.external_vars
    words, _ = codewords(dual)
    assert words == _dual_words(_span(ELEVEN_THREE, 2), 2, 11)


def test_dual_of_repetition():
    spec = LinearCodeSpec(p=2, n=3, k=1, matrix=((1,), (1,), (1,)))
    dual = dual_via_fourier(generator_realization(spec))
    words, _ = codewords(dual)
    assert words == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_double_dual_restores_support():
    spec = LinearCodeSpec(p=2, n=3, k=1, matrix=((1,), (1,), (1,)))
    g = generator_realization(spec)
    once = dual_via_fourier(g)
    twice = dual_via_fourier(once)
    w0, _ = codewords(g)
    w2, _ = codewords(twice)
    assert w0 == w2


def test_parity_realization_of_dual_classifies_constrained():
    gen = generator_realization(LinearCodeSpec(p=2, n=3, k=1,
                                               matrix=((1,), (1,), (1,))))
    dual = dual_via_fourier(gen)
    flags = classify(dual)
    assert flags.nfg_model
    assert flags.constrained  # generator realization maps to a parity (constrained) one


def test_ternary_code_with_coefficients():
    # y0 = x0, y1 = 2*x0, y2 = x0 + x1, y3 = x1 over Z_3
    matrix = ((1, 0), (2, 0), (1, 1), (0, 1))
    spec = LinearCodeSpec(p=3, n=4, k=2, matrix=matrix)
    g = generator_realization(spec)
    words, scale = codewords(g)
    assert words == _span(matrix, 3)
    assert len(words) == 9
    dual = dual_via_fourier(g)
    dwords, _ = codewords(dual)
    assert dwords == _dual_words(words, 3, 4)
    assert len(dwords) * len(words) == 3 ** 4


def test_ternary_parity_with_coefficients():
    matrix = ((1, 2, 1),)
    spec = LinearCodeSpec(p=3, n=3, k=2, matrix=matrix, form="parity")
    g = parity_realization(spec)
    words, _ = codewords(g)
    assert words == _kernel(matrix, 3, 3)


def test_matched_pair_identical_supports():
    gen = generator_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G))
    par = parity_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_H,
                                            form="parity"))
    assert codewords(gen)[0] == codewords(par)[0]


def test_parse_code_text():
    text = "2 3 1\n1\n1\n1\n"
    spec = parse_code_text(text)
    assert (spec.p, spec.n, spec.k) == (2, 3, 1)
    assert spec.matrix == ((1,), (1,), (1,))
    with pytest.raises(ValueError, match="p n k"):
        parse_code_text("2 3\n1 1\n")


def test_codewords_rejects_non_indicator():
    rng = np.random.default_rng(0)
    from helpers import mesh_graph

    g = mesh_graph(rng)
    with pytest.raises(ValueError, match="not proportional"):
        codewords(g)


def _outcome(fn):
    try:
        words, scale = fn()
    except ValueError as err:
        return str(err)
    return words, repr(scale)  # repr: a NaN scale equals itself


def _exterior_graph(values):
    """One vertex holding ``values``, every axis a half edge: its exterior is ``values``."""
    axes = [(f"x{i}", Alphabet(k)) for i, k in enumerate(values.shape)]
    return NfgGraph({"v": Factor(make_product_domain(axes), values)},
                    half_edges=[HalfEdge(f"h{l}", ("v", l), a, l) for l, a in axes])


_ENTRIES = [0.0, -0.0, 1e-13, 2.5, 2.5 + 1e-12, -2.5, 1.25, 2.5j, 2.5 + 1e-3j,
            complex("nan"), complex(0, math.inf)]


@st.composite
def _exterior_tables(draw):
    shape = draw(st.lists(st.integers(1, 3), max_size=3))
    entries = draw(st.lists(st.sampled_from(_ENTRIES), min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    return np.array(entries, dtype=np.complex128).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(_exterior_tables())
@example(np.array([2.5, complex("nan"), 0.0]))
def test_codewords_matches_the_loop_oracle(values):
    with np.errstate(all="ignore"):
        got = _outcome(lambda: codewords(_exterior_graph(values)))
        assert got == _outcome(lambda: loop_codewords(values))


def test_codewords_refuses_nan_entries_and_names_the_first_offending_entry():
    # a NaN or infinite entry is refused, naming the first such entry
    with pytest.raises(ValueError) as err:
        codewords(_exterior_graph(np.array([2.5, complex("nan"), complex(0, math.inf)])))
    assert str(err.value) == "exterior entry (1,) is not finite (nan+0j)"
    with pytest.raises(ValueError) as err:
        codewords(_exterior_graph(np.array([[2.5, 0.0], [math.inf, 0.0]])))
    assert str(err.value) == "exterior entry (1, 0) is not finite (inf+0j)"
    with pytest.raises(ValueError) as err:
        codewords(_exterior_graph(np.array([[2.5, 1.25], [-2.5, 0.0]])))
    assert str(err.value) == ("exterior is not proportional to a 0/1 indicator "
                              "(entry 1.25+0j vs scale 2.5+0j)")


def test_dual_via_fourier_builds_and_verifies_one_pair_per_alphabet(monkeypatch):
    from nfgraph import codes
    from nfgraph.indicators import TransformerPair

    calls = {"pair": 0, "kernel": 0, "verify": 0}
    make_pair, make_kernel, verify = (codes.make_fourier_pair, codes.make_indicator,
                                      TransformerPair.verify)

    def counted_pair(alphabet):
        calls["pair"] += 1
        return make_pair(alphabet)

    def counted_kernel(kind, *args, **kwargs):
        calls["kernel"] += kind == "fourier"
        return make_kernel(kind, *args, **kwargs)

    def counted_verify(self, tol=1e-9):
        calls["verify"] += 1
        return verify(self, tol)

    g = generator_realization(LinearCodeSpec(p=2, n=7, k=4, matrix=HAMMING_G))
    monkeypatch.setattr(codes, "make_fourier_pair", counted_pair)
    monkeypatch.setattr(codes, "make_indicator", counted_kernel)
    monkeypatch.setattr(TransformerPair, "verify", counted_verify)
    dual = dual_via_fourier(g)
    assert calls == {"pair": 1, "kernel": 1, "verify": 1}
    assert len(g.internal_edges) == 13
    words, _ = codewords(dual)
    assert len(words) == 8
