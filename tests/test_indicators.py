import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nfgraph.algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
)
from nfgraph.algebra import character_table, dual_kernel_table
from nfgraph.factor import TableSizeError, conditional_constant, contract, split_decompose
from nfgraph.indicators import (
    INDICATOR_KINDS,
    TransformerPair,
    identity_transformer,
    make_cumulus_pair,
    make_fourier_pair,
    make_indicator,
)

from helpers import (group_alphabets, loop_indicator, loop_sum_indicator, ordered_alphabets,
                     random_transformer_pair)


def test_equality_table():
    eq = make_indicator("eq", Alphabet(2), 3)
    assert eq[0, 0, 0] == 1
    assert eq[1, 1, 1] == 1
    assert eq[0, 1, 0] == 0
    assert eq.values.sum() == 2


def test_sum_indicator_z3():
    s = make_indicator("sum", GroupAlphabet((3,)), 3)
    # 2 + 2 = 1 mod 3
    assert s[1, 2, 2] == 1
    assert s[0, 2, 2] == 0


def test_parity_indicator_z2():
    p = make_indicator("parity", GroupAlphabet((2,)), 3)
    assert p[1, 1, 0] == 1
    assert p[1, 1, 1] == 0


def test_max_indicator():
    m = make_indicator("max", OrderedAlphabet(3), 3)
    # ranks: symbol k has rank k+1, so rank 3 is symbol 2, rank 2 symbol 1
    assert m[2, 1, 2] == 1
    assert m[1, 1, 2] == 0


def test_max_indicator_componentwise_product():
    prod = OrderedProductAlphabet((2, 2))
    m = make_indicator("max", prod, 3)
    for x1 in range(4):
        for x2 in range(4):
            for x3 in range(4):
                c1, c2, c3 = prod.decode(x1), prod.decode(x2), prod.decode(x3)
                expected = float(all(a == max(b, c) for a, b, c in zip(c1, c2, c3)))
                assert m[x1, x2, x3] == expected


def test_eval_and_one():
    ev = make_indicator("eval", Alphabet(3), 1, value=2)
    assert list(ev.values.real) == [0, 0, 1]
    one = make_indicator("one", Alphabet(3), 1)
    assert list(one.values.real) == [1, 1, 1]


def test_kind_alphabet_mismatch():
    with pytest.raises(ValueError):
        make_indicator("sum", Alphabet(3), 3)
    with pytest.raises(TypeError):
        make_indicator("max", Alphabet(3), 3)
    with pytest.raises(ValueError):
        make_indicator("eq", Alphabet(3), 1)
    with pytest.raises(ValueError):
        make_indicator("eval", Alphabet(3), 2, value=0)


def test_bivariate_indicators_all_equal_equality():
    # self-inverse group: bivariate sum == equality exactly
    eq = make_indicator("eq", GroupAlphabet((2, 2)), 2)
    s = make_indicator("sum", GroupAlphabet((2, 2)), 2)
    assert np.array_equal(eq.values, s.values)
    # general group: bivariate sum is the relation x1 = x2, still equality
    s3 = make_indicator("sum", GroupAlphabet((3,)), 2)
    eq3 = make_indicator("eq", GroupAlphabet((3,)), 2)
    assert np.array_equal(s3.values, eq3.values)
    m = make_indicator("max", OrderedAlphabet(4), 2)
    eq4 = make_indicator("eq", OrderedAlphabet(4), 2)
    assert np.array_equal(m.values, eq4.values)


def test_sum_equals_parity_with_negated_first():
    g = GroupAlphabet((3,))
    s = make_indicator("sum", g, 3)
    p = make_indicator("parity", g, 3)
    neg = [(-x) % 3 for x in range(3)]
    assert np.array_equal(s.values, p.values[neg, :, :])


def test_indicator_tables_are_01():
    cases = [
        make_indicator("eq", Alphabet(3), 3),
        make_indicator("sum", GroupAlphabet((3,)), 3),
        make_indicator("parity", GroupAlphabet((2,)), 4),
        make_indicator("max", OrderedAlphabet(3), 3),
        make_indicator("eval", Alphabet(3), 1, value=0),
        make_indicator("one", Alphabet(2), 1),
        make_indicator("cumulus", OrderedAlphabet(4), 2),
    ]
    for f in cases:
        vals = set(np.unique(f.values.real))
        assert vals <= {0.0, 1.0}
        assert np.all(f.values.imag == 0)


def test_sum_max_conditional_equality_split():
    s = make_indicator("sum", GroupAlphabet((4,)), 3)
    assert conditional_constant(s, "arg1") == pytest.approx(1.0)
    m = make_indicator("max", OrderedAlphabet(3), 4)
    assert conditional_constant(m, "arg1") == pytest.approx(1.0)
    eq = make_indicator("eq", Alphabet(3), 4)
    for pivot in eq.labels:
        assert split_decompose(eq, pivot) is not None


def test_cumulus_difference_tables():
    pair = make_cumulus_pair(OrderedAlphabet(3))
    A, D = pair.forward, pair.inverse
    # rank 2 = symbol 1, rank 1 = symbol 0
    assert A[1, 0] == 1
    assert A[0, 1] == 0
    assert D[1, 0] == -1
    assert D[2, 0] == 0
    assert D[2, 2] == 1


@pytest.mark.parametrize("size", [2, 3, 4, 5, 10])
def test_cumulus_pair_inverse_scalar(size):
    pair = make_cumulus_pair(OrderedAlphabet(size))
    assert pair.verify(tol=1e-12) <= 1e-12


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3, 4), (3, 3, 3)])
def test_cumulus_pair_inverse_products(sizes):
    pair = make_cumulus_pair(OrderedProductAlphabet(sizes))
    assert pair.verify(tol=1e-12) <= 1e-12


def test_cumulus_pair_full_contraction_size4():
    pair = make_cumulus_pair(OrderedAlphabet(4))
    a = pair.forward.relabel({"arg1": "x", "arg2": "y"})
    d = pair.inverse.relabel({"arg1": "y", "arg2": "xp"})
    prod = contract([a, d]).transpose(["x", "xp"])
    assert np.array_equal(prod.values.real, np.eye(4))


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 3)])
def test_fourier_pair_inverse(moduli):
    pair = make_fourier_pair(GroupAlphabet(moduli))
    assert pair.verify(tol=1e-12) <= 1e-12


def test_fourier_kappa_table_z2():
    pair = make_fourier_pair(GroupAlphabet((2,)))
    assert np.allclose(pair.forward.values, np.array([[1, 1], [1, -1]]))


def test_fourier_of_parity_is_equality():
    # contracting the kernel on every axis of the degree-3 parity indicator
    g = GroupAlphabet((2,))
    par = make_indicator("parity", g, 3).relabel(
        {"arg1": "x1", "arg2": "x2", "arg3": "x3"})
    kappa = make_indicator("fourier", g, 2)
    ks = [kappa.relabel({"arg1": f"x{i}", "arg2": f"y{i}"}) for i in (1, 2, 3)]
    out = contract([par] + ks).transpose(["y1", "y2", "y3"])
    eq = make_indicator("eq", g, 3)
    # proportional to the equality indicator; scale is |X|^(n-1) = 4
    assert np.allclose(out.values, 4.0 * eq.values, atol=1e-12)


def test_non_inverse_pair_rejected():
    g = GroupAlphabet((2,))
    kappa = make_indicator("fourier", g, 2)
    with pytest.raises(ValueError, match="inverse pair"):
        TransformerPair(forward=kappa, inverse=kappa).verify()


def test_identity_transformer():
    ident = identity_transformer(Alphabet(3))
    assert np.array_equal(ident.values.real, np.eye(3))


@settings(max_examples=30, deadline=None)
@given(group_alphabets, st.sampled_from(["sum", "parity"]), st.integers(2, 3))
def test_sum_and_parity_tables_match_the_loop_oracle(g, kind, degree):
    assume(g.size ** degree <= 4096)
    got = make_indicator(kind, g, degree).values
    want = loop_sum_indicator(kind, g, degree).astype(np.complex128)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, alphabet, degree, states", [
    ("sum", GroupAlphabet((1024,)), 3, 2 ** 30),
    ("parity", GroupAlphabet((32, 32)), 3, 2 ** 30),
    ("eq", Alphabet(1024), 3, 2 ** 30),
    ("max", OrderedAlphabet(1024), 3, 2 ** 30),
    ("fourier", GroupAlphabet((2 ** 13,)), 2, 2 ** 26),
])
def test_make_indicator_refuses_an_oversized_table_before_allocating(
        kind, alphabet, degree, states):
    start = time.process_time()
    tracemalloc.start()
    try:
        with pytest.raises(TableSizeError) as err:
            make_indicator(kind, alphabet, degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1.0
    assert (err.value.states, err.value.cap) == (states, 2 ** 24)
    assert peak < 2 ** 24


_DEGREES = {"eq": (2, 3), "sum": (2, 3), "parity": (2, 3), "max": (2, 3), "eval": (1,),
            "one": (1,), "cumulus": (2,), "difference": (2,), "fourier": (2,),
            "fourier_inv": (2,)}


def _is_deferred(f):
    return getattr(f, "_build", None) is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_deferred_tables_match_the_loop_oracle(data):
    kind = data.draw(st.sampled_from(INDICATOR_KINDS))
    if kind in ("sum", "parity", "fourier", "fourier_inv"):
        alphabet = data.draw(group_alphabets)
    elif kind in ("max", "cumulus", "difference"):
        alphabet = data.draw(ordered_alphabets)
    else:
        alphabet = data.draw(st.one_of(group_alphabets, ordered_alphabets))
    degree = data.draw(st.sampled_from(_DEGREES[kind]))
    assume(alphabet.size ** degree <= 4096)
    value = data.draw(st.integers(0, alphabet.size - 1)) if kind == "eval" else None
    f = make_indicator(kind, alphabet, degree, value=value)
    assert _is_deferred(f) and f.tag == kind
    got = f.values
    assert not _is_deferred(f) and f.values is got
    assert got.dtype == np.complex128 and got.shape == (alphabet.size,) * degree
    assert not got.flags.writeable
    want = loop_indicator(kind, alphabet, degree, value)
    if kind == "fourier":
        assert got.tobytes() == character_table(alphabet).tobytes()
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    elif kind == "fourier_inv":
        assert got.tobytes() == dual_kernel_table(alphabet).tobytes()
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert got.tobytes() == want.astype(np.complex128).tobytes()


def test_relabel_keeps_a_table_deferred():
    f = make_indicator("sum", GroupAlphabet((5,)), 3)
    renamed = f.relabel({"arg1": "s", "arg3": "t"})
    assert renamed.labels == ("s", "arg2", "t") and renamed.tag == "sum"
    assert f.relabel({}) is f and f.relabel({"x": "y"}) is f
    twice = renamed.relabel({"s": "u"})
    assert _is_deferred(f) and _is_deferred(renamed) and _is_deferred(twice)
    # the first read builds the one table that all three share
    assert twice.values.tobytes() == loop_sum_indicator("sum", GroupAlphabet((5,)), 3) \
        .astype(np.complex128).tobytes()
    assert not _is_deferred(f) and np.shares_memory(f.values, twice.values)
    assert np.shares_memory(f.values, renamed.values)
    built = renamed.relabel({"s": "v"})
    assert not _is_deferred(built) and np.shares_memory(built.values, f.values)
    with pytest.raises(AttributeError):
        f.values = None
    with pytest.raises(AttributeError):
        f.other


def test_pair_alphabet_and_verify_bind_members_by_name():
    rng = np.random.default_rng(36)
    pair = random_transformer_pair(rng, Alphabet(3))
    while pair.forward.alphabet("arg2").size == 3:
        pair = random_transformer_pair(rng, Alphabet(3))
    swapped = TransformerPair(pair.forward.transpose(["arg2", "arg1"]),
                              pair.inverse.transpose(["arg2", "arg1"]))
    assert swapped.alphabet == pair.alphabet == Alphabet(3)
    assert swapped.verify() == pair.verify()


@pytest.mark.parametrize("member", ["forward", "inverse"])
def test_verify_names_a_member_with_other_axes(member):
    members = {"forward": make_indicator("cumulus", OrderedAlphabet(3), 2),
               "inverse": make_indicator("difference", OrderedAlphabet(3), 2)}
    members[member] = members[member].relabel({"arg2": "s"})
    with pytest.raises(ValueError, match=rf"^{member} transformer must have axes "
                                         r"'arg1' and 'arg2', got \['arg1', 's'\]$"):
        TransformerPair(**members).verify()
