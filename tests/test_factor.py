import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfgraph.algebra import Alphabet, GroupAlphabet, make_product_domain
from nfgraph.factor import (
    Factor,
    conditional_constant,
    contract,
    factors_allclose,
    marginalize,
    multiply_pointwise,
    split_decompose,
)
from nfgraph.indicators import make_indicator


def _rng_factor(rng, labels, sizes, complex_values=False):
    dom = make_product_domain([(l, Alphabet(s)) for l, s in zip(labels, sizes)])
    vals = rng.standard_normal(dom.shape)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(dom.shape)
    return Factor(dom, vals)


def naive_contract(factors):
    """Independent oracle: explicit nested loops over every label assignment."""
    labels = {}
    for f in factors:
        for l, a in f.domain.axes:
            labels.setdefault(l, a.size)
    counts = {}
    for f in factors:
        for l in f.labels:
            counts[l] = counts.get(l, 0) + 1
    out_labels = []
    for f in factors:
        for l in f.labels:
            if counts[l] == 1 and l not in out_labels:
                out_labels.append(l)
    summed = [l for l in labels if counts[l] == 2]
    out_shape = tuple(labels[l] for l in out_labels)
    out = np.zeros(out_shape, dtype=np.complex128)
    for out_assign in itertools.product(*(range(labels[l]) for l in out_labels)):
        env = dict(zip(out_labels, out_assign))
        total = 0.0 + 0.0j
        for s_assign in itertools.product(*(range(labels[l]) for l in summed)):
            env.update(zip(summed, s_assign))
            prod = 1.0 + 0.0j
            for f in factors:
                prod *= f.values[tuple(env[l] for l in f.labels)]
            total += prod
        out[out_assign] = total
    return out_labels, out


def test_contract_single_factor_unchanged():
    rng = np.random.default_rng(0)
    f = _rng_factor(rng, ["x", "y"], [2, 3])
    g = contract([f])
    assert g.labels == f.labels
    assert np.array_equal(g.values, f.values)


def test_contract_equality_relabels():
    rng = np.random.default_rng(1)
    f = _rng_factor(rng, ["y", "z"], [3, 2])
    delta = make_indicator("eq", Alphabet(3), 2).relabel({"arg1": "x", "arg2": "y"})
    g = contract([delta, f])
    assert g.labels == ("x", "z")
    assert np.allclose(g.values, f.values)


def test_contract_hand_loop_value():
    dom = make_product_domain([("x", Alphabet(2))])
    f = Factor(dom, [1, 2])
    g = Factor(dom, [3, 4])
    out = contract([f, g])
    # hand loop: 1*3 + 2*4
    assert out.item() == pytest.approx(11.0)


def test_contract_errors():
    rng = np.random.default_rng(2)
    a = _rng_factor(rng, ["x"], [2])
    b = _rng_factor(rng, ["x"], [3])
    with pytest.raises(ValueError, match="alphabet mismatch"):
        contract([a, b])
    c = _rng_factor(rng, ["x"], [2])
    d = _rng_factor(rng, ["x"], [2])
    with pytest.raises(ValueError, match="more than two"):
        contract([a, c, d])


@pytest.mark.parametrize("seed", range(12))
def test_contract_matches_naive_and_is_order_invariant(seed):
    rng = np.random.default_rng(1000 + seed)
    n_factors = int(rng.integers(2, 7))
    pool = [f"v{i}" for i in range(8)]
    sizes = {l: int(rng.integers(2, 5)) for l in pool}
    counts = {l: 0 for l in pool}
    factors = []
    for _ in range(n_factors):
        avail = [l for l in pool if counts[l] < 2]
        k = int(rng.integers(1, min(3, len(avail)) + 1))
        chosen = list(rng.choice(avail, size=k, replace=False))
        for l in chosen:
            counts[l] += 1
        factors.append(_rng_factor(rng, chosen, [sizes[l] for l in chosen],
                                   complex_values=True))
    labels, expected = naive_contract(factors)
    got = contract(factors)
    assert list(got.labels) == labels
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(got.values - expected)) <= 1e-9 * scale

    perm = list(rng.permutation(n_factors))
    reordered = contract([factors[i] for i in perm])
    reordered = reordered.transpose(got.labels)
    assert np.max(np.abs(reordered.values - got.values)) <= 1e-9 * scale

    if n_factors >= 3:
        partial = contract([factors[perm[0]], factors[perm[1]]])
        grouped = contract([partial] + [factors[i] for i in perm[2:]])
        grouped = grouped.transpose(got.labels)
        assert np.max(np.abs(grouped.values - got.values)) <= 1e-9 * scale


try:
    from numpy._core.einsumfunc import bmm_einsum  # noqa: F401
    _PAIRS_BY_MATMUL = True
except ImportError:
    _PAIRS_BY_MATMUL = False

# real and imaginary parts per table: mostly signed zeros, whose signs a sum
# can keep or lose, or mostly normal draws (None), whose products round, so a
# change in summation order shows
_PARTS = (st.sampled_from([0.0, -0.0, -0.0, 1.0, -1.0]),
          st.sampled_from([0.0, -0.0, None, None, None]))


@st.composite
def _factor_lists(draw):
    """1-4 factors whose labels each sit on one or two of them, sizes 1-3.

    Tables are stored in a drawn memory order, as transposed contraction
    results are.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), max_size=6))
    labels_of = [[] for _ in range(n)]
    for k in range(len(sizes)):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n),
                               unique=True)):
            labels_of[i].append(k)
    factors = []
    for ks in labels_of:
        ks = draw(st.permutations(ks))
        shape = tuple(sizes[k] for k in ks)
        count = math.prod(shape)
        parts = [rng.standard_normal() if x is None else x
                 for x in draw(st.lists(_PARTS[draw(st.integers(0, 1))], min_size=2 * count,
                                        max_size=2 * count))]
        values = np.empty(count, dtype=np.complex128)
        values.real, values.imag = parts[::2], parts[1::2]
        order = draw(st.permutations(range(len(shape))))
        values = values.reshape(shape).transpose(order).copy()
        values = values.transpose(np.argsort(order))
        dom = make_product_domain([(f"l{k}", Alphabet(sizes[k])) for k in ks])
        factors.append(Factor(dom, values))
    return factors


def _table(axes, values):
    return Factor(make_product_domain([(l, Alphabet(n)) for l, n in axes]), values)


@pytest.mark.skipif(not _PAIRS_BY_MATMUL,
                    reason="this numpy's einsum does not contract pairs through matmul")
@settings(max_examples=400, deadline=None)
@given(_factor_lists())
# numpy drops the size-1 axes with a summing copy before its matmul ...
@example([_table([("s", 2), ("q", 2)], [[-0.0, 1], [-0.0, 1]]),
          _table([("p", 2), ("s", 2), ("o", 1)], [[[-0.0], [-0.0]], [[1], [1]]])])
# ... and the shared size-1 axis before its multiply
@example([_table([("s", 1), ("x", 2)], [[-0.0, 1]]), _table([("s", 1), ("y", 2)], [[1, -0.0]])])
def test_contract_is_bit_identical_to_optimized_einsum(factors):
    counts = {}
    for f in factors:
        for l in f.labels:
            counts[l] = counts.get(l, 0) + 1
    out = [l for f in factors for l in f.labels if counts[l] == 1]
    ids = {}
    operands = []
    for f in factors:
        operands += [f.values, [ids.setdefault(l, len(ids)) for l in f.labels]]
    want = np.einsum(*operands, [ids[l] for l in out], optimize=True)
    got = contract(factors)
    assert list(got.labels) == out
    assert got.values.shape == want.shape
    assert got.values.tobytes() == want.tobytes()  # signed zeros count


def test_marginalize_sum_of_equality_is_one():
    delta = make_indicator("eq", Alphabet(3), 2).relabel({"arg1": "x", "arg2": "y"})
    out = marginalize(delta, "x", "sum")
    assert out.labels == ("y",)
    assert np.allclose(out.values, np.ones(3))


def test_marginalize_evaluate_equals_evaluation_indicator():
    rng = np.random.default_rng(3)
    f = _rng_factor(rng, ["x", "y"], [3, 2])
    sliced = marginalize(f, "x", "evaluate", value=1)
    ev = make_indicator("eval", Alphabet(3), 1, value=1).relabel({"arg1": "x"})
    via_contract = contract([ev, f])
    assert factors_allclose(sliced, via_contract)


def test_marginalize_total_probability():
    rng = np.random.default_rng(4)
    f = _rng_factor(rng, ["x", "y"], [2, 3])
    p = Factor(f.domain, np.abs(f.values.real))
    p = Factor(p.domain, p.values / p.values.sum())
    out = marginalize(marginalize(p, "x"), "y")
    assert out.item() == pytest.approx(1.0)


def test_marginalize_commutes_over_disjoint_axes():
    rng = np.random.default_rng(5)
    f = _rng_factor(rng, ["x", "y", "z"], [2, 3, 2])
    a = marginalize(marginalize(f, "x"), "z")
    b = marginalize(marginalize(f, "z"), "x")
    assert factors_allclose(a, b)
    with pytest.raises(KeyError):
        marginalize(f, "w")


def test_split_decompose_bivariate_returns_itself():
    rng = np.random.default_rng(6)
    f = _rng_factor(rng, ["x", "y"], [2, 3])
    parts = split_decompose(f, "x")
    assert parts is not None and len(parts) == 1
    assert factors_allclose(parts[0], f)


def test_split_decompose_equality_any_pivot():
    eq = make_indicator("eq", Alphabet(3), 3)
    for pivot in eq.labels:
        parts = split_decompose(eq, pivot)
        assert parts is not None
        rebuilt = parts[0]
        for p in parts[1:]:
            rebuilt = multiply_pointwise(rebuilt, p)
        assert factors_allclose(rebuilt, eq)


def test_split_decompose_parity_fails():
    # each pivot slice of the degree-3 parity table is a rank-2 0/1 matrix
    par = make_indicator("parity", GroupAlphabet((2,)), 3)
    for v in range(2):
        slc = par.values[v]
        assert np.linalg.matrix_rank(slc) == 2
    assert split_decompose(par, "arg1") is None


@pytest.mark.parametrize("seed", range(8))
def test_split_decompose_reconstructs_random_split(seed):
    rng = np.random.default_rng(2000 + seed)
    sizes = [int(rng.integers(2, 4)) for _ in range(4)]
    pieces = [rng.standard_normal((sizes[0], s)) + 1j * rng.standard_normal((sizes[0], s))
              for s in sizes[1:]]
    table = np.einsum("pa,pb,pc->pabc", *pieces)
    dom = make_product_domain([(l, Alphabet(s)) for l, s in zip("pabc", sizes)])
    f = Factor(dom, table)
    parts = split_decompose(f, "p")
    assert parts is not None
    rebuilt = parts[0]
    for part in parts[1:]:
        rebuilt = multiply_pointwise(rebuilt, part)
    assert factors_allclose(rebuilt, f)
    for part in parts[1:]:
        for v in range(sizes[0]):
            row = part.values[v]
            assert np.max(np.abs(row)) == pytest.approx(1.0)


def test_split_decompose_rejects_generic_table():
    rng = np.random.default_rng(7)
    f = _rng_factor(rng, ["p", "a", "b"], [2, 3, 3])
    assert split_decompose(f, "p") is None


def test_conditional_constant_sum_indicator():
    s = make_indicator("sum", GroupAlphabet((3,)), 3)
    assert conditional_constant(s, "arg1") == pytest.approx(1.0)


def test_conditional_constant_max_indicator():
    from nfgraph.algebra import OrderedAlphabet

    m = make_indicator("max", OrderedAlphabet(3), 3)
    assert conditional_constant(m, "arg1") == pytest.approx(1.0)


def test_conditional_constant_equality_absent():
    eq = make_indicator("eq", Alphabet(2), 3)
    # direct evaluation: the pivot sum is [x2 == x3], not constant
    assert conditional_constant(eq, "arg1") is None


def test_factor_immutable():
    f = Factor(make_product_domain([("x", Alphabet(2))]), [1, 2])
    with pytest.raises(AttributeError):
        f.tag = "eq"
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_transpose_and_relabel_return_self_when_nothing_changes():
    rng = np.random.default_rng(9)
    f = Factor(_rng_factor(rng, ["x", "y"], [2, 3]).domain, np.arange(6), tag="eq")
    assert f.transpose(["x", "y"]) is f
    assert f.relabel({}) is f
    assert f.relabel({"x": "x", "z": "w"}) is f
    swapped = f.transpose(["y", "x"])
    assert swapped.labels == ("y", "x") and swapped.tag == "eq"
    assert np.array_equal(swapped.values, f.values.T)
    renamed = f.relabel({"x": "u"})
    assert renamed.labels == ("u", "y") and np.array_equal(renamed.values, f.values)
    with pytest.raises(KeyError, match="unknown axis label 'z'"):
        f.transpose(["x", "z"])
    with pytest.raises(ValueError, match="not a permutation"):
        f.transpose(["x"])
    with pytest.raises(ValueError, match="not a permutation"):
        f.transpose(["x", "x"])
    scalar = Factor.scalar(2.0)
    assert scalar.transpose([]) is scalar


def test_split_decompose_positive_matches_conditional_form():
    # a positive split factor factors, up to scale, as a prior on the pivot
    # times independent conditionals; the decomposition reproduces that form
    rng = np.random.default_rng(8)
    sizes = [3, 2, 4]
    pieces = [rng.uniform(0.2, 1.0, size=(sizes[0], s)) for s in sizes[1:]]
    table = np.einsum("pa,pb->pab", *pieces)
    dom = make_product_domain([(l, Alphabet(s)) for l, s in zip("pab", sizes)])
    f = Factor(dom, table)
    parts = split_decompose(f, "p")
    assert parts is not None
    # conditional of each tail variable given the pivot, from f directly
    for part, axis in zip(parts, ("a", "b")):
        other = "b" if axis == "a" else "a"
        direct = marginalize(f, other, "sum").transpose(["p", axis]).values.real
        direct = direct / direct.sum(axis=1, keepdims=True)
        got = part.values.real
        got = got / got.sum(axis=1, keepdims=True)
        assert np.allclose(got, direct, atol=1e-9)


def test_transpose_keeps_a_tag_only_where_the_table_is_still_that_indicator():
    from nfgraph.algebra import OrderedAlphabet

    z = GroupAlphabet((3,))
    cases = [
        (make_indicator("eq", Alphabet(2), 3), ["arg3", "arg1", "arg2"], "eq"),
        (make_indicator("parity", z, 3), ["arg2", "arg3", "arg1"], "parity"),
        (make_indicator("fourier", z, 2), ["arg2", "arg1"], "fourier"),
        (make_indicator("fourier_inv", z, 2), ["arg2", "arg1"], "fourier_inv"),
        (make_indicator("sum", z, 3), ["arg1", "arg3", "arg2"], "sum"),
        (make_indicator("sum", z, 3), ["arg2", "arg1", "arg3"], None),
        (make_indicator("max", OrderedAlphabet(3), 3), ["arg1", "arg3", "arg2"], "max"),
        (make_indicator("max", OrderedAlphabet(3), 3), ["arg3", "arg2", "arg1"], None),
        (make_indicator("cumulus", OrderedAlphabet(3), 2), ["arg2", "arg1"], None),
        (Factor(make_product_domain([("x", z), ("y", z)]), np.eye(3), tag="scale"),
         ["y", "x"], None),
    ]
    for f, order, tag in cases:
        out = f.transpose(order)
        assert out.tag == tag, (f.tag, order)
        if tag is not None:
            # the reordered table is still the tagged indicator (the dual
            # kernel's phases round differently on the two sides)
            built = make_indicator(tag, f.alphabet("arg1"), f.ndim).values
            if tag == "fourier_inv":
                assert np.allclose(out.values, built, rtol=0, atol=1e-15)
            else:
                assert out.values.tobytes() == built.tobytes()
