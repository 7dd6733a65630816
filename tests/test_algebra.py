import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfgraph.algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    ProductDomain,
    character,
    character_table,
    dual_kernel_table,
    group_add,
    group_neg,
    group_tables,
    make_product_domain,
    ordered_sizes,
)

from helpers import group_alphabets, loop_group_tables


def test_domain_sizes():
    d = make_product_domain([("x", Alphabet(2)), ("y", Alphabet(3))])
    assert d.size == 6
    assert d.shape == (2, 3)

    scalar = make_product_domain([])
    assert scalar.size == 1
    assert scalar.ndim == 0


def test_duplicate_label_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_product_domain([("x", Alphabet(2)), ("x", Alphabet(2))])


def test_domain_equality_and_hash_depend_on_axes_alone():
    axes = [("x", Alphabet(2)), ("y", GroupAlphabet((3,)))]
    a = make_product_domain(axes)
    b = ProductDomain(tuple(axes))
    assert (a.labels, a.shape, a.size, a.axis_index("y")) == (("x", "y"), (2, 3), 6, 1)
    assert [f.name for f in dataclasses.fields(ProductDomain) if f.compare] == ["axes"]
    object.__setattr__(b, "labels", ("stale",))
    object.__setattr__(b, "size", 0)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert make_product_domain(axes[::-1]) != a
    with pytest.raises(KeyError, match="unknown axis label 'z'"):
        a.axis_index("z")


def test_row_major_last_axis_fastest():
    d = make_product_domain([("x", Alphabet(2)), ("y", Alphabet(3))])
    assert d.index_of((0, 0)) == 0
    assert d.index_of((0, 1)) == 1
    assert d.index_of((1, 0)) == 3
    assert d.coords_of(5) == (1, 2)


def test_index_roundtrip_all():
    d = make_product_domain([("a", Alphabet(2)), ("b", Alphabet(3)), ("c", Alphabet(4))])
    for i in range(d.size):
        assert d.index_of(d.coords_of(i)) == i


def test_group_add_examples():
    z3 = GroupAlphabet((3,))
    assert group_add(z3, 2, 2) == 1
    z6 = GroupAlphabet((2, 3))
    # (1,2) + (1,2) = (0,1)
    x = z6.encode((1, 2))
    assert z6.decode(group_add(z6, x, x)) == (0, 1)


@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3), st.data())
def test_group_identity_and_inverse(moduli, data):
    g = GroupAlphabet(tuple(moduli))
    a = data.draw(st.integers(min_value=0, max_value=g.size - 1))
    assert group_add(g, a, 0) == a
    assert group_add(g, a, group_neg(g, a)) == 0


@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3))
def test_mixed_radix_roundtrip(moduli):
    g = GroupAlphabet(tuple(moduli))
    for x in range(g.size):
        assert g.encode(g.decode(x)) == x


def test_character_examples():
    z2 = GroupAlphabet((2,))
    for xhat in range(2):
        assert character(z2, 0, xhat) == pytest.approx(1.0)
    assert character(z2, 1, 1) == pytest.approx(-1.0)
    z4 = GroupAlphabet((4,))
    assert character(z4, 1, 1) == pytest.approx(1j)


def test_character_homomorphism_exhaustive():
    for moduli in [(2,), (3,), (4,), (2, 2), (2, 3), (2, 2, 2)]:
        g = GroupAlphabet(moduli)
        assert g.size <= 16
        for x in range(g.size):
            for y in range(g.size):
                for xhat in range(g.size):
                    lhs = character(g, group_add(g, x, y), xhat)
                    rhs = character(g, x, xhat) * character(g, y, xhat)
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_character_factors_over_components():
    g = GroupAlphabet((2, 3))
    for x in range(g.size):
        for xhat in range(g.size):
            px, ph = g.decode(x), g.decode(xhat)
            parts = [character(GroupAlphabet((m,)), a, b)
                     for a, b, m in zip(px, ph, g.moduli)]
            assert character(g, x, xhat) == pytest.approx(math.prod(parts))


def test_character_table_matches_scalar():
    g = GroupAlphabet((2, 3))
    table = character_table(g)
    for x in range(g.size):
        for xhat in range(g.size):
            assert table[x, xhat] == pytest.approx(character(g, x, xhat))


def test_dual_kernel_inverts():
    for moduli in [(2,), (3,), (2, 2), (2, 3)]:
        g = GroupAlphabet(moduli)
        prod = character_table(g) @ dual_kernel_table(g).T
        assert np.allclose(prod, np.eye(g.size), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(group_alphabets)
def test_group_tables_match_the_scalar_ops(g):
    add, neg = group_tables(g)
    want_add, want_neg = loop_group_tables(g)
    assert add.dtype == neg.dtype == np.intp
    assert add.tobytes() == want_add.tobytes()
    assert neg.tobytes() == want_neg.tobytes()


def test_ordered_alphabet_ranks():
    a = OrderedAlphabet(3)
    assert a.rank(0) == 1
    assert a.rank(2) == 3
    assert a.top == 2
    assert ordered_sizes(a) == (3,)
    p = OrderedProductAlphabet((2, 3))
    assert p.size == 6
    assert ordered_sizes(p) == (2, 3)
    with pytest.raises(TypeError):
        ordered_sizes(Alphabet(3))


def test_out_of_range_rejected():
    g = GroupAlphabet((2, 3))
    with pytest.raises(ValueError):
        g.check(6)
    with pytest.raises(ValueError):
        Alphabet(0)
