"""The benchmark's own checkers against small cases worked out by hand."""

import itertools

import numpy as np
import pytest

from document_rewrite import desc_global, doc_exterior, factor_json_values, strict_json
from refs import (
    CheckError,
    chain_transfer,
    code_words,
    contract_network,
    cyclic_convolution,
    grid_transfer,
    macwilliams_dual,
    orthogonal_complement,
    require_close,
    tree_peel,
    weights,
)


def test_require_close_passes_and_fails():
    require_close([1.0, 2.0], [1.0, 2.0 + 1e-12], "same")
    with pytest.raises(CheckError):
        require_close([1.0, 2.0], [1.0, 2.001], "perturbed")
    with pytest.raises(CheckError):
        require_close([1.0, 2.0], [1.0, 2.0, 3.0], "shape")


def test_chain_transfer_is_the_matrix_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.array([[2.0], [1.0]])
    # a @ b = [[2, 1], [4, 3]];  @ c = [[5], [11]]
    assert np.allclose(chain_transfer([a, b, c]), [[5.0], [11.0]])


def test_tree_peel_on_a_three_vertex_star():
    # centre h(e, f) = [[1, 2], [3, 4]], leaves g(e) = [1, 1], k(f, x) = [[1, 0], [0, 2]]
    tables = {
        "c": (np.array([[1.0, 2.0], [3.0, 4.0]]), ("e", "f")),
        "g": (np.array([1.0, 1.0]), ("e",)),
        "k": (np.array([[1.0, 0.0], [0.0, 2.0]]), ("f", "x")),
    }
    # Z(x) = sum_e,f g(e) h(e,f) k(f,x): column sums of h are [4, 6]; x=0 -> 4, x=1 -> 12
    for root in ("c", "g", "k"):
        assert np.allclose(tree_peel(tables, root, ["x"]), [4.0, 12.0])


def test_grid_transfer_matches_enumeration():
    rng = np.random.default_rng(0)
    t = {name: rng.uniform(size=(2,) * n) for name, n in
         (("a", 3), ("b", 2), ("c", 2), ("d", 3))}
    # 2 x 2 grid: a(x, h0, v0) and c(v0, h1) in the first column,
    # b(h0, v1) and d(h1, v1, y) in the second
    want = np.zeros((2, 2))
    for x, y, h0, h1, v0, v1 in itertools.product(range(2), repeat=6):
        want[x, y] += t["a"][x, h0, v0] * t["b"][h0, v1] * t["c"][v0, h1] * t["d"][h1, v1, y]
    columns = [[(t["a"], ("x", "h0", "v0")), (t["c"], ("v0", "h1"))],
               [(t["b"], ("h0", "v1")), (t["d"], ("h1", "v1", "y"))]]
    got = grid_transfer(columns, [["x"], ["h0", "h1"]], [["h0", "h1"], ["y"]])
    assert np.allclose(got, want)


def test_contract_network_on_a_triangle():
    rng = np.random.default_rng(1)
    f = rng.uniform(size=(2, 3))
    g = rng.uniform(size=(3, 2))
    h = rng.uniform(size=(2, 2, 2))
    want = np.zeros(2)
    for y, s, t, u in itertools.product(range(2), range(3), range(2), range(2)):
        want[y] += f[u, s] * g[s, t] * h[t, u, y]
    got = contract_network([(f, ("u", "s")), (g, ("s", "t")), (h, ("t", "u", "y"))], ["y"])
    assert np.allclose(got, want)


def test_cyclic_convolution_shifts():
    got = cyclic_convolution([np.array([1.0, 2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])])
    assert np.allclose(got, [0.0, 1.0, 2.0, 0.0])
    got = cyclic_convolution([np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0, 0.0])])
    assert np.allclose(got, [1.0, 0.0, 0.0, 0.0])


def test_repetition_code_and_its_dual():
    words = code_words(np.array([[1], [1], [1]]), 2)
    assert words == {(0, 0, 0), (1, 1, 1)}
    dual = orthogonal_complement(np.array([[1, 1, 1]]), 2)
    assert dual == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert weights(words, 3) == [1, 0, 0, 1]
    assert macwilliams_dual([1, 0, 0, 1], 3, 2) == [1.0, 0.0, 3.0, 0.0]
    assert macwilliams_dual([1, 0, 3, 0], 3, 2) == [1.0, 0.0, 0.0, 1.0]


ALPHA = {"b": {"kind": "plain", "size": 2}}


def test_doc_exterior_of_a_two_vertex_document():
    doc = {
        "alphabets": ALPHA,
        "factors": {"f": {"axes": [["x", "b"], ["s", "b"]], "values": [1, 2, 3, 4]},
                    "g": {"axes": [["s", "b"], ["y", "b"]], "values": [1, 0, [0, 1], 1]}},
        "vertices": {"u": "f", "v": "g"},
        "edges": [{"id": "s", "kind": "internal", "alphabet": "b",
                   "ends": [["u", "s"], ["v", "s"]]},
                  {"id": "hx", "kind": "half", "alphabet": "b", "end": ["u", "x"], "var": "x"},
                  {"id": "hy", "kind": "half", "alphabet": "b", "end": ["v", "y"], "var": "y"}],
    }
    # [[1, 2], [3, 4]] @ [[1, 0], [i, 1]]
    want = np.array([[1 + 2j, 2], [3 + 4j, 4]])
    assert np.allclose(doc_exterior(doc, ["x", "y"]), want)
    assert np.allclose(doc_exterior(doc, ["y", "x"]), want.T)


def test_desc_global_product_and_convolution():
    z3 = {"z": {"kind": "group", "moduli": [3]}}
    fg = {"alphabets": ALPHA,
          "factors": {"f": {"axes": [["a", "b"], ["c", "b"]], "values": [1, 2, 3, 4]},
                      "g": {"axes": [["a", "b"]], "values": [5, 7]}},
          "factor_graph": {"variables": [["x", "b"], ["y", "b"]],
                           "functions": [["f1", "f", ["y", "x"]], ["f2", "g", ["x"]]]}}
    # p(x, y) = f(y, x) g(x)
    assert np.allclose(desc_global(fg, "factor_graph"), [[5, 15], [14, 28]])
    cfg = {"alphabets": z3,
           "factors": {"f": {"axes": [["a", "z"]], "values": [0, 1, 0]},
                       "g": {"axes": [["a", "z"]], "values": [2, 0, 1]}},
           "cfg": {"variables": [["x", "z"]],
                   "functions": [["f1", "f", ["x"]], ["f2", "g", ["x"]]]}}
    # a shift by one of [2, 0, 1]
    assert np.allclose(desc_global(cfg, "cfg"), [1, 2, 0])


def test_factor_json_and_strict_json():
    labels, values = factor_json_values({"axes": [["x", {}]], "shape": [2],
                                         "values": [[1.0, 0.5], [2.0, 0.0]]})
    assert labels == ["x"] and np.allclose(values, [1 + 0.5j, 2])
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        strict_json('{"a": NaN}')
