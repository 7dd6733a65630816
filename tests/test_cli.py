import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nfgraph import cli
from nfgraph.algebra import GroupAlphabet
from nfgraph.cli import main
from nfgraph.document import (
    dump_document,
    graph_to_document,
    load_document,
    loads_document,
)
from nfgraph.exterior import exterior_bruteforce
from nfgraph.factor import factors_allclose
from nfgraph.indicators import make_indicator
from nfgraph.models import fg_global_function

from helpers import mesh_graph, random_nfg

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- document format -------------------------------------------------------------


def test_document_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    g = random_nfg(rng, max_vertices=5, max_internal=6, max_alpha=3)
    doc = graph_to_document(g)
    text = dump_document(doc)
    back = loads_document(text).graph
    assert set(back.vertex_ids) == set(g.vertex_ids)
    for v in g.vertex_ids:
        assert np.array_equal(back.factor(v).values, g.factor(v).values)
    # serialization is deterministic
    assert dump_document(graph_to_document(back)) == text


def test_document_complex_values_roundtrip():
    rng = np.random.default_rng(1)
    from nfgraph.algebra import Alphabet, make_product_domain
    from nfgraph.factor import Factor
    from nfgraph.nfg import HalfEdge, NfgGraph

    b = Alphabet(3)
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = Factor(make_product_domain([("x", b)]), vals)
    g = NfgGraph({"v": f}, half_edges=[HalfEdge("h", ("v", "x"), b, "x")])
    back = loads_document(dump_document(graph_to_document(g))).graph
    assert np.array_equal(back.factor("v").values, vals)


def test_document_indicator_form():
    text = json.dumps({
        "alphabets": {"bit": {"kind": "group", "moduli": [2]}},
        "factors": {
            "par": {"indicator": "parity", "alphabet": "bit", "degree": 3},
            "u": {"axes": [["a", "bit"]], "values": [1.0, 2.0]},
        },
        "vertices": {"p": "par", "u1": "u"},
        "edges": [
            {"id": "e1", "kind": "internal", "alphabet": "bit",
             "ends": [["p", "arg1"], ["u1", "a"]]},
            {"id": "h1", "kind": "half", "alphabet": "bit",
             "end": ["p", "arg2"], "var": "x"},
            {"id": "h2", "kind": "half", "alphabet": "bit",
             "end": ["p", "arg3"], "var": "y"},
        ],
    })
    g = loads_document(text).graph
    assert g.factor("p").tag == "parity"
    z = exterior_bruteforce(g)
    # parity glue: z(x, y) = u(x + y)
    assert z.transpose(["x", "y"]).values[0, 1] == pytest.approx(2.0)


def test_document_errors():
    with pytest.raises(ValueError, match="no graph or model section"):
        loads_document("{}")
    with pytest.raises(ValueError, match="unknown alphabet"):
        loads_document(json.dumps({
            "factors": {"f": {"axes": [["x", "nope"]], "values": [1, 2]}},
            "vertices": {"v": "f"},
            "edges": [{"id": "h", "kind": "half", "alphabet": "nope",
                       "end": ["v", "x"], "var": "x"}],
        }))


# -- checked-in example documents ---------------------------------------------------


ALL_GRAPH_DOCS = [
    "mesh_two_external.json",
    "constrained_pair.json",
    "constrained_triangle.json",
    "indep_chain_constrained.json",
    "indep_chain_generative.json",
    "generative_sum_triangle.json",
    "cdn_transformed.json",
    "elimination_triangle.json",
    "spa_chain_star.json",
    "dsp_pair.json",
    "inference_triangle.json",
    "transform_demo.json",
]


@pytest.mark.parametrize("name", ALL_GRAPH_DOCS)
def test_checked_in_documents_validate(capsys, name):
    code, out, err = run_cli(capsys, "validate", str(GRAPHS / name))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ok"] is True


def test_example_tool_reproduces_graphs(monkeypatch, tmp_path, capsys):
    tool = GRAPHS.parent / "tools" / "make_example_documents.py"
    spec = importlib.util.spec_from_file_location("make_example_documents", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GRAPHS.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GRAPHS / name).read_bytes(), name


def test_classify_constrained_triangle(capsys):
    code, out, _ = run_cli(capsys, "classify", str(GRAPHS / "constrained_triangle.json"))
    assert code == 0
    flags = json.loads(out)
    assert flags["constrained"] is True
    assert flags["interfaces"] == ["x1", "x2", "x3"]


def test_classify_generative_sum(capsys):
    code, out, _ = run_cli(capsys, "classify",
                           str(GRAPHS / "generative_sum_triangle.json"))
    flags = json.loads(out)
    assert flags["generative"] is True
    # cyclic generative model carries the CLI-level notice
    assert "note" in flags


def test_exterior_engines_identical_json(capsys):
    path = str(GRAPHS / "mesh_two_external.json")
    code_b, out_b, _ = run_cli(capsys, "exterior", path, "--algo", "bruteforce")
    code_e, out_e, _ = run_cli(capsys, "exterior", path, "--algo", "eliminate")
    assert code_b == 0 and code_e == 0
    tb = json.loads(out_b)["exterior"]
    te = json.loads(out_e)["exterior"]
    assert tb["axes"] == te["axes"]
    assert np.allclose(np.array(tb["values"], dtype=float),
                       np.array(te["values"], dtype=float), atol=1e-9)
    assert json.loads(out_e)["total_ops"] > 0


def test_exterior_deterministic_rerun(capsys):
    path = str(GRAPHS / "mesh_two_external.json")
    _, out1, _ = run_cli(capsys, "exterior", path, "--algo", "eliminate")
    _, out2, _ = run_cli(capsys, "exterior", path, "--algo", "eliminate")
    assert out1 == out2


def test_spa_subcommand(capsys):
    code, out, _ = run_cli(capsys, "spa", str(GRAPHS / "spa_chain_star.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["messages"] == 8
    assert set(payload["marginals"]) == {"y1", "y2", "y3", "y4"}


def test_transform_subcommand_preserves_exterior(capsys):
    path = GRAPHS / "transform_demo.json"
    code, out, _ = run_cli(capsys, "transform", str(path))
    assert code == 0
    transformed = loads_document(out).graph
    original = load_document(json.loads(path.read_text())).graph
    za = exterior_bruteforce(original)
    zb = exterior_bruteforce(transformed)
    # fourier externals on both variables relate the two exteriors
    from nfgraph.factor import contract
    from nfgraph.indicators import make_indicator
    from nfgraph.algebra import GroupAlphabet

    z2 = GroupAlphabet((2,))
    kx = make_indicator("fourier", z2, 2).relabel({"arg1": "xin", "arg2": "x"})
    ky = make_indicator("fourier", z2, 2).relabel({"arg1": "yin", "arg2": "y"})
    expected = contract([za.relabel({"x": "xin", "y": "yin"}), kx, ky])
    assert factors_allclose(zb, expected, tol=1e-9)


def test_convert_fg_to_nfg_and_back(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "convert", str(GRAPHS / "fg_triangle.json"),
                           "--to", "nfg")
    assert code == 0
    nfg_doc = tmp_path / "converted.json"
    nfg_doc.write_text(out)
    g = loads_document(out).graph
    fg = load_document(json.loads((GRAPHS / "fg_triangle.json").read_text()))
    expected = fg_global_function(fg.factor_graph)
    assert factors_allclose(exterior_bruteforce(g), expected, tol=1e-9)
    code2, out2, _ = run_cli(capsys, "convert", str(nfg_doc), "--to", "fg")
    assert code2 == 0
    assert "factor_graph" in json.loads(out2)


def test_convert_cdn(capsys):
    code, out, _ = run_cli(capsys, "convert", str(GRAPHS / "cdn_transformed.json"),
                           "--to", "cdn")
    assert code == 0
    assert "cdn" in json.loads(out)


def test_codes_list_and_dual(capsys):
    code, out, _ = run_cli(capsys, "codes", "list",
                           str(GRAPHS / "hamming_generator.txt"),
                           "--form", "generator")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    assert payload["weight_distribution"] == [1, 0, 0, 7, 7, 0, 0, 1]

    code, out, _ = run_cli(capsys, "codes", "dual",
                           str(GRAPHS / "hamming_generator.txt"),
                           "--form", "generator")
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["weight_distribution"] == [1, 0, 0, 0, 7, 0, 0, 0]


def test_codes_dual_keeps_coordinate_order_past_ten(capsys, tmp_path):
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
    path = tmp_path / "code_11_3.txt"
    path.write_text("2 11 3\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    code, out, _ = run_cli(capsys, "codes", "dual", str(path), "--form", "generator")
    assert code == 0
    primal = {tuple(sum(r[j] * m[j] for j in range(3)) % 2 for r in rows)
              for m in itertools.product(range(2), repeat=3)}
    complement = [list(y) for y in itertools.product(range(2), repeat=11)
                  if all(sum(a * b for a, b in zip(y, c)) % 2 == 0 for c in primal)]
    assert json.loads(out)["codewords"] == complement


def test_codes_parity_document(capsys):
    code, out, _ = run_cli(capsys, "codes", "parity",
                           str(GRAPHS / "hamming_parity.txt"))
    assert code == 0
    g = loads_document(out).graph
    assert len(g.half_edges) == 7


def test_infer_with_document_query(capsys):
    code, out, _ = run_cli(capsys, "infer", str(GRAPHS / "inference_triangle.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["targets"] == ["x1"]
    assert payload["table"]["shape"] == [2]


def test_infer_with_flags(capsys):
    code, out, _ = run_cli(
        capsys, "infer", str(GRAPHS / "inference_triangle.json"),
        "--target", "x1", "--marginalize", "x3", "--evidence", "x2=1",
        "--algo", "bruteforce", "--normalize")
    assert code == 0
    payload = json.loads(out)
    vals = np.array(payload["table"]["values"], dtype=float)
    assert vals.sum() == pytest.approx(1.0)


def test_sample_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sample",
                           str(GRAPHS / "indep_chain_generative.json"),
                           "--seed", "7", "--count", "4000")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4000
    assert payload["tv_distance"] < 0.08
    code2, out2, _ = run_cli(capsys, "sample",
                             str(GRAPHS / "indep_chain_generative.json"),
                             "--seed", "7", "--count", "4000")
    assert out2 == out


# -- exit codes -------------------------------------------------------------------


def test_exit_1_on_validation_error(capsys, tmp_path):
    bad = {
        "alphabets": {"a2": {"kind": "plain", "size": 2},
                      "a3": {"kind": "plain", "size": 3}},
        "factors": {"f": {"axes": [["x", "a2"]], "values": [1, 2]},
                    "g": {"axes": [["x", "a3"]], "values": [1, 2, 3]}},
        "vertices": {"u": "f", "v": "g"},
        "edges": [{"id": "edge9", "kind": "internal", "alphabet": "a2",
                   "ends": [["u", "x"], ["v", "x"]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "edge9" in err


def test_exit_1_on_an_unhashable_axis(capsys, tmp_path):
    doc = json.loads((GRAPHS / "dsp_pair.json").read_text())
    edge = next(e for e in doc["edges"] if e.get("kind", "internal") == "internal")
    vertex, axis = edge["ends"][0]
    edge["ends"][0] = [vertex, [axis]]
    path = tmp_path / "list_axis.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert f"binds unknown axis ['{axis}']" in err


def test_exit_2_when_a_loaded_indicator_exceeds_the_cap(capsys, tmp_path):
    doc = {
        "alphabets": {"z": {"kind": "group", "moduli": [1024]}},
        "factors": {"s": {"indicator": "sum", "alphabet": "z", "degree": 3}},
        "vertices": {"v": "s"},
        "edges": [{"id": f"h{k}", "kind": "half", "alphabet": "z",
                   "end": ["v", f"arg{k}"], "var": f"x{k}"} for k in (1, 2, 3)],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert "state space of size 1073741824 exceeds the cap 16777216" in err


def test_exit_2_on_contract_failure(capsys):
    # spa on a cyclic graph is a computation-stage failure
    code, out, err = run_cli(capsys, "spa", str(GRAPHS / "mesh_two_external.json"))
    assert code == 2
    assert "cycle" in err


def test_exit_2_when_the_compute_stage_runs_out_of_memory(capsys, monkeypatch):
    def exhausted(args, prepared):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "exterior", exhausted)
    code, out, err = run_cli(capsys, "exterior", str(GRAPHS / "mesh_two_external.json"))
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_exit_64_on_usage_error(capsys):
    code, out, err = run_cli(capsys, "nonsense")
    assert code == 64
    code, out, err = run_cli(capsys, "exterior")
    assert code == 64
    for count in ("0", "-3"):
        code, out, err = run_cli(capsys, "sample", str(GRAPHS / "indep_chain_generative.json"),
                                 "--seed", "7", "--count", count)
        assert (code, out) == (64, "")
        assert "positive integer" in err


def test_reused_parser_carries_no_values_across_calls(capsys):
    path = str(GRAPHS / "inference_triangle.json")
    code, from_document, _ = run_cli(capsys, "infer", path)
    assert code == 0
    code, flagged, _ = run_cli(capsys, "infer", path, "--target", "x3",
                               "--evidence", "x1=0", "--evidence", "x2=1")
    assert code == 0
    assert json.loads(flagged)["targets"] == ["x3"]
    # no --target/--evidence values left over: the document's query runs again
    assert run_cli(capsys, "infer", path) == (0, from_document, "")
    code, twice, _ = run_cli(capsys, "infer", path, "--target", "x3", "--evidence", "x1=0",
                             "--evidence", "x2=1")
    assert (code, twice) == (0, flagged)
    assert run_cli(capsys, "exterior")[0] == 64
    assert run_cli(capsys, "infer", path, "--evidence", "x2")[0] == 64
    assert run_cli(capsys, "infer", path) == (0, from_document, "")


def test_exit_2_when_an_elimination_table_exceeds_the_cap(capsys, tmp_path):
    # a dense [15,7] binary generator matrix: greedy elimination would build a
    # 2^25-entry intermediate for a 2^15-entry exterior
    rows = ["1000010", "0011110", "1010010", "1001011", "1001111", "1000000", "1111111",
            "0110011", "1000100", "1110111", "0011110", "1000101", "0100011", "0110000",
            "1011100"]
    path = tmp_path / "dense.txt"
    path.write_text("2 15 7\n" + "\n".join(" ".join(r) for r in rows) + "\n")
    code, out, err = run_cli(capsys, "codes", "list", str(path))
    assert (code, out) == (2, "")
    assert "exceeds the cap 16777216" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nfgraph.cli", "classify",
         str(GRAPHS / "constrained_triangle.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["constrained"] is True


# -- semantic checks for the remaining checked-in documents -------------------------


def test_constrained_pair_document_semantics(capsys):
    code, out, _ = run_cli(capsys, "classify", str(GRAPHS / "constrained_pair.json"))
    assert code == 0
    flags = json.loads(out)
    assert flags["constrained"] is True
    code, out, _ = run_cli(capsys, "sample", str(GRAPHS / "constrained_pair.json"),
                           "--seed", "3", "--count", "5000")
    assert code == 0
    assert json.loads(out)["tv_distance"] < 0.08


def test_dsp_pair_document_semantics():
    from nfgraph.exterior import derivative_sum_product

    doc = load_document(json.loads((GRAPHS / "dsp_pair.json").read_text()))
    out = derivative_sum_product(doc.graph, {"x1": 1, "x2": 2})
    assert set(out) == {"x1", "x2"}
    # the running sum inverts the outer difference, recovering the
    # difference-in-x2 of the joint evaluated at the evidence
    z = exterior_bruteforce(doc.graph).transpose(["x1", "x2"]).values.real
    reduced = z[:, 2] - z[:, 1]
    assert np.allclose(np.cumsum(out["x1"].values.real), reduced, atol=1e-9)


def test_elimination_triangle_document(capsys):
    path = str(GRAPHS / "elimination_triangle.json")
    _, out_b, _ = run_cli(capsys, "exterior", path, "--algo", "bruteforce")
    _, out_e, _ = run_cli(capsys, "exterior", path, "--algo", "eliminate")
    vb = np.array(json.loads(out_b)["exterior"]["values"], dtype=float)
    ve = np.array(json.loads(out_e)["exterior"]["values"], dtype=float)
    assert np.allclose(vb, ve, atol=1e-9)


def test_generative_sum_triangle_roundtrip(capsys, tmp_path):
    path = GRAPHS / "generative_sum_triangle.json"
    code, out, _ = run_cli(capsys, "convert", str(path), "--to", "cfg")
    assert code == 0
    cfg_doc = json.loads(out)
    assert "cfg" in cfg_doc
    back = tmp_path / "cfg.json"
    back.write_text(out)
    code2, out2, _ = run_cli(capsys, "convert", str(back), "--to", "nfg")
    assert code2 == 0
    g1 = load_document(json.loads(path.read_text())).graph
    g2 = loads_document(out2).graph
    z1 = exterior_bruteforce(g1)
    z2 = exterior_bruteforce(g2).transpose(z1.labels)
    assert factors_allclose(z1, z2, tol=1e-9)


def test_indep_chain_documents():
    from nfgraph.models import independence

    cons = load_document(json.loads(
        (GRAPHS / "indep_chain_constrained.json").read_text())).graph
    assert independence(cons, ["x"], ["z"], ["y"]).kind == "conditional"
    gen = load_document(json.loads(
        (GRAPHS / "indep_chain_generative.json").read_text())).graph
    assert independence(gen, ["x"], ["z"], ["y"]).kind == "marginal"


def _tagged_star_document(values, tag="sum"):
    """A degree-3 Z_4 vertex with explicit ``values`` tagged ``tag``, and a leaf per axis."""
    leaf = [0.5, 1.0, 0.25, 2.0]
    return {
        "alphabets": {"z": {"kind": "group", "moduli": [4]}},
        "factors": {
            "s": {"axes": [[f"arg{k}", "z"] for k in (1, 2, 3)],
                  "values": [float(v) for v in values], "tag": tag},
            "leaf": {"axes": [["a", "z"]], "values": leaf},
        },
        "vertices": {"c": "s", "l1": "leaf", "l2": "leaf", "l3": "leaf"},
        "edges": [{"id": f"e{k}", "alphabet": "z", "ends": [["c", f"arg{k}"], [f"l{k}", "a"]]}
                  for k in (1, 2, 3)],
    }


def test_exit_1_on_a_document_whose_kernel_tag_is_false(capsys, tmp_path):
    table = make_indicator("sum", GroupAlphabet((4,)), 3).values.real.reshape(-1)
    path = tmp_path / "star.json"
    path.write_text(json.dumps(_tagged_star_document(table)))
    code, out, _ = run_cli(capsys, "spa", str(path))
    assert code == 0
    code, _, _ = run_cli(capsys, "validate", str(path))
    assert code == 0

    forged = table.copy()
    forged[5] = 1.0 - forged[5]
    for tag in ("sum", "eq", "max"):
        path.write_text(json.dumps(_tagged_star_document(forged if tag == "sum" else table, tag)))
        for command in ("spa", "exterior"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (1, "")
            assert f"factor 's': values are not the '{tag}' indicator its tag declares" in err
