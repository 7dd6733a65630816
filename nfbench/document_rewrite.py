"""Workload ``document_rewrite``: the CLI over documents, in-process.

Each request is one ``nfgraph.cli.main`` call with standard output captured.
The request list holds every subcommand that succeeds on the checked-in
``graphs/`` documents and code files, plus seeded mid-size documents written
during set-up: chains with cumulus ``transform`` sections, factor-graph and
convolutional-factor-graph documents to convert both ways, ``infer`` queries
and ``sample`` runs.  Tables are small, so the time goes to JSON load and
dump, ``classify``, conversions and rewrites that build a new ``NfgGraph``
at every step.

Every call must exit 0, print strict JSON and print the same bytes in every
round; exteriors are checked against the benchmark's own contraction of the
documents involved.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from nfgraph import (
    Alphabet,
    Factor,
    HalfEdge,
    InternalEdge,
    NfgGraph,
    OrderedAlphabet,
    cfg_to_nfg,
    dump_document,
    fg_to_nfg,
    graph_to_document,
    load_document,
    make_product_domain,
)
from nfgraph import cli
from nfgraph.algebra import GroupAlphabet
from nfgraph.document import desc_to_document
from nfgraph.models import CfgDesc, FactorGraphDesc

from harness import Request, stratified
from refs import code_words, contract_network, einsum_labels, macwilliams_dual
from refs import orthogonal_complement
from refs import require, require_close, weights

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
PER_KIND = 12
SAMPLE_COUNT = 10000
TV_BOUND = 0.05  # expected TV at 10^4 draws over <= 27 outcomes is below 0.02

# (kind, smallest size, largest size): chain vertices, FG/CFG variables
GENERATED = (
    ("chain_transform", 8, 40),
    ("chain_exterior", 8, 40),
    ("fg_to_nfg", 4, 8),
    ("nfg_to_fg", 4, 8),
    ("classify_fg_model", 4, 8),
    ("infer", 4, 8),
    ("cfg_to_nfg", 3, 5),
    ("nfg_to_cfg", 3, 5),
    ("sample", 3, 4),
)

# subcommands that succeed on the checked-in documents
GRAPH_DOCS = (
    "cdn_transformed.json", "constrained_pair.json", "constrained_triangle.json",
    "dsp_pair.json", "elimination_triangle.json", "generative_sum_triangle.json",
    "indep_chain_constrained.json", "indep_chain_generative.json",
    "inference_triangle.json", "mesh_two_external.json", "spa_chain_star.json",
    "transform_demo.json",
)
FIXED_EXTRA = (
    ("spa", "constrained_pair.json"), ("spa", "dsp_pair.json"),
    ("spa", "indep_chain_constrained.json"), ("spa", "indep_chain_generative.json"),
    ("spa", "spa_chain_star.json"),
    ("transform", "transform_demo.json"),
    ("convert --to nfg", "fg_triangle.json"), ("convert --to nfg", "cfg_triangle.json"),
    ("convert --to fg", "constrained_triangle.json"), ("convert --to fg", "dsp_pair.json"),
    ("convert --to cfg", "generative_sum_triangle.json"),
    ("convert --to cdn", "cdn_transformed.json"),
    ("infer", "inference_triangle.json"),
    ("sample --seed 7", "constrained_pair.json"), ("sample --seed 7", "constrained_triangle.json"),
    ("sample --seed 7", "dsp_pair.json"), ("sample --seed 7", "generative_sum_triangle.json"),
    ("sample --seed 7", "indep_chain_constrained.json"),
    ("sample --seed 7", "indep_chain_generative.json"),
)
CODE_CALLS = (
    ("gen", "hamming_generator.txt", "generator"), ("parity", "hamming_parity.txt", "parity"),
    ("list", "hamming_generator.txt", "generator"), ("dual", "hamming_generator.txt", "generator"),
    ("list", "hamming_parity.txt", "parity"), ("dual", "hamming_parity.txt", "parity"),
)


# -- reading documents and CLI output without the library ------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-JSON number {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _alphabet_size(spec: Dict) -> int:
    return int(spec["size"]) if "size" in spec else math.prod(spec["moduli"])


def _flat_values(raw: Sequence, shape: Sequence[int]) -> np.ndarray:
    flat = [complex(v[0], v[1]) if isinstance(v, list) else v for v in raw]
    return np.array(flat, dtype=np.complex128).reshape(shape)


def _doc_factors(doc: Dict) -> Dict[str, Tuple[np.ndarray, List[str]]]:
    sizes = {name: _alphabet_size(spec) for name, spec in doc["alphabets"].items()}
    return {name: (_flat_values(spec["values"], [sizes[a] for _, a in spec["axes"]]),
                   [label for label, _ in spec["axes"]])
            for name, spec in doc["factors"].items()}


def doc_exterior(doc: Dict, order: Sequence[str] = None) -> np.ndarray:
    """Exterior of a graph document by contracting its tables directly."""
    factors = _doc_factors(doc)
    label_of, externals = {}, []
    for e in doc["edges"]:
        if e.get("kind", "internal") == "internal":
            for v, axis in e["ends"]:
                label_of[(v, axis)] = "#" + e["id"]
        else:
            label_of[tuple(e["end"])] = e["var"]
            externals.append(e["var"])
    tables = []
    for vid, fname in doc["vertices"].items():
        values, axes = factors[fname]
        tables.append((values, tuple(label_of[(vid, a)] for a in axes)))
    return contract_network(tables, list(order) if order is not None else sorted(externals))


def desc_global(doc: Dict, section: str) -> np.ndarray:
    """Global function of an FG (product) or CFG (cyclic convolution) document."""
    factors = _doc_factors(doc)
    desc = doc[section]
    sizes = {name: _alphabet_size(doc["alphabets"][a]) for name, a in desc["variables"]}
    names = [name for name, _ in desc["variables"]]
    shape = [sizes[n] for n in names]
    if section == "cfg":
        spectrum = np.ones(shape, dtype=np.complex128)
        for _, fname, neighbors in desc["functions"]:
            embedded = np.zeros(shape, dtype=np.complex128)
            values = factors[fname][0]
            index = tuple(slice(None) if n in neighbors else 0 for n in names)
            embedded[index] = np.einsum(values, list(range(values.ndim)),
                                        [neighbors.index(n) for n in names if n in neighbors])
            spectrum = spectrum * np.fft.fftn(embedded)
        return np.fft.ifftn(spectrum)
    tables = [(factors[fname][0], tuple(neighbors)) for _, fname, neighbors in desc["functions"]]
    tables += [(np.ones(sizes[n]), (n,)) for n in names
               if not any(n in nb for _, _, nb in desc["functions"])]
    return einsum_labels(tables, names)


def factor_json_values(fj: Dict) -> Tuple[List[str], np.ndarray]:
    """Labels and values of a CLI ``_factor_json`` block."""
    arr = np.array(fj["values"], dtype=float)
    shape = tuple(fj["shape"])
    values = arr if arr.shape == shape else arr[..., 0] + 1j * arr[..., 1]
    return [a[0] for a in fj["axes"]], values.reshape(shape)


def _read_code(path: Path) -> Tuple[int, np.ndarray]:
    rows = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    p, n, k = (int(x) for x in rows[0])
    return p, np.array([[int(x) for x in r] for r in rows[1:]], dtype=np.int64)


# -- checks per subcommand ------------------------------------------------------

def check_classify(out: Dict, doc: Dict) -> None:
    """The structural flags a plain graph walk can settle: simple and tree."""
    pairs = [tuple(sorted(v for v, _ in e["ends"])) for e in doc["edges"]
             if e.get("kind", "internal") == "internal"]
    simple = all(a != b for a, b in pairs) and len(set(pairs)) == len(pairs)
    parent = {v: v for v in doc["vertices"]}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v
    for a, b in pairs:
        parent[root(a)] = root(b)
    connected = len({root(v) for v in parent}) == 1
    require(out["simple"] is simple, f"simple flag {out['simple']} != {simple}")
    require(out["tree"] is (connected and len(pairs) == len(parent) - 1),
            f"tree flag {out['tree']} is wrong")


def check_exterior(out: Dict, doc: Dict) -> None:
    labels, values = factor_json_values(out["exterior"])
    require_close(values, doc_exterior(doc, labels), "exterior")


def check_spa(out: Dict, doc: Dict) -> None:
    total = doc_exterior(doc).sum()
    for eid, fj in out["marginals"].items():
        require_close(factor_json_values(fj)[1].sum(), total, f"marginal {eid} total")


def check_same_exterior(out: Dict, doc: Dict) -> None:
    """Only internal inverse pairs were inserted, so the exterior is unchanged."""
    require_close(doc_exterior(out), doc_exterior(doc), "transformed exterior")


def check_to_nfg(out: Dict, doc: Dict) -> None:
    section = "cfg" if "cfg" in doc else "factor_graph"
    names = [name for name, _ in doc[section]["variables"]]
    require_close(doc_exterior(out, names), desc_global(doc, section),
                  f"exterior of the NFG converted from {section}")


def check_from_nfg(out: Dict, doc: Dict) -> None:
    """FG and CDN global functions (products) and CFG ones (convolutions) equal
    the exterior of the NFG they came from."""
    section = next(s for s in ("cfg", "cdn", "factor_graph") if s in out)
    names = [name for name, _ in out[section]["variables"]]
    require_close(desc_global(out, section), doc_exterior(doc, names),
                  f"global function of the converted {section}")


def check_infer(out: Dict, doc: Dict, target: str, marginalize: Sequence[str],
                evidence: Dict[str, int], normalize: bool) -> None:
    externals = sorted(e["var"] for e in doc["edges"] if e.get("kind") == "half")
    joint = doc_exterior(doc, externals)
    index = tuple(evidence.get(v, slice(None)) for v in externals)
    kept = [v for v in externals if v not in evidence]
    want = joint[index].sum(axis=tuple(kept.index(v) for v in marginalize))
    require(out["targets"] == [target], f"targets {out['targets']}")
    require_close(complex(*out["total"]), want.sum(), "evidence mass")
    if normalize:
        want = want / want.sum()
    labels, got = factor_json_values(out["table"])
    require(labels == [target], f"table axes {labels}")
    require_close(got, want, "query table")


def check_sample(out: Dict, count: int) -> None:
    require(out["count"] == count, f"count {out['count']} != {count}")
    require(out["draws"] == out["accepted"] + out["rejected"], "draws != accepted + rejected")
    require(out["draws"] >= count, "fewer draws than samples")
    require(out["tv_distance"] < TV_BOUND,
            f"tv_distance {out['tv_distance']:.4f} exceeds {TV_BOUND}")


def check_codes(out: Dict, action: str, path: Path, form: str) -> None:
    p, matrix = _read_code(path)
    if form == "generator":
        words, dual = code_words(matrix, p), orthogonal_complement(matrix.T, p)
    else:
        words, dual = orthogonal_complement(matrix, p), code_words(matrix.T, p)
    n = len(next(iter(words)))
    if action in ("gen", "parity"):
        ext = doc_exterior(out, [f"y{i}" for i in range(n)])
        support = {tuple(int(c) for c in idx) for idx in zip(*np.nonzero(np.abs(ext) > 0.5))}
        require(support == words, "realization's exterior is not the code's indicator")
        return
    if action == "dual":
        require(np.allclose(weights(dual, n), macwilliams_dual(weights(words, n), n, p)),
                "weight distributions break the MacWilliams identity")
        words = dual
    got = {tuple(w) for w in out["codewords"]}
    require(got == words, f"{action}: codewords differ from brute force")
    require(out["count"] == len(words) and out["weight_distribution"] == weights(words, n),
            "count or weight distribution differs")


# -- requests -------------------------------------------------------------------

def cli_request(kind: str, argv: List[str], check) -> Request:
    """One in-process CLI call; its output must repeat byte for byte."""
    first: List[str] = []

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(result):
        code, text, err = result
        require(code == 0, f"exit {code}: {err.strip()[:200]}")
        if first:
            require(text == first[0], "output differs from the first call")
            return
        check(strict_json(text))
        first.append(text)
    return Request(kind, call, verify)


def _doc(path: Path) -> Dict:
    return json.loads(path.read_text())


def fixed_requests() -> List[Request]:
    requests = []
    calls = [(cmd, name) for name in GRAPH_DOCS
             for cmd in ("validate", "classify", "exterior --algo eliminate",
                         "exterior --algo bruteforce")]
    for cmd, name in calls + list(FIXED_EXTRA):
        path = GRAPHS / name
        words = cmd.split()
        argv = [words[0], str(path)] + words[1:]
        if words[0] == "sample":
            argv += ["--count", str(SAMPLE_COUNT)]
        check = _fixed_check(words[0], argv, path)
        requests.append(cli_request(f"graphs_{words[0]}", argv, check))
    for action, name, form in CODE_CALLS:
        path = GRAPHS / name
        argv = ["codes", action, str(path), "--form", form]
        requests.append(cli_request(f"graphs_codes_{action}", argv,
                                    lambda out, a=action, p=path, f=form: check_codes(out, a, p, f)))
    return requests


def _fixed_check(command: str, argv: List[str], path: Path):
    if command == "validate":
        return lambda out: require(out["ok"] is True and out["vertices"]
                                   == sorted(_doc(path)["vertices"]), "validate output")
    if command == "classify":
        return lambda out: check_classify(out, _doc(path))
    if command == "exterior":
        return lambda out: check_exterior(out, _doc(path))
    if command == "spa":
        return lambda out: check_spa(out, _doc(path))
    if command == "transform":
        # the demo also puts Fourier kernels on both half edges, so its
        # exterior becomes kappa^T Z kappa with kappa the Z_2 character table
        def check(out):
            doc = _doc(path)
            before = doc_exterior(doc, ["x", "y"])
            kappa = np.exp(2j * np.pi * np.outer(np.arange(2), np.arange(2)) / 2)
            require_close(doc_exterior(out, ["x", "y"]), kappa.T @ before @ kappa,
                          "transformed exterior")
        return check
    if command == "convert":
        if argv[-1] == "nfg":
            return lambda out: check_to_nfg(out, _doc(path))
        return lambda out: check_from_nfg(out, _doc(path))
    if command == "infer":
        q = _doc(path)["query"]
        return lambda out: check_infer(out, _doc(path), q["targets"][0], q["marginalize"],
                                       q["evidence"], bool(q.get("normalize", False)))
    if command == "sample":
        return lambda out: check_sample(out, SAMPLE_COUNT)
    raise ValueError(command)


# -- generated documents --------------------------------------------------------

def _chain_graph(rng, n: int, q: int) -> NfgGraph:
    a = OrderedAlphabet(q)
    vertices, internal = {}, []
    for i in range(n):
        labels = ([f"e{i - 1:03d}"] if i > 0 else []) + ([f"e{i:03d}"] if i < n - 1 else [])
        labels += ["x"] if i == 0 else []
        labels += ["y"] if i == n - 1 else []
        vertices[f"c{i:03d}"] = Factor(make_product_domain([(l, a) for l in labels]),
                                       rng.uniform(0.2, 1.0, (q,) * len(labels)))
        if i < n - 1:
            eid = f"e{i:03d}"
            internal.append(InternalEdge(eid, ((f"c{i:03d}", eid), (f"c{i + 1:03d}", eid)), a))
    half = [HalfEdge("hx", ("c000", "x"), a, "x"), HalfEdge("hy", (f"c{n - 1:03d}", "y"), a, "y")]
    return NfgGraph(vertices, internal, half)


def _model_desc(rng, cls, alphabet, n_vars: int, n_functions: int, max_arity: int):
    names = [f"x{i}" for i in range(n_vars)]
    functions = []
    for k in range(n_functions):
        arity = int(rng.integers(1, max_arity)) + 1
        # consecutive variables keep the model connected
        start = k % n_vars
        neighbors = tuple(names[(start + j) % n_vars] for j in range(arity))
        dom = make_product_domain([(f"a{j}", alphabet) for j in range(arity)])
        functions.append((f"f{k}", Factor(dom, rng.uniform(0.2, 1.0, dom.shape)), neighbors))
    return cls(tuple((n, alphabet) for n in names), tuple(functions))


class _Writer:
    """Writes documents through the library and loads each back to validate it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, doc: Dict) -> Path:
        text = dump_document(doc)
        path = self.workdir / f"doc{self.count:03d}.json"
        self.count += 1
        path.write_text(text)
        load_document(json.loads(path.read_text()))
        return path


def generated_requests(rng, workdir: Path) -> List[Request]:
    writer = _Writer(workdir)
    sizes = {kind: stratified(rng, lo, hi + 1, PER_KIND).astype(int) for kind, lo, hi in GENERATED}
    requests = []
    for i in range(PER_KIND):
        q = 2 + i % 2
        for kind, _, _ in GENERATED:
            n = int(sizes[kind][i])
            requests.append(_generated(kind, rng, writer, n, q, i))
    return requests


def _generated(kind: str, rng, writer: _Writer, n: int, q: int, i: int) -> Request:
    if kind in ("chain_transform", "chain_exterior"):
        g = _chain_graph(rng, n, q)
        doc = graph_to_document(g)
        if kind == "chain_transform":
            doc["transform"] = {"internal": {
                e.id: {"kind": "cumulus", "forward_at": e.vertices[int(rng.integers(2))]}
                for e in g.internal_edges}}
            path = writer.write(doc)
            return cli_request(kind, ["transform", str(path)],
                               lambda out: check_same_exterior(out, doc))
        path = writer.write(doc)
        return cli_request(kind, ["exterior", str(path)], lambda out: check_exterior(out, doc))

    if kind == "sample":
        if i % 2:
            desc = _model_desc(rng, CfgDesc, GroupAlphabet((3,)), n, 3, 2)
            g = cfg_to_nfg(desc)
        else:
            desc = _model_desc(rng, FactorGraphDesc, Alphabet(q), n, 3, 2)
            g = fg_to_nfg(desc)
        path = writer.write(graph_to_document(g))
        argv = ["sample", str(path), "--seed", str(int(rng.integers(1 << 30))),
                "--count", str(SAMPLE_COUNT)]
        return cli_request(kind, argv, lambda out: check_sample(out, SAMPLE_COUNT))

    if kind in ("cfg_to_nfg", "nfg_to_cfg"):
        desc = _model_desc(rng, CfgDesc, GroupAlphabet((q + 1,)), n, n, 2)
        desc_doc = desc_to_document(desc)
        if kind == "cfg_to_nfg":
            path = writer.write(desc_doc)
            return cli_request(kind, ["convert", str(path), "--to", "nfg"],
                               lambda out: check_to_nfg(out, desc_doc))
        doc = graph_to_document(cfg_to_nfg(desc))
        path = writer.write(doc)
        return cli_request(kind, ["convert", str(path), "--to", "cfg"],
                           lambda out: check_from_nfg(out, doc))

    desc = _model_desc(rng, FactorGraphDesc, Alphabet(q), n, n + 1, 3)
    desc_doc = desc_to_document(desc)
    if kind == "fg_to_nfg":
        path = writer.write(desc_doc)
        return cli_request(kind, ["convert", str(path), "--to", "nfg"],
                           lambda out: check_to_nfg(out, desc_doc))
    doc = graph_to_document(fg_to_nfg(desc))
    if kind == "nfg_to_fg":
        path = writer.write(doc)
        return cli_request(kind, ["convert", str(path), "--to", "fg"],
                           lambda out: check_from_nfg(out, doc))
    if kind == "classify_fg_model":
        path = writer.write(doc)
        def check(out):
            check_classify(out, doc)
            require(out["constrained"] is True, "a converted FG must classify as constrained")
        return cli_request(kind, ["classify", str(path)], check)
    # infer: half the queries from the document's section, half from flags
    names = [f"x{j}" for j in range(n)]
    order = [names[j] for j in rng.permutation(n)]
    target, marginalize = order[0], order[1:1 + (n - 1) // 2]
    evidence = {v: int(rng.integers(q)) for v in order[1 + len(marginalize):]}
    normalize = i % 4 >= 2
    if i % 2:
        path = writer.write(doc)
        argv = ["infer", str(path), "--target", target, "--shortcuts"]
        argv += [a for v in marginalize for a in ("--marginalize", v)]
        argv += [a for v, x in evidence.items() for a in ("--evidence", f"{v}={x}")]
        argv += ["--normalize"] if normalize else []
    else:
        doc["query"] = {"targets": [target], "marginalize": list(marginalize),
                        "evidence": evidence, "algorithm": "eliminate", "normalize": normalize}
        path = writer.write(doc)
        argv = ["infer", str(path)]
    return cli_request(kind, argv,
                       lambda out: check_infer(out, doc, target, marginalize, evidence, normalize))


def build(seed: int, workdir: Path) -> List[Request]:
    rng = np.random.default_rng([seed, 3])
    return fixed_requests() + generated_requests(rng, workdir)
