"""The JSON interchange format for graphs, model descriptions, and requests.

A document carries named alphabets, named factors (dense values or indicator
specs), vertices, edges, and optional ``transform`` and ``query`` sections.
Factor-graph-style documents use a ``factor_graph``, ``cfg``, or ``cdn``
section instead of vertices and edges.  Serialization is deterministic
(vertices, edges, and axes ordered by id) and floats round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .algebra import (
    Alphabet,
    AnyAlphabet,
    GroupAlphabet,
    OrderedAlphabet,
    make_product_domain,
)
from .factor import Factor
from .indicators import INDICATOR_KINDS, TransformerPair, _checked_value, _table, make_indicator
from .inference import Query
from .models import CdnDesc, CfgDesc, FactorGraphDesc
from .nfg import HalfEdge, InternalEdge, NfgGraph
from .transform import HolographicSpec

__all__ = [
    "NfgDocument",
    "load_document",
    "loads_document",
    "graph_to_document",
    "desc_to_document",
    "dump_document",
]


@dataclass
class NfgDocument:
    """Parsed document: exactly one of graph / fg / cfg / cdn, plus extras."""

    graph: Optional[NfgGraph] = None
    factor_graph: Optional[FactorGraphDesc] = None
    cfg: Optional[CfgDesc] = None
    cdn: Optional[CdnDesc] = None
    transform: Optional[HolographicSpec] = None
    query: Optional[Query] = None


def _parse_alphabet(name: str, spec: Mapping) -> AnyAlphabet:
    kind = spec.get("kind", "plain")
    if kind == "plain":
        return Alphabet(int(spec["size"]))
    if kind == "ordered":
        return OrderedAlphabet(int(spec["size"]))
    if kind == "group":
        return GroupAlphabet(tuple(int(m) for m in spec["moduli"]))
    raise ValueError(f"alphabet {name!r}: unknown kind {kind!r}")


def _alphabet_spec(alpha: AnyAlphabet) -> Dict:
    if isinstance(alpha, GroupAlphabet):
        return {"kind": "group", "moduli": list(alpha.moduli)}
    if isinstance(alpha, OrderedAlphabet):
        return {"kind": "ordered", "size": alpha.size}
    if isinstance(alpha, Alphabet):
        return {"kind": "plain", "size": alpha.size}
    raise ValueError(f"alphabet {alpha!r} is not expressible in a document")


def _alphabet_name(alpha: AnyAlphabet) -> str:
    if isinstance(alpha, GroupAlphabet):
        return "group" + "x".join(str(m) for m in alpha.moduli)
    if isinstance(alpha, OrderedAlphabet):
        return f"ordered{alpha.size}"
    return f"plain{alpha.size}"


def _parse_values(raw: Sequence) -> np.ndarray:
    out = np.empty(len(raw), dtype=np.complex128)
    for k, entry in enumerate(raw):
        if isinstance(entry, (list, tuple)):
            if len(entry) != 2:
                raise ValueError(f"value entry {entry!r} is not a [re, im] pair")
            out[k] = complex(float(entry[0]), float(entry[1]))
        else:
            out[k] = float(entry)
    return out


def _emit_values(values: np.ndarray) -> List:
    flat = values.reshape(-1)
    if np.all(flat.imag == 0.0):
        return [float(v.real) for v in flat]
    return [[float(v.real), float(v.imag)] for v in flat]


def _parse_factor(name: str, spec: Mapping,
                  alphabets: Mapping[str, AnyAlphabet]) -> Factor:
    if "indicator" in spec:
        kind = spec["indicator"]
        if kind not in INDICATOR_KINDS:
            raise ValueError(f"factor {name!r}: unknown indicator {kind!r}")
        alpha = alphabets[spec["alphabet"]]
        degree = int(spec.get("degree", 2))
        return make_indicator(kind, alpha, degree, value=spec.get("value"))
    axes = []
    for label, alpha_name in spec["axes"]:
        if alpha_name not in alphabets:
            raise ValueError(f"factor {name!r}: unknown alphabet {alpha_name!r}")
        axes.append((label, alphabets[alpha_name]))
    dom = make_product_domain(axes)
    values = _parse_values(spec["values"])
    if values.size != dom.size:
        raise ValueError(
            f"factor {name!r}: {values.size} values for a domain of size {dom.size}")
    tag = spec.get("tag")
    if tag in ("eq", "sum", "max") and not _is_indicator_table(tag, dom, values):
        # the kernels trust these tags and never read the table
        raise ValueError(f"factor {name!r}: values are not the {tag!r} indicator "
                         "its tag declares")
    return Factor(dom, values, tag=tag)


def _is_indicator_table(kind: str, dom, values: np.ndarray) -> bool:
    """Whether ``values`` has the bytes of ``make_indicator(kind, ...)`` over ``dom``."""
    alphabets = {alpha for _, alpha in dom.axes}
    if len(alphabets) != 1:
        return False
    alphabet = alphabets.pop()
    try:
        _checked_value(kind, alphabet, dom.ndim, None)
    except (TypeError, ValueError):
        return False
    want = np.asarray(_table(kind, alphabet, dom.ndim, None), dtype=np.complex128)
    return want.tobytes() == values.tobytes()


def _parse_graph(data: Mapping, alphabets: Mapping[str, AnyAlphabet]) -> NfgGraph:
    factors = {name: _parse_factor(name, spec, alphabets)
               for name, spec in data.get("factors", {}).items()}
    vertices = {}
    for vid, fname in data.get("vertices", {}).items():
        if fname not in factors:
            raise ValueError(f"vertex {vid!r} references unknown factor {fname!r}")
        vertices[vid] = factors[fname]
    internal, half = [], []
    for e in data.get("edges", []):
        eid = e["id"]
        alpha = alphabets.get(e["alphabet"])
        if alpha is None:
            raise ValueError(f"edge {eid!r} references unknown alphabet {e['alphabet']!r}")
        if e.get("kind", "internal") == "internal":
            ends = e["ends"]
            if len(ends) != 2:
                raise ValueError(f"edge {eid!r} must have exactly two endpoints")
            internal.append(InternalEdge(
                eid, ((ends[0][0], ends[0][1]), (ends[1][0], ends[1][1])), alpha))
        elif e["kind"] == "half":
            end = e["end"]
            half.append(HalfEdge(eid, (end[0], end[1]), alpha, e["var"]))
        else:
            raise ValueError(f"edge {eid!r}: unknown kind {e['kind']!r}")
    return NfgGraph(vertices, internal, half)


def _parse_desc(data: Mapping, alphabets: Mapping[str, AnyAlphabet],
                factors_section: Mapping, cls):
    variables = tuple((name, alphabets[alpha_name])
                      for name, alpha_name in data["variables"])
    factors = {name: _parse_factor(name, spec, alphabets)
               for name, spec in factors_section.items()}
    functions = []
    for name, fname, neighbors in data["functions"]:
        if fname not in factors:
            raise ValueError(f"function {name!r} references unknown factor {fname!r}")
        functions.append((name, factors[fname], tuple(neighbors)))
    return cls(variables, tuple(functions))


def _parse_transform(data: Mapping, graph: NfgGraph,
                     alphabets: Mapping[str, AnyAlphabet],
                     factors_section: Mapping) -> HolographicSpec:
    factors = {name: _parse_factor(name, spec, alphabets)
               for name, spec in factors_section.items()}
    external = {}
    for var, fname in data.get("external", {}).items():
        if fname in factors:
            external[var] = factors[fname]
        else:
            alpha = graph.half_edge_for_var(var).alphabet
            external[var] = make_indicator(fname, alpha, 2)
    internal = {}
    for eid, spec in data.get("internal", {}).items():
        orientation = spec["forward_at"]
        if "kind" in spec:
            alpha = graph.internal_edge(eid).alphabet
            kind = spec["kind"]
            if kind == "fourier":
                fwd = make_indicator("fourier", alpha, 2)
                inv = make_indicator("fourier_inv", alpha, 2)
            elif kind == "cumulus":
                fwd = make_indicator("cumulus", alpha, 2)
                inv = make_indicator("difference", alpha, 2)
            else:
                raise ValueError(f"transform on {eid!r}: unknown pair kind {kind!r}")
            internal[eid] = (TransformerPair(fwd, inv), orientation)
        else:
            pair = TransformerPair(factors[spec["forward"]],
                                   factors[spec["inverse"]])
            internal[eid] = (pair, orientation)
    return HolographicSpec(external=external, internal=internal)


def loads_document(text: str) -> NfgDocument:
    return load_document(json.loads(text))


def load_document(data: Mapping) -> NfgDocument:
    """Parse an already-decoded JSON document."""
    alphabets = {name: _parse_alphabet(name, spec)
                 for name, spec in data.get("alphabets", {}).items()}
    doc = NfgDocument()
    sections = [k for k in ("vertices", "factor_graph", "cfg", "cdn") if k in data]
    if "vertices" in data:
        doc.graph = _parse_graph(data, alphabets)
    factors_section = data.get("factors", {})
    if "factor_graph" in data:
        doc.factor_graph = _parse_desc(data["factor_graph"], alphabets,
                                       factors_section, FactorGraphDesc)
    if "cfg" in data:
        doc.cfg = _parse_desc(data["cfg"], alphabets, factors_section, CfgDesc)
    if "cdn" in data:
        doc.cdn = _parse_desc(data["cdn"], alphabets, factors_section, CdnDesc)
    if not sections:
        raise ValueError("document has no graph or model section")
    if "transform" in data:
        if doc.graph is None:
            raise ValueError("transform section needs a graph section")
        doc.transform = _parse_transform(data["transform"], doc.graph, alphabets,
                                         data.get("factors", {}))
    if "query" in data:
        qd = data["query"]
        doc.query = Query(
            targets=tuple(qd.get("targets", ())),
            marginalized=tuple(qd.get("marginalize", ())),
            evidence={k: int(v) for k, v in qd.get("evidence", {}).items()},
            algorithm=qd.get("algorithm", "eliminate"),
            normalize=bool(qd.get("normalize", False)))
    return doc


def graph_to_document(g: NfgGraph) -> Dict:
    """Serialize a graph deterministically (ids sorted, floats bit-exact)."""
    alphabets: Dict[str, Dict] = {}

    def alpha_ref(alpha: AnyAlphabet) -> str:
        name = _alphabet_name(alpha)
        alphabets[name] = _alphabet_spec(alpha)
        return name

    factors: Dict[str, Dict] = {}
    vertices: Dict[str, str] = {}
    for vid in sorted(g.vertex_ids):
        f = g.factor(vid)
        spec: Dict = {"axes": [[l, alpha_ref(a)] for l, a in f.domain.axes],
                      "values": _emit_values(f.values)}
        if f.tag is not None:
            spec["tag"] = f.tag
        fname = f"f_{vid}"
        factors[fname] = spec
        vertices[vid] = fname

    edges: List[Dict] = []
    for e in sorted(g.internal_edges, key=lambda e: e.id):
        edges.append({"id": e.id, "kind": "internal",
                      "alphabet": alpha_ref(e.alphabet),
                      "ends": [list(e.ends[0]), list(e.ends[1])]})
    for h in sorted(g.half_edges, key=lambda h: h.id):
        edges.append({"id": h.id, "kind": "half",
                      "alphabet": alpha_ref(h.alphabet),
                      "end": list(h.end), "var": h.var})
    return {
        "alphabets": {k: alphabets[k] for k in sorted(alphabets)},
        "factors": factors,
        "vertices": vertices,
        "edges": edges,
    }


def desc_to_document(desc: FactorGraphDesc) -> Dict:
    """Serialize an FG/CFG/CDN description."""
    section = "factor_graph"
    if isinstance(desc, CdnDesc):
        section = "cdn"
    elif isinstance(desc, CfgDesc):
        section = "cfg"
    alphabets: Dict[str, Dict] = {}

    def alpha_ref(alpha: AnyAlphabet) -> str:
        name = _alphabet_name(alpha)
        alphabets[name] = _alphabet_spec(alpha)
        return name

    factors: Dict[str, Dict] = {}
    functions = []
    for name, f, neighbors in desc.functions:
        fname = f"f_{name}"
        factors[fname] = {"axes": [[l, alpha_ref(a)] for l, a in f.domain.axes],
                          "values": _emit_values(f.values)}
        functions.append([name, fname, list(neighbors)])
    variables = [[n, alpha_ref(a)] for n, a in desc.variables]
    return {
        "alphabets": {k: alphabets[k] for k in sorted(alphabets)},
        "factors": factors,
        section: {
            "variables": variables,
            "functions": functions,
        },
    }


def dump_document(data: Mapping) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"
