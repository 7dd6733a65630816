"""Pinned holographic-transform outputs and document round trips.

``golden_transform.json`` holds, per case, the SHA-256 of the transformed
graph's serialized document: every ``graphs/`` document with a ``transform``
section, the Fourier duals of both Hamming realizations, and 20 random graphs
with random specs.  The hashes were recorded from the transform that inserted
each transformer into the graph and merged it back, one whole graph per step;
the local rewrite must reproduce them.  Regenerate with
``PYTHONPATH=src:tests python tests/test_golden_transform.py`` only for a
change that is meant to alter a transform's output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nfgraph.codes import dual_via_fourier, generator_realization, parity_realization
from nfgraph.codes import parse_code_text
from nfgraph.document import dump_document, graph_to_document, load_document, loads_document
from nfgraph.transform import holographic_transform

from helpers import random_holographic_spec, random_nfg

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
GOLDEN = Path(__file__).with_name("golden_transform.json")


def _cases():
    for path in sorted(GRAPHS.glob("*.json")):
        doc = load_document(json.loads(path.read_text(encoding="utf-8")))
        if doc.transform is not None:
            yield path.name, holographic_transform(doc.graph, doc.transform)
    for name, form, realize in (("hamming_generator.txt", "generator", generator_realization),
                                ("hamming_parity.txt", "parity", parity_realization)):
        spec = parse_code_text((GRAPHS / name).read_text(encoding="utf-8"), form=form)
        yield f"{name}/dual", dual_via_fourier(realize(spec))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_nfg(rng, loops=True)
        yield f"random_spec/{seed}", holographic_transform(g, random_holographic_spec(rng, g))


CASES = dict(_cases())


def _dump(g):
    return dump_document(graph_to_document(g))


def digest(g):
    return hashlib.sha256(_dump(g).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_transform_output(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(CASES[name]) == golden[name]


def test_every_pinned_transform_is_built():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)


ROUND_TRIP = {**CASES, **{f"random_nfg/{seed}": random_nfg(np.random.default_rng(100 + seed),
                                                             loops=True)
                          for seed in range(20)}}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_document_round_trip(name):
    g = ROUND_TRIP[name]
    text = _dump(g)
    back = loads_document(text).graph
    assert _dump(back) == text
    assert sorted(back.vertex_ids) == sorted(g.vertex_ids)
    for v, f in g.vertices.items():
        got = back.factor(v)
        assert got.domain == f.domain and got.tag == f.tag
        assert got.values.tobytes() == f.values.tobytes()
    assert sorted(back.internal_edges, key=lambda e: e.id) == \
        sorted(g.internal_edges, key=lambda e: e.id)
    assert sorted(back.half_edges, key=lambda h: h.id) == \
        sorted(g.half_edges, key=lambda h: h.id)


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(digest(g))}" for name, g in sorted(CASES.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
