"""Pinned elimination schedules and sum-product op counts.

``golden_elimination.json`` holds, per graph, the exact ``eliminate`` step
list (merged pair, eliminated edges in order, ops) and the ``sum_product``
``total_ops`` (null where the graph is not a tree).  The values were recorded
from the linear-scan graph core, and those of the 200-vertex chain, the 3x20
grid and the 120-vertex tree from the greedy loop that re-scored every pair on
every step; any rewrite of the graph index or of the engines' bookkeeping must
reproduce them exactly.  Regenerate with
``PYTHONPATH=src:tests python tests/test_golden.py`` only for a change that is
meant to alter a schedule.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nfgraph.codes import dual_via_fourier, generator_realization, parity_realization
from nfgraph.codes import parse_code_text
from nfgraph.document import load_document
from nfgraph.exterior import eliminate, sum_product

from helpers import grid_nfg, random_nfg, random_tree

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
GOLDEN = Path(__file__).with_name("golden_elimination.json")


def _cases():
    for path in sorted(GRAPHS.glob("*.json")):
        doc = load_document(json.loads(path.read_text(encoding="utf-8")))
        if doc.graph is not None:
            yield path.name, doc.graph
    for name, form, realize in (("hamming_generator.txt", "generator", generator_realization),
                                ("hamming_parity.txt", "parity", parity_realization)):
        spec = parse_code_text((GRAPHS / name).read_text(encoding="utf-8"), form=form)
        g = realize(spec)
        yield name, g
        yield f"{name}/dual", dual_via_fourier(g)
    for seed in range(20):
        yield f"random_nfg/{seed}", random_nfg(np.random.default_rng(seed), loops=True)
    for seed in range(10):
        yield f"random_tree/{seed}", random_tree(np.random.default_rng(seed),
                                                 closed=seed % 2 == 0)
    # larger graphs, where the greedy loop makes hundreds of merges
    yield "chain/200", grid_nfg(np.random.default_rng(200), 1, 200)
    yield "grid/3x20", grid_nfg(np.random.default_rng(320), 3, 20)
    yield "random_tree/120", random_tree(np.random.default_rng(120), max_vertices=120,
                                         min_vertices=120, max_alpha=3, closed=False)


CASES = dict(_cases())


def summary(g):
    try:
        spa_ops = sum_product(g).total_ops
    except ValueError:
        spa_ops = None
    return {
        "eliminate": [[list(s.merged), list(s.eliminated_edges), s.ops]
                      for s in eliminate(g).steps],
        "sum_product_total_ops": spa_ops,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_schedule(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert summary(CASES[name]) == golden[name]


def test_every_pinned_case_is_built():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(summary(g))}" for name, g in sorted(CASES.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
