"""Each workload's checks pass on the library's outputs and reject perturbed ones."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import document_rewrite
import group_duality
import run
import sparse_exterior
from conftest import BENCH
from nfgraph import EdgeMarginals, EliminationReport, Factor, QueryResult
from nfgraph import cli, exterior, nfg
from refs import CheckError
from tracer import EXACT, LAYER_UNITS, Tracer


def perturb(out):
    """The same output with one number or one codeword changed."""
    if isinstance(out, EliminationReport):
        return EliminationReport(out.result.scaled(1.001), out.steps)
    if isinstance(out, EdgeMarginals):
        marginals = dict(out.marginals)
        first = sorted(marginals)[0]
        marginals[first] = marginals[first].scaled(1.001)
        return dataclasses.replace(out, marginals=marginals)
    if isinstance(out, QueryResult):
        return dataclasses.replace(out, table=out.table.scaled(1.001))
    if isinstance(out[0], Factor):  # fourier, fourier_inv
        return (out[0].scaled(1.001), out[1])
    words, variables, dual, dual_variables, scale = out  # a code and its dual
    return words, variables, set(sorted(dual)[1:]), dual_variables, scale


@pytest.mark.parametrize("module", [sparse_exterior, group_duality], ids=lambda m: m.__name__)
def test_library_checks_pass_and_reject_perturbed_results(module):
    for req in module.build(1):
        out = req.call()
        req.check(out)
        with pytest.raises(CheckError):
            req.check(perturb(out))


def _perturb_json(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.5 + 1
    if isinstance(value, list):
        return [_perturb_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _perturb_json(v) for k, v in value.items()}
    return value


def test_cli_checks_pass_and_reject_perturbed_output(workdir):
    for req in document_rewrite.build(1, workdir):
        code, text, err = req.call()
        with pytest.raises(Exception):
            req.check((code, json.dumps(_perturb_json(json.loads(text))), err))
        with pytest.raises(Exception):
            req.check((code, text.replace(",", ", NaN,", 1), err))
        with pytest.raises(CheckError):
            req.check((2, text, "error"))
        req.check((code, text, err))
        with pytest.raises(CheckError):  # later rounds must repeat the bytes
            req.check((code, text + " ", err))


def test_tracer_counts_repeat_and_originals_come_back():
    originals = (exterior.eliminate, nfg.NfgGraph.__init__, cli._COMMANDS["spa"])
    requests = sparse_exterior.build(1)[:14]
    tracer = Tracer()
    rounds = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            for req in requests:
                req.check(req.call())
        finally:
            tracer.uninstall()
        rounds.append(tracer.layer_metrics())
    assert (exterior.eliminate, nfg.NfgGraph.__init__, cli._COMMANDS["spa"]) == originals
    assert set(rounds[0]) == set(LAYER_UNITS) - {"trace.throughput_ratio"}
    assert rounds[0]["exterior.steps"] > 0 and rounds[0]["factor.contract_calls"] > 0
    for name in EXACT:
        assert rounds[0][name] == rounds[1][name], name


def test_tracer_counts_cli_load_stage_and_sample_acceptance(workdir):
    requests = [r for r in document_rewrite.build(1, workdir) if r.kind in ("sample", "infer")]
    tracer = Tracer()
    tracer.install()
    try:
        for req in requests:
            req.check(req.call())
    finally:
        tracer.uninstall()
    metrics, counts, spans = tracer.layer_metrics(), tracer.exact_counts(), tracer.spans()
    assert 0 < counts["models.sample_accepted"] < counts["models.sample_draws"]
    assert metrics["models.sample_acceptance"] == \
        counts["models.sample_accepted"] / counts["models.sample_draws"]
    # the CLI's own read and parse count as document loading
    load_doc = spans["cli._load_doc"]
    assert load_doc["calls"] == len(requests)
    assert metrics["document.load_ms"] == pytest.approx(
        spans["document.load_document"]["total_ms"] + load_doc["self_ms"])


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert max(m["bound"] for m in bench["end_to_end"]) == \
        next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_run_fails_without_library_sources(workdir):
    shutil.copytree(BENCH, workdir / "nfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", workdir)
    proc = subprocess.run([sys.executable, "nfbench/run.py", "--workload", "sparse_exterior",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
