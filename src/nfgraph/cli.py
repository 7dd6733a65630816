"""Command-line driver.

Exit codes: 0 on success, 1 when the input document fails to load or
validate, 2 when a requested computation fails a numerical contract or a
table would pass the size cap, and 64 for usage errors.  All structured
output is JSON on stdout, with vertices, edges, and axes ordered by id so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from .codes import (
    codewords,
    dual_via_fourier,
    generator_realization,
    parity_realization,
    parse_code_text,
    weight_distribution,
)
from .document import (
    NfgDocument,
    desc_to_document,
    dump_document,
    graph_to_document,
    load_document,
)
from .exterior import eliminate, exterior_bruteforce, sum_product
from .factor import Factor, TableSizeError
from .inference import Query, query
from .models import (
    cfg_to_nfg,
    fg_to_nfg,
    nfg_to_cfg,
    nfg_to_fg,
    sample_many,
    to_cdn,
)
from .nfg import classify
from .transform import holographic_transform

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _factor_json(f: Factor) -> Dict:
    from .document import _alphabet_spec  # deterministic axis metadata

    real = np.all(f.values.imag == 0.0)

    def render(arr) -> object:
        if arr.ndim == 0:
            v = complex(arr)
            return v.real if real else [v.real, v.imag]
        return [render(sub) for sub in arr]

    return {
        "axes": [[l, _alphabet_spec(a)] for l, a in f.domain.axes],
        "shape": list(f.domain.shape),
        "values": render(f.values),
    }


def _load_doc(path: str) -> NfgDocument:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return load_document(data)


def _need_graph(doc: NfgDocument) -> object:
    if doc.graph is None:
        raise ValueError("this command needs a document with a graph section")
    return doc.graph


def _flags_json(flags) -> Dict:
    out = {
        "simple": flags.simple,
        "bipartite": flags.bipartite,
        "nfg_model": flags.nfg_model,
        "constrained": flags.constrained,
        "generative": flags.generative,
        "extended_generative": flags.extended_generative,
        "tree": flags.tree,
        "interfaces": sorted(flags.interface_set),
        "latents": sorted(flags.latent_set),
    }
    if flags.conditional_constants:
        out["conditional_constants"] = {
            k: [v.real, v.imag] for k, v in sorted(flags.conditional_constants.items())}
    if flags.generative and not flags.tree:
        out["note"] = ("cyclic generative model: sampling semantics hold, "
                       "but the sum-product engine needs a tree")
    return out


def _cmd_validate(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    return {
        "ok": True,
        "vertices": sorted(g.vertex_ids),
        "internal_edges": sorted(e.id for e in g.internal_edges),
        "external_variables": sorted(g.external_vars),
    }


def _cmd_classify(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    return _flags_json(classify(g))


def _cmd_exterior(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    out: Dict = {"algorithm": args.algo}
    if args.algo == "bruteforce":
        z = exterior_bruteforce(g)
    elif args.algo == "eliminate":
        report = eliminate(g, strategy=args.strategy)
        z = report.result
        out["total_ops"] = report.total_ops
        out["steps"] = [{"merged": list(s.merged),
                         "eliminated_edges": sorted(s.eliminated_edges),
                         "ops": s.ops} for s in report.steps]
    else:
        raise ValueError(f"unknown exterior engine {args.algo!r}")
    ordered = z.transpose(sorted(z.labels))
    out["exterior"] = _factor_json(ordered)
    return out


def _cmd_spa(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    result = sum_product(g)
    marginals = {}
    for eid in sorted(result.marginals):
        marginals[eid] = _factor_json(result.marginals[eid])
    return {
        "marginals": marginals,
        "messages": len(result.messages),
        "total_ops": result.total_ops,
    }


def _cmd_transform(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    if doc.transform is None:
        raise ValueError("document has no transform section")
    return graph_to_document(holographic_transform(g, doc.transform))


def _cmd_convert(args, doc: NfgDocument) -> Dict:
    if args.to == "nfg":
        if doc.factor_graph is not None:
            return graph_to_document(fg_to_nfg(doc.factor_graph))
        if doc.cfg is not None:
            return graph_to_document(cfg_to_nfg(doc.cfg))
        raise ValueError("conversion to an NFG needs a factor_graph or cfg section")
    g = _need_graph(doc)
    if args.to == "fg":
        return desc_to_document(nfg_to_fg(g))
    if args.to == "cfg":
        return desc_to_document(nfg_to_cfg(g))
    if args.to == "cdn":
        return desc_to_document(to_cdn(g))
    raise ValueError(f"unknown conversion target {args.to!r}")


def _prepare_codes(args):
    """Load stage for the codes subcommand: parse and build the realization."""
    text = Path(args.matrix).read_text(encoding="utf-8")
    if args.action == "gen":
        spec = parse_code_text(text, form="generator")
        return spec, generator_realization(spec)
    if args.action == "parity":
        spec = parse_code_text(text, form="parity")
        return spec, parity_realization(spec)
    spec = parse_code_text(text, form=args.form)
    g = (generator_realization(spec) if args.form == "generator"
         else parity_realization(spec))
    return spec, g


def _cmd_codes(args, prepared) -> Dict:
    spec, g = prepared
    if args.action in ("gen", "parity"):
        return graph_to_document(g)
    if args.action == "dual":
        g = dual_via_fourier(g)
    words, scale = codewords(g)
    ordered = sorted(words)
    return {
        "n": spec.n,
        "count": len(ordered),
        "scale": scale,
        "codewords": [list(w) for w in ordered],
        "weight_distribution": list(weight_distribution(words, spec.n)),
    }


def _parse_evidence(pairs: Sequence[str]) -> Dict[str, int]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"evidence {item!r} is not of the form var=value")
        var, _, value = item.partition("=")
        out[var] = int(value)
    return out


def _cmd_infer(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    if args.target or args.marginalize or args.evidence:
        q = Query(targets=tuple(args.target),
                  marginalized=tuple(args.marginalize),
                  evidence=_parse_evidence(args.evidence),
                  algorithm=args.algo,
                  normalize=args.normalize)
    elif doc.query is not None:
        q = doc.query
    else:
        raise _UsageError("no query flags given and the document has no query section")
    res = query(g, q, shortcuts=args.shortcuts)
    return {
        "targets": list(q.targets),
        "algorithm": q.algorithm,
        "normalized": res.normalized,
        "total": [res.total.real, res.total.imag],
        "table": _factor_json(res.table),
    }


def _cmd_sample(args, doc: NfgDocument) -> Dict:
    g = _need_graph(doc)
    res = sample_many(g, args.count, seed=args.seed, max_rejects=args.max_rejects)
    z = exterior_bruteforce(g)
    ordered = z.transpose(res.variables)
    exact = ordered.values.real
    exact = exact / exact.sum()
    counts = np.zeros(exact.shape)
    np.add.at(counts, tuple(res.assignments[:, k] for k in range(len(res.variables))),
              1.0)
    emp = counts / res.assignments.shape[0]
    tv = 0.5 * float(np.abs(emp - exact).sum())
    return {
        "variables": list(res.variables),
        "count": int(res.assignments.shape[0]),
        "seed": args.seed,
        "draws": res.draws,
        "accepted": res.accepted,
        "rejected": res.rejected,
        "acceptance_rate": res.acceptance_rate,
        "expected_acceptance": res.expected_acceptance,
        "scale": res.scale,
        "tv_distance": tv,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use; parsing never changes it."""
    p = _Parser(prog="nfgraph",
                description="normal factor graphs: evaluation, transformation, "
                            "conversion, codes, inference, sampling")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a document and report structure")
    sp.add_argument("file")

    sp = sub.add_parser("classify", help="structural and functional class flags")
    sp.add_argument("file")

    sp = sub.add_parser("exterior", help="evaluate the exterior function")
    sp.add_argument("file")
    sp.add_argument("--algo", choices=["bruteforce", "eliminate"],
                    default="eliminate")
    sp.add_argument("--strategy", choices=["min-cost-greedy"],
                    default="min-cost-greedy")

    sp = sub.add_parser("spa", help="sum-product marginals on a closed tree")
    sp.add_argument("file")

    sp = sub.add_parser("transform", help="apply the document's holographic spec")
    sp.add_argument("file")

    sp = sub.add_parser("convert", help="convert between model kinds")
    sp.add_argument("file")
    sp.add_argument("--to", choices=["nfg", "fg", "cfg", "cdn"], required=True)

    sp = sub.add_parser("codes", help="linear-code realizations and enumeration")
    sp.add_argument("action", choices=["gen", "parity", "dual", "list"])
    sp.add_argument("matrix")
    sp.add_argument("--form", choices=["generator", "parity"], default="generator")

    sp = sub.add_parser("infer", help="marginal/conditional queries")
    sp.add_argument("file")
    sp.add_argument("--target", action="append", default=[])
    sp.add_argument("--marginalize", action="append", default=[])
    sp.add_argument("--evidence", action="append", default=[],
                    metavar="VAR=VALUE")
    sp.add_argument("--algo", choices=["bruteforce", "eliminate", "spa"],
                    default="eliminate")
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--shortcuts", action="store_true")

    sp = sub.add_parser("sample", help="draw external samples, report TV distance")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=_positive_int, default=10000)
    sp.add_argument("--max-rejects", type=int, default=1_000_000)

    return p


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "exterior": _cmd_exterior,
    "spa": _cmd_spa,
    "transform": _cmd_transform,
    "convert": _cmd_convert,
    "codes": _cmd_codes,
    "infer": _cmd_infer,
    "sample": _cmd_sample,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 64

    # load stage: reading, parsing, and structural validation exit with 1; a
    # table past the size cap exits with 2, as it does in the compute stage
    try:
        if args.command == "codes":
            prepared = _prepare_codes(args)
        else:
            prepared = _load_doc(args.file)
    except TableSizeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    # compute stage: numerical-contract failures, and running out of memory
    # below the size caps, exit with 2
    handler = _COMMANDS[args.command]
    try:
        out = handler(args, prepared)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except (ValueError, KeyError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    print(dump_document(out), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
