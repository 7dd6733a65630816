"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` wraps the library's public functions wherever a module
looks them up (every module-level binding of the original function object,
plus ``NfgGraph.__init__`` and the CLI's stage functions), and
``Tracer.uninstall`` puts the originals back.  Each wrapped call is a span;
a span's self time is its duration minus the spans it encloses.  Spans are
folded into per-function totals as they close, so memory stays flat.  Spans
are timed in CPU time, like the untraced loop (see ``harness``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from nfgraph import algebra, cli, codes, document, exterior, factor, indicators
from nfgraph import inference, models, nfg, transform
from nfgraph.factor import OpCounter

from harness import CLOCK

# module -> traced public functions; hot scalar helpers such as group_add are
# left out because a wrapper would cost more than their body
TRACED = {
    algebra: ("character_table", "dual_kernel_table"),
    factor: ("contract", "multiply_pointwise", "marginalize", "split_decompose",
             "conditional_constant", "factors_allclose"),
    indicators: ("make_indicator",),
    nfg: ("classify", "separated", "wrap_half_edge_with_equality"),
    exterior: ("exterior_bruteforce", "eliminate", "block_order", "sum_product",
               "derivative_sum_product"),
    transform: ("merge_vertices", "insert_transformer_pair", "insert_transformer",
                "holographic_transform", "split_vertex_guided", "fast_axis_transform"),
    models: ("fg_to_nfg", "nfg_to_fg", "normalize_constrained", "cfg_to_nfg",
             "nfg_to_cfg", "to_cdn", "convolve", "fg_global_function",
             "cfg_global_function", "sample_many", "independence"),
    codes: ("generator_realization", "parity_realization", "dual_via_fourier",
            "codewords", "weight_distribution"),
    inference: ("reduce_star", "query"),
    document: ("load_document", "loads_document", "graph_to_document",
               "desc_to_document", "dump_document"),
    cli: ("main", "_load_doc", "_prepare_codes"),
}
# per-layer metric -> unit; the counts among them repeat exactly for a seed
LAYER_UNITS = {
    "document.load_ms": "ms", "document.dump_ms": "ms", "cli.overhead_ms": "ms",
    "nfg.construct_ms": "ms", "nfg.construct_calls": "count", "nfg.classify_ms": "ms",
    "exterior.eliminate_self_ms": "ms", "exterior.sum_product_self_ms": "ms",
    "exterior.total_ops": "ops", "exterior.steps": "count",
    "factor.contract_ms": "ms", "factor.contract_calls": "count",
    "factor.contract_max_entries": "entries",
    "indicators.make_indicator_ms": "ms", "algebra.character_table_ms": "ms",
    "transform.holographic_self_ms": "ms", "transform.merge_vertices_ms": "ms",
    "transform.fast_axis_transform_ms": "ms", "transform.fast_axis_ops": "ops",
    "codes.dual_via_fourier_self_ms": "ms", "codes.codewords_self_ms": "ms",
    "models.convert_ms": "ms", "models.sample_many_ms": "ms", "models.sample_draws": "count",
    "models.sample_acceptance": "ratio",
    "inference.query_self_ms": "ms", "inference.reduce_star_ms": "ms",
    "trace.throughput_ratio": "ratio",
}
EXACT = {name for name, unit in LAYER_UNITS.items() if unit != "ms"} - {"trace.throughput_ratio"}
CONVERSIONS = ("models.fg_to_nfg", "models.nfg_to_fg", "models.cfg_to_nfg",
               "models.nfg_to_cfg", "models.to_cdn", "models.normalize_constrained")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []  # [name, start, child seconds]
        self._open: Dict[str, int] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, CLOCK(), 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        duration = CLOCK() - start
        stat = self.stats.setdefault(name, Stat())
        stat.calls += 1
        stat.self_s += duration - child
        self._open[name] -= 1
        if not self._open[name]:
            stat.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(out, args, kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name: str):
        """Exact counts read off a call's result."""
        if name == "exterior.eliminate":
            def after(report, args, kwargs):
                self.count("exterior.total_ops", report.total_ops)
                self.count("exterior.steps", len(report.steps))
            return after
        if name == "exterior.sum_product":
            return lambda res, args, kwargs: self.count("exterior.total_ops", res.total_ops)
        if name == "factor.contract":
            def after(out, args, kwargs):
                self.counts["factor.contract_max_entries"] = max(
                    self.counts.get("factor.contract_max_entries", 0), out.values.size)
            return after
        if name == "models.sample_many":
            def after(res, args, kwargs):
                self.count("models.sample_draws", res.draws)
                self.count("models.sample_accepted", res.accepted)
            return after
        return None

    def _fast_axis(self, fn: Callable) -> Callable:
        """Counts the transform's own additions/multiplications on an OpCounter."""
        def counted(f, kernel, axes, counter=None):
            counter = counter if counter is not None else OpCounter()
            before = counter.total
            out = fn(f, kernel, axes, counter)
            self.count("transform.fast_axis_ops", counter.total - before)
            return out
        return counted

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, Callable] = {}  # id of the original -> its wrapper
        for module, names in TRACED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                fn = getattr(module, fname)
                name = f"{short}.{fname}"
                if name == "transform.fast_axis_transform":
                    fn_to_wrap = self._fast_axis(fn)
                else:
                    fn_to_wrap = fn
                wrappers[id(fn)] = self._wrap(name, fn_to_wrap, self._after(name))
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not space or mod is sys.modules[__name__]:
                continue
            for key, value in list(space.items()):
                if id(value) in wrappers:
                    self._undo.append((space, key, value))
                    space[key] = wrappers[id(value)]
        for key, handler in list(cli._COMMANDS.items()):
            self._undo.append((cli._COMMANDS, key, handler))
            cli._COMMANDS[key] = self._wrap("cli.handler", handler)
        init = nfg.NfgGraph.__init__
        self._undo.append((nfg.NfgGraph, "__init__", init))
        nfg.NfgGraph.__init__ = self._wrap("nfg.construct", init)

    def uninstall(self) -> None:
        for space, key, value in reversed(self._undo):
            if isinstance(space, dict):
                space[key] = value
            else:
                setattr(space, key, value)
        self._undo.clear()

    # -- metrics --------------------------------------------------------------

    def _ms(self, name: str, self_time: bool = False) -> float:
        stat = self.stats.get(name)
        if stat is None:
            return 0.0
        return 1e3 * (stat.self_s if self_time else stat.total_s)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures for everything recorded since the last reset."""
        ms = self._ms
        construct = self.stats.get("nfg.construct", Stat())
        contract = self.stats.get("factor.contract", Stat())
        draws = self.counts.get("models.sample_draws", 0)
        accepted = self.counts.get("models.sample_accepted", 0)
        return {
            # the CLI's load stage reads and parses the file itself, then calls
            # load_document; its self time is that read and parse
            "document.load_ms": ms("document.load_document") + ms("document.loads_document")
            + ms("cli._load_doc", self_time=True) + ms("cli._prepare_codes", self_time=True),
            "document.dump_ms": ms("document.dump_document") + ms("document.graph_to_document")
            + ms("document.desc_to_document"),
            "cli.overhead_ms": ms("cli.main", self_time=True),
            "nfg.construct_ms": 1e3 * construct.total_s,
            "nfg.construct_calls": construct.calls,
            "nfg.classify_ms": ms("nfg.classify"),
            "exterior.eliminate_self_ms": ms("exterior.eliminate", self_time=True),
            "exterior.sum_product_self_ms": ms("exterior.sum_product", self_time=True),
            "exterior.total_ops": self.counts.get("exterior.total_ops", 0),
            "exterior.steps": self.counts.get("exterior.steps", 0),
            "factor.contract_ms": 1e3 * contract.total_s,
            "factor.contract_calls": contract.calls,
            "factor.contract_max_entries": self.counts.get("factor.contract_max_entries", 0),
            "indicators.make_indicator_ms": ms("indicators.make_indicator"),
            "algebra.character_table_ms": ms("algebra.character_table"),
            "transform.holographic_self_ms": ms("transform.holographic_transform", self_time=True),
            "transform.merge_vertices_ms": ms("transform.merge_vertices"),
            "transform.fast_axis_transform_ms": ms("transform.fast_axis_transform"),
            "transform.fast_axis_ops": self.counts.get("transform.fast_axis_ops", 0),
            "codes.dual_via_fourier_self_ms": ms("codes.dual_via_fourier", self_time=True),
            "codes.codewords_self_ms": ms("codes.codewords", self_time=True),
            "models.convert_ms": sum(ms(n) for n in CONVERSIONS),
            "models.sample_many_ms": ms("models.sample_many"),
            "models.sample_draws": draws,
            "models.sample_acceptance": accepted / draws if draws else 0.0,
            "inference.query_self_ms": ms("inference.query", self_time=True),
            "inference.reduce_star_ms": ms("inference.reduce_star"),
        }

    def spans(self) -> Dict[str, Dict[str, float]]:
        return {name: {"calls": s.calls, "self_ms": 1e3 * s.self_s, "total_ms": 1e3 * s.total_s}
                for name, s in sorted(self.stats.items())}

    def exact_counts(self) -> Dict[str, int]:
        """The counts behind the count metrics, ``models.sample_accepted`` among them."""
        return dict(sorted(self.counts.items()))

