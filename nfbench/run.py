"""Run one nfgraph benchmark workload and print its metrics as JSON.

    python3 nfbench/run.py --workload sparse_exterior --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from the ``src/`` directory next
to ``nfbench/``.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics of an untraced closed loop; with ``--trace 1`` it holds
the per-layer metrics of a run that alternates untraced and traced rounds.
Each run also writes its result (and, traced, its spans) under
``nfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

# A fixed process environment: one thread per numeric library, so the closed
# loop uses one core; and string hashing that does not change between runs, so
# set iteration inside the library (and every exact count) repeats for a seed.
# These take effect only at start-up, hence the re-exec.
ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
              {**os.environ, **ENVIRONMENT})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sparse_exterior", "group_duality", "document_rewrite")
END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
TRACE_MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    """Import nfgraph from this checkout's ``src/``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "nfgraph" / "__init__.py").is_file() or not (ROOT / "graphs").is_dir():
        sys.exit(f"error: no nfgraph sources at {src} (or no graphs/ beside them)")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import nfgraph
    if Path(nfgraph.__file__).resolve().parent != (src / "nfgraph").resolve():
        sys.exit(f"error: imported nfgraph from {nfgraph.__file__}, not from {src}")


def _untraced(requests, seconds, setup):
    import harness
    warm = harness.warm_up(requests)
    loop = harness.run_loop(requests, seconds, setup.between_rounds)
    values = dict(loop.end_to_end(), setup_s=setup.setup_s, peak_rss_mib=harness.peak_rss_mib())
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return harness.result([warm, loop], metrics), None


def _traced(requests, seconds):
    """Alternate untraced and traced rounds; per-layer figures are per round."""
    import statistics
    import harness
    from tracer import EXACT, LAYER_UNITS, Tracer

    tracer = Tracer()
    warm = harness.warm_up(requests)
    plain, traced = harness.Loop(requests), harness.Loop(requests)
    rounds = []
    while len(rounds) < TRACE_MIN_ROUNDS or plain.wall + traced.wall < seconds:
        plain.round()
        tracer.reset()
        tracer.install()
        try:
            traced.round()
        finally:
            tracer.uninstall()
        rounds.append((tracer.layer_metrics(), tracer.spans(), tracer.exact_counts()))

    errors = []
    values = {}
    for name in LAYER_UNITS:
        if name == "trace.throughput_ratio":
            continue
        per_round = [r[0][name] for r in rounds]
        if name in EXACT and len(set(per_round)) != 1:
            errors.append(f"{name} differs between identical rounds: {per_round}")
        values[name] = per_round[0] if name in EXACT else statistics.median(per_round)
    values["trace.throughput_ratio"] = (traced.completed / traced.busy) / (plain.completed / plain.busy)
    metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    return (harness.result([warm, plain, traced], metrics, errors),
            {"rounds": len(rounds), "counts": rounds[-1][2], "spans": rounds[-1][1]})


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_library()
    import importlib
    import harness

    workload = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = harness.SetupTimer(lambda: workload.build(args.seed, workdir))
        requests = setup.first()
        if args.trace:
            result, trace = _traced(requests, args.seconds)
        else:
            result, trace = _untraced(requests, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
