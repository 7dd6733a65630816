"""Repeat one workload over consecutive seeds and report how steady it is.

    python3 nfbench/steady.py --workload group_duality --runs 10 --first-seed 1

Runs ``nfbench/run.py`` once per seed, one run at a time, with the run length
from ``BENCHMARK.json``.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, over the median) next to the metric's bound.
A spread above a third of the bound is marked ``WIDE``.  With
``--compare FILE`` (an earlier report of this script) it also prints how far
each median moved, and marks a move in the worse direction past the bound.
The report is written to ``nfbench/out/steady-<workload>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["run_seconds"], {m["name"]: m for m in bench["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", type=Path, help="earlier report to compare medians with")
    args = p.parse_args(argv)

    seconds, spec = _spec()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = []
    for seed in seeds:
        res = run_once(args.workload, seed, seconds)
        runs.append(res)
        brief = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} {brief}", flush=True)

    summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in spec}
    earlier = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, seeds {seeds[0]}-{seeds[-1]}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, s in summary.items():
        bound = spec[name]["bound"]
        line = (f"{name:34} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f}"
                f" {bound:6.2f}" + ("  WIDE" if s["spread"] > bound / 3 else ""))
        if name in earlier and earlier[name]["median"]:
            move = s["median"] / earlier[name]["median"] - 1
            worse = move if spec[name]["better"] == "lower" else -move
            line += f"  moved {move:+.3f}" + ("  WORSE" if worse > bound else "")
        print(line)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"all correct: {all(r['correct'] for r in runs)}; failed shares: {sorted(shares)}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    report = out / f"steady-{args.workload}-seeds{seeds[0]}-{seeds[-1]}.json"
    report.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "seeds": seeds,
                                  "runs": runs, "summary": summary}, indent=1) + "\n")
    print(f"report: {report.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
