"""Run sets: repeat bench/run.py over seeds and summarise the spread.

  python3 bench/collect.py --label NAME [--workloads a,b] [--traced 1]
                           [--first-seed 1]

Runs each workload ten times with --trace 0 (seeds first-seed onwards),
then --traced times with --trace 1, each as its own ``bench/run.py``
process with BENCHMARK.json's run_seconds, the run length the driver
uses.  Prints, per workload, each end-to-end metric's median, first and
third quartile (``statistics.quantiles(values, n=4)``) and spread, the
interquartile range as a share of the median, against the metric's bound
in BENCHMARK.json; then operations attempted and failed.  Writes
bench/results/BENCH_<label>.json with every run's metrics and machine
facts, so that a change can commit a before and after pair.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed ({proc.returncode}): {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    result_line = next(l for l in lines if l.startswith("result "))
    with open(ROOT / result_line.split(" ", 1)[1], encoding="utf-8") as fh:
        full = json.load(fh)
    return {"seed": seed, "trace": trace, **out, "facts": full["facts"],
            "elapsed_s": full["elapsed_s"], "failures": full["failures"],
            "consistency_problems": full["consistency_problems"]}


def summarise(runs: list, names) -> dict:
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            summary[name] = {"median": median(values), "runs": len(values)}
            continue
        q1, q2, q3 = quantiles(values, n=4)
        summary[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if q2 else 0.0,
                         "runs": len(values)}
    return summary


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    report = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, args.first_seed + i, spec["run_seconds"], 0)
                for i in range(RUNS)]
        traced = [_run(workload, args.first_seed + i, spec["run_seconds"], 1)
                  for i in range(args.traced)]
        summary = summarise(runs, e2e)
        report["workloads"][workload] = {
            "summary": summary,
            "per_layer": summarise(traced, [m["name"] for m in spec["per_layer"]]) if traced else {},
            "runs": runs + traced}
        everything = runs + traced
        print(f"{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}; operations attempted "
              f"{sum(r['attempted'] for r in everything)} failed "
              f"{sum(r['failed'] for r in everything)}; "
              f"correct {all(r['correct'] for r in everything)}")
        print(f"  machine: calibration median "
              f"{median(r['facts']['calibration_s'] for r in runs):.4f} s, "
              f"steal median {median(r['facts']['steal_s'] for r in runs):.2f} s "
              f"per run")
        for name, s in summary.items():
            bound = e2e[name]["bound"]
            spread = s.get("spread", 0.0)
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {name:<14} median {s['median']:10.4f} {e2e[name]['unit']:<4} "
                  f"q1 {s.get('q1', 0):10.4f} q3 {s.get('q3', 0):10.4f} "
                  f"spread {spread:6.3f} (bound {bound}) {flag}")
        sys.stdout.flush()
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
