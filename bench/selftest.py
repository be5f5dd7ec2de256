"""Self-test of the benchmark itself.

  python3 bench/selftest.py

1. The runner's memory stays out of ``peak_rss_mib``: ``matchflip counts
   --n 4`` is measured through the launcher, then again while this process
   holds 200 MiB; the two peaks must agree within 2 MiB.  As a control,
   the same command spawned directly from this process must read at least
   190 MiB more, which shows the test detects what it guards against.
2. BENCHMARK.json names exactly the workloads and metrics the benchmark
   reports, with the same units.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BALLAST_MIB = 200
TRIVIAL = ["counts", "--n", "4"]


def _peak_via_launcher(launcher, out_dir: Path) -> float:
    argv = [sys.executable, "-c", run.ENTRY, *TRIVIAL]
    peaks = []
    for _ in range(3):
        res = launcher.run(argv, run.child_env(), out_dir / "trivial.out",
                           out_dir / "trivial.err", 60)
        if res["rc"] != 0:
            raise SystemExit(f"selftest: {' '.join(TRIVIAL)} exited {res['rc']}")
        peaks.append(res["maxrss_kib"] / 1024.0)
    return median(peaks)


def _peak_direct(out_dir: Path) -> float:
    with open(out_dir / "direct.out", "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-c", run.ENTRY, *TRIVIAL],
                                stdout=fh, env=run.child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def check_runner_memory() -> list:
    out_dir = run.HERE / "out" / f"selftest-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    launcher = run.Launcher()
    try:
        small = _peak_via_launcher(launcher, out_dir)
        ballast = b"\x01" * (BALLAST_MIB << 20)     # written, so resident
        held = _peak_via_launcher(launcher, out_dir)
        direct = _peak_direct(out_dir)
        del ballast
    finally:
        launcher.close()
        for p in out_dir.iterdir():
            p.unlink()
        out_dir.rmdir()
    print(f"peak_rss_mib of '{' '.join(TRIVIAL)}': {small:.1f} MiB; "
          f"{held:.1f} MiB while the runner holds {BALLAST_MIB} MiB; "
          f"{direct:.1f} MiB when spawned directly by that runner")
    problems = []
    if abs(held - small) > 2.0:
        problems.append(f"launcher peak moved by {held - small:.1f} MiB")
    if direct < small + BALLAST_MIB - 10:
        problems.append("control failed: direct spawn did not inherit the "
                        "runner's memory, so the test shows nothing")
    return problems


def check_benchmark_json() -> list:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    pairs = [("workloads", sorted(w["name"] for w in spec["workloads"]),
              sorted(WORKLOADS)),
             ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              list(run.END_TO_END)),
             ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]],
              list(PER_LAYER))]
    for key, listed, reported in pairs:
        if listed != reported:
            problems.append(f"BENCHMARK.json {key} {listed} != reported {reported}")
    return problems


def main() -> int:
    problems = check_runner_memory() + check_benchmark_json()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
