"""Benchmark runner: runs one workload's matchflip command lines.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/`` there.
Each command is a fresh process (``sys.executable``, the package imported
from ``src``), spawned by bench/launcher.py with stdout to a file, and
measured from outside.  ``MATCHFLIP_THREADS`` is removed from the child
environment, so only the workload's flags set the worker count; so are
the caller's PYTHON* settings (see child_env).

A run:
  1. records machine facts (nproc, Python, CPU model, load average and the
     time of a fixed pure-Python calibration loop, again at the end, with
     the CPU time the hypervisor stole during the run), so that drift in
     machine speed can be told apart from a regression;
  2. runs the workload's commands once at small n and discards them
     (bytecode compile, lazy imports, page cache);
  3. with --trace 0, repeats the workload until its passes add up to
     --seconds (at least one pass); with --trace 1, runs alternating pairs
     of an untraced and a traced pass (bench/traced.py) for as long, at
     least MIN_PAIRS pairs, then the layer probes.  Batches of
     ``matchflip counts --n 2`` launches for setup_s run before the first
     pass, between commands at most every SETUP_EVERY_S and after the last
     pass, so that the median mixes the machine's fast and slow phases.

End-to-end metrics (--trace 0), medians over the repetitions:
  wall_s        wall time of one pass over the workload's commands
  cpu_s         user + system time of those processes and reaped workers
  peak_rss_mib  highest peak RSS of any command's process tree
  setup_s       median wall time of one ``matchflip counts --n 2`` (two or
                more batches of SETUP_BATCH launches)
Per-layer metrics (--trace 1) are listed in bench/layers.py.

Every command is one operation; it fails when its exit code or stdout
digest differs from the pin in bench/workloads.py.  Stdout digests are
hashed from the file in chunks, so the runner never holds an output.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the machine facts and
every sample is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import SETUP, WORKLOADS, check  # noqa: E402

SETUP_BATCH = 5
SETUP_EVERY_S = 3.0
MIN_PAIRS = 3             # untraced/traced pairs in a traced run
PROBE_RESERVE_S = 40.0    # time kept for the traced run's layer probes
DEADLINE_S = 170.0        # the whole run, so it ends within 180 s
MAX_PARSED_BYTES = 1 << 20
ENTRY = "import sys; from matchflip.cli import main; sys.exit(main())"
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"))


class Launcher:
    """Client of bench/launcher.py; start it before loading anything."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, stdout, stderr, timeout_s) -> dict:
        req = {"argv": argv, "env": env, "stdout": str(stdout),
               "stderr": str(stderr), "timeout_s": max(timeout_s, 1.0)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def child_env() -> dict:
    """The caller's environment without MATCHFLIP_* and PYTHON* settings.

    Bytecode caching stays on (the warm-up pays the compile once) and the
    hash seed is fixed, so runs differ only by the machine.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MATCHFLIP_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def sha256_file(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def _calibrate(loops: int = 300_000, reps: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop (machine speed)."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i * i % 7
        times.append(time.perf_counter() - t)
    return median(times)


def _steal_s() -> float:
    """Seconds the hypervisor ran other guests instead of this machine's
    CPUs (the steal column of /proc/stat, summed over CPUs); 0 if absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_model": model,
            "loadavg": list(os.getloadavg()),
            "calibration_s": _calibrate(), "steal_total_s": _steal_s()}


class Runner:
    """Runs and checks operations for one workload run."""

    def __init__(self, launcher: Launcher, workdir: Path, seed: int,
                 deadline: float):
        self.launcher = launcher
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[dict] = []
        self.setup: list[float] = []
        self._last_setup = 0.0
        self._k = 0

    def op(self, cmd, prefix=(), keep_json=False) -> dict:
        """Run one command (optionally behind prefix argv) and check it."""
        self._k += 1
        out = self.workdir / f"op{self._k}.out"
        err = self.workdir / f"op{self._k}.err"
        argv = [sys.executable, *prefix] if prefix else [sys.executable, "-c", ENTRY]
        argv += cmd.argv(self.seed)
        res = self.launcher.run(argv, self.env, out, err,
                                self.deadline - time.monotonic())
        digest, size = sha256_file(out)
        obj = None

        def load_json():
            nonlocal obj
            if size > MAX_PARSED_BYTES:
                raise ValueError(f"{size} bytes is too large to parse")
            with open(out, encoding="utf-8") as fh:
                obj = json.load(fh)
            return obj

        problems = check(cmd, self.seed, res["rc"], digest, load_json)
        if res["timed_out"]:
            problems.insert(0, "timed out")
        self.attempted += 1
        rec = {"cmd": cmd.label(self.seed), "traced": bool(prefix),
               "rc": res["rc"], "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
               "maxrss_kib": res["maxrss_kib"], "bytes": size,
               "sha256": digest}
        if problems:
            with open(err, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.failures.append({**rec, "problems": problems, "stderr": tail})
        out.unlink()
        if keep_json and obj is not None:
            rec["obj"] = obj
        return rec

    def setup_batch(self, every: float = 0.0) -> None:
        """Time SETUP_BATCH setup launches, unless one ran within `every` s."""
        if time.monotonic() - self._last_setup >= every:
            self.setup += [self.op(SETUP)["wall_s"] for _ in range(SETUP_BATCH)]
            self._last_setup = time.monotonic()

    def out_of_time(self, reserve: float) -> bool:
        return time.monotonic() + reserve > self.deadline


def _iteration(runner: Runner, commands, prefix=None) -> dict:
    """One pass over the commands; prefix(i) puts command i behind traced.py."""
    recs = []
    for i, c in enumerate(commands):
        if prefix is None:
            runner.setup_batch(every=SETUP_EVERY_S)
            recs.append(runner.op(c, keep_json=True))
        else:
            recs.append(runner.op(c, prefix=prefix(i)))
    return {"wall_s": sum(r["wall_s"] for r in recs),
            "cpu_s": sum(r["cpu_s"] for r in recs),
            "peak_rss_mib": max(r["maxrss_kib"] for r in recs) / 1024.0,
            "commands": recs}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 launcher: Launcher) -> dict:
    w = WORKLOADS[name]
    start = time.monotonic()
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out_dir = HERE / "out"
    workdir = out_dir / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(launcher, workdir, seed, start + DEADLINE_S)
    result = {"run": run_id, "workload": name, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "facts": machine_facts()}
    problems = []
    try:
        for cmd in (*w.warmup, SETUP):
            runner.op(cmd)
        runner.setup_batch()
        if trace:
            iters, traced, metrics, problems = _traced(runner, w, run_id,
                                                        workdir, out_dir, seconds)
            result["traced_iterations"] = traced
        else:
            iters = []
            while True:
                iters.append(_iteration(runner, w.commands))
                if sum(i["wall_s"] for i in iters) >= seconds:
                    break
                if runner.out_of_time(iters[-1]["wall_s"] + 5):
                    break
        runner.setup_batch()
        e2e = {"wall_s": median(i["wall_s"] for i in iters),
               "cpu_s": median(i["cpu_s"] for i in iters),
               "peak_rss_mib": median(i["peak_rss_mib"] for i in iters),
               "setup_s": median(runner.setup)}
        if not trace:
            metrics = {k: (e2e[k], unit) for k, unit in END_TO_END}
        for it in iters:
            for r in it["commands"]:
                r.pop("obj", None)
        result.update(setup_samples=runner.setup, iterations=iters, e2e=e2e,
                      consistency_problems=problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = result["facts"]
    facts.update(loadavg_end=list(os.getloadavg()),
                 calibration_end_s=_calibrate(),
                 steal_s=_steal_s() - facts.pop("steal_total_s"))
    result["elapsed_s"] = time.monotonic() - start
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures,
                  correct=not runner.failures and not problems)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = out_dir / f"{run_id}.json"
    result["result_file"] = str(path.relative_to(ROOT))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _read_spans(paths) -> list:
    spans = []
    for p in paths:
        if p.exists():
            with open(p, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def _traced(runner, w, run_id, workdir, out_dir, seconds):
    """Pairs of an untraced and a traced pass, then the layer probes.

    Pairs alternate which side runs first and go on until their passes add
    up to `seconds`, at least MIN_PAIRS of them, so that the machine's
    drift in speed falls on both sides.  trace.overhead_ratio is the
    median over pairs of traced / untraced wall time; every per-layer
    metric is the median over the traced passes.
    """
    plain, traced, pass_spans = [], [], []
    while True:
        j = len(plain)
        paths = [workdir / f"p{j}c{i}.spans.jsonl" for i in range(len(w.commands))]

        def prefix(i):
            return [str(HERE / "traced.py"), "cmd", "--run", run_id,
                    "--tag", f"p{j}c{i}", "--spans", str(paths[i]), "--"]

        sides = [lambda: plain.append(_iteration(runner, w.commands)),
                 lambda: traced.append(_iteration(runner, w.commands, prefix))]
        for side in sides if j % 2 == 0 else sides[::-1]:
            side()
        pass_spans.append(_read_spans(paths))
        spent = sum(i["wall_s"] for i in plain + traced)
        pair_s = plain[-1]["wall_s"] + traced[-1]["wall_s"]
        if runner.out_of_time(pair_s + PROBE_RESERVE_S) or (
                len(plain) >= MIN_PAIRS and spent >= seconds):
            break

    path = workdir / "probe.spans.jsonl"
    probe = [sys.executable, str(HERE / "traced.py"), "probe", "--run", run_id,
             "--tag", "probe", "--spans", str(path), "--workload", w.name]
    res = runner.launcher.run(probe, runner.env, workdir / "probe.out",
                              workdir / "probe.err",
                              runner.deadline - time.monotonic())
    problems = [] if res["rc"] == 0 else [f"probe exited {res['rc']}"]
    probe_spans = _read_spans([path])
    with open(out_dir / f"{run_id}.spans.jsonl", "w", encoding="utf-8") as fh:
        for s in [*(s for ps in pass_spans for s in ps), *probe_spans]:
            fh.write(json.dumps(s) + "\n")

    cli_objs = {tuple(c.argv(runner.seed)): r["obj"]
                for c, r in zip(w.commands, plain[0]["commands"]) if "obj" in r}
    export_bytes = sum(r["bytes"] for r in plain[0]["commands"]
                       if r["cmd"].split()[0] == "graph")
    overhead = median(t["wall_s"] / u["wall_s"] for u, t in zip(plain, traced))
    per_pass = []
    for spans in pass_spans:
        try:
            metrics, more = layer_metrics(spans + probe_spans, overhead,
                                          cli_objs, export_bytes)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            metrics = {name: (0, unit) for name, unit in PER_LAYER}
            more = [f"spans incomplete: {exc!r}"]
        per_pass.append(metrics)
        problems += [p for p in more if p not in problems]
    metrics = {name: (median(m[name][0] for m in per_pass), unit)
               for name, unit in PER_LAYER}
    return plain, traced, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "matchflip" / "cli.py").is_file():
        print(f"bench: no matchflip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), launcher)
    finally:
        launcher.close()
    e2e = result["e2e"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {len(result['iterations'])} pass(es), "
          f"calibration {result['facts']['calibration_s']:.4f} s, "
          f"load {result['facts']['loadavg'][0]:.2f}, "
          f"steal {result['facts']['steal_s']:.2f} s")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:12.4f} {unit}")
    print(f"  operations attempted {result['attempted']} "
          f"failed {result['failed']}")
    for f in result["failures"]:
        print(f"  FAILED {f['cmd']}: {'; '.join(f['problems'])}")
    for p in result["consistency_problems"]:
        print(f"  INCONSISTENT {p}")
    print(f"result {result['result_file']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
