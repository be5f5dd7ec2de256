"""Traced in-process run: spans around calls into matchflip's layers.

  python3 bench/traced.py cmd   --run ID --tag T --spans PATH -- ARGS...
  python3 bench/traced.py probe --run ID --tag T --spans PATH --workload NAME

``cmd`` runs ``matchflip ARGS`` in this process, with stdout as usual,
after wrapping the public functions at each layer boundary.  Every
binding of those functions in the loaded matchflip modules is replaced,
so calls the CLI makes and calls one layer makes into another (the build
inside the rainbow search) each get a span.  The
program's code is not changed.  Exit code is the CLI's.

``probe`` times layer functions directly on the workload's inputs: word
enumeration and unrank over all ranks, the same build with one and with
two workers (whose CSR bytes must be identical), and one BFS from rank 0
on each graph the workload takes a diameter of.

Spans are kept in memory and written at exit as JSON lines.  Each holds
the run identifier shared by all spans of one workload run, its own id,
its parent's id, name, start and end (CLOCK_MONOTONIC ns, comparable
across processes), CPU seconds of the process and its reaped children,
peak RSS (``ru_maxrss``) before and after, and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, catalan  # noqa: E402


def _usage() -> tuple[float, int, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + ch.ru_utime + ch.ru_stime
    return cpu, me.ru_maxrss, ch.ru_maxrss


class Tracer:
    def __init__(self, run_id: str, tag: str):
        self.run_id = run_id
        self.tag = tag
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"run": self.run_id, "id": f"{self.tag}.{len(self.spans)}",
               "parent": self._stack[-1]["id"] if self._stack else None,
               "name": name, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec)
        cpu0, rss0, _ = _usage()
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            cpu1, rss1, crss1 = _usage()
            self._stack.pop()
            rec.update(cpu_s=cpu1 - cpu0, maxrss_before_kib=rss0,
                       maxrss_kib=rss1, children_maxrss_kib=crss1)

    def wrap(self, name: str, fn, counts_of=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts_of is not None:       # outside the timed interval
                rec["counts"].update(counts_of(out, args, kwargs))
            return out
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _graph_counts(g, threads: int) -> dict:
    return {"n": g.n, "mode": g.mode, "threads": threads,
            "vertices": g.vertex_count, "arcs": g.offsets[-1],
            "targets": len(g.targets), "centered_arcs": sum(g.flags),
            "csr_bytes": (len(g.offsets) * g.offsets.itemsize
                          + len(g.targets) * g.targets.itemsize
                          + len(g.flags))}


def _build_counts(g, args, kwargs):
    return _graph_counts(g, kwargs.get("threads", args[2] if len(args) > 2 else 1))


def _diameter_counts(res, args, kwargs):
    g = args[0]
    return {"n": g.n, "mode": g.mode, "exact": int(res.exact)}


def _rainbow_counts(res, args, kwargs):
    return {"n": res.n, "r": res.r, "status": res.status,
            "expanded": res.expanded, "length": res.length or 0}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries in every loaded matchflip module."""
    import matchflip  # noqa: F401  (loads every module)
    from matchflip import construct, counts, graphs, rainbow

    layers = [
        ("graphs.build_flip_graph", graphs.build_flip_graph, _build_counts),
        ("graphs.component_report", graphs.component_report,
         lambda out, a, k: {"components": len(out)}),
        ("graphs.diameter", graphs.diameter, _diameter_counts),
        ("graphs.graph_json_obj", graphs.graph_json_obj,
         lambda out, a, k: {"edges": len(out["edges"]),
                            "words": len(out.get("words") or ())}),
        ("counts.verify_counts", counts.verify_counts,
         lambda out, a, k: {"rows": len(out.rows)}),
        ("construct.perimeter_swap_path", construct.perimeter_swap_path,
         lambda out, a, k: {"flips": len(out)}),
        ("rainbow.find_rainbow_cycle", rainbow.find_rainbow_cycle,
         _rainbow_counts),
        ("rainbow.verify_rainbow", rainbow.verify_rainbow,
         lambda out, a, k: {"ok": int(out[0])}),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if name == "matchflip" or name.startswith("matchflip.")]
    for name, fn, counts_of in layers:
        traced = tracer.wrap(name, fn, counts_of)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, traced)
    graphs.FlipGraph.components = tracer.wrap(
        "graphs.components", graphs.FlipGraph.components,
        lambda out, a, k: {"components": len(out)})


def run_cmd(tracer: Tracer, argv: list) -> int:
    install(tracer)
    from matchflip import cli
    with tracer.span("cli.main", argv=argv) as rec:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:           # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    rec["counts"]["rc"] = rc
    return rc


def _csr(g) -> tuple:
    return g.offsets.tobytes(), g.targets.tobytes(), bytes(g.flags)


def run_probe(tracer: Tracer, workload: str) -> int:
    from matchflip.dyck import dyck_words, unrank
    from matchflip.graphs import bfs_distances, build_flip_graph

    p = WORKLOADS[workload].probe
    n = p.dyck_n
    with tracer.span("probe.dyck_words", n=n) as rec:
        words = sum(1 for _ in dyck_words(n))
    rec["counts"]["words"] = words
    with tracer.span("probe.unrank", n=n, calls=catalan(n)):
        for r in range(catalan(n)):
            unrank(n, r)

    n, mode = p.csr
    csr = {}
    for threads in (1, 2):
        with tracer.span("probe.build", n=n, mode=mode, threads=threads) as rec:
            g = build_flip_graph(n, mode, threads=threads)
        rec["counts"].update(_graph_counts(g, threads))
        csr[threads] = _csr(g)
        del g
    identical = int(csr[1] == csr[2])
    del csr
    with tracer.span("probe.csr_compare", n=n, mode=mode, identical=identical):
        pass

    for n, mode in p.bfs:
        g = build_flip_graph(n, mode)
        for _ in range(5):
            with tracer.span("probe.bfs", n=n, mode=mode):
                bfs_distances(g, 0)
        del g
    return 0 if identical else 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("cmd", "probe"))
    ap.add_argument("--run", required=True, help="run identifier")
    ap.add_argument("--tag", required=True, help="span id prefix")
    ap.add_argument("--spans", required=True, help="JSON-lines output")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    cli_args = argv[cut + 1:]
    ns = ap.parse_args(argv[:cut])
    tracer = Tracer(ns.run, ns.tag)
    try:
        if ns.mode == "cmd":
            return run_cmd(tracer, cli_args)
        if ns.workload is None:
            ap.error("probe needs --workload")
        return run_probe(tracer, ns.workload)
    finally:
        tracer.write(ns.spans)


if __name__ == "__main__":
    raise SystemExit(main())
