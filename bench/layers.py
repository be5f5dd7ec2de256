"""Per-layer metrics of a traced run, computed from its spans.

Every traced run reports every metric in PER_LAYER.  A layer the workload
does not call reads 0 (the rainbow workload spends no time in export).
The layer and the end-to-end metric each should move:

  dyck.*           word enumeration; wall_s on graph-json and verify.
  graphs.build_*   neighbour generation, CSR and merge; wall_s and cpu_s on
                   graph-json and verify (about 55%) and diameter (about 25%).
  graphs.<analysis> components, component_report, BFS and diameter;
                   wall_s on diameter (most of it) and verify (about 4%).
  counts.*, construct.*   closed forms and routes; wall_s on verify.
  rainbow.*        search; wall_s on rainbow only.
  export.*         JSON object and serialisation; wall_s and peak_rss_mib
                   on graph-json only.
  trace.*          none; a falling span_share means work moved into code
                   the spans do not cover.

Counts that must repeat exactly are checked here; a difference is a
failure, not noise.
"""

from __future__ import annotations

from statistics import median

from workloads import WORKLOADS, catalan

MIB = 1024.0                            # ru_maxrss is in KiB


def _rainbow_case(n, r) -> str:
    return f"n{n}_r{r}"


def _arg(args, flag):
    return int(args[args.index(flag) + 1])


RAINBOW_CASES = tuple(_rainbow_case(_arg(c.args, "--n"), _arg(c.args, "--r"))
                      for c in WORKLOADS["rainbow"].commands)

PER_LAYER = (
    [("dyck.enumerate_s", "s"), ("dyck.unrank_us", "us"),
     ("graphs.build_s", "s"), ("graphs.build_cpu_s", "s"),
     ("graphs.build_us_per_vertex", "us"), ("graphs.build_us_per_arc", "us"),
     ("graphs.build_rss_mib", "MiB"), ("graphs.vertices", "count"),
     ("graphs.arcs", "count"), ("graphs.centered_arcs", "count"),
     ("graphs.csr_bytes", "bytes"), ("graphs.build_serial_s", "s"),
     ("graphs.parallel_efficiency", "ratio"),
     ("graphs.csr_identical", "bool"),
     ("graphs.components_s", "s"), ("graphs.component_report_s", "s"),
     ("graphs.bfs_s", "s"), ("graphs.diameter_s", "s"),
     ("graphs.diameter_bfs_equiv", "count"),
     ("counts.verify_counts_s", "s"), ("construct.perimeter_swap_path_s", "s")]
    + [(f"rainbow.{case}.{m}", unit) for case in RAINBOW_CASES
       for m, unit in (("build_s", "s"), ("search_s", "s"),
                       ("expanded", "count"), ("nodes_per_s", "1/s"))]
    + [("rainbow.verify_s", "s"),
       ("export.json_obj_s", "s"), ("export.dump_s", "s"),
       ("export.bytes", "bytes"), ("export.rss_mib", "MiB"),
       ("trace.overhead_ratio", "ratio"), ("trace.span_share", "ratio")])


def _dur(s) -> float:
    return (s["end_ns"] - s["start_ns"]) / 1e9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list, overhead_ratio: float, cli_objs: dict,
                  export_bytes: int) -> tuple[dict, list]:
    """(metrics, problems) for one traced pass over a workload's commands.

    spans: the pass's spans and the probe's.  overhead_ratio: traced over
    untraced wall time of the workload's commands, measured by the caller.
    cli_objs maps a command's argv tuple to its parsed CLI output, where it
    was parsed.
    """
    by_id = {s["id"]: s for s in spans}
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)

    def named(name, pool=spans):
        return [s for s in pool if s["name"] == name]

    mirror = [s for s in spans if not s["name"].startswith("probe.")]
    m: dict = {}
    problems: list = []

    # word enumeration (probe)
    for s in named("probe.dyck_words"):
        m["dyck.enumerate_s"] = _dur(s)
        if s["counts"]["words"] != catalan(s["counts"]["n"]):
            problems.append(f"dyck_words({s['counts']['n']}) yields "
                            f"{s['counts']['words']} words")
    for s in named("probe.unrank"):
        m["dyck.unrank_us"] = _dur(s) / s["counts"]["calls"] * 1e6

    # build (the CLI's own calls)
    builds = named("graphs.build_flip_graph", mirror)
    b_s = sum(_dur(s) for s in builds)
    verts = sum(s["counts"]["vertices"] for s in builds)
    arcs = sum(s["counts"]["arcs"] for s in builds)
    m.update({
        "graphs.build_s": b_s,
        "graphs.build_cpu_s": sum(s["cpu_s"] for s in builds),
        "graphs.build_us_per_vertex": _ratio(b_s, verts) * 1e6,
        "graphs.build_us_per_arc": _ratio(b_s, arcs) * 1e6,
        "graphs.build_rss_mib": max(
            [(s["maxrss_kib"] - s["maxrss_before_kib"]) / MIB for s in builds],
            default=0.0),
        "graphs.vertices": verts, "graphs.arcs": arcs,
        "graphs.centered_arcs": sum(s["counts"]["centered_arcs"] for s in builds),
        "graphs.csr_bytes": sum(s["counts"]["csr_bytes"] for s in builds),
    })
    for s in builds + named("probe.build"):
        c = s["counts"]
        if c["vertices"] != catalan(c["n"]):
            problems.append(f"n={c['n']} build has {c['vertices']} vertices, "
                            f"C_n = {catalan(c['n'])}")
        if c["arcs"] != c["targets"]:
            problems.append(f"n={c['n']} build: degree sum {c['arcs']} != "
                            f"len(targets) {c['targets']}")

    # build with one and with two workers (probe)
    by_threads = {s["counts"]["threads"]: _dur(s) for s in named("probe.build")}
    if by_threads:
        m["graphs.build_serial_s"] = by_threads[1]
        m["graphs.parallel_efficiency"] = _ratio(by_threads[1], 2 * by_threads[2])
    for s in named("probe.csr_compare"):
        m["graphs.csr_identical"] = s["counts"]["identical"]
        if not s["counts"]["identical"]:
            problems.append("CSR from threads=1 and threads=2 differ")

    # analysis
    m["graphs.components_s"] = sum(_dur(s) for s in named("graphs.components", mirror))
    m["graphs.component_report_s"] = sum(
        _dur(s) for s in named("graphs.component_report", mirror))
    bfs: dict = {}
    for s in named("probe.bfs"):
        bfs.setdefault((s["counts"]["n"], s["counts"]["mode"]), []).append(_dur(s))
    diam = named("graphs.diameter", mirror)
    one_bfs = [median(bfs[(s["counts"]["n"], s["counts"]["mode"])]) for s in diam]
    m["graphs.diameter_s"] = sum(_dur(s) for s in diam)
    m["graphs.bfs_s"] = sum(one_bfs)
    m["graphs.diameter_bfs_equiv"] = sum(_dur(s) / b for s, b in zip(diam, one_bfs))

    # closed forms and routes
    m["counts.verify_counts_s"] = sum(_dur(s) for s in named("counts.verify_counts", mirror))
    m["construct.perimeter_swap_path_s"] = sum(
        _dur(s) for s in named("construct.perimeter_swap_path", mirror))

    # search
    for s in named("rainbow.find_rainbow_cycle", mirror):
        c = s["counts"]
        case = _rainbow_case(c["n"], c["r"])
        children = kids.get(s["id"], [])
        build = sum(_dur(k) for k in children if k["name"] == "graphs.build_flip_graph")
        check = sum(_dur(k) for k in children if k["name"] == "rainbow.verify_rainbow")
        search = _dur(s) - build - check
        m[f"rainbow.{case}.build_s"] = build
        m[f"rainbow.{case}.search_s"] = search
        m[f"rainbow.{case}.expanded"] = c["expanded"]
        m[f"rainbow.{case}.nodes_per_s"] = _ratio(c["expanded"], search)
        argv = tuple(by_id[s["parent"]]["counts"]["argv"]) if s["parent"] else ()
        cli = cli_objs.get(argv)
        if cli is not None and cli["expanded"] != c["expanded"]:
            problems.append(f"rainbow {case}: traced expanded {c['expanded']} "
                            f"!= CLI expanded {cli['expanded']}")
    m["rainbow.verify_s"] = sum(_dur(s) for s in named("rainbow.verify_rainbow", mirror))

    # export
    mains = named("cli.main", mirror)
    m["export.json_obj_s"] = sum(_dur(s) for s in named("graphs.graph_json_obj", mirror))
    for s in mains:
        if s["counts"]["argv"][0] != "graph":
            continue
        children = kids.get(s["id"], [])
        m["export.dump_s"] = m.get("export.dump_s", 0.0) + _dur(s) - sum(
            _dur(k) for k in children)
        objs = [k for k in children if k["name"] == "graphs.graph_json_obj"]
        if objs:
            m["export.rss_mib"] = max(m.get("export.rss_mib", 0.0), (
                s["maxrss_kib"] - objs[0]["maxrss_before_kib"]) / MIB)
        m["export.bytes"] = export_bytes

    # tracing itself; span_share is measured inside the traced processes,
    # so machine speed cancels: the CLI's time in wrapped layer calls over
    # its whole time in cli.main (interpreter start and imports excluded)
    m["trace.overhead_ratio"] = overhead_ratio
    covered = sum(_dur(k) for s in mains for k in kids.get(s["id"], []))
    m["trace.span_share"] = _ratio(covered, sum(_dur(s) for s in mains))

    return {name: (m.get(name, 0), unit) for name, unit in PER_LAYER}, problems
