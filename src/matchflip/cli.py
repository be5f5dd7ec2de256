"""Command line front end.

Same flags, same bytes: every command is deterministic.  Exit codes:
0 success, 1 usage error, 2 verification mismatch, 3 search budget
exhausted, 4 resource limit (memory budget, IO).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice

from .chords import perimeter_matching, visible_edges
from .construct import canonical_flip_sequence, perimeter_swap_path
from .counts import (CountReport, CountRow, catalan, class_partition_size,
                     component_size_fraction, perimeter_class_size,
                     predicted_extremes, verify_counts, weight_class_size)
from .dyck import dyck_words, enumerate_matchings, to_dyck
from .errors import ResourceLimitError, VerificationError
from .flips import replay
from .graphs import (MODES, build_flip_graph, component_report, csv_lines,
                     diameter, dot_lines)
from .rainbow import find_rainbow_cycle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is taken by "mismatch" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    raw = os.environ.get("MATCHFLIP_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, metavar="N",
                        help="matching size; the circle has 2n points")
    common.add_argument("--mode", choices=MODES, default="all",
                        help="keep all flips or centered flips only")
    common.add_argument("--format", dest="fmt", default=None,
                        choices=("json", "csv", "dot", "table"),
                        help="output format (default json; enumerate "
                             "defaults to one matching per line)")
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes for graph builds "
                             "(default $MATCHFLIP_THREADS or 1)")
    common.add_argument("--mem-budget", type=int, default=None,
                        metavar="BYTES", help="refuse graph builds that "
                        "would exceed this estimate")
    common.add_argument("--search-budget", type=int, default=10 ** 9,
                        metavar="NODES",
                        help="node expansion budget for rainbow search")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled diameter bounds")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to a file instead of stdout")

    p = _Parser(prog="matchflip",
                description="Exact flip-graph engine for non-crossing "
                            "perfect matchings on a circle.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)
    sub.add_parser("enumerate", parents=[common],
                   help="list all matchings in rank order")
    sub.add_parser("graph", parents=[common],
                   help="build the flip graph and export it")
    sub.add_parser("stats", parents=[common],
                   help="degree and component structure of the flip graph")
    sub.add_parser("diameter", parents=[common],
                   help="graph diameter, or an infinite marker")
    sub.add_parser("counts", parents=[common],
                   help="closed-form predictions without enumeration")
    rb = sub.add_parser("rainbow", parents=[common],
                        help="search for an r-rainbow cycle")
    rb.add_argument("--r", type=int, default=1,
                    help="target multiplicity (default 1)")
    rb.add_argument("--force-search", action="store_true",
                    help="run the explicit search even when a certificate "
                         "already answers (odd n)")
    sub.add_parser("verify", parents=[common],
                   help="re-derive every prediction by enumeration; "
                        "exit 2 on any mismatch")
    return p


# ---------------------------------------------------------------- output


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


def _batched(items, size: int = 4096):
    it = iter(items)
    while batch := list(islice(it, size)):
        yield batch


def _lines(lines):
    """Line formats as text chunks, a few thousand lines per chunk."""
    for batch in _batched(lines):
        yield "\n".join(batch) + "\n"


def _json_array(chunks, indent: str = ""):
    """A JSON array as text chunks, from chunks of already indented items
    joined by ",\n"; indent is the indentation of the array itself."""
    sep = "["
    for chunk in chunks:
        yield sep + "\n" + chunk
        sep = ","
    yield "[]" if sep == "[" else "\n" + indent + "]"


_EDGE = "    [\n      %d,\n      %d,\n      %d\n    ]"


def _edge_chunks(edges, size: int = 2048):
    """Edge items of the graph JSON, one `%` per batch of size edges.

    The batch is a flat tuple of 3 * size numbers, not a list of edge
    tuples, which keeps it below the words array in memory; %d prints a
    centered flag as 0 or 1.
    """
    flat = chain.from_iterable(edges)
    full = ",\n".join([_EDGE] * size)
    while batch := tuple(islice(flat, 3 * size)):
        form = (full if len(batch) == 3 * size
                else ",\n".join([_EDGE] * (len(batch) // 3)))
        yield form % batch


def _graph_json(g):
    """`_dump(graph_json_obj(g))` as text chunks, with
    edges from the CSR and words from one `dyck_words` stream."""
    yield f'{{\n  "edge_count": {g.edge_count},\n  "edges": '
    yield from _json_array(_edge_chunks(g.edges()), "  ")
    yield (f',\n  "mode": {json.dumps(g.mode)},\n  "n": {g.n},\n'
           f'  "vertex_count": {g.vertex_count},\n  "words": ')
    yield from _json_array(('    "' + '",\n    "'.join(batch) + '"'
                            for batch in _batched(dyck_words(g.n))), "  ")
    yield "\n}\n"


def _write(path, chunks) -> None:
    """Write text chunks to stdout, or to the file at path."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _pick_fmt(args, default: str, allowed: tuple[str, ...]) -> str:
    fmt = args.fmt or default
    if fmt not in allowed:
        raise _Usage(f"format {fmt!r} is not available for "
                     f"'{args.command}' (choose from {', '.join(allowed)})")
    return fmt


# -------------------------------------------------------------- commands


def cmd_enumerate(args) -> int:
    fmt = _pick_fmt(args, "table", ("table", "csv", "json"))
    n = args.n
    if fmt == "json":
        # `_dump` of the list of rows, one row at a time; a row is a few
        # hundred characters, so a chunk holds fewer of them
        rows = (json.dumps({"rank": i, "pairs": [list(p) for p in m.pairs],
                            "word": to_dyck(m)}, indent=2, sort_keys=True)
                for i, m in enumerate(enumerate_matchings(n)))
        _write(args.out, chain(
            _json_array(",\n".join(batch) for batch in _batched(
                ("  " + row.replace("\n", "\n  ") for row in rows), 1024)),
            ["\n"]))
        return EXIT_OK
    if fmt == "csv":
        def gen():
            yield "rank,pairs,word"
            for i, m in enumerate(enumerate_matchings(n)):
                yield f'{i},"{m.to_text()}",{to_dyck(m)}'
        _write(args.out, _lines(gen()))
        return EXIT_OK
    _write(args.out, _lines(f"{m.to_text()} {to_dyck(m)}"
                            for m in enumerate_matchings(n)))
    return EXIT_OK


def cmd_graph(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "dot", "csv", "table"))
    g = build_flip_graph(args.n, args.mode, threads=args.threads,
                         mem_budget=args.mem_budget)
    if fmt == "dot":
        _write(args.out, _lines(dot_lines(g)))
    elif fmt == "csv":
        _write(args.out, _lines(csv_lines(g)))
    elif fmt == "table":
        ds = g.degree_summary()
        _write(args.out, _lines([
            f"n {g.n}", f"mode {g.mode}",
            f"vertices {g.vertex_count}", f"edges {g.edge_count}",
            f"centered edges {g.centered_edge_count}",
            f"degree min {ds['min']} max {ds['max']}",
            f"components {len(g.components())}"]))
    else:
        _write(args.out, _graph_json(g))
    return EXIT_OK


def cmd_stats(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table", "csv"))
    g = build_flip_graph(args.n, args.mode, threads=args.threads,
                         mem_budget=args.mem_budget)
    report = component_report(g)
    trees = sum(1 for c in report if c["is_tree"])
    if fmt == "csv":
        def gen():
            yield "component,size,edges,is_tree,symmetric_count"
            for i, c in enumerate(report):
                yield (f"{i},{c['size']},{c['edges']},"
                       f"{int(c['is_tree'])},{c['symmetric_count']}")
        _write(args.out, _lines(gen()))
        return EXIT_OK
    obj = {"n": g.n, "mode": g.mode, "vertices": g.vertex_count,
           "edges": g.edge_count, "degrees": g.degree_summary(),
           "component_count": len(report), "tree_component_count": trees,
           "components": report}
    if fmt == "table":
        lines = [f"n {g.n} mode {g.mode}",
                 f"vertices {g.vertex_count} edges {g.edge_count}",
                 f"{len(report)} components, {trees} trees"]
        for i, c in enumerate(report):
            kind = "tree" if c["is_tree"] else "cyclic"
            lines.append(f"  component {i}: {c['size']} vertices, "
                         f"{c['edges']} edges, {kind}, "
                         f"{c['symmetric_count']} symmetric")
        _write(args.out, _lines(lines))
    else:
        _write(args.out, [_dump(obj)])
    return EXIT_OK


def cmd_diameter(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    g = build_flip_graph(args.n, args.mode, threads=args.threads,
                         mem_budget=args.mem_budget)
    res = diameter(g, seed=args.seed)
    if not res.connected:
        display = "inf"
    elif res.exact:
        display = str(res.value)
    else:
        display = f"{res.lower}..{res.upper}"
    obj = {"n": g.n, "mode": g.mode, "connected": res.connected,
           "exact": res.exact, "diameter": res.value, "display": display,
           "lower": res.lower, "upper": res.upper,
           "witness": list(res.witness) if res.witness else None}
    if fmt == "table":
        _write(args.out, _lines([display]))
    else:
        _write(args.out, [_dump(obj)])
    return EXIT_OK


def cmd_counts(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table", "csv"))
    n = args.n
    obj = dict(predicted_extremes(n))
    obj["catalan"] = catalan(n)
    if n % 2 == 0:
        obj["weight_classes"] = {str(c): weight_class_size(n, c)
                                 for c in range(-(n - 2), n - 1)}
        obj["class_partition"] = {str(c): class_partition_size(n, c)
                                  for c in range(n - 1)}
        obj["perimeter_classes"] = {str(k): perimeter_class_size(n, k)
                                    for k in range(2, n + 1)}
        frac, approx = component_size_fraction(n)
        obj["max_component_fraction"] = frac
        obj["max_component_fraction_float"] = approx
    if fmt == "json":
        _write(args.out, [_dump(obj)])
        return EXIT_OK

    def flat():
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, dict):
                for sub in sorted(val, key=int):
                    yield f"{key}[{sub}]", val[sub]
            else:
                yield key, val
    if fmt == "csv":
        _write(args.out, _lines(["name,value"]
                                + [f"{k},{v}" for k, v in flat()]))
    else:
        _write(args.out, _lines([f"{k} {v}" for k, v in flat()]))
    return EXIT_OK


def cmd_rainbow(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    res = find_rainbow_cycle(args.n, args.r, budget=args.search_budget,
                             force_search=args.force_search)
    obj = {"n": res.n, "r": res.r, "status": res.status,
           "reason": res.reason, "certificate": res.certificate,
           "length": res.length, "expanded": res.expanded,
           "start": ([list(p) for p in res.start.pairs]
                     if res.start is not None else None),
           "cycle": ([{"out": [list(f.out1), list(f.out2)],
                       "in": [list(f.in1), list(f.in2)]}
                      for f in res.cycle]
                     if res.cycle is not None else None)}
    if fmt == "table":
        lines = [f"status {res.status}"]
        if res.reason:
            lines.append(f"reason {res.reason}")
        if res.cycle is not None:
            lines.append(f"length {len(res.cycle)}")
        _write(args.out, _lines(lines))
    else:
        _write(args.out, [_dump(obj)])
    return EXIT_BUDGET if res.status == "budget" else EXIT_OK


def _route_ok(start, seq, ends) -> bool:
    """True iff every flip of seq is centered and seq replays from start
    to a matching in ends."""
    try:
        return all(fl.centered for fl in seq) and replay(start, seq) in ends
    except ValueError:
        return False


def _structure_rows(args) -> list[CountRow]:
    """Graph-level facts re-checked against their closed forms."""
    n = args.n
    rows: list[CountRow] = []
    pred = predicted_extremes(n)
    h = build_flip_graph(n, "centered", threads=args.threads,
                         mem_budget=args.mem_budget)
    ds = h.degree_summary()
    rows.append(CountRow("H max degree", pred["max_degree"], ds["max"]))
    rows.append(CountRow("H min degree", pred["min_degree"], ds["min"]))
    if pred.get("max_degree_count") is not None:
        rows.append(CountRow("H max degree count",
                             pred["max_degree_count"], ds["max_count"]))
    rows.append(CountRow("H min degree count",
                         pred["min_degree_count"], ds["min_count"]))

    if n % 2:
        rows.append(CountRow("H connected", 1, int(h.is_connected())))
        # construct does not check its routes; these replays are the proof
        ends = (perimeter_matching(n), perimeter_matching(n, True))
        if n <= 9:
            good = ok = 0
            for r, m in enumerate(enumerate_matchings(n)):
                good += h.degree(r) == len(visible_edges(m))
                try:
                    seq = canonical_flip_sequence(m)
                except (ValueError, VerificationError):
                    continue
                ok += len(seq) <= 4 * n - 11 and _route_ok(m, seq, ends)
            rows.append(CountRow("H degree equals visible edges",
                                 h.vertex_count, good))
        path = perimeter_swap_path(n)
        rows.append(CountRow("perimeter swap path length", 3 * n - 7,
                             len(path) if _route_ok(ends[0], path, ends[1:])
                             else -1))
        if n <= 9:
            rows.append(CountRow("canonical sequences valid",
                                 h.vertex_count, ok))
        # computed by exhaustive BFS for odd n = 3..11; a conjecture beyond,
        # since the paper proves only that the diameter is linear
        if n <= 7:
            rows.append(CountRow("H diameter", 3 * n - 7, diameter(h).value))
    else:
        report = component_report(h)
        trees = [c for c in report if c["is_tree"]]
        rows.append(CountRow("H component count",
                             pred["component_count"], len(report)))
        rows.append(CountRow("H tree components",
                             pred["tree_component_count"], len(trees)))
        rows.append(CountRow("tree components of expected size",
                             pred["tree_component_count"],
                             sum(1 for c in trees
                                 if c["size"] == n // 2 + 1)))
        rows.append(CountRow("symmetric matchings in tree components",
                             pred["symmetric_count"],
                             sum(c["symmetric_count"] for c in trees)))
        rows.append(CountRow("symmetric matchings outside trees", 0,
                             sum(c["symmetric_count"] for c in report
                                 if not c["is_tree"])))
        rows.append(CountRow("largest component within bound", 1,
                             int(report[0]["size"]
                                 <= pred["max_component_bound"])))
        single = 0
        for c in report:
            ws = sorted(int(k) for k in c["weights"])
            if len(ws) == 1 or (len(ws) == 2 and ws[1] - ws[0] == n - 2):
                single += 1
        rows.append(CountRow("component weights in one class",
                             len(report), single))

    if n <= 8:
        g = build_flip_graph(n, "all", threads=args.threads,
                             mem_budget=args.mem_budget)
        rows.append(CountRow("G bipartite", 1, int(g.is_bipartite())))
        rows.append(CountRow("G diameter", n - 1, diameter(g).value))
        match = 0
        for r in range(g.vertex_count):
            cen = [t for t, fl in zip(g.neighbors(r), g.neighbor_flags(r))
                   if fl]
            if cen == list(h.neighbors(r)):
                match += 1
        rows.append(CountRow("centered arcs of G form H",
                             g.vertex_count, match))
    return rows


def cmd_verify(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    rows = list(verify_counts(args.n).rows)
    rows.extend(_structure_rows(args))
    report = CountReport(args.n, tuple(rows))
    if fmt == "table":
        _write(args.out, _lines(report.table_lines()))
    else:
        _write(args.out, [_dump(report.as_json_obj())])
    return EXIT_OK if report.ok else EXIT_MISMATCH


_DISPATCH = {"enumerate": cmd_enumerate, "graph": cmd_graph,
             "stats": cmd_stats, "diameter": cmd_diameter,
             "counts": cmd_counts, "rainbow": cmd_rainbow,
             "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error(f"--n must be at least 2 (got {args.n})")
    if args.threads is None:
        args.threads = _default_threads()
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.search_budget < 1:
        parser.error("--search-budget must be >= 1")
    if args.mem_budget is not None and args.mem_budget < 1:
        parser.error("--mem-budget must be >= 1")
    if getattr(args, "r", 1) < 1:
        parser.error("--r must be >= 1")
    try:
        return _DISPATCH[args.command](args)
    except _Usage as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"{parser.prog}: verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ResourceLimitError as exc:
        print(f"{parser.prog}: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print(f"{parser.prog}: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"{parser.prog}: io error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
