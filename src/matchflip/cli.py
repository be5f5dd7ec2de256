"""Command line front end: parse, dispatch and format.

Every prediction and every check that re-derives one lives in `counts`;
`counts` prints `predicted_extremes` and `verify` prints `verify_counts`.

Same flags, same bytes: every command is deterministic.  Exit codes:
0 success, 1 usage error, 2 verification mismatch, 3 search budget
exhausted, 4 resource limit (memory budget, IO, a failed build worker;
a graph export whose worker dies after the header has by then printed
part of its text).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import chain, count, islice, repeat

from .counts import predicted_extremes, verify_counts
from .dyck import catalan, dyck_words, enumerate_matchings, to_dyck
from .errors import ResourceLimitError, VerificationError, WorkerError
from .graphs import (MODES, _check, _diameter_bytes, build_flip_graph,
                     component_census, component_report, diameter,
                     edge_text)
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


def _at_least(low: int):
    """An argparse type: an integer of at least low."""
    def integer(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low} (got {value})")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    # each command accepts only the flags its cmd_* reads: io's for every
    # command, build's for those that build a graph, graph's for those
    # whose graph the user picks
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--n", type=_at_least(2), required=True, metavar="N",
                    help="matching size; the circle has 2n points")
    io.add_argument("--format", dest="fmt", default=None,
                    choices=("json", "csv", "dot", "table"),
                    help="output format (default json; enumerate defaults "
                         "to one matching per line)")
    io.add_argument("--out", default=None, metavar="PATH",
                    help="write output to a file instead of stdout")
    build = argparse.ArgumentParser(add_help=False, parents=[io])
    build.add_argument("--threads", type=_at_least(1), default=1,
                       help="worker processes for graph builds (default 1)")
    build.add_argument("--mem-budget", type=_at_least(1), default=None,
                       metavar="BYTES", help="refuse graph builds that "
                       "would exceed this estimate")
    graph = argparse.ArgumentParser(add_help=False, parents=[build])
    graph.add_argument("--mode", choices=MODES, default="all",
                       help="keep all flips or centered flips only")

    p = _Parser(prog="matchflip",
                description="Exact flip-graph engine for non-crossing "
                            "perfect matchings on a circle.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)
    sub.add_parser("enumerate", parents=[io],
                   help="list all matchings in rank order")
    sub.add_parser("graph", parents=[graph],
                   help="build the flip graph and export it")
    sub.add_parser("stats", parents=[graph],
                   help="degree and component structure of the flip graph")
    dm = sub.add_parser("diameter", parents=[graph],
                        help="graph diameter, or an infinite marker")
    dm.add_argument("--seed", type=int, default=0,
                    help="seed for sampled diameter bounds")
    sub.add_parser("counts", parents=[io],
                   help="the prediction table, without enumeration")
    rb = sub.add_parser("rainbow", parents=[build],
                        help="search for an r-rainbow cycle in H_n")
    rb.add_argument("--r", type=_at_least(1), default=1,
                    help="target multiplicity (default 1)")
    rb.add_argument("--search-budget", type=_at_least(1), default=10 ** 9,
                    metavar="NODES", help="node expansion budget")
    rb.add_argument("--force-search", action="store_true",
                    help="run the explicit search even when a certificate "
                         "already answers (odd n)")
    sub.add_parser("verify", parents=[build],
                   help="re-derive every prediction by enumeration, on "
                        "both H_n and G_n; exit 2 on any mismatch")
    return p


# ---------------------------------------------------------------- output


def _json_default(obj):
    from fractions import Fraction      # not at import: it loads decimal
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


def _batched(items):
    # a batch of 1,024 words or labels, its join and the copies made on
    # the way to stdout raise a process's RSS by about 0.4 MiB; 4,096
    # raised it by 1.2-1.7 MiB, more than the graph exports' edge text
    it = iter(items)
    while batch := list(islice(it, 1024)):
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


# per edge format: the form of one edge, from its rank, its target and
# its flag's label; the separator between edges; the labels of flags 0
# and 1
_EDGE_FORMS = {"json": ("    [\n      %d,\n      %d,\n      %d\n    ]",
                        ",\n", (0, 1)),
               "csv": ("%d,%d,%d\n", "", (0, 1)),
               "dot": ("  %d -- %d [style=%s];\n", "", ("dashed", "solid"))}


def _edge_chunks(form: str, sep: str, labels: tuple, start: int, counts,
                 targets, flags, size: int = 512):
    """Text of the upward rows from rank start on, whose lengths are
    counts: one `%` of form per batch of at most size edges, the batch's
    items joined by sep, each flag printed as its label.

    The batch is one flat list of 3 * size values, filled by slice
    assignment with the row numbers, the targets and the labels, not a
    list of edge tuples.  512 edges keep the parent's peak near one
    chunk of rows; 2,048 raised the n = 11 JSON export's peak RSS by
    about 0.5 MiB more, in no less time.
    """
    rows = chain.from_iterable(map(repeat, count(start), counts))
    flat, full = [0] * (3 * size), sep.join([form] * size)
    for at in range(0, len(targets), size):
        if len(targets) - at < size:
            size = len(targets) - at
            flat, full = flat[:3 * size], sep.join([form] * size)
        flat[0::3] = islice(rows, size)
        flat[1::3] = targets[at:at + size]
        flat[2::3] = map(labels.__getitem__, flags[at:at + size])
        yield full % tuple(flat)


def _graph_json(n: int, mode: str, edge_count: int, edges):
    """`_dump(graph_json_obj(g))` as text chunks, for the graph g of n
    and mode with edge_count edges: the edge items come as the text
    chunks edges, the words from one `dyck_words` stream."""
    yield f'{{\n  "edge_count": {edge_count},\n  "edges": '
    yield from _json_array(edges, "  ")
    yield (f',\n  "mode": {json.dumps(mode)},\n  "n": {n},\n'
           f'  "vertex_count": {catalan(n)},\n  "words": ')
    yield from _json_array(('    "' + '",\n    "'.join(batch) + '"'
                            for batch in _batched(dyck_words(n))), "  ")
    yield "\n}\n"


def _write(path, chunks) -> None:
    """Write text chunks to stdout, or to the file at path."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit(args, fmt: str, obj, table, csv=()) -> None:
    """Write a report: obj as JSON, or its table or csv lines."""
    if fmt == "json":
        _write(args.out, [_dump(obj)])
    else:
        _write(args.out, _lines(table if fmt == "table" else csv))


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
        # `_dump` of the list of rows, one row at a time
        rows = (json.dumps({"rank": i, "pairs": [list(p) for p in m.pairs],
                            "word": to_dyck(m)}, indent=2, sort_keys=True)
                for i, m in enumerate(enumerate_matchings(n)))
        _write(args.out, chain(
            _json_array(",\n".join(batch) for batch in _batched(
                ("  " + row.replace("\n", "\n  ") for row in rows))),
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
    n, mode = args.n, args.mode
    if fmt == "table":
        # the table needs only degrees and components
        g = component_census(n, mode, threads=args.threads,
                             mem_budget=args.mem_budget)
        ds = g.degree_summary()
        _write(args.out, _lines([
            f"n {g.n}", f"mode {g.mode}",
            f"vertices {g.vertex_count}", f"edges {g.edge_count}",
            f"centered edges {g.centered_edge_count}",
            f"degree min {ds['min']} max {ds['max']}",
            f"components {len(set(g.root))}"]))
        return EXIT_OK
    text = partial(_edge_chunks, *_EDGE_FORMS[fmt])
    with edge_text(n, mode, args.threads, args.mem_budget,
                   text) as (edge_count, edges):
        if fmt == "json":
            chunks = _graph_json(n, mode, edge_count, edges)
        elif fmt == "csv":
            chunks = chain(["src_rank,dst_rank,centered\n"], edges)
        else:
            chunks = chain(
                [f'graph "flips_n{n}_{mode}" {{\n  node [shape=box];\n'],
                 _lines(map('  %d [label="%s"];'.__mod__,
                            enumerate(dyck_words(n)))),
                 edges, ["}\n"])
        _write(args.out, chunks)
    return EXIT_OK


def cmd_stats(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table", "csv"))
    g = component_census(args.n, args.mode, threads=args.threads,
                         mem_budget=args.mem_budget)
    report = component_report(g)
    trees = sum(1 for c in report if c["is_tree"])
    obj = {"n": g.n, "mode": g.mode, "vertices": g.vertex_count,
           "edges": g.edge_count, "degrees": g.degree_summary(),
           "component_count": len(report), "tree_component_count": trees,
           "components": report}
    table = [f"n {g.n} mode {g.mode}",
             f"vertices {g.vertex_count} edges {g.edge_count}",
             f"{len(report)} components, {trees} trees"]
    table += [f"  component {i}: {c['size']} vertices, {c['edges']} edges, "
              f"{'tree' if c['is_tree'] else 'cyclic'}, "
              f"{c['symmetric_count']} symmetric"
              for i, c in enumerate(report)]
    csv = ["component,size,edges,is_tree,symmetric_count"]
    csv += [f"{i},{c['size']},{c['edges']},{int(c['is_tree'])},"
            f"{c['symmetric_count']}" for i, c in enumerate(report)]
    _emit(args, fmt, obj, table, csv)
    return EXIT_OK


def cmd_diameter(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    # the budget covers the graph and the sweep over it, checked here
    # before the build
    _check(args.n, args.mode, args.threads, args.mem_budget, _diameter_bytes)
    g = build_flip_graph(args.n, args.mode, threads=args.threads)
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
    _emit(args, fmt, obj, [display])
    return EXIT_OK


def cmd_counts(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table", "csv"))
    obj = predicted_extremes(args.n)
    flat = []
    for key in sorted(obj):
        val = obj[key]
        if isinstance(val, dict):
            flat += [(f"{key}[{sub}]", val[sub])
                     for sub in sorted(val, key=int)]
        else:
            flat.append((key, val))
    _emit(args, fmt, obj, [f"{k} {v}" for k, v in flat],
          ["name,value"] + [f"{k},{v}" for k, v in flat])
    return EXIT_OK


def cmd_rainbow(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    res = find_rainbow_cycle(args.n, args.r, budget=args.search_budget,
                             force_search=args.force_search,
                             threads=args.threads, mem_budget=args.mem_budget)
    obj = {"n": res.n, "r": res.r, "status": res.status,
           "reason": res.reason, "certificate": res.certificate,
           "length": res.length, "expanded": res.expanded,
           "start": ([list(p) for p in res.start.pairs]
                     if res.start is not None else None),
           "cycle": ([{"out": [list(f.out1), list(f.out2)],
                       "in": [list(f.in1), list(f.in2)]}
                      for f in res.cycle]
                     if res.cycle is not None else None)}
    table = [f"status {res.status}"]
    if res.reason:
        table.append(f"reason {res.reason}")
    if res.cycle is not None:
        table.append(f"length {len(res.cycle)}")
    _emit(args, fmt, obj, table)
    return EXIT_BUDGET if res.status == "budget" else EXIT_OK


def cmd_verify(args) -> int:
    fmt = _pick_fmt(args, "json", ("json", "table"))
    report = verify_counts(args.n, args.threads, args.mem_budget)
    _emit(args, fmt, report.as_json_obj(), report.table_lines())
    return EXIT_OK if report.ok else EXIT_MISMATCH


_DISPATCH = {"enumerate": cmd_enumerate, "graph": cmd_graph,
             "stats": cmd_stats, "diameter": cmd_diameter,
             "counts": cmd_counts, "rainbow": cmd_rainbow,
             "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except WorkerError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"{parser.prog}: io error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
