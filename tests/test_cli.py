"""Command line behavior: formats, exit codes, determinism."""

import argparse
import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import weakref
from functools import partial
from pathlib import Path
from types import ModuleType

import pytest

from matchflip import cli, counts, graphs, rainbow
from matchflip.cli import main
from matchflip.counts import MEASURED, verify_counts
from matchflip.dyck import enumerate_matchings, to_dyck
from matchflip.flips import make_flip
from matchflip.graphs import (MODES, _census_bytes, diameter, edge_text,
                              graph_json_obj)

import oracles
from conftest import (_fault_on_job, cached_graph, full_edges,
                      oracle_edge_rows)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lists_one_matching_per_line(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 5
    assert lines[0] == "1-6,2-5,3-4 UUUDDD"
    assert lines[-1] == "1-2,3-4,5-6 UDUDUD"
    for ln in lines:
        pairs, word = ln.split(" ")
        assert len(word) == 6 and set(word) <= {"U", "D"}
        assert pairs.count("-") == 3


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    rows = json.loads(out)
    assert code == 0
    assert [row["rank"] for row in rows] == list(range(14))
    assert rows[0]["word"] == "UUUUDDDD"
    assert rows[0]["pairs"] == [[1, 8], [2, 7], [3, 6], [4, 5]]


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "rank,pairs,word"
    assert len(lines) == 15
    assert lines[1] == '0,"1-8,2-7,3-6,4-5",UUUUDDDD'


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "1"],
    ["enumerate"],
    ["graph", "--n", "4", "--mode", "weird"],
    ["nonsense", "--n", "4"],
    ["rainbow", "--n", "4", "--r", "0"],
    ["graph", "--n", "4", "--threads", "0"],
    ["rainbow", "--n", "4", "--search-budget", "0"],
    ["graph", "--n", "4", "--mem-budget", "0"],
    # flags that the command never reads
    ["verify", "--n", "4", "--mode", "all"],
    ["enumerate", "--n", "3", "--threads", "2"],
    ["counts", "--n", "3", "--seed", "1"],
    ["stats", "--n", "4", "--seed", "2"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3"], ["counts", "--n", "3"],
    ["graph", "--n", "3"], ["stats", "--n", "4"], ["diameter", "--n", "4"],
    ["verify", "--n", "4"], ["rainbow", "--n", "4"]])
def test_every_flag_a_command_accepts_is_read(capsys, monkeypatch, argv):
    # the command reads every attribute its parser sets, so no accepted
    # flag is ignored
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    accepted = set(vars(parser.parse_args(argv)))
    monkeypatch.setattr(parser, "parse_args", lambda argv: Recording(
        **vars(argparse.ArgumentParser.parse_args(parser, argv))))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert main(argv) == 0
    capsys.readouterr()
    assert accepted - read == set()


def test_unavailable_format_is_a_usage_error(capsys):
    code, out, err = run(capsys, "diameter", "--n", "3", "--format", "dot")
    assert code == 1
    assert out == ""
    assert "not available" in err


def test_diameter_table_and_json(capsys):
    code, out, _ = run(capsys, "diameter", "--n", "5", "--mode", "centered",
                       "--format", "table")
    assert code == 0 and out == f"{MEASURED['H diameter'][5]}\n"
    code, out, _ = run(capsys, "diameter", "--n", "4", "--mode", "centered")
    obj = json.loads(out)
    assert code == 0
    assert obj["connected"] is False
    assert obj["diameter"] is None
    assert obj["display"] == "inf"
    code, out, _ = run(capsys, "diameter", "--n", "4")
    obj = json.loads(out)
    want = MEASURED["G diameter"][4]
    assert obj["connected"] is True and obj["diameter"] == want
    assert obj["display"] == str(want) and obj["exact"] is True


def test_stats_reports_component_structure(capsys):
    code, out, _ = run(capsys, "stats", "--n", "6", "--mode", "centered")
    obj = json.loads(out)
    assert code == 0
    assert obj["vertices"] == 132
    assert obj["component_count"] == 8
    assert obj["tree_component_count"] == 5
    assert len(obj["components"]) == 8
    assert obj["components"][0]["size"] == 48
    code, out, _ = run(capsys, "stats", "--n", "6", "--mode", "centered",
                       "--format", "table")
    assert "8 components, 5 trees" in out
    code, out, _ = run(capsys, "stats", "--n", "4", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "component,size,edges,is_tree,symmetric_count"
    assert len(lines) == 2   # the full flip graph is connected


def test_graph_formats(capsys):
    code, out, _ = run(capsys, "graph", "--n", "3")
    obj = json.loads(out)
    assert code == 0
    assert obj["vertex_count"] == 5
    assert len(obj["words"]) == 5
    code, out, _ = run(capsys, "graph", "--n", "3", "--format", "dot")
    assert out.startswith("graph ") and out.rstrip().endswith("}")
    assert 'label="UUUDDD"' in out
    code, out, _ = run(capsys, "graph", "--n", "3", "--format", "csv")
    assert out.splitlines()[0] == "src_rank,dst_rank,centered"
    code, out, _ = run(capsys, "graph", "--n", "3", "--format", "table")
    assert "vertices 5" in out.splitlines()


def test_counts_even_includes_weight_classes(capsys):
    code, out, _ = run(capsys, "counts", "--n", "6")
    obj = json.loads(out)
    assert code == 0
    assert obj["catalan"] == 132
    assert obj["component_count"] == 8
    assert obj["weight_classes"]["4"] == 3
    assert obj["weight_classes"]["0"] == 1
    assert obj["class_partition"]["0"] == 4
    assert sum(obj["class_partition"].values()) == 132
    assert obj["max_component_fraction"] == "5/11"
    assert isinstance(obj["max_component_fraction_float"], float)


def test_counts_odd_has_no_weight_classes(capsys):
    code, out, _ = run(capsys, "counts", "--n", "5")
    obj = json.loads(out)
    assert code == 0
    assert "weight_classes" not in obj
    assert obj["max_degree"] == 5 and obj["max_degree_count"] == 2
    code, out, _ = run(capsys, "counts", "--n", "6", "--format", "table")
    assert "catalan 132" in out.splitlines()
    code, out, _ = run(capsys, "counts", "--n", "6", "--format", "csv")
    assert out.splitlines()[0] == "name,value"


def test_rainbow_found_json(capsys):
    code, out, _ = run(capsys, "rainbow", "--n", "4")
    obj = json.loads(out)
    assert code == 0
    assert obj["status"] == "found"
    assert obj["length"] == 8
    assert len(obj["cycle"]) == 8
    assert all(set(step) == {"out", "in"} for step in obj["cycle"])


def test_rainbow_certificate_table(capsys):
    # odd n is settled by the averaging certificate before any build
    code, out, _ = run(capsys, "rainbow", "--n", "5", "--format", "table",
                       "--mem-budget", "1")
    assert code == 0
    assert out.splitlines()[:2] == ["status none", "reason average-length"]


def test_rainbow_budget_exit_code(capsys):
    code, out, _ = run(capsys, "rainbow", "--n", "6", "--r", "2",
                       "--search-budget", "100")
    obj = json.loads(out)
    assert code == 3
    assert obj["status"] == "budget"
    assert obj["expanded"] == 100


def test_memory_budget_exit_code(capsys):
    # the rainbow search needs the centered graph, and its build obeys
    # the budget too
    for argv in (["graph", "--mem-budget", "1024"],
                 ["verify", "--mem-budget", "1024"],
                 ["rainbow", "--r", "1", "--mem-budget", "1"]):
        code, out, err = run(capsys, *argv, "--n", "8")
        assert (code, out) == (4, "")
        assert "resource limit" in err


def test_failed_build_worker_exits_4(capfd, monkeypatch):
    # a worker error other than MemoryError: the worker prints its own
    # traceback, and the parent one line, not a second traceback
    _fault_on_job(monkeypatch, ValueError("bad chunk"),
                  lambda start, stop: start == 0)
    code = main(["graph", "--n", "9", "--threads", "2", "--format", "table"])
    out, err = capfd.readouterr()
    assert (code, out) == (4, "")
    assert err.count("Traceback") == 1 and "ValueError: bad chunk" in err
    assert err.splitlines()[-1].startswith(
        "matchflip: graph build workers exited with [1, ")


def _fault_on_last_text(monkeypatch, exc):
    """Make the edge formatter raise exc on the chunk that ends at the
    last rank of n = 9; it runs in the parent, after every chunk has
    been read."""
    edge_chunks = cli._edge_chunks

    def faulty(form, sep, labels, start, lengths, *rest):
        if start + len(lengths) == counts.catalan(9):
            raise exc
        return edge_chunks(form, sep, labels, start, lengths, *rest)
    monkeypatch.setattr(cli, "_edge_chunks", faulty)


def _short_last_chunk(monkeypatch):
    """Make the chunk that ends at the last rank of n = 9 claim one edge
    more than it sends: its worker's stream ends inside that chunk, after
    the edge counts, which count the targets sent."""
    # patched before the build, so the forked workers inherit it
    chunk_rows = graphs._chunk_rows

    def short(args):
        lengths, targets, flags = chunk_rows(args)
        if args[3] == counts.catalan(9):
            lengths[-1] += 1
        return lengths, targets, flags
    monkeypatch.setattr(graphs, "_chunk_rows", short)


@pytest.mark.parametrize("phase", ["build", "format", "stream"])
@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_failed_export_worker_exits_4(capfd, monkeypatch, fmt, phase):
    # a worker that fails while it builds its rows fails the export before
    # any output; a formatter that raises in the parent, or a stream that
    # ends early, fails it after the header and the chunks before, which
    # stay printed; every worker is reaped either way
    argv = ["graph", "--n", "9", "--threads", "2", "--format", fmt]
    assert main(argv) == 0
    full = capfd.readouterr().out
    code = None
    if phase == "build":
        _fault_on_job(monkeypatch, ValueError("bad chunk"),
                      lambda start, stop: start == 0)
        code = main(argv)
    elif phase == "format":
        # the formatter's error passes through main, after the reaping
        _fault_on_last_text(monkeypatch, ValueError("bad chunk"))
        with pytest.raises(ValueError, match="bad chunk"):
            main(argv)
    else:
        _short_last_chunk(monkeypatch)
        code = main(argv)
    out, err = capfd.readouterr()
    if phase == "build":
        assert (code, out) == (4, "")
        assert err.count("Traceback") == 1 and "ValueError: bad chunk" in err
        assert err.splitlines()[-1] == (
            "matchflip: graph build workers exited with [1, -9]")
    elif phase == "format":
        assert 0 < len(out) < len(full) and full.startswith(out)
        assert err == ""
    else:
        # the short chunk is the last, worker 1's, which has exited when
        # its pipe ends; worker 0 has sent all it had but may not have
        # exited yet when it is killed
        assert 0 < len(out) < len(full) and full.startswith(out)
        assert code == 4 and err in (
            "matchflip: graph build workers exited with [0, 0]\n",
            "matchflip: graph build workers exited with [-9, 0]\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["graph", "--format", "json"], ["graph", "--format", "csv"],
    ["graph", "--format", "dot"], ["graph", "--format", "table"],
    ["stats"], ["verify"], ["rainbow", "--n", "6", "--r", "2"]],
    ids=["json", "csv", "dot", "table", "stats", "verify", "rainbow"])
def test_commands_leave_no_process(capsys, monkeypatch, argv):
    # every command that forks build workers reaps them all
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    n = [] if "--n" in argv else ["--n", "7"]
    assert main([*argv, *n, "--threads", "2"]) == 0
    capsys.readouterr()
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_rainbow_passes_threads_and_budget_to_its_build(capsys,
                                                        monkeypatch):
    builds = []
    real = rainbow.component_census

    def build(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(rainbow, "component_census", build)
    _, base, _ = run(capsys, "rainbow", "--n", "6", "--r", "2",
                     "--threads", "1")
    _, threaded, _ = run(capsys, "rainbow", "--n", "6", "--r", "2",
                         "--threads", "2", "--mem-budget", "100000")
    assert base == threaded
    assert builds == [(6, "centered", 1, None), (6, "centered", 2, 100000)]


@pytest.mark.parametrize("n", ["2", "5", "6"])
def test_verify_passes(capsys, n):
    code, out, _ = run(capsys, "verify", "--n", n)
    obj = json.loads(out)
    assert code == 0
    assert obj["ok"] is True
    assert all(row["ok"] for row in obj["rows"])


def test_short_canonical_sequence_fails_verify(capsys, monkeypatch):
    # a sequence that stops one flip early is short enough but does not
    # reach an all-perimeter matching
    real = counts.canonical_flip_sequence
    monkeypatch.setattr(counts, "canonical_flip_sequence",
                        lambda m: real(m)[:-1])
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 2
    row, = [r for r in json.loads(out)["rows"]
            if r["name"] == "canonical sequences valid"]
    assert row["enumerated"] < row["predicted"]


def test_reversed_swap_path_fails_verify(capsys, monkeypatch):
    # same length and only centered flips, but it starts at the other
    # all-perimeter matching, so only a replay can tell
    real = counts.perimeter_swap_path
    monkeypatch.setattr(counts, "perimeter_swap_path",
                        lambda n: [make_flip(n, fl.in1, fl.in2)
                                   for fl in reversed(real(n))])
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 2
    row, = [r for r in json.loads(out)["rows"]
            if r["name"] == "perimeter swap path length"]
    assert not row["ok"]


def test_package_has_no_assert_statements():
    # python -O strips asserts, so none may carry a check
    src = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_imports_no_theorem_modules():
    # the CLI parses, dispatches and formats; the predictions and the
    # checks that re-derive them live in counts
    imported = set()
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "matchflip." + module if module else "matchflip"
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    forbidden = {f"matchflip.{name}" for name in ("chords", "construct",
                                                   "flips")}
    assert imported & forbidden == set()
    assert "matchflip.counts" in imported


# modules whose import costs start-up time and memory and that no
# command needs: dataclasses loads inspect, ast and dis, fractions loads
# decimal
_HEAVY_IMPORTS = """
import sys
from matchflip.cli import main
heavy = ("dataclasses", "fractions", "decimal", "inspect")
loaded = [[m for m in heavy if m in sys.modules]]
for argv in (["rainbow", "--n", "6", "--r", "2"], ["diameter", "--n", "5"]):
    main(argv)
    loaded.append([m for m in heavy if m in sys.modules])
print(loaded, file=sys.stderr)
"""


def test_commands_leave_heavy_modules_unimported():
    proc = subprocess.run([sys.executable, "-c", _HEAVY_IMPORTS],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0
    assert proc.stderr == "[[], [], []]\n"


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_prints_verify_counts(capsys, n):
    code, out, _ = run(capsys, "verify", "--n", str(n))
    assert code == 0
    assert out == cli._dump(verify_counts(n).as_json_obj())


def test_export_list_resolves_without_repeats():
    # `from matchflip import *` fails on a name that is listed but gone
    import matchflip
    for name in matchflip.__all__:
        getattr(matchflip, name)
    assert len(set(matchflip.__all__)) == len(matchflip.__all__)


def _module_named(node, modules: dict):
    # the matchflip module that the expression node names, else None
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        sub = getattr(_module_named(node.value, modules), node.attr, None)
        return sub if isinstance(sub, ModuleType) else None
    return None


def _engine_names_read(path: Path) -> set:
    """Engine names that the file at path reads: names it imports from
    matchflip and, in a module of the package, its own top-level names,
    each outside the statement that defines it, and attributes of a
    matchflip module.  A bare name counts only where the file imports or
    defines it, so bench/layers.py's local list `mirror` does not count;
    an attribute counts only off a module, so g.neighbors(r) reads no
    engine name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("matchflip")):
            base = importlib.import_module(
                ".".join(filter(None, ("matchflip", node.module)))
                if node.level else node.module)
            for alias in node.names:
                name = alias.asname or alias.name
                bound.add(name)
                sub = getattr(base, alias.name, None)
                if isinstance(sub, ModuleType):
                    modules[name] = sub
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("matchflip"):
                    name = alias.asname or alias.name.split(".")[0]
                    bound.add(name)
                    modules[name] = importlib.import_module(
                        alias.name if alias.asname else "matchflip")
    own = {}
    if path.parent == Path(cli.__file__).parent:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own[stmt] = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                own[stmt] = {t.id for t in targets if isinstance(t, ast.Name)}
    defined = set().union(*own.values())
    read = set()
    for stmt in tree.body:
        readable = (bound | defined) - own.get(stmt, set())
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id in readable
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and _module_named(node.value, modules) is not None):
                read.add(node.attr)
    return read


def test_every_exported_name_is_read():
    # the public surface is what the engine, the benchmark or the
    # acceptance tests read; __init__.py, which lists it, does not count
    import matchflip
    root = Path(__file__).resolve().parents[1]
    files = [path for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    read = set().union(*map(_engine_names_read, files))
    assert sorted(set(matchflip.__all__) - read) == []


# verify at n = 8 and 9 prints the symmetric, weight and perimeter rows
# that the word census decides
@pytest.mark.parametrize("argv", [["verify", "--n", "7"],
                                  ["rainbow", "--n", "6", "--r", "2"],
                                  ["rainbow", "--n", "6", "--r", "1"],
                                  ["verify", "--n", "8"],
                                  ["verify", "--n", "9"],
                                  ["graph", "--n", "9", "--threads", "2"],
                                  ["stats", "--n", "9", "--threads", "2"]])
def test_optimized_python_prints_the_same_bytes(argv):
    # python -O strips asserts; no printed result may depend on them
    procs = [subprocess.run([sys.executable, *flags, "-m", "matchflip.cli",
                             *argv], capture_output=True, text=True)
             for flags in ([], ["-O"])]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout


def test_verify_table(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("quantity")
    assert all(ln.endswith("yes") for ln in lines[1:])


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, "graph", "--n", "4")
    path = tmp_path / "g.json"
    code, out, _ = run(capsys, "graph", "--n", "4", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("mode", MODES)
def test_streamed_graph_json_matches_dump(n, mode):
    # n = 1 has no edges ("edges": []); n >= 8 is beyond the golden
    # digests; two threads build in process at n <= 3, too few ranks to
    # split, and in two workers from n = 4 on
    text = partial(cli._edge_chunks, *cli._EDGE_FORMS["json"])
    want = cli._dump(graph_json_obj(oracle_edge_rows(n, mode)))
    for threads in (1, 2):
        with edge_text(n, mode, threads, None, text) as (edge_count, edges):
            got = "".join(cli._graph_json(n, mode, edge_count, edges))
        assert got == want


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", MODES)
def test_csv_and_dot_match_the_full_graph(capsys, n, mode):
    # the exports read the upward rows; the full graph's edges, printed
    # one line at a time, are the oracle
    edges = full_edges(cached_graph(n, mode))
    for fmt, lines in (("csv", oracles.csv_lines(edges)),
                       ("dot", oracles.dot_lines(n, mode, edges))):
        code, out, _ = run(capsys, "graph", "--n", str(n), "--mode", mode,
                           "--format", fmt)
        assert code == 0
        assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("size", [1, 5, 14, 27, 28, 29])
def test_edge_chunks_cut_at_any_batch_size(size):
    # 28 edges: batches of 1, 14 and 28 hold them exactly, 5 and 27 leave
    # a short last batch; in every format the text is the same
    rows = oracle_edge_rows(4, "all")
    lengths = [b - a for a, b in zip(rows.offsets, rows.offsets[1:])]
    assert rows.edge_count == 28
    for form in cli._EDGE_FORMS.values():
        whole = list(cli._edge_chunks(*form, 0, lengths, rows.targets,
                                      rows.flags))
        cut = list(cli._edge_chunks(*form, 0, lengths, rows.targets,
                                    rows.flags, size))
        assert len(whole) == 1 and len(cut) == -(-28 // size)
        assert form[1].join(cut) == whole[0]


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
@pytest.mark.parametrize("mode", MODES)
def test_edge_exports_are_the_same_for_any_thread_count(capsys, fmt, mode):
    # n = 9 cuts its 4,862 ranks into several chunks per worker
    outs = {run(capsys, "graph", "--n", "9", "--mode", mode, "--format", fmt,
                "--threads", threads)
            for threads in ("1", "2", "3")}
    assert len(outs) == 1 and next(iter(outs))[0] == 0


@pytest.mark.parametrize("n", range(2, 10))
def test_streamed_enumerate_json_matches_dump(capsys, n):
    rows = [{"rank": i, "pairs": [list(p) for p in m.pairs],
             "word": to_dyck(m)}
            for i, m in enumerate(enumerate_matchings(n))]
    code, out, _ = run(capsys, "enumerate", "--n", str(n), "--format", "json")
    assert code == 0
    assert out == cli._dump(rows)


# VmHWM belongs to the process image, so unlike ru_maxrss it does not
# carry over the peak of the test process that spawned it
_PEAK_HWM = """
import sys
from matchflip.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(*[ln.split()[1] for ln in fh if ln.startswith("VmHWM")],
          file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
@pytest.mark.parametrize("argv", [
    ["graph", "--n", "10", "--mode", "all", "--threads", "1"],
    ["enumerate", "--n", "10"],
], ids=["graph", "enumerate"])
def test_json_peak_memory_matches_table(argv):
    # the JSON exports stream edges, words and rows a chunk at a time, so
    # they need no more memory than the table
    peak_kib = {}
    for fmt in ("json", "table"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_HWM, *argv, "--format", fmt],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        peak_kib[fmt] = int(proc.stderr.split()[-1])
    assert peak_kib["json"] <= peak_kib["table"] + 5 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_two_worker_build_peak_memory_matches_one_process():
    # the parent reads the workers' rows a small rank chunk at a time from
    # their pipes, so it holds neither a second copy of the graph nor a
    # process pool
    peak_kib = _peak_by_threads("build_flip_graph")
    assert peak_kib["2"] <= peak_kib["1"] + 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_two_worker_census_peak_memory_matches_one_process():
    # the census takes the same chunks, from the workers' pipes or built
    # here one at a time, and keeps none of them
    peak_kib = _peak_by_threads("component_census")
    assert peak_kib["2"] <= peak_kib["1"] + 1024


# VmHWM of a process that calls graphs.<argv[1]>(11, "all", threads)
_PEAK_CALL = """
import sys
from matchflip import graphs
getattr(graphs, sys.argv[1])(11, "all", threads=int(sys.argv[2]))
with open("/proc/self/status") as fh:
    print(*[ln.split()[1] for ln in fh if ln.startswith("VmHWM")],
          file=sys.stderr)
"""


def _peak_by_threads(build: str) -> dict:
    peak_kib = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_CALL, build, threads],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        peak_kib[threads] = int(proc.stderr.split()[-1])
    return peak_kib


# VmHWM at exit, the largest ru_maxrss of the workers (0 without any),
# and last the rise of VmHWM from just before main() to exit: what the
# command itself adds
_PEAK_RISE = """
import resource, sys
from matchflip.cli import main
def hwm():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM"))
before = hwm()
code = main(sys.argv[1:])
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(hwm(), workers, hwm() - before, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_graph_json_holds_less_than_the_full_graph():
    # the JSON export builds each edge once, so at n = 11 its whole rise
    # stays below the full CSR: C_11 + 1 offsets and 994,840 arc ends
    full_kib = (8 * (counts.catalan(11) + 1) + 5 * 994_840) / 1024
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RISE, "graph", "--n", "11", "--mode",
         "all", "--threads", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    assert int(proc.stderr.split()[-1]) < full_kib


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_verify_holds_less_than_the_full_graph():
    # the H_11 degrees and connectivity come from the census, 8 bytes a
    # vertex, not from the two-ended rows, which alone raise VmHWM by
    # about 2.8 MiB
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RISE, "verify", "--n", "11"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    assert int(proc.stderr.split()[-1]) <= 2048


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_graph_export_parent_holds_no_rows(fmt):
    # with two workers the parent never holds the upward rows, C_11 + 1
    # offsets and 497,420 edges at 5 bytes, 2.82 MiB: its rise stays below
    # half of them (measured on a 2-vCPU VM: json 0.47, csv 0.25-0.27,
    # dot 0.46 MiB, from one chunk, its text and the words or labels), and
    # the workers, which keep only their own chunks, peak below the parent
    rows_kib = (8 * (counts.catalan(11) + 1) + 5 * 497_420) / 1024
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RISE, "graph", "--n", "11", "--mode",
         "all", "--threads", "2", "--format", fmt],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0
    peak, workers, rise = map(int, proc.stderr.split()[-3:])
    assert rise < rows_kib / 2
    assert 0 < workers < peak


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_graph_export_parent_holds_one_chunk_at_a_time(tmp_path, monkeypatch,
                                                       fmt):
    # VmHWM moves by a few hundred KiB from run to run; the chunks alive
    # in the parent are counted exactly: as each of the 29 chunks of
    # graph --n 11 arrives from the pipes, the ones before it are gone,
    # but for at most the one the formatter has just finished
    read_chunks, targets, alive = graphs._read_chunks, [], []

    def counting(jobs, readers):
        for chunk in read_chunks(jobs, readers):
            targets.append(weakref.ref(chunk[2]))
            alive.append(sum(t() is not None for t in targets))
            yield chunk
    monkeypatch.setattr(graphs, "_read_chunks", counting)
    assert main(["graph", "--n", "11", "--mode", "all", "--threads", "2",
                 "--format", fmt, "--out", str(tmp_path / "g")]) == 0
    assert len(alive) == 29 and max(alive) <= 2


# VmHWM rise, in bytes, of graphs.component_census(n, mode)
_CENSUS_RISE = """
import sys
from matchflip import graphs
def hwm():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM"))
before = hwm()
graphs.component_census(int(sys.argv[1]), sys.argv[2])
print(1024 * (hwm() - before))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
@pytest.mark.parametrize("n, mode", [(10, "all"), (11, "all"),
                                     (12, "centered")])
def test_census_estimate_bounds_its_memory(n, mode):
    # --mem-budget checks the census against _census_bytes, 8 bytes per
    # vertex and one chunk, not the full graph's estimate (26 MB at n = 12)
    proc = subprocess.run([sys.executable, "-c", _CENSUS_RISE, str(n), mode],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert int(proc.stdout) <= _census_bytes(n)


# the VmHWM, in KiB, that each census worker of
# graphs.component_census(n, "all", threads=2) reads after each of its
# chunks, one line each on stderr
_WORKER_PEAK = """
import os, sys
from matchflip import graphs
chunk_rows = graphs._chunk_rows
def rows(job):
    got = chunk_rows(job)
    with open("/proc/self/status") as fh:
        hwm = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM"))
    os.write(2, f"{hwm}\\n".encode())    # a worker never flushes stdio
    return got
graphs._chunk_rows = rows
graphs.component_census(int(sys.argv[1]), "all", threads=2)
"""


def _worker_peak_kib(n: int) -> int:
    proc = subprocess.run([sys.executable, "-c", _WORKER_PEAK, str(n)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0
    return max(map(int, proc.stderr.split()))


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_census_workers_do_not_map_its_arrays():
    # the census allocates its three arrays after the fork, so a worker's
    # peak does not grow with them: arrays allocated before it would add
    # 12 * (208,012 - 16,796) bytes, 2.2 MiB, from n = 10 to n = 12;
    # VmHWM reads a few hundred KiB either way, hence the 1 MiB margin;
    # n = 10 runs first, so the run that may compile the sources is the
    # one that would only lower the difference
    small = _worker_peak_kib(10)
    assert _worker_peak_kib(12) - small < 1024


def test_output_is_deterministic(capsys):
    first = run(capsys, "stats", "--n", "5", "--mode", "centered")
    second = run(capsys, "stats", "--n", "5", "--mode", "centered")
    assert first == second


def test_threads_do_not_change_output(capsys):
    _, base, _ = run(capsys, "graph", "--n", "5")
    _, threaded, _ = run(capsys, "graph", "--n", "5", "--threads", "2")
    assert base == threaded
    # verify passes --threads to its graph builds
    _, base, _ = run(capsys, "verify", "--n", "9", "--threads", "1")
    _, threaded, _ = run(capsys, "verify", "--n", "9", "--threads", "2")
    assert base == threaded


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "matchflip.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1    # missing subcommand is a usage error


def test_module_invocation_works():
    proc = subprocess.run(
        [sys.executable, "-m", "matchflip.cli", "diameter", "--n", "3",
         "--format", "table"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


# Golden output: per (subcommand, n) the first 16 hex digits of the sha256
# over argv, exit code and stdout of every allowed --format (times --mode
# for the commands that build a graph), recorded before the traversals
# were merged into one BFS kernel.  ("rainbow", 5) also covers a forced
# search.
_FORMATS = {"enumerate": ("table", "csv", "json"),
            "graph": ("json", "dot", "csv", "table"),
            "stats": ("json", "table", "csv"),
            "diameter": ("json", "table"),
            "counts": ("json", "table", "csv"),
            "verify": ("json", "table"),
            "rainbow": ("json", "table")}

_GOLDEN_DIGESTS = {
    ("counts", 2): "12252733f4143e98",
    ("counts", 3): "958dba82f9a55211",
    ("counts", 4): "a5189cd6c4989518",
    ("counts", 5): "9fe00b0593297e30",
    ("counts", 6): "2904ccf5907f4baa",
    ("counts", 7): "84cdc2a676f82d18",
    ("diameter", 2): "cf4729f25c598e59",
    ("diameter", 3): "d96fa1c29c75bf07",
    ("diameter", 4): "bba995263d9d0e8a",
    ("diameter", 5): "bf51a2c7c3b630b3",
    ("diameter", 6): "f290a358f1ded85c",
    ("diameter", 7): "72dbced74536551e",
    ("enumerate", 2): "9735ec2426f60982",
    ("enumerate", 3): "64a2badfa962d97a",
    ("enumerate", 4): "e512ee5c9a495136",
    ("enumerate", 5): "6d213ce237288271",
    ("enumerate", 6): "f311bb166b25158a",
    ("enumerate", 7): "e357bdbb83400cd1",
    ("graph", 2): "80a5afc3804f6698",
    ("graph", 3): "570014423c8b2257",
    ("graph", 4): "28d962f5c0b04c6c",
    ("graph", 5): "8aeabce76edebe45",
    ("graph", 6): "1eae12e1bf5eacd7",
    ("graph", 7): "b0912f6567e17105",
    ("rainbow", 2): "17e4e5b2323904aa",
    ("rainbow", 3): "777b093447e503e1",
    ("rainbow", 4): "a3e4d39a3f374f49",
    ("rainbow", 5): "05c4d37160683047",
    ("rainbow", 6): "4bcfec133ae3b23b",
    ("rainbow", 7): "fc362ca241ccbfae",
    ("stats", 2): "f29b9868d325dd26",
    ("stats", 3): "845ec3ad06b45b23",
    ("stats", 4): "26e687c6bffa8746",
    ("stats", 5): "cf844d56ea5b772b",
    ("stats", 6): "fd3b2a0479c4e67b",
    ("stats", 7): "fe997eb7e5ac534b",
    ("verify", 2): "958ec99cff3b1e4b",
    ("verify", 3): "fb126e75640baf8a",
    ("verify", 4): "d5cba678610feb19",
    ("verify", 5): "18cfd7e8bacd611c",
    ("verify", 6): "3dbf5e36d0db0b10",
    ("verify", 7): "c08cfeb457a63474",
}


def _golden_argvs(command, n):
    modes = MODES if command in ("graph", "stats", "diameter") else (None,)
    extras = [["--r", "1"], ["--r", "2"]] if command == "rainbow" else [[]]
    for mode in modes:
        for fmt in _FORMATS[command]:
            for extra in extras:
                argv = [command, "--n", str(n), "--format", fmt, *extra]
                yield argv + (["--mode", mode] if mode else [])
    if (command, n) == ("rainbow", 5):
        yield ["rainbow", "--n", "5", "--r", "2", "--force-search"]


def _golden_digest(capsys, command, n):
    h = hashlib.sha256()
    for argv in _golden_argvs(command, n):
        code, out, _ = run(capsys, *argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("command, n", sorted(_GOLDEN_DIGESTS))
def test_cli_output_is_pinned(capsys, command, n):
    assert _golden_digest(capsys, command, n) == _GOLDEN_DIGESTS[command, n]


# Golden report output above the n <= 7 digests: the first 16 hex digits
# of the sha256 of stdout, recorded before the report commands shared one
# writer
_REPORT_DIGESTS = {
    "stats --n 8 --mode centered --format json": "31710defa0c4f9d4",
    "stats --n 8 --mode centered --format table": "a02ffc452dc34aed",
    "stats --n 8 --mode centered --format csv": "eb3ac87004daf64b",
    "stats --n 10 --mode centered --format json": "29c285caefe434ab",
    "stats --n 10 --mode centered --format table": "726c13d1cce56291",
    "stats --n 10 --mode centered --format csv": "08b52b12fb1e9443",
    "counts --n 12 --format json": "715e12fb05ce6300",
    "counts --n 12 --format table": "5ccdd2dc3510f44f",
    "counts --n 12 --format csv": "b83c99ba73137bf5",
    "diameter --n 8 --mode all --format json": "1154f476b01944db",
    "diameter --n 8 --mode all --format table": "10159baf262b43a9",
    # the benchmark's pin: the bounds passes over the dense G_10
    "diameter --n 10 --mode all --format json": "7b3b6a7ba73b4448",
    "verify --n 8 --format json": "db7812bc829e4ff4",
    "verify --n 8 --format table": "bae5ab36e58d6d58",
    "rainbow --n 6 --r 2 --format json": "c6a0af778d2b9d2d",
    "rainbow --n 6 --r 2 --format table": "5af1ab7448ed843c",
    # recorded before degrees and components were read from one
    # union-find pass instead of the full graph
    "stats --n 9 --mode all --format json": "cba8497c2d8a584a",
    "stats --n 9 --mode all --format table": "1a2feb3d67e14e3e",
    "stats --n 9 --mode all --format csv": "e5ebc777182f3d9e",
    "stats --n 11 --mode centered --threads 2 --format json":
        "6b6a8e7074b02c50",
    "graph --n 9 --mode all --format table": "6ab6c03d06fb1f51",
    "graph --n 9 --mode centered --format table": "c2c6ade2ac37b449",
    "rainbow --n 8 --r 1 --format json": "a85774d1f14b23a0",
}


@pytest.mark.parametrize("argv", sorted(_REPORT_DIGESTS))
def test_report_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()[:16]
            == _REPORT_DIGESTS[argv])


# the bounds path of diameter, which no CLI command reaches at n <= 7
_BOUNDS = {s: (6, 12, (6, 0)) for s in range(4)}


@pytest.mark.parametrize("seed", sorted(_BOUNDS))
def test_diameter_bounds_are_pinned(seed):
    res = diameter(cached_graph(7, "all"), exact_limit=10, samples=8,
                   seed=seed)
    assert (res.lower, res.upper, res.witness) == _BOUNDS[seed]
