"""Command line behavior: formats, exit codes, determinism."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from matchflip import cli
from matchflip.cli import main
from matchflip.dyck import enumerate_matchings, to_dyck
from matchflip.graphs import MODES, diameter, graph_json_obj

from conftest import cached_graph


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
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_unavailable_format_is_a_usage_error(capsys):
    code, out, err = run(capsys, "diameter", "--n", "3", "--format", "dot")
    assert code == 1
    assert out == ""
    assert "not available" in err


def test_diameter_table_and_json(capsys):
    code, out, _ = run(capsys, "diameter", "--n", "5", "--mode", "centered",
                       "--format", "table")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "diameter", "--n", "4", "--mode", "centered")
    obj = json.loads(out)
    assert code == 0
    assert obj["connected"] is False
    assert obj["diameter"] is None
    assert obj["display"] == "inf"
    code, out, _ = run(capsys, "diameter", "--n", "4")
    obj = json.loads(out)
    assert obj["connected"] is True and obj["diameter"] == 3
    assert obj["display"] == "3" and obj["exact"] is True


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
    code, out, _ = run(capsys, "rainbow", "--n", "5", "--format", "table")
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
    code, out, err = run(capsys, "graph", "--n", "8",
                         "--mem-budget", "1024")
    assert code == 4
    assert "resource limit" in err


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
    real = cli.canonical_flip_sequence
    monkeypatch.setattr(cli, "canonical_flip_sequence",
                        lambda m: real(m)[:-1])
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 2
    row, = [r for r in json.loads(out)["rows"]
            if r["name"] == "canonical sequences valid"]
    assert row["enumerated"] < row["predicted"]


def test_reversed_swap_path_fails_verify(capsys, monkeypatch):
    # same length and only centered flips, but it starts at the other
    # all-perimeter matching, so only a replay can tell
    real = cli.perimeter_swap_path
    monkeypatch.setattr(cli, "perimeter_swap_path",
                        lambda n: [fl.reversed() for fl in reversed(real(n))])
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


def test_export_list_resolves_without_repeats():
    # `from matchflip import *` fails on a name that is listed but gone
    import matchflip
    for name in matchflip.__all__:
        getattr(matchflip, name)
    assert len(set(matchflip.__all__)) == len(matchflip.__all__)


# verify at n = 8 and 9 prints the symmetric, weight and perimeter rows
# that the word census decides
@pytest.mark.parametrize("argv", [["verify", "--n", "7"],
                                  ["rainbow", "--n", "6", "--r", "2"],
                                  ["rainbow", "--n", "6", "--r", "1"],
                                  ["verify", "--n", "8"],
                                  ["verify", "--n", "9"]])
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
    # n = 1 has no edges ("edges": []); n >= 8 is beyond the golden digests
    g = cached_graph(n, mode)
    assert ("".join(cli._graph_json(g))
            == cli._dump(graph_json_obj(g)))


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
    # the parent merges the workers' rows a small rank chunk at a time,
    # so it never holds a second copy of the graph
    peak_kib = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_HWM, "graph", "--n", "11", "--mode",
             "all", "--format", "table", "--threads", threads],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        peak_kib[threads] = int(proc.stderr.split()[-1])
    assert peak_kib["2"] <= peak_kib["1"] + 4 * 1024


def test_output_is_deterministic(capsys):
    first = run(capsys, "stats", "--n", "5", "--mode", "centered")
    second = run(capsys, "stats", "--n", "5", "--mode", "centered")
    assert first == second


def test_threads_do_not_change_output(capsys, monkeypatch):
    _, base, _ = run(capsys, "graph", "--n", "5")
    _, threaded, _ = run(capsys, "graph", "--n", "5", "--threads", "2")
    assert base == threaded
    monkeypatch.setenv("MATCHFLIP_THREADS", "3")
    _, env_threaded, _ = run(capsys, "graph", "--n", "5")
    assert base == env_threaded
    monkeypatch.setenv("MATCHFLIP_THREADS", "junk")
    _, fallback, _ = run(capsys, "graph", "--n", "5")
    assert base == fallback


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


# the bounds path of diameter, which no CLI command reaches at n <= 7
_BOUNDS = {s: (6, 12, (6, 0)) for s in range(4)}


@pytest.mark.parametrize("seed", sorted(_BOUNDS))
def test_diameter_bounds_are_pinned(seed):
    res = diameter(cached_graph(7, "all"), exact_limit=10, samples=8,
                   seed=seed)
    assert (res.lower, res.upper, res.witness) == _BOUNDS[seed]
