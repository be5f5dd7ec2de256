"""Workloads of the benchmark: fixed matchflip command lines, pinned outputs.

One CLI command is one operation.  It fails when its exit code or the
sha256 of its stdout differs from the value pinned here, or when a fact
its output encodes does not hold.  The pins were taken at seed 0 from the
commit that introduced the benchmark.  Only the bounds-mode diameter
command receives the benchmark's seed: its bytes are pinned at seed 0 and
checked structurally at every seed.

Why these workloads: each stresses a different layer, so that a change to
one layer shows on one workload and is predicted to leave the others
unchanged.
  graph-json  build with two fork workers and the CSR merge, then JSON
              export with words; the only workload whose peak RSS comes
              from export.
  diameter    mostly BFS: exact all-pairs diameter of the n=8 all-flips
              graph (1,430 BFS) and sampled bounds at n=10; build is
              about a quarter of it.  It replaces the n=9 centered exact
              diameter (4,862 BFS, about 25 s a pass on a 2-core Xeon VM),
              whose ten-run spread grew past 0.25 as machine speed drifted
              over the minutes the runs took.
  verify      centered-mode builds in one process, closed-form checks by
              enumeration, component_report and the 3n-7 route.
  rainbow     the rainbow DFS: two exhaustive nonexistence proofs and one
              found 36-flip cycle that is replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

Facts = Callable[[dict, int], list]


def catalan(n: int) -> int:
    # computed here, not taken from matchflip.counts, so that the checks do
    # not trust the code they check
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class Command:
    args: tuple
    sha256: str                    # stdout digest at seed 0
    facts: Facts | None = None     # problems found in the parsed JSON output
    seeded: bool = False           # receives --seed
    rc: int = 0

    def argv(self, seed: int) -> list:
        return list(self.args) + (["--seed", str(seed)] if self.seeded else [])

    def label(self, seed: int) -> str:
        return " ".join(self.argv(seed))


@dataclass(frozen=True)
class Probe:
    """Inputs of the traced run's layer probes (see traced.py)."""
    dyck_n: int                    # dyck_words(n) streamed, unrank over all ranks
    csr: tuple                     # (n, mode) built with threads=1 and threads=2
    bfs: tuple = ()                # (n, mode) graphs timed for one BFS from rank 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    warmup: tuple                  # same code paths at small n, discarded
    probe: Probe


def _expect(cond: bool, what: str) -> list:
    return [] if cond else [what]


def _exact_diameter(value: int) -> Facts:
    def facts(obj, seed):
        return _expect(obj["connected"] and obj["exact"]
                       and obj["diameter"] == value,
                       f"diameter is not exactly {value}")
    return facts


def _bounds(n: int, display: str) -> Facts:
    def facts(obj, seed):
        v = catalan(n)
        lo, hi, wit = obj["lower"], obj["upper"], obj["witness"]
        out = _expect(obj["connected"] is True and obj["exact"] is False,
                      "bounds run is not connected and inexact")
        out += _expect(isinstance(lo, int) and isinstance(hi, int)
                       and 0 < lo <= hi, f"bounds {lo}..{hi} out of order")
        out += _expect(isinstance(wit, list) and len(wit) == 2
                       and all(isinstance(r, int) and 0 <= r < v for r in wit),
                       f"witness {wit} not two ranks below {v}")
        if seed == 0:
            out += _expect(obj["display"] == display,
                           f"seed 0 bounds {obj['display']} != {display}")
        return out
    return facts


def _rainbow(status: str, reason: str | None, expanded: int,
             length: int | None = None) -> Facts:
    def facts(obj, seed):
        out = _expect((obj["status"], obj["reason"]) == (status, reason),
                      f"rainbow {obj['status']}/{obj['reason']} != "
                      f"{status}/{reason}")
        out += _expect(obj["expanded"] == expanded,
                       f"expanded {obj['expanded']} != {expanded}")
        if length is not None:
            cycle = obj["cycle"] or []
            out += _expect(obj["length"] == length and len(cycle) == length,
                           f"cycle length {obj['length']} != {length}")
        return out
    return facts


def _verified(obj, seed):
    return _expect(obj["ok"] is True and all(r["ok"] for r in obj["rows"]),
                   "verify reports a mismatch")


# interpreter start, imports, parser and dispatch; no enumeration
SETUP = Command(("counts", "--n", "2"),
                "3006e570055653b21945f9307975e00e402906e6fd357914e8af3dc5cd451e04",
                lambda obj, seed: _expect(obj["catalan"] == 2, "C_2 != 2"))

WORKLOADS = {w.name: w for w in (
    Workload(
        "graph-json",
        "default graph output at n=11: two-worker build and CSR merge, then "
        "JSON export with words, which sets peak RSS",
        (Command(("graph", "--n", "11", "--mode", "all", "--threads", "2"),
                 "a72a1984a1ca57d93a6bd3c4237c8f9c78cdab71dd579078733fa1acc0b98e92"),),
        (Command(("graph", "--n", "4", "--mode", "all", "--threads", "2"),
                 "76a948275d4aaaa04af9db6dde87e70d2652f18bf4923476ab1c5c365b22d773"),),
        Probe(11, (11, "all"))),
    Workload(
        "diameter",
        "mostly BFS: exact all-pairs diameter of the n=8 all-flips graph (1,430 "
        "BFS) and sampled n=10 bounds; orbit reduction or iFUB show here",
        (Command(("diameter", "--n", "8", "--mode", "all"),
                 "1154f476b01944db06de235e3afc552d9ad53aae55780393aa609776305bb5d6",
                 _exact_diameter(7)),
         Command(("diameter", "--n", "10", "--mode", "all"),
                 "7b3b6a7ba73b4448fcc8758efcb9335e41b0d8df939ae1203c052c4d851bfce4",
                 _bounds(10, "9..18"), seeded=True)),
        (Command(("diameter", "--n", "5", "--mode", "centered"),
                 "2348e9d4e0a702154cb04e8305fe9d0e48c7458de4c1c47f63900ecc57d55688"),
         Command(("diameter", "--n", "4", "--mode", "all"),
                 "9789143caa213c21f99190d607425a3cb2c4280fa30bcc9fe7087f254e032996")),
        Probe(10, (10, "all"), ((8, "all"), (10, "all")))),
    Workload(
        "verify",
        "centered builds in one process, closed forms against enumeration, "
        "component_report and the 3n-7 route at n=10 and n=11",
        (Command(("verify", "--n", "10"),
                 "031218462f2fbaf5f6e7062947d9c4cebeb4c7d0cc3171616c711479f32666c6",
                 _verified),
         Command(("verify", "--n", "11"),
                 "e78d5c93fbcd8c3abe5fdbd3425c46765bc2ae38c9c58edc454bf68774fc90f9",
                 _verified)),
        (Command(("verify", "--n", "4"),
                 "94894fff03a2c358a5fa773e5d14d01a159ca87fe7cecb175d309b25444b6495"),
         Command(("verify", "--n", "5"),
                 "171cb305203fbba83cc63746f79869b1089a6e2dc9d5ecaed6cd74fe41714f36")),
        Probe(11, (11, "centered"))),
    Workload(
        "rainbow",
        "rainbow DFS only: two exhaustive nonexistence proofs and one found, "
        "replayed 36-flip cycle",
        (Command(("rainbow", "--n", "8", "--r", "1"),
                 "a85774d1f14b23a02801eff90720c15c05426a27a210969cbab9e825d7363cbb",
                 _rainbow("none", "exhausted", 372755)),
         Command(("rainbow", "--n", "5", "--r", "2", "--force-search"),
                 "5b291689b2b2d33017e62e939e057969aff41ad6b718848cc3cfe043719d87ca",
                 _rainbow("none", "exhausted", 761075)),
         Command(("rainbow", "--n", "6", "--r", "2"),
                 "c6a0af778d2b9d2d9c13f3f29e326ea087eb62a99ba890d55782be8cb137ff2f",
                 _rainbow("found", None, 2357, length=36))),
        (Command(("rainbow", "--n", "4", "--r", "1"),
                 "bc861f1fcda8e2d4a437424b176e39fc0ab13f15c63a652934225350e0af01aa"),
         Command(("rainbow", "--n", "3", "--r", "2", "--force-search"),
                 "4de55d13c241507a78237207101bf160269a4db45181b712b3de68bcf0deeb82")),
        Probe(8, (8, "centered"))),
)}


def check(cmd: Command, seed: int, rc: int, digest: str, load_json) -> list:
    """Problems with one command's result; empty when the operation passed.

    load_json() parses the command's stdout; it is called only for
    commands with facts, whose outputs are small.
    """
    problems = _expect(rc == cmd.rc, f"exit code {rc} != {cmd.rc}")
    if seed == 0 or not cmd.seeded:
        problems += _expect(digest == cmd.sha256,
                            f"stdout sha256 {digest[:16]} != pin {cmd.sha256[:16]}")
    if cmd.facts is not None and not problems:
        try:
            problems += cmd.facts(load_json(), seed)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"output does not parse as expected: {exc!r}")
    return problems
