"""The prediction table and the verifier that re-derives it.

`predicted_extremes` is the one table of predictions for size n: closed
forms, plus the values in `MEASURED`, which have no closed form or no
proof and say where they came from.  `verify_counts` re-derives them by
enumeration: a census of every matching, then the degrees, components,
routes and diameters of the flip graphs.  All predictions are exact big
integers; a mismatch anywhere is a bug in the engine, so the report is
the main regression oracle.  The only float is the asymptotic display
value.
"""

from __future__ import annotations

from math import comb, pi, sqrt
from typing import NamedTuple

from .chords import max_length, perimeter_matching, visible_edges
from .construct import canonical_flip_sequence, perimeter_swap_path
from .dyck import (_band_weight, _peaks, _symmetric, _weight, _wraps,
                   catalan, dyck_words, enumerate_matchings)
from .errors import VerificationError
from .flips import replay
from .graphs import (build_flip_graph, component_census, component_report,
                     diameter)


def narayana(r: int, n: int, k: int) -> int:
    """Nonnegative lattice paths with n upsteps, n-r downsteps, k peaks.

    narayana(0, n, k) are the classical Narayana numbers summing to C_n.
    """
    if r < 0 or n < 1:
        raise ValueError("need r >= 0 and n >= 1")
    if not 1 <= k <= n - r:
        raise ValueError(f"k={k} out of range 1..{n - r}")
    value, rem = divmod((r + 1) * comb(n + 1, k) * comb(n - r - 1, k - 1),
                        n + 1)
    if rem:
        raise VerificationError(f"narayana({r}, {n}, {k}) is not whole")
    return value


def weight_class_size(n: int, c: int) -> int:
    """Number of matchings in the weight-c class; even n only.

    For c != 0 this is all matchings of weight c; the two weight-0
    matchings split into a positive and a negative singleton class.
    """
    if n % 2:
        raise ValueError("weight classes are defined for even n only")
    if abs(c) > n - 2:
        raise ValueError(f"|c| must be at most {n - 2}")
    value = narayana(1, n, abs(c) + 1)
    if value % 2:
        raise VerificationError(f"narayana(1, {n}, {abs(c) + 1}) is odd")
    return value // 2


def class_partition_size(n: int, c: int) -> int:
    """Size of the merged class pairing weights c and c-(n-2); 0 <= c <= n-2.

    These merged classes partition all C_n matchings, and every connected
    component of the centered flip graph stays inside one of them.
    """
    if n % 2:
        raise ValueError("defined for even n only")
    if not 0 <= c <= n - 2:
        raise ValueError(f"c must be in 0..{n - 2}")
    return weight_class_size(n, c) + weight_class_size(n, c - (n - 2))


def perimeter_class_size(n: int, k: int) -> int:
    """Number of matchings with exactly k perimeter edges; even n only."""
    if n % 2:
        raise ValueError("defined for even n only")
    if not 2 <= k <= n:
        raise ValueError("every matching has at least 2 perimeter edges")
    return narayana(1, n, n - k + 1)


def symmetric_count(n: int) -> int:
    """Number of centrally symmetric matchings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2 == 0:
        return comb(n, n // 2)
    return n * catalan((n - 1) // 2)


# Values with no closed form, or with none the paper proves, by the
# name of the `verify` row that compares them, then by n.
MEASURED = {
    # max-degree vertex count of H_n, even n; no closed form is known
    "H max degree count": {
        # re-derived by `verify --n N`
        2: 2, 4: 10, 6: 54, 8: 274, 10: 1326, 12: 6218,
        # degree-only passes, the lengths of flip_cells(n,
        # zip(dyck_words(n), count()), True): 28,538 of 2,674,440
        # vertices in 25 s, and 128,994 of 35,357,670 in 332 s at about
        # 20 MiB; at both n the degree-1 count equals the min-degree
        # closed form
        14: 28538, 16: 128994,
    },
    # diam H_n, odd n: 3n - 7 at every n measured, a conjecture beyond,
    # since the paper proves only that it is linear.  `verify` re-derives
    # n <= 7; n = 9 and 11 come from diameter(build_flip_graph(n,
    # "centered", threads=2), exact_limit=10**7): witness (2806, 4861)
    # in 0.3 s and (35072, 58785) in 21 s, build included
    "H diameter": {n: 3 * n - 7 for n in range(3, 12, 2)},
    # diam G_n: n - 1 at every n measured.  `verify` re-derives n <= 8;
    # n = 9 and 10 come from the same call in "all" mode: witness (0, 8)
    # in 0.4 s and (0, 9) in 2.8 s.  Hernando, Hurtado & Noy (2002) is a
    # reading pointer only; its statement was not checked.
    "G diameter": {n: n - 1 for n in range(2, 11)},
}

# the largest n at which `verify` replays every route and compares each
# degree with the visible edges, builds G_n, and measures diam H_n
_ROUTE_LIMIT, _G_LIMIT, _H_DIAMETER_LIMIT = 9, 8, 7


def predicted_extremes(n: int) -> dict:
    """Every prediction for size n: the closed forms, and the max-degree
    count from `MEASURED`, None where it holds none."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rec: dict = {"n": n, "catalan": catalan(n),
                 "max_edge_length": max_length(n),
                 "symmetric_count": symmetric_count(n)}
    if n % 2:
        rec.update(
            max_degree=n,
            max_degree_count=2,
            min_degree=2,
            min_degree_count=n * catalan((n - 3) // 2) ** 2,
        )
    else:
        frac, approx = component_size_fraction(n)
        rec.update(
            max_degree=n // 2,
            max_degree_count=MEASURED["H max degree count"].get(n),
            min_degree=1,
            min_degree_count=n * catalan((n - 2) // 2) ** 2,
            tree_component_count=catalan(n // 2),
            tree_component_size=n // 2 + 1,
            component_count=catalan(n // 2) + n - 3 if n >= 4 else 1,
            max_component_bound=narayana(1, n, n // 2),
            weight_classes={str(c): weight_class_size(n, c)
                            for c in range(-(n - 2), n - 1)},
            class_partition={str(c): class_partition_size(n, c)
                             for c in range(n - 1)},
            perimeter_classes={str(k): perimeter_class_size(n, k)
                               for k in range(2, n + 1)},
            max_component_fraction=frac,
            max_component_fraction_float=approx,
        )
    return rec


def component_size_fraction(n: int) -> tuple[Fraction, float]:
    """(exact bound on the largest component fraction, asymptotic display).

    The exact value is the max-component bound over C_n; the float is the
    2/sqrt(pi*n) estimate it converges to.
    """
    if n % 2:
        raise ValueError("defined for even n only")
    from fractions import Fraction      # not at import: it loads decimal
    return (Fraction(narayana(1, n, n // 2), catalan(n)),
            2 / sqrt(pi * n))


class CountRow(NamedTuple):
    name: str
    predicted: int
    enumerated: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.enumerated


class CountReport(NamedTuple):
    n: int
    rows: tuple[CountRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def as_json_obj(self) -> dict:
        return {"n": self.n, "ok": self.ok,
                "rows": [{"name": r.name, "predicted": r.predicted,
                          "enumerated": r.enumerated, "ok": r.ok}
                         for r in self.rows]}

    def table_lines(self) -> list[str]:
        width = max(len(r.name) for r in self.rows)
        out = [f"{'quantity':<{width}}  {'predicted':>12}  {'enumerated':>12}  ok"]
        for r in self.rows:
            out.append(f"{r.name:<{width}}  {r.predicted:>12}  "
                       f"{r.enumerated:>12}  {'yes' if r.ok else 'NO'}")
        return out


def verify_counts(n: int, threads: int = 1,
                  mem_budget: int | None = None) -> CountReport:
    """Compare every prediction for size n with what enumeration finds.

    The rows are the census of one pass over all matchings, then the
    facts of the flip graphs: degrees and components from
    `component_census`, and distances and rows from `build_flip_graph`
    at small n, both with threads.  mem_budget covers the census and,
    at small n, each graph and the diameter sweep over it.
    """
    pred = predicted_extremes(n)
    n_symmetric = 0
    bw_hist = [0] * (n + 1)
    peak_hist = [0] * (n + 1)
    weight_hist: dict[int, int] = {}
    perim_hist = [0] * (n + 1)
    even = n % 2 == 0
    for w in dyck_words(n):
        n_symmetric += _symmetric(n, w)
        pk = _peaks(w)
        if even:
            wt = _weight(n, w)
            weight_hist[wt] = weight_hist.get(wt, 0) + 1
            # the perimeter chords: one per UD factor, and (1, 2n)
            perim_hist[pk + _wraps(n, w)] += 1
        bw_hist[_band_weight(w)] += 1
        peak_hist[pk] += 1

    total = sum(peak_hist)
    rows = [CountRow("matchings", pred["catalan"], total),
            CountRow("symmetric", pred["symmetric_count"], n_symmetric)]
    for k in range(1, n + 1):
        rows.append(CountRow(f"band_weight[{k}]", narayana(0, n, k),
                             bw_hist[k]))
        rows.append(CountRow(f"peaks[{k}]", narayana(0, n, k), peak_hist[k]))
        rows.append(CountRow(f"band_weight_vs_peaks[{k}]",
                             peak_hist[n - k + 1], bw_hist[k]))
    if even:
        wc, pc = pred["weight_classes"], pred["perimeter_classes"]
        rows.append(CountRow("weight[0]", 2, weight_hist.get(0, 0)))
        for c in range(1, n - 1):
            rows.append(CountRow(f"weight[+{c}]", wc[str(c)],
                                 weight_hist.get(c, 0)))
            rows.append(CountRow(f"weight[-{c}]", wc[str(-c)],
                                 weight_hist.get(-c, 0)))
        for k in range(2, n + 1):
            rows.append(CountRow(f"perimeter[{k}]", pc[str(k)], perim_hist[k]))
        for c in range(0, n - 1):
            paired = (weight_hist.get(0, 0) if c == 0 else
                      weight_hist.get(c, 0) + weight_hist.get(-c, 0))
            rows.append(CountRow(f"weights_vs_perimeter[{c}]",
                                 perim_hist[n - c], paired))
        rows.append(CountRow("class_partition_total",
                             sum(pred["class_partition"].values()), total))
    rows.extend(_structure_rows(n, pred, threads, mem_budget))
    return CountReport(n, tuple(rows))


def _route_ok(start, seq, ends) -> bool:
    """True iff every flip of seq is centered and seq replays from start
    to a matching in ends."""
    try:
        return all(fl.centered for fl in seq) and replay(start, seq) in ends
    except ValueError:
        return False


def _structure_rows(n: int, pred: dict, threads: int,
                    mem_budget: int | None) -> list[CountRow]:
    """Graph-level facts re-checked against their predictions pred."""
    rows: list[CountRow] = []
    # the full rows of H and G only where distances or rows are compared;
    # H is built first, so a budget too small for it is refused before
    # any row is built
    h = (build_flip_graph(n, "centered", threads, mem_budget)
         if n <= max(_G_LIMIT, _H_DIAMETER_LIMIT) else None)
    census = component_census(n, "centered", threads=threads,
                              mem_budget=mem_budget)
    ds = census.degree_summary()
    rows.append(CountRow("H max degree", pred["max_degree"], ds["max"]))
    rows.append(CountRow("H min degree", pred["min_degree"], ds["min"]))
    if pred["max_degree_count"] is not None:
        rows.append(CountRow("H max degree count",
                             pred["max_degree_count"], ds["max_count"]))
    rows.append(CountRow("H min degree count",
                         pred["min_degree_count"], ds["min_count"]))

    if n % 2:
        rows.append(CountRow("H connected", 1, int(census.is_connected())))
        # construct checks each flip as it goes; these replays from the
        # start are the proof
        ends = (perimeter_matching(n), perimeter_matching(n, True))
        if n <= _ROUTE_LIMIT:
            good = ok = 0
            for r, m in enumerate(enumerate_matchings(n)):
                good += census.degree[r] == len(visible_edges(m))
                try:
                    seq = canonical_flip_sequence(m)
                except (ValueError, VerificationError):
                    continue
                ok += len(seq) <= 4 * n - 11 and _route_ok(m, seq, ends)
            rows.append(CountRow("H degree equals visible edges",
                                 census.vertex_count, good))
        path = perimeter_swap_path(n)
        rows.append(CountRow("perimeter swap path length", 3 * n - 7,
                             len(path) if _route_ok(ends[0], path, ends[1:])
                             else -1))
        if n <= _ROUTE_LIMIT:
            rows.append(CountRow("canonical sequences valid",
                                 census.vertex_count, ok))
        if n <= _H_DIAMETER_LIMIT:
            rows.append(CountRow("H diameter", MEASURED["H diameter"][n],
                                 diameter(h).value))
    else:
        report = component_report(census)
        trees = [c for c in report if c["is_tree"]]
        rows.append(CountRow("H component count",
                             pred["component_count"], len(report)))
        rows.append(CountRow("H tree components",
                             pred["tree_component_count"], len(trees)))
        size = pred["tree_component_size"]
        rows.append(CountRow("tree components of expected size",
                             pred["tree_component_count"],
                             sum(1 for c in trees if c["size"] == size)))
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

    if n <= _G_LIMIT:
        g = build_flip_graph(n, "all", threads, mem_budget)
        rows.append(CountRow("G bipartite", 1, int(g.is_bipartite())))
        rows.append(CountRow("G diameter", MEASURED["G diameter"][n],
                             diameter(g).value))
        match = 0
        for r in range(g.vertex_count):
            cen = [t for t, fl in zip(g.neighbors(r), g.neighbor_flags(r))
                   if fl]
            if cen == list(h.neighbors(r)):
                match += 1
        rows.append(CountRow("centered arcs of G form H",
                             g.vertex_count, match))
    return rows
