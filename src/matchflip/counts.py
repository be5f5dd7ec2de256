"""Closed-form counts and the formula-vs-enumeration verifier.

All predictions are exact big integers; a mismatch against enumeration
anywhere is a bug in the engine, so the report is the main regression
oracle.  The only float is the asymptotic display value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, pi, sqrt

from .chords import max_length
from .dyck import (_band_weight, _peaks, _symmetric, _weight, _wraps,
                   catalan, dyck_words)
from .errors import VerificationError


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


# max-degree vertex counts of the centered flip graph for even n; no
# closed form is known for this sequence
_EVEN_MAX_DEGREE_COUNTS = {2: 2, 4: 10, 6: 54, 8: 274, 10: 1326,
                           12: 6218, 14: 28538}


def predicted_extremes(n: int) -> dict:
    """All closed-form degree/component predictions for size n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rec: dict = {"n": n, "max_edge_length": max_length(n),
                 "symmetric_count": symmetric_count(n)}
    if n % 2:
        rec.update(
            max_degree=n,
            max_degree_count=2,
            min_degree=2,
            min_degree_count=n * catalan((n - 3) // 2) ** 2,
        )
    else:
        rec.update(
            max_degree=n // 2,
            max_degree_count=_EVEN_MAX_DEGREE_COUNTS.get(n),
            min_degree=1,
            min_degree_count=n * catalan((n - 2) // 2) ** 2,
            tree_component_count=catalan(n // 2),
            tree_component_size=n // 2 + 1,
            component_count=catalan(n // 2) + n - 3 if n >= 4 else 1,
            max_component_bound=narayana(1, n, n // 2),
        )
    return rec


def component_size_fraction(n: int) -> tuple[Fraction, float]:
    """(exact bound on the largest component fraction, asymptotic display).

    The exact value is the max-component bound over C_n; the float is the
    2/sqrt(pi*n) estimate it converges to.
    """
    if n % 2:
        raise ValueError("defined for even n only")
    return (Fraction(narayana(1, n, n // 2), catalan(n)),
            2 / sqrt(pi * n))


@dataclass(frozen=True)
class CountRow:
    name: str
    predicted: int
    enumerated: int

    @property
    def ok(self) -> bool:
        return self.predicted == self.enumerated


@dataclass(frozen=True)
class CountReport:
    n: int
    rows: tuple[CountRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def mismatches(self) -> list[CountRow]:
        return [row for row in self.rows if not row.ok]

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


def verify_counts(n: int) -> CountReport:
    """Compare every closed form against one full enumeration pass."""
    if n < 2:
        raise ValueError("n must be >= 2")
    total = 0
    n_symmetric = 0
    bw_hist = [0] * (n + 1)
    peak_hist = [0] * (n + 1)
    weight_hist: dict[int, int] = {}
    perim_hist = [0] * (n + 1)
    even = n % 2 == 0
    for w in dyck_words(n):
        total += 1
        n_symmetric += _symmetric(n, w)
        pk = _peaks(w)
        if even:
            wt = _weight(n, w)
            weight_hist[wt] = weight_hist.get(wt, 0) + 1
            # the perimeter chords: one per UD factor, and (1, 2n)
            perim_hist[pk + _wraps(n, w)] += 1
        bw_hist[_band_weight(w)] += 1
        peak_hist[pk] += 1

    rows = [CountRow("matchings", catalan(n), total),
            CountRow("symmetric", symmetric_count(n), n_symmetric)]
    for k in range(1, n + 1):
        rows.append(CountRow(f"band_weight[{k}]", narayana(0, n, k),
                             bw_hist[k]))
        rows.append(CountRow(f"peaks[{k}]", narayana(0, n, k), peak_hist[k]))
        rows.append(CountRow(f"band_weight_vs_peaks[{k}]",
                             peak_hist[n - k + 1], bw_hist[k]))
    if even:
        rows.append(CountRow("weight[0]", 2, weight_hist.get(0, 0)))
        for c in range(1, n - 1):
            rows.append(CountRow(f"weight[+{c}]", weight_class_size(n, c),
                                 weight_hist.get(c, 0)))
            rows.append(CountRow(f"weight[-{c}]", weight_class_size(n, -c),
                                 weight_hist.get(-c, 0)))
        for k in range(2, n + 1):
            rows.append(CountRow(f"perimeter[{k}]", perimeter_class_size(n, k),
                                 perim_hist[k]))
        for c in range(0, n - 1):
            paired = (weight_hist.get(0, 0) if c == 0 else
                      weight_hist.get(c, 0) + weight_hist.get(-c, 0))
            rows.append(CountRow(f"weights_vs_perimeter[{c}]",
                                 perim_hist[n - c], paired))
        rows.append(CountRow("class_partition_total",
                             sum(class_partition_size(n, c)
                                 for c in range(n - 1)),
                             total))
    return CountReport(n, tuple(rows))
