"""Independent oracles for the test suite.

Everything here is derived from scratch: plane geometry with floats, or
brute-force enumeration.  None of it reuses engine code paths, so
agreement between oracle and engine is real evidence, not a tautology.
"""

from __future__ import annotations

import math
from itertools import combinations, product

TOL = 1e-9


def point(n: int, k: int) -> tuple[float, float]:
    """Unit-circle coordinates of point k; point 1 sits on top, labels
    increase clockwise."""
    theta = math.pi / 2 - 2 * math.pi * (k - 1) / (2 * n)
    return (math.cos(theta), math.sin(theta))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segments_cross(n: int, e, f) -> bool:
    """Proper (interior) intersection of two chords, float test."""
    p1, p2 = point(n, e[0]), point(n, e[1])
    q1, q2 = point(n, f[0]), point(n, f[1])
    d1 = _cross(p1, p2, q1)
    d2 = _cross(p1, p2, q2)
    d3 = _cross(q1, q2, p1)
    d4 = _cross(q1, q2, p2)
    return (d1 * d2 < -TOL * TOL) and (d3 * d4 < -TOL * TOL)


def is_noncrossing(n: int, pairs) -> bool:
    pairs = list(pairs)
    pts = sorted(p for e in pairs for p in e)
    if pts != list(range(1, 2 * n + 1)):
        return False
    return not any(segments_cross(n, e, f)
                   for e, f in combinations(pairs, 2))


def center_in_quadrilateral(n: int, corners) -> bool:
    """Origin inside the closed convex hull of 4 circle points.

    Sorting by label walks the circle, so the polygon is convex and the
    test reduces to a same-side check against all 4 directed sides.
    Closed containment: the center sitting on a side (a diameter chord)
    counts as inside.
    """
    ordered = [point(n, k) for k in sorted(corners)]
    pos = neg = False
    for i in range(4):
        a = ordered[i]
        b = ordered[(i + 1) % 4]
        s = _cross(a, b, (0.0, 0.0))
        if s > TOL:
            pos = True
        elif s < -TOL:
            neg = True
    return not (pos and neg)


def oracle_centered(n: int, e, f) -> bool:
    return center_in_quadrilateral(n, (*e, *f))


def oracle_chord_length(n: int, e) -> int:
    a, b = sorted(e)
    inside = b - a - 1
    outside = 2 * n - 2 - inside
    return min(inside, outside) // 2


def oracle_hides(n: int, e, p) -> bool:
    """p lies strictly on the side of e with fewer points."""
    a, b = sorted(e)
    if p in (a, b):
        return False
    inside = b - a - 1
    outside = 2 * n - 2 - inside
    if inside == outside:
        return False            # an exact diameter hides nothing
    if inside < outside:
        return a < p < b
    return p < a or p > b


def rotate(n: int, pairs, steps: int = 1) -> tuple:
    """The pairs turned clockwise by `steps` points, as sorted chords in
    sorted order (the form of Matching.pairs)."""
    moved = (sorted(((a + steps - 1) % (2 * n) + 1,
                     (b + steps - 1) % (2 * n) + 1)) for a, b in pairs)
    return tuple(sorted(tuple(e) for e in moved))


def mirror(n: int, pairs) -> tuple:
    """The pairs reflected through the axis between points 2n and 1
    (label x -> 2n + 1 - x), in the form of Matching.pairs."""
    return tuple(sorted((2 * n + 1 - b, 2 * n + 1 - a) for a, b in pairs))


def oracle_sign(n: int, e) -> int:
    """+1 when the odd endpoint opens the chord, found geometrically.

    The opening endpoint is the one from which the center lies strictly
    right when heading to the partner.
    """
    a, b = e
    pa, pb = point(n, a), point(n, b)
    o = (0.0, 0.0)
    if _cross(pa, pb, o) < -TOL:
        opener = a
    elif _cross(pb, pa, o) < -TOL:
        opener = b
    else:
        raise ValueError("chord passes through the center")
    return 1 if opener % 2 else -1


def oracle_weight(n: int, pairs) -> int:
    return sum(oracle_sign(n, e) * oracle_chord_length(n, e)
               for e in pairs)


def partner_weight(n: int, partner) -> int:
    """Weight from a partner array (partner[a] = b for every chord):
    chord_sign * chord_length of each chord (a, b), a < b, in closed
    form; the reference for the engine's word form."""
    # at even n the span d = b - a is odd.  Below n the minority side
    # opens at a and holds d // 2 chords; above n it opens at b = a + d,
    # of the other parity, and holds (2n - d) // 2.
    total = 0
    for a, b in enumerate(partner):
        d = b - a
        if d > 0:
            if d < n:
                total += d // 2 if a % 2 else -(d // 2)
            else:
                total += -((2 * n - d) // 2) if a % 2 else (2 * n - d) // 2
    return total


def partner_symmetric(n: int, partner) -> bool:
    """Fixed by the half turn: every partner shifts with its point."""
    return all(partner[a + n] == (partner[a] + n - 1) % (2 * n) + 1
               for a in range(1, n + 1))


def _ray_hits_segment(n: int, k: int, e) -> bool:
    """Does the open ray from the origin through point k cross chord e?"""
    p = point(n, k)
    u, v = point(n, e[0]), point(n, e[1])
    cu = p[0] * u[1] - p[1] * u[0]
    cv = p[0] * v[1] - p[1] * v[0]
    if cu * cv >= -TOL * TOL:
        return False            # both endpoints on one side of the line
    s = cu / (cu - cv)
    x = (u[0] + s * (v[0] - u[0]), u[1] + s * (v[1] - u[1]))
    return x[0] * p[0] + x[1] * p[1] > TOL


def oracle_visible(n: int, pairs, e) -> bool:
    a, b = e
    pa, pb = point(n, a), point(n, b)
    if abs(pa[0] + pb[0]) <= TOL and abs(pa[1] + pb[1]) <= TOL:
        return False            # edge through the center, by convention
    others = [f for f in pairs if set(f) != {a, b}]
    return not any(_ray_hits_segment(n, k, f)
                   for k in (a, b) for f in others)


def oracle_flippable_pairs(n: int, pairs):
    """All flippable pairs with their replacement chords, by brute force.

    For each edge pair try the one alternative non-crossing re-pairing of
    the four endpoints and keep it when the whole matching stays valid.
    """
    pairs = [tuple(sorted(e)) for e in pairs]
    found = {}
    for e, f in combinations(sorted(pairs), 2):
        p1, p2, p3, p4 = sorted((*e, *f))
        variants = [((p1, p2), (p3, p4)), ((p1, p4), (p2, p3))]
        current = {e, f}
        alts = [v for v in variants if set(v) != current]
        if len(alts) != 1:
            continue            # e,f interleave; no flip possible
        g, h = alts[0]
        rest = [x for x in pairs if x not in current]
        if is_noncrossing(n, rest + [g, h]):
            found[(e, f)] = (g, h)
    return found


def brute_narayana(r: int, n: int, k: int) -> int:
    """Count nonnegative paths, n ups and n-r downs, exactly k peaks."""
    memo = {}

    def go(u, d, h, last_up):
        if u == 0 and d == 0:
            base = [1]
        else:
            key = (u, d, h, last_up)
            if key in memo:
                return memo[key]
            acc = [0] * (n + 2)
            if u:
                for j, c in enumerate(go(u - 1, d, h + 1, True)):
                    acc[j] += c
            if d and h > 0:
                sub = go(u, d - 1, h - 1, False)
                off = 1 if last_up else 0
                for j, c in enumerate(sub):
                    acc[j + off] += c
            while len(acc) > 1 and acc[-1] == 0:
                acc.pop()
            memo[key] = acc
            return acc
        return base

    table = go(n, n - r, 0, False)
    return table[k] if k < len(table) else 0


def brute_peaks(word: str) -> int:
    return sum(1 for i in range(len(word) - 1)
               if word[i] == "U" and word[i + 1] == "D")


def brute_band_weight(word: str) -> int:
    h = 0
    total = 0
    for ch in word:
        if ch == "U":
            if h % 2 == 0:
                total += 1
            h += 1
        else:
            h -= 1
    return total


def oracle_ranks(n: int) -> dict:
    """Rank of every matching, keyed by its sorted pairs, by brute force.

    Lists every U/D string of length 2n in order (U < D), keeps the
    balanced ones and decodes each into its chords with a stack.
    """
    # product yields "UD" strings in lexicographic order with U < D
    words = [w for w in ("".join(p) for p in product("UD", repeat=2 * n))
             if w.count("U") == n
             and all(w[:i].count("D") <= w[:i].count("U")
                     for i in range(1, 2 * n + 1))]
    ranks = {}
    for r, w in enumerate(words):
        stack, pairs = [], []
        for x, ch in enumerate(w, start=1):
            if ch == "U":
                stack.append(x)
            else:
                pairs.append((stack.pop(), x))
        ranks[tuple(sorted(pairs))] = r
    return ranks


def oracle_rainbow_dfs(cand, starts, n_chords: int, r: int, length: int,
                       budget: int):
    """The rainbow DFS with one list counter per chord and direction.

    cand maps a rank to its candidate flips (target, vanishing chord
    indices ie, if_, appearing ig, ih, chords e, f) in search order, and
    starts lists the start ranks in order; both come from the caller.
    Returns (hit, expanded, stopped): hit is (path, start) or None, and
    stopped says whether the budget ended the search before a node.
    """
    expanded = 0

    class Stop(Exception):
        pass

    def dfs(start, at, depth, appear, vanish, visited, path):
        nonlocal expanded
        if expanded >= budget:
            raise Stop
        expanded += 1
        last = depth + 1 == length
        for target, ie, if_, ig, ih, e, f in cand[at]:
            if (vanish[ie] >= r or vanish[if_] >= r
                    or appear[ig] >= r or appear[ih] >= r):
                continue
            if last:
                if target == start:
                    path.append((e, f))
                    return True
                continue
            if target <= start or target in visited:
                continue
            vanish[ie] += 1
            vanish[if_] += 1
            appear[ig] += 1
            appear[ih] += 1
            visited.add(target)
            path.append((e, f))
            if dfs(start, target, depth + 1, appear, vanish, visited, path):
                return True
            path.pop()
            visited.remove(target)
            vanish[ie] -= 1
            vanish[if_] -= 1
            appear[ig] -= 1
            appear[ih] -= 1
        return False

    try:
        for start in starts:
            path = []
            if dfs(start, start, 0, [0] * n_chords, [0] * n_chords,
                   {start}, path):
                return (path, start), expanded, False
    except Stop:
        return None, expanded, True
    return None, expanded, False


def _advance(w: list) -> bool:
    """Replace w in place with its successor in U < D order; False at the
    end (Knuth, TAOCP 4A, 7.2.1.6).

    The rightmost U with more Ds than Us after it becomes a D, and the
    rest is refilled smallest first.
    """
    u = d = 0
    for i in range(len(w) - 1, -1, -1):
        if w[i] == "D":
            d += 1
            continue
        u += 1
        if d > u:
            w[i:] = ["D"] + ["U"] * u + ["D"] * (d - 1)
            return True
    return False


def successor_words(n: int) -> list:
    """Every balanced word of n Us and n Ds in order, one successor step
    at a time from U^n D^n."""
    w = ["U"] * n + ["D"] * n
    words = ["".join(w)]
    while _advance(w):
        words.append("".join(w))
    return words


def csr_edges(offsets, targets, flags) -> list:
    """(src, dst, bool flag) of every CSR arc with src < dst, row by row."""
    out = []
    for r in range(len(offsets) - 1):
        for i in range(offsets[r], offsets[r + 1]):
            s = targets[i]
            if r < s:
                out.append((r, s, bool(flags[i])))
    return out


def dot_lines(n: int, mode: str, edges) -> list:
    """The `graph --format dot` lines of the graph of n and mode with the
    (src, dst, flag) edges: centered flips solid, other flips dashed,
    one f-string per line."""
    lines = [f'graph "flips_n{n}_{mode}" {{', "  node [shape=box];"]
    lines += [f'  {r} [label="{w}"];'
              for r, w in enumerate(successor_words(n))]
    lines += [f"  {r} -- {s} [style={'solid' if cen else 'dashed'}];"
              for r, s, cen in edges]
    return lines + ["}"]


def csv_lines(edges) -> list:
    """The `graph --format csv` lines of the (src, dst, flag) edges."""
    return (["src_rank,dst_rank,centered"]
            + [f"{r},{s},{int(cen)}" for r, s, cen in edges])
