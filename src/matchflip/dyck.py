"""Balanced-word codec and streaming enumeration.

Scanning circle points 1..2n and writing U for the first endpoint of each
edge and D for the second is a bijection between non-crossing perfect
matchings and balanced words of n Us and n Ds (no prefix with more Ds than
Us).  Words are ordered lexicographically with U < D; a matching's rank in
that order is its vertex id everywhere in this package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb
from operator import lt
from typing import Iterator

from .chords import (Chord, Matching, is_centrally_symmetric,
                     opening_endpoint, segment)
from .errors import VerificationError

_PAREN = str.maketrans("()", "UD")
_SWAP = str.maketrans("UD", "DU")


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def normalize_word(word: str) -> str:
    """Accept either the U/D or the ()-alphabet; return U/D."""
    w = word.translate(_PAREN)
    if w.strip("UD"):
        raise ValueError(f"not a balanced word: {word!r}")
    return w


def validate_word(word: str) -> str:
    w = normalize_word(word)
    if len(w) % 2:
        raise ValueError("balanced words have even length")
    h = 0
    for ch in w:
        h += 1 if ch == "U" else -1
        if h < 0:
            raise ValueError(f"prefix of {word!r} closes more than it opens")
    if h:
        raise ValueError(f"{word!r} does not balance")
    return w


def to_dyck(m: Matching) -> str:
    """Balanced word of a matching: U at first endpoints, D at second."""
    p = m._partner
    return "".join("U" if p[x] > x else "D" for x in range(1, 2 * m.n + 1))


def _partner_from_word(w: str) -> list[int]:
    partner = [0] * (len(w) + 1)
    stack: list[int] = []
    for x, ch in enumerate(w, start=1):
        if ch == "U":
            stack.append(x)
        else:
            a = stack.pop()
            partner[a] = x
            partner[x] = a
    return partner


def from_dyck(word: str) -> Matching:
    """Matching encoded by a balanced word (inverse of to_dyck)."""
    w = validate_word(word)
    n = len(w) // 2
    if n == 0:
        raise ValueError("empty word")
    return Matching._from_partner(n, _partner_from_word(w))


def _peaks(w: str) -> int:
    return w.count("UD")


def _band_weight(w: str) -> int:
    # the height before position i has the parity of i
    return w[::2].count("U")


@lru_cache(maxsize=None)
def _open_ups(x: str) -> tuple[str, tuple[int, ...]]:
    """For a word's first half x: x with the Us it leaves open turned
    into D, and the indices of those Us, outermost first."""
    stack: list[int] = []
    for i, ch in enumerate(x):
        if ch == "U":
            stack.append(i)
        else:
            stack.pop()
    out = list(x)
    for i in stack:
        out[i] = "D"
    return "".join(out), tuple(stack)


@lru_cache(maxsize=None)
def _open_downs(t: str) -> tuple[int, ...]:
    """For a word's second half t: the indices of the Ds that close a U
    of the first half, outermost (last) first."""
    depth = 0
    out: list[int] = []
    for i, ch in enumerate(t):
        if ch == "U":
            depth += 1
        elif depth:
            depth -= 1
        else:
            out.append(i)
    return tuple(reversed(out))


# The chords that cross the middle of a word w of 2n letters are
# zip(_open_ups(w[:n])[1], _open_downs(w[n:])), outermost first: the U
# at index u of the first half pairs with the D at index d of the
# second, a chord of span n + d - u.

def _symmetric(n: int, w: str) -> bool:
    # the half turn maps a chord inside one half to the same chord inside
    # the other, and a crossing chord (a, b) to (b - n, a + n), whose D
    # sits where a's U was: w[n:] must be w[:n] with its open Us made D
    return w[n:] == _open_ups(w[:n])[0]


def _weight(n: int, w: str) -> int:
    # even n.  Were every chord shorter than n, each would add its sign
    # once per chord nested inside it; a U at height h is nested in h
    # chords of alternating sign, +1 outermost, so the sum would count
    # the Us at odd height, n - band weight.  A chord longer than n
    # instead adds the n - 1 - k chords outside it with its sign flipped,
    # not the k inside, a change of -(n - 1) times its inside sign.  The
    # chords longer than n nest at depths 0..L-1, so those signs add up
    # to L & 1.
    longer = sum(map(lt, _open_ups(w[:n])[1], _open_downs(w[n:])))
    return n - _band_weight(w) - (n - 1) * (longer & 1)


def _wraps(n: int, w: str) -> bool:
    # (1, 2n) is a chord: the outermost crossing chord spans the word
    return (_open_ups(w[:n])[1][:1] == (0,)
            and _open_downs(w[n:])[:1] == (n - 1,))


def peaks(word: str) -> int:
    """Number of UD factors (local maxima of the lattice path)."""
    return _peaks(normalize_word(word))


def band_weight(word: str) -> int:
    """Number of upsteps starting at even height."""
    return _band_weight(normalize_word(word))


@lru_cache(maxsize=None)
def _suffix_counts(n: int) -> tuple[tuple[int, ...], ...]:
    # t[u][d] = number of valid completions with u Us and d Ds left (d >= u)
    t = [[0] * (n + 1) for _ in range(n + 1)]
    for d in range(n + 1):
        t[0][d] = 1
    for u in range(1, n + 1):
        for d in range(u, n + 1):
            t[u][d] = t[u - 1][d] + (t[u][d - 1] if d > u else 0)
    return tuple(tuple(row) for row in t)


@lru_cache(maxsize=None)
def _d_terms(n: int) -> tuple[int, ...]:
    """Rank term c(i, h) of a D at 0-based position i, height h before it.

    A word's rank is the sum of c over its D letters: with u = n-(i+h)/2
    Us and d = n-(i-h)/2 Ds left, c(i, h) = t[u-1][d] (0 when u = 0).
    Flat, at index i*(n+3) + h for h in 0..n+2; (i, h) pairs that no
    balanced word reaches, including those of the wrong parity, hold 0.
    """
    t = _suffix_counts(n)
    stride = n + 3
    c = [0] * (2 * n * stride)
    for i in range(2 * n):
        for h in range(i % 2, min(i, 2 * n - i) + 1, 2):
            u = n - (i + h) // 2
            if u:
                c[i * stride + h] = t[u - 1][n - (i - h) // 2]
    return tuple(c)


def _word_rank(w: str) -> int:
    n = len(w) // 2
    t = _suffix_counts(n)
    u, d = n, n
    r = 0
    for ch in w:
        if ch == "U":
            u -= 1
        else:
            if u:
                r += t[u - 1][d]
            d -= 1
    return r


def orbit_ranks(w: str, mirrors: bool = True) -> Iterator[int]:
    """Ranks of the 2n rotations of w's matching, then of its mirror's.

    Rotation k turns the matching clockwise by k points (k = 0 is w
    itself); the mirror's word is w reversed with U and D swapped.  One
    turn edits two letters: with word = X + "U" + B + "D", where the last
    D closes that U, point 2n becomes point 1 and the word becomes
    "U" + X + "D" + B.  Lazy, with repeats; mirrors=False stops after the
    rotations.
    """
    words = (w, w[::-1].translate(_SWAP)) if mirrors else (w,)
    for word in words:
        for _ in range(len(w)):
            yield _word_rank(word)
            h = 0
            for i in range(len(word) - 1, -1, -1):
                h += 1 if word[i] == "D" else -1
                if not h:
                    break
            word = "U" + word[:i] + "D" + word[i + 1:-1]


def orbit_minima(n: int, mirrors: bool = True) -> bytearray:
    """1 at every rank that is the smallest of its orbit, 0 elsewhere.

    The orbit is the rotations of the matching (orbit_ranks) and, unless
    mirrors=False, of its mirror image.  One pass in rank order: the
    first rank reached of each orbit is its minimum and marks the rest.
    """
    seen = bytearray(catalan(n))
    minima = bytearray(len(seen))
    for s, w in enumerate(dyck_words(n)):
        if not seen[s]:
            minima[s] = 1
            for r in orbit_ranks(w, mirrors):
                seen[r] = 1
    return minima


def rank(m: Matching | str) -> int:
    """Position of a matching (or balanced word) in canonical order."""
    if isinstance(m, Matching):
        return _word_rank(to_dyck(m))
    return _word_rank(validate_word(m))


def unrank(n: int, r: int) -> Matching:
    """Matching with canonical rank r among the C_n matchings on 2n points."""
    return from_dyck(_unrank_word(n, r))


def _unrank_word(n: int, r: int) -> str:
    total = catalan(n)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range 0..{total - 1}")
    t = _suffix_counts(n)
    u, d = n, n
    out = []
    for _ in range(2 * n):
        if u:
            below = t[u - 1][d]
            if r < below:
                out.append("U")
                u -= 1
                continue
            r -= below
        out.append("D")
        d -= 1
    return "".join(out)


@lru_cache(maxsize=None)
def _tails(m: int, h: int) -> tuple[str, ...]:
    """The m-letter words that take height h to 0 without going below 0,
    in canonical order (U < D).

    The recursion caches every (m', h') below (m, h): the tails from all
    heights at length m' add up to C(m', m'//2), so the cache behind
    dyck_words(n) holds the sum of those for m' <= n, 7,060 strings at
    n=14 and 26,365 at n=16.
    """
    if h > m or (m - h) % 2:
        return ()
    if not m:
        return ("",)
    up = tuple(map("U".__add__, _tails(m - 1, h + 1)))
    return up + tuple(map("D".__add__, _tails(m - 1, h - 1))) if h else up


def _heads(n: int) -> list[tuple[str, int]]:
    """(prefix, height) of every valid n-letter prefix, in canonical order."""
    heads = [("", 0)]
    for _ in range(n):
        heads = [(p + ch, h + step) for p, h in heads
                 for ch, step in (("U", 1), ("D", -1)) if h + step >= 0]
    return heads


def dyck_words(n: int, start_rank: int = 0) -> Iterator[str]:
    """Stream balanced words in canonical order, optionally from a rank.

    A word is a valid n-letter prefix, ending at some height h, followed
    by one of the _tails(n, h).  Prefixes and tails both come in order,
    so prefix by prefix their concatenations are the words in rank order;
    the stream is one map(prefix.__add__, tails) per prefix.  A start
    rank is unranked once; the stream begins at that word's prefix, from
    its tail's index.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    heads = _heads(n)
    i = j = 0
    if start_rank:
        w = _unrank_word(n, start_rank)
        h = 2 * w.count("U", 0, n) - n
        i = heads.index((w[:n], h))
        j = _tails(n, h).index(w[n:])
    first, h = heads[i]
    return chain(map(first.__add__, _tails(n, h)[j:]),
                 chain.from_iterable(map(p.__add__, _tails(n, hp))
                                     for p, hp in heads[i + 1:]))


def enumerate_matchings(n: int, start_rank: int = 0,
                        stop_rank: int | None = None) -> Iterator[Matching]:
    """Stream matchings in canonical rank order.

    The stream may be split by rank ranges: [start_rank, stop_rank) of the
    full order, so disjoint ranges partition the enumeration deterministically.
    """
    count = catalan(n) if stop_rank is None else stop_rank
    r = start_rank
    for w in dyck_words(n, start_rank):
        if r >= count:
            return
        yield Matching._from_partner(n, _partner_from_word(w))
        r += 1


def symmetric_to_bits(m: Matching) -> str:
    """Encode a centrally symmetric matching (even n) as n balanced bits.

    Point p gets bit 1 when it is the opening endpoint of its edge (the
    endpoint whose clockwise successor arc is the edge's minority side).
    The bit pattern over all 2n points has period n, so the first half
    determines the matching.
    """
    n = m.n
    if n % 2:
        raise ValueError("the bit encoding is defined for even n only")
    if not is_centrally_symmetric(m):
        raise ValueError("matching is not centrally symmetric")
    bits = []
    for p in range(1, n + 1):
        q = m._partner[p]
        a, b = (p, q) if p < q else (q, p)
        bits.append("1" if p == opening_endpoint(n, (a, b)) else "0")
    return "".join(bits)


def bits_to_symmetric(n: int, bits: str) -> Matching:
    """Decode n balanced bits into a centrally symmetric matching (even n).

    The doubled bit string labels the 2n points; each 1-point is matched to
    a 0-point so that everything hidden behind the new edge is already
    matched, which is cyclic innermost-first parenthesis matching.
    """
    if n % 2:
        raise ValueError("the bit encoding is defined for even n only")
    if len(bits) != n or any(ch not in "01" for ch in bits):
        raise ValueError(f"need {n} bits, got {bits!r}")
    if 2 * bits.count("1") != n:
        raise ValueError("bit string must balance: n/2 ones and n/2 zeros")
    full = bits + bits
    # start right after a minimal prefix sum so the stack never underflows
    h = 0
    best = 0
    best_at = 0
    for i, ch in enumerate(full, start=1):
        h += 1 if ch == "1" else -1
        if h < best:
            best = h
            best_at = i
    partner = [0] * (2 * n + 1)
    stack: list[int] = []
    for off in range(2 * n):
        p = (best_at + off) % (2 * n) + 1
        if full[p - 1] == "1":
            stack.append(p)
        else:
            q = stack.pop()
            partner[p] = q
            partner[q] = p
    m = Matching._from_partner(n, partner)
    if symmetric_to_bits(m) != bits:
        raise VerificationError(f"decoding {bits!r} does not round-trip")
    return m


def segment_to_dyck(m: Matching, e: Chord) -> str:
    """Balanced word of the edges hidden behind visible edge e.

    The hidden points are relabeled in circular order starting just after
    the opening endpoint of e; a perimeter edge gives the empty word.
    """
    segment(m, e)  # validates membership and visibility
    n = m.n
    a, b = min(e), max(e)
    if b - a < n:
        pts = list(range(a + 1, b))
    else:
        pts = list(range(b + 1, 2 * n + 1)) + list(range(1, a))
    index = {p: i for i, p in enumerate(pts)}
    return "".join("U" if index[m._partner[p]] > index[p] else "D"
                   for p in pts)
