"""Bijections linking 321-avoiders, tableau pairs, Dyck paths, 132-avoiders.

The chain runs

    S_n(321) --rsk--> two-row tableau pairs --psi--> Dyck paths
             --phi_inverse--> S_n(132),

and `theta_pipeline` is the composite.  `theta_recursive` computes the same
map directly on one-line notation, one letter at a time: each letter is
placed by one insert(result, i, j) step, defined on the reduced prefix.
The lemma that on a 321-avoider the matched excedance values are the second
row of the insertion tableau P lets one incremental two-row insertion read
i and j off each letter, with no matching set, tableau pair or Dyck path.
The two implementations are compared pointwise in the tests.  The
composite preserves fixed points, excedances, and crossings; the half-way
statistics on the Dyck path are the centered and right tunnel counts.

Dyck paths are plain strings over {"u", "d"} (for example "uudd"), with
steps indexed from 1 when talking about tunnels.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right

from .perms import (
    Perm,
    as_perm,
    contains_pattern,
    fmt_perm,
    insert,
    inverse,
    involution,
    reduce_word,  # not called here; perfbench/spans.py wraps bijections.reduce_word
)

DyckPath = str

# Ordered (excedance value, non-excedance position) pairs.
MatchingSet = tuple[tuple[int, int], ...]


def as_dyck(word: str) -> DyckPath:
    """Validate a step word: balanced, prefixes never dip below zero."""
    height = 0
    for ch in word:
        if ch == "u":
            height += 1
        elif ch == "d":
            height -= 1
        else:
            raise ValueError(f"step must be 'u' or 'd', got {ch!r}")
        if height < 0:
            raise ValueError(f"prefix drops below the axis: {word}")
    if height != 0:
        raise ValueError(f"unbalanced step word: {word}")
    return word


# Each public map checks that its input is a permutation and scans it once,
# naming itself in the error; the composites call the unchecked cores
# (_psi, _theta_recursive).
def _require_avoids(sigma: Perm, tau: Perm, what: str) -> None:
    if contains_pattern(as_perm(sigma), tau):
        raise ValueError(f"{what} requires a {fmt_perm(tau)}-avoiding input")


# ---------------------------------------------------------------------------
# matching algorithm


def matching_set(sigma: Perm) -> MatchingSet:
    """Pair excedance values with non-excedance positions, two pointers.

    >>> matching_set((4, 3, 1, 5, 2))
    ((4, 3), (3, 5))
    >>> matching_set((2, 4, 1, 3, 5, 8, 6, 7))
    ((2, 3), (4, 4), (8, 7))
    """
    n = len(sigma)
    exc_pos = [i for i in range(1, n + 1) if sigma[i - 1] > i]
    nonexc_pos = [i for i in range(1, n + 1) if sigma[i - 1] <= i]
    pairs: list[tuple[int, int]] = []
    p = q = 0
    while p < len(exc_pos) and q < len(nonexc_pos):
        e, a = exc_pos[p], nonexc_pos[q]
        if e > a:
            q += 1
        elif sigma[e - 1] < sigma[a - 1]:
            p += 1
        else:
            pairs.append((sigma[e - 1], a))
            p += 1
            q += 1
    return tuple(pairs)


# ---------------------------------------------------------------------------
# two-row RSK


@dataclasses.dataclass(frozen=True)
class TableauPair:
    """A pair (P, Q) of standard Young tableaux with at most two rows."""

    p_row1: tuple[int, ...]
    p_row2: tuple[int, ...]
    q_row1: tuple[int, ...]
    q_row2: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.p_row1) + len(self.p_row2)
        for row1, row2 in ((self.p_row1, self.p_row2), (self.q_row1, self.q_row2)):
            if not (
                sorted(row1 + row2) == list(range(1, n + 1))
                and all(a < b for a, b in zip(row1, row1[1:]))
                and all(a < b for a, b in zip(row2, row2[1:]))
                and len(row1) >= len(row2)
                and all(row2[c] > row1[c] for c in range(len(row2)))
            ):
                raise ValueError(f"not a standard two-row tableau: {row1}, {row2}")
        if len(self.p_row2) != len(self.q_row2):
            raise ValueError("P and Q must have the same shape")


def rsk_two_row(sigma: Perm) -> TableauPair:
    """Tableau pair of a 321-avoider, read off the matching set.

    The second rows of P and Q are the matched excedance values and matched
    non-excedance positions; the first rows are the complements in order.
    """
    _require_avoids(sigma, (3, 2, 1), "rsk_two_row")
    n = len(sigma)
    pairs = matching_set(sigma)
    p2 = tuple(v for v, _ in pairs)
    q2 = tuple(a for _, a in pairs)
    in_p2, in_q2 = set(p2), set(q2)
    p1 = tuple(v for v in range(1, n + 1) if v not in in_p2)
    q1 = tuple(v for v in range(1, n + 1) if v not in in_q2)
    return TableauPair(p1, p2, q1, q2)


def rsk_by_bumping(sigma: Perm) -> TableauPair:
    """Classical row insertion, kept as an independent cross-check.

    Raises when the insertion would create a third row, which happens
    exactly when sigma contains 321.
    """
    p1: list[int] = []
    p2: list[int] = []
    q1: list[int] = []
    q2: list[int] = []
    for i, v in enumerate(sigma, start=1):
        pos = bisect_right(p1, v)
        if pos == len(p1):
            p1.append(v)
            q1.append(i)
            continue
        bumped = p1[pos]
        p1[pos] = v
        if p2 and bumped < p2[-1]:
            raise ValueError("rsk_by_bumping requires a 321-avoiding input")
        p2.append(bumped)
        q2.append(i)
    return TableauPair(tuple(p1), tuple(p2), tuple(q1), tuple(q2))


# ---------------------------------------------------------------------------
# Dyck path construction and tunnels


def psi(sigma: Perm) -> DyckPath:
    """Dyck path of a 321-avoider: left half reads P, right half reads Q.

    >>> psi((2, 4, 1, 3, 5, 8, 6, 7))
    'ududuuuddudduudd'
    >>> psi((1, 2, 3))
    'uuuddd'
    """
    _require_avoids(sigma, (3, 2, 1), "psi")
    return _psi(sigma)


def _psi(sigma: Perm) -> DyckPath:
    # the second rows of P and Q, read straight off the matching set
    pairs = matching_set(sigma)
    row2_p = {v for v, _ in pairs}
    row2_q = {a for _, a in pairs}
    n = len(sigma)
    left = "".join("d" if i in row2_p else "u" for i in range(1, n + 1))
    right = "".join("u" if j in row2_q else "d" for j in range(n, 0, -1))
    return left + right


@dataclasses.dataclass(frozen=True)
class Tunnel:
    """A matched (up-step, down-step) pair, indices 1-based into the word.

    The kind compares the tunnel segment's midpoint abscissa with the
    path's center n: exactly, via up_index + down_index - 1 versus 2n.
    """

    up_index: int
    down_index: int
    kind: str  # "left" | "centered" | "right"


def tunnels(d: DyckPath) -> list[Tunnel]:
    """All tunnels of a Dyck path, in closing (down-step) order.

    >>> [t.kind for t in tunnels("uudd")]
    ['centered', 'centered']
    """
    as_dyck(d)
    two_n = len(d)
    result: list[Tunnel] = []
    stack: list[int] = []
    for idx, ch in enumerate(d, start=1):
        if ch == "u":
            stack.append(idx)
        else:
            up = stack.pop()
            mid2 = up + idx - 1  # twice the midpoint abscissa
            if mid2 < two_n:
                kind = "left"
            elif mid2 == two_n:
                kind = "centered"
            else:
                kind = "right"
            result.append(Tunnel(up, idx, kind))
    return result


def tunnel_counts(d: DyckPath) -> tuple[int, int, int]:
    """(left, centered, right) tunnel counts.

    >>> tunnel_counts("ududuuuddudduudd")
    (4, 1, 3)
    """
    kinds = [t.kind for t in tunnels(d)]
    return kinds.count("left"), kinds.count("centered"), kinds.count("right")


# ---------------------------------------------------------------------------
# the path-to-permutation correspondence


def phi_inverse(d: DyckPath) -> Perm:
    """132-avoider of a Dyck path via tunnel endpoints.

    Ascents are numbered n..1 left to right, descents 1..n; each tunnel
    joining ascent number m to descent number j sets sigma(m) = j.

    >>> phi_inverse("ududuuuddudduudd")
    (7, 8, 5, 3, 4, 6, 2, 1)
    >>> phi_inverse("uuuddd")
    (1, 2, 3)
    """
    as_dyck(d)
    n = len(d) // 2
    word = [0] * n
    stack: list[int] = []
    asc = desc = 0
    for ch in d:
        if ch == "u":
            asc += 1
            stack.append(asc)
        else:
            desc += 1
            word[n - stack.pop()] = desc  # ascent ordinal i has number n+1-i
    return tuple(word)


def phi(alpha: Perm) -> DyckPath:
    """Inverse correspondence: rebuild the step word from the tunnel pairing."""
    _require_avoids(alpha, (1, 3, 2), "phi")
    n = len(alpha)
    ainv = inverse(alpha)
    word: list[str] = []
    stack: list[int] = []
    next_up = 1
    for j in range(1, n + 1):
        target = n + 1 - ainv[j - 1]  # ascent ordinal matched to descent j
        while next_up <= target:
            word.append("u")
            stack.append(next_up)
            next_up += 1
        if not stack or stack[-1] != target:
            raise ValueError(f"tunnel pairing is not laminar for {alpha}")
        stack.pop()
        word.append("d")
    return "".join(word)


# ---------------------------------------------------------------------------
# theta, both formulations, and its inverse


def theta_pipeline(sigma: Perm) -> Perm:
    """The tableau/path composite: phi_inverse(psi(sigma)).

    >>> theta_pipeline((2, 4, 1, 3, 5, 8, 6, 7))
    (7, 8, 5, 3, 4, 6, 2, 1)
    """
    _require_avoids(sigma, (3, 2, 1), "theta_pipeline")
    return phi_inverse(_psi(sigma))


def theta_recursive(sigma: Perm) -> Perm:
    """Same map computed directly by prefix recursion, one letter at a time.

    By definition, step l reduces the length-l prefix, reads k = its last
    letter and j = 1 + the number of its matched excedance values at most k,
    and applies insert(result, l-k+j, j).  On a 321-avoider the matched
    excedance values are the second row of P, so one two-row insertion per
    letter gives both numbers: with pos = bisect_right(row1, v) and c the
    number of row-2 letters below v, k = pos + c + 1 and j = c + 1, and the
    step is insert(result, l-pos, c+1).

    >>> theta_recursive((2, 4, 1, 3, 5, 8, 6, 7))
    (7, 8, 5, 3, 4, 6, 2, 1)
    """
    _require_avoids(sigma, (3, 2, 1), "theta_recursive")
    return _theta_recursive(sigma)


def _theta_steps(sigma: Perm) -> list[tuple[int, int]]:
    """The (position, value) insertion of each letter, by two-row insertion."""
    row1: list[int] = []
    row2: list[int] = []
    steps: list[tuple[int, int]] = []
    for l, v in enumerate(sigma, start=1):
        pos = bisect_right(row1, v)
        steps.append((l - pos, bisect_right(row2, v) + 1))
        if pos == len(row1):
            row1.append(v)
        else:
            # no 321, so the bumped letter is the largest in row 2
            row2.append(row1[pos])
            row1[pos] = v
    return steps


def _theta_recursive(sigma: Perm) -> Perm:
    return _insert_all(_theta_steps(sigma))


def _insert_all(steps: list[tuple[int, int]]) -> Perm:
    """Fold insert(word, i, x) over the steps from the empty word, last first.

    The letter of a step ends at the i-th position and with the x-th value
    among those that the later steps leave free.
    """
    n = len(steps)
    slots, values = list(range(n)), list(range(1, n + 1))
    word = [0] * n
    for i, x in reversed(steps):
        word[slots.pop(i - 1)] = values.pop(x - 1)
    return tuple(word)


def theta_inverse(alpha: Perm) -> Perm:
    """Peel the leftmost weak deficiency, then rebuild by insertions.

    Peeling u from a word of length m records the step (m, m - l + u), where
    l is its position; the remaining letters above u drop by one.

    >>> theta_inverse((7, 8, 5, 3, 4, 6, 2, 1))
    (2, 4, 1, 3, 5, 8, 6, 7)
    """
    _require_avoids(alpha, (1, 3, 2), "theta_inverse")
    peeled: list[tuple[int, int]] = []
    word = list(alpha)
    while word:
        m = len(word)
        l = 1
        while word[l - 1] > l:  # stops at l = m at the latest
            l += 1
        u = word.pop(l - 1)
        peeled.append((m, m - l + u))
        word = [w - (w > u) for w in word]
    return _insert_all(peeled[::-1])


def gamma(sigma: Perm) -> Perm:
    """theta composed with the reverse-complement-inverse symmetry.

    Preserves the triple (fp, exc, crs) on 321-avoiders.
    """
    _require_avoids(sigma, (3, 2, 1), "gamma")
    # rci maps 321-avoiders onto 321-avoiders, so the image needs no check
    return _theta_recursive(involution(sigma, "rci"))


# ---------------------------------------------------------------------------
# the first-value-placement bijections


def f_k(sigma: Perm, k: int) -> Perm:
    """Send a length n-1 permutation to one of length n with value 1 at k.

    Defined as the insertion (k, 1) applied to the inverse word; the inverse
    is what makes the k = n case crossing-preserving.

    >>> f_k((2, 1, 3), 4)
    (3, 2, 4, 1)
    """
    n = len(as_perm(sigma)) + 1
    if not 1 <= k <= n:
        raise ValueError(f"k out of range: {k}")
    return insert(inverse(sigma), k, 1)


def g_k(sigma: Perm) -> Perm:
    """Move the value 1 from position k to position n+1-k, conjugating by rc.

    The input must have some sigma(k) = 1; writing it as base^{(k,1)}, the
    image is rc(base)^{(n+1-k,1)}.  Preserves crossings for every k.
    """
    sigma = as_perm(sigma)
    if not sigma:
        raise ValueError("g_k needs a nonempty permutation")
    n = len(sigma)
    k = sigma.index(1) + 1
    base = tuple(v - 1 for i, v in enumerate(sigma, start=1) if i != k)
    return insert(involution(base, "rc"), n + 1 - k, 1)


def theta(sigma: Perm) -> Perm:
    """The production formulation, theta_recursive, under its own name."""
    _require_avoids(sigma, (3, 2, 1), "theta")
    return _theta_recursive(sigma)


__all__ = [
    "DyckPath",
    "MatchingSet",
    "TableauPair",
    "Tunnel",
    "as_dyck",
    "f_k",
    "g_k",
    "gamma",
    "matching_set",
    "phi",
    "phi_inverse",
    "psi",
    "rsk_by_bumping",
    "rsk_two_row",
    "tunnel_counts",
    "tunnels",
    "theta",
    "theta_inverse",
    "theta_pipeline",
    "theta_recursive",
]
