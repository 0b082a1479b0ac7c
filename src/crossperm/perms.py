"""Permutations in one-line notation, with arc-diagram statistics.

A permutation of size n is stored as a tuple of the values
(sigma(1), ..., sigma(n)), each value in {1..n}.  Positions and values are
1-indexed throughout, matching the usual combinatorial conventions; the
empty tuple is the (unique) permutation of size 0 and has every statistic
equal to zero.

The arc diagram of sigma draws an arc from i to sigma(i) for every i, above
the baseline when sigma(i) > i and below it when sigma(i) < i.  Two arcs
(i, sigma(i)) and (j, sigma(j)) with i < j form a *crossing* when

    i < j < sigma(i) < sigma(j)      (two upper arcs crossing), or
    sigma(i) < sigma(j) <= i < j     (two lower arcs crossing),

and a *nesting* when

    i < j < sigma(j) < sigma(i), or
    sigma(j) < sigma(i) <= i < j.

The weak inequality in the lower clauses is intentional: a fixed point can
serve as the left endpoint of a lower crossing but never creates one on its
own.  `crs(4735126) == 3` and `nes(4735126) == 3` pin this convention down.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cache
from math import inf

# A permutation in one-line notation; use as_perm() to validate raw input.
Perm = tuple[int, ...]

# A crossing or nesting arc pair, as the two positions (i, j) with i < j.
ArcPair = tuple[int, int]


def as_perm(values: Iterable[int]) -> Perm:
    """Validate and freeze one-line notation.

    >>> as_perm([3, 1, 2])
    (3, 1, 2)
    >>> as_perm([2, 2, 1])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (2, 2, 1)
    """
    word = tuple(values)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    return word


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(sigma: Perm) -> Perm:
    inv_word = [0] * len(sigma)
    for pos, val in enumerate(sigma, start=1):
        inv_word[val - 1] = pos
    return tuple(inv_word)


def reduce_word(word: Sequence[int]) -> Perm:
    """Relabel distinct integers to {1..n} preserving relative order.

    >>> reduce_word((6, 2, 9))
    (2, 1, 3)
    >>> reduce_word(())
    ()
    """
    if len(set(word)) != len(word):
        raise ValueError(f"letters must be distinct: {tuple(word)}")
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for v in word)


def fmt_perm(sigma: Sequence[int]) -> str:
    """Compact digits while every value is below 10, else spaced; '-' if empty.

    >>> fmt_perm((10, 2, 1)), fmt_perm((3, 1, 2)), fmt_perm(())
    ('10 2 1', '312', '-')
    """
    if not sigma:
        return "-"
    if all(v <= 9 for v in sigma):
        return "".join(str(v) for v in sigma)
    return " ".join(str(v) for v in sigma)


def fmt_patterns(patterns: Sequence[Sequence[int]]) -> str:
    """A pattern set in the given order, comma-separated; '(none)' if empty.

    >>> fmt_patterns([(1, 2, 3), (1, 3, 2)]), fmt_patterns([])
    ('123,132', '(none)')
    """
    return ",".join(map(fmt_perm, patterns)) or "(none)"


def pattern_set(patterns: Iterable[Sequence[int]]) -> tuple[Perm, ...]:
    """A pattern set as the library keys it: validated, each once, sorted.

    >>> pattern_set([(3, 2, 1), (2, 3, 1), [3, 2, 1]])
    ((2, 3, 1), (3, 2, 1))
    """
    return tuple(sorted({as_perm(p) for p in patterns}))


# ---------------------------------------------------------------------------
# pattern containment
#
# One rule serves containment and the generation walk.  Read a word letter
# by letter and carry its completion mask for tau: bit x is set when
# appending the letter x would complete an occurrence of tau.  Appending v
# adds exactly the occurrences of tau[:-1] that end at v, and each one opens
# for tau's last letter every value strictly between its letters of rank
# tau[-1]-1 and tau[-1]+1 (an open interval of values).  The step returns
# the letters that v opens, and the reader ORs them into its mask; a mask
# for several patterns is the OR of theirs.


@cache
def completion_rule(
    tau: Perm,
) -> tuple[int, Callable[[Sequence[int], int, int], int]]:
    """The letters whose appending to a word completes an occurrence of tau.

    Returns (start, step).  `start` is the completion mask of the empty
    word; step(word, t, used), with `used` holding bit x for each letter x
    of word[:t], returns the letters that word[t] opens, so the mask of
    word[:t+1] is the mask of word[:t] OR'd with it.  For |tau| = 3 the
    intervals opened by the occurrences of tau[:-1] ending at the new letter
    nest, so the step reads only the smallest or the largest earlier letter
    on the right side of it; for other lengths a DFS lists those
    occurrences, placing tau's roles one by one inside the value bounds set
    by the roles already placed.

    >>> start, step = completion_rule((1, 3, 2))
    >>> word = (2, 5)
    >>> mask = start | step(word, 0, 0) | step(word, 1, 1 << 2)
    >>> [x for x in range(1, 7) if mask >> x & 1]
    [3, 4]
    """
    tau = as_perm(tau)
    m = len(tau)
    if m == 0:
        raise ValueError("the empty pattern has no completion rule")
    if m == 1:  # every letter completes tau, from the empty word on
        return -2, lambda word, t, used: 0
    # An occurrence of tau[:-1] is held as its m-1 letters in role order,
    # the new letter last; these roles bound the value of tau's last letter.
    r = tau[-1]
    lo_role = tau.index(r - 1) if r > 1 else None
    hi_role = tau.index(r + 1) if r < m else None

    def opened(occ: Sequence[int]) -> int:
        # the bits strictly between the letters that bound tau's last letter
        bits = -1 << (occ[lo_role] + 1) if lo_role is not None else -2
        return bits & ((1 << occ[hi_role]) - 1) if hi_role is not None else bits

    if m == 3:
        rising = tau[0] < tau[1]

        def step3(word: Sequence[int], t: int, used: int) -> int:
            v = word[t]
            side = used & ((1 << v) - 1) if rising else used & (-2 << v)
            if not side:
                return 0
            # the widest interval: the smallest first letter when it is the
            # lower bound, else the largest
            u = (side & -side if lo_role == 0 else side).bit_length() - 1
            return opened((u, v))

        return 0, step3

    head = m - 2  # roles played by letters before the new one
    # Role i need only respect the placed roles (0..i-1 and the new letter)
    # nearest to it in rank: those give its tightest value bounds.
    below: list[int | None] = []
    above: list[int | None] = []
    for i in range(head):
        placed = [*range(i), head]
        lower = [s for s in placed if tau[s] < tau[i]]
        upper = [s for s in placed if tau[s] > tau[i]]
        below.append(max(lower, key=tau.__getitem__, default=None))
        above.append(min(upper, key=tau.__getitem__, default=None))

    def step(word: Sequence[int], t: int, used: int) -> int:
        occ = [0] * head + [word[t]]

        def place(i: int, start: int) -> int:
            if i == head:
                return opened(occ)
            lo = occ[below[i]] if below[i] is not None else 0
            hi = occ[above[i]] if above[i] is not None else inf
            bits = 0
            for p in range(start, t - head + i + 1):
                if lo < word[p] < hi:
                    occ[i] = word[p]
                    bits |= place(i + 1, p + 1)
            return bits

        return place(0, 0)

    return 0, step


def contains_pattern(sigma: Perm, tau: Perm) -> bool:
    """True when some subsequence of sigma reduces to tau.

    >>> contains_pattern((3, 1, 4, 2), (2, 1, 3))
    True
    >>> contains_pattern((1, 2, 3), (1, 3, 2))
    False
    """
    tau = as_perm(tau)
    if not tau:
        return True
    mask, step = completion_rule(tau)
    used = 0
    for t, v in enumerate(sigma):
        if mask >> v & 1:
            return True
        mask |= step(sigma, t, used)
        used |= 1 << v
    return False


def avoids(sigma: Perm, patterns: Iterable[Perm]) -> bool:
    return not any(contains_pattern(sigma, tau) for tau in patterns)


# ---------------------------------------------------------------------------
# crossing / nesting arc pairs


def crossings(sigma: Perm) -> frozenset[ArcPair]:
    """All position pairs (i, j), i < j, whose arcs cross.

    >>> sorted(crossings((4, 7, 3, 5, 1, 2, 6)))
    [(1, 2), (5, 6), (6, 7)]
    """
    n = len(sigma)
    pairs = set()
    for i in range(1, n + 1):
        si = sigma[i - 1]
        for j in range(i + 1, n + 1):
            sj = sigma[j - 1]
            if i < j < si < sj or si < sj <= i < j:
                pairs.add((i, j))
    return frozenset(pairs)


def crs(sigma: Perm) -> int:
    # a fold over the letters, with `crossings` as its oracle: v at position p
    # closes an upper crossing with each earlier letter in (p, v), and opens a
    # lower one with each later letter in (v, p]
    used = count = 0
    for p, v in enumerate(sigma, start=1):
        if v > p:
            count += (used >> (p + 1) & ((1 << (v - p - 1)) - 1)).bit_count()
        elif v < p:
            count += (~used >> (v + 1) & ((1 << (p - v)) - 1)).bit_count()
        used |= 1 << v
    return count


def nestings(sigma: Perm) -> frozenset[ArcPair]:
    """All position pairs (i, j), i < j, whose arcs nest.

    >>> sorted(nestings((4, 7, 3, 5, 1, 2, 6)))
    [(2, 4), (3, 5), (3, 6)]
    """
    n = len(sigma)
    pairs = set()
    for i in range(1, n + 1):
        si = sigma[i - 1]
        for j in range(i + 1, n + 1):
            sj = sigma[j - 1]
            if i < j < sj < si or sj < si <= i < j:
                pairs.add((i, j))
    return frozenset(pairs)


def nes(sigma: Perm) -> int:
    # a fold like crs's, with `nestings` as its oracle: v at position p closes
    # an upper nesting with each earlier letter above v, or when v <= p opens
    # a lower one with each later letter below v
    used = count = 0
    for p, v in enumerate(sigma, start=1):
        if v > p:
            count += (used >> (v + 1)).bit_count()
        else:
            count += (~used & ((1 << v) - 2)).bit_count()
        used |= 1 << v
    return count


# ---------------------------------------------------------------------------
# classic statistics


def exc(sigma: Perm) -> int:
    return sum(1 for i, v in enumerate(sigma, start=1) if v > i)


def fp(sigma: Perm) -> int:
    return sum(1 for i, v in enumerate(sigma, start=1) if v == i)


def des(sigma: Perm) -> int:
    return sum(1 for a, b in zip(sigma, sigma[1:]) if a > b)


def inv(sigma: Perm) -> int:
    # each letter adds the earlier letters above it
    used = count = 0
    for v in sigma:
        count += (used >> (v + 1)).bit_count()
        used |= 1 << v
    return count


def maj(sigma: Perm) -> int:
    return sum(i for i, (a, b) in enumerate(zip(sigma, sigma[1:]), start=1) if a > b)


# ---------------------------------------------------------------------------
# refined crossing statistics

# Ut collects positions whose arc passes over its own inverse arc (an upper
# tunnel through i), Lt the mirror situation below the baseline.  They repay
# the overloading: crs(sigma) = crs*(sigma) + lt_stat(sigma).


def ut_set(sigma: Perm) -> frozenset[int]:
    sinv = inverse(sigma)
    return frozenset(
        i for i in range(1, len(sigma) + 1) if sinv[i - 1] < i < sigma[i - 1]
    )


def ut_stat(sigma: Perm) -> int:
    return len(ut_set(sigma))


def lt_set(sigma: Perm) -> frozenset[int]:
    sinv = inverse(sigma)
    return frozenset(
        i for i in range(1, len(sigma) + 1) if sigma[i - 1] < i < sinv[i - 1]
    )


def lt_stat(sigma: Perm) -> int:
    return len(lt_set(sigma))


def crs_star(sigma: Perm) -> int:
    """Crossings counted with the strict lower clause sigma(j)<sigma(i)<i<j.

    Satisfies crs(sigma) = crs_star(sigma) + lt_stat(sigma).
    """
    n = len(sigma)
    count = 0
    for i in range(1, n + 1):
        si = sigma[i - 1]
        for j in range(i + 1, n + 1):
            sj = sigma[j - 1]
            if i < j < si < sj or si < sj < i:
                count += 1
    return count


def alpha_k(sigma: Perm, k: int) -> int:
    return sum(1 for i in range(k, len(sigma) + 1) if sigma[i - 1] < k)


def prepend_sets(
    sigma: Perm, j: int
) -> tuple[frozenset[int], frozenset[int], frozenset[tuple[int, int]]]:
    """The sets X_j, Y_j, Z_j of the first-position insertion formula.

    crs(insert(sigma, 1, j)) == crs(sigma) + |X_j| + |Y_j| - |Z_j|.
    """
    n = len(sigma)
    if not 1 <= j <= n + 1:
        raise ValueError(f"j out of range: {j}")
    sinv = inverse(sigma)
    # X_j needs i strictly left of position j-1: arcs long enough to cross
    # the new first-position arc.  (The natural-looking i < j variant breaks
    # the insertion formula at sigma=231, j=2.)
    x_j = frozenset(i for i in range(1, n + 1) if i + 1 < j and sigma[i - 1] >= j)
    y_j = frozenset(
        i
        for i in range(1, n)
        if i + 1 < j and sigma[i - 1] <= i and i + 1 <= sinv[i]
    )
    # Z_j is strict in l+1 < j: a crossing at height exactly j survives the
    # prepend because the value j itself gets bumped
    z_j = frozenset(
        (i, l)
        for l in range(1, n)
        if l + 1 < j
        for i in range(1, l)
        if sigma[i - 1] == l + 1 and sigma[l - 1] > l + 1
    )
    return x_j, y_j, z_j


# ---------------------------------------------------------------------------
# involutions


def reverse(sigma: Perm) -> Perm:
    return sigma[::-1]


def complement(sigma: Perm) -> Perm:
    n = len(sigma)
    return tuple(n + 1 - v for v in sigma)


def involution(sigma: Perm, kind: str) -> Perm:
    """Apply one of the symmetry maps r, c, i, rc, rci.

    >>> involution((4, 1, 5, 3, 2), "rci")
    (3, 5, 2, 1, 4)
    """
    if kind == "r":
        return reverse(sigma)
    if kind == "c":
        return complement(sigma)
    if kind == "i":
        return inverse(sigma)
    if kind == "rc":
        return reverse(complement(sigma))
    if kind == "rci":
        return reverse(complement(inverse(sigma)))
    raise ValueError(f"unknown involution kind: {kind!r}")


# ---------------------------------------------------------------------------
# shift and insertion operators


def shift_up(sigma: Sequence[int], a: int) -> tuple[int, ...]:
    """Add a to every letter.

    >>> shift_up((3, 1, 2), 2)
    (5, 3, 4)
    """
    return tuple(v + a for v in sigma)


def shift_from(sigma: Sequence[int], i: int, a: int) -> tuple[int, ...]:
    """Add a to every letter that is >= i.

    >>> shift_from((4, 1, 3, 2), 3, 2)
    (6, 1, 5, 2)
    """
    return tuple(v + a if v >= i else v for v in sigma)


def insert(sigma: Perm, i: int, x: int) -> Perm:
    """Bump every letter >= x up by one, then place x at position i.

    >>> insert((3, 1, 4, 2), 2, 3)
    (4, 3, 1, 5, 2)
    """
    n = len(sigma)
    if not 1 <= i <= n + 1:
        raise ValueError(f"insert position out of range: {i}")
    if not 1 <= x <= n + 1:
        raise ValueError(f"insert value out of range: {x}")
    bumped = shift_from(sigma, x, 1)
    return bumped[: i - 1] + (x,) + bumped[i - 1 :]


# ---------------------------------------------------------------------------
# direct sum and direct product


def direct_sum(s1: Perm, s2: Perm) -> Perm:
    """Concatenate with shift.

    >>> direct_sum((2, 1), (1,))
    (2, 1, 3)
    """
    return s1 + shift_up(s2, len(s1))


def t_set(sigma: Perm) -> frozenset[int]:
    """Indices i below both their value and their preimage position."""
    sinv = inverse(sigma)
    return frozenset(
        i for i in range(1, len(sigma) + 1) if sinv[i - 1] > i < sigma[i - 1]
    )


def direct_product(a1: Perm, a2: Perm) -> Perm:
    """The sum's conjugate composition on 132-avoiders.

    The left factor, shifted to the block {k..k+|a1|-1} with k = 1+|t_set(a2)|,
    is spliced into a2 after its first k-1 letters:

    >>> direct_product((3, 1, 2), (5, 4, 3, 6, 1, 2))
    (8, 7, 5, 3, 4, 6, 9, 1, 2)
    """
    pat132 = (1, 3, 2)
    if contains_pattern(a1, pat132) or contains_pattern(a2, pat132):
        raise ValueError("direct_product is only defined on 132-avoiding inputs")
    k = 1 + len(t_set(a2))
    outer = shift_from(a2, k, len(a1))
    block = shift_up(a1, k - 1)
    return outer[: k - 1] + block + outer[k - 1 :]


def sum_decompose(sigma: Perm) -> list[Perm]:
    """Split into sum-irreducible components, left to right.

    >>> sum_decompose((1, 2, 3))
    [(1,), (1,), (1,)]
    >>> sum_decompose((2, 4, 1, 3))
    [(2, 4, 1, 3)]
    """
    parts: list[Perm] = []
    start = 0
    top = 0
    for p, v in enumerate(sigma, start=1):
        top = max(top, v)
        if top == p:  # prefix is a permutation of {1..p}: irreducible cut
            parts.append(tuple(v - start for v in sigma[start:p]))
            start = p
    return parts


def _product_split(sigma: Perm) -> tuple[Perm, Perm] | None:
    n = len(sigma)
    for p in range(1, n):
        for k in range(1, n - p + 2):
            block = sigma[k - 1 : k - 1 + p]
            if sorted(block) != list(range(k, k + p)):
                continue
            rest = sigma[: k - 1] + sigma[k - 1 + p :]
            beta = tuple(v - p if v >= k else v for v in rest)
            if 1 + len(t_set(beta)) == k:
                alpha = tuple(v - (k - 1) for v in block)
                return alpha, beta
    return None


def product_decompose(sigma: Perm) -> list[Perm]:
    """Split a 132-avoider into product-irreducible factors.

    Recomposing the list with direct_product right to left returns sigma.

    >>> product_decompose((2, 1, 3))
    [(2, 1), (1,)]
    """
    if contains_pattern(sigma, (1, 3, 2)):
        raise ValueError("product_decompose is only defined on 132-avoiding inputs")
    if not sigma:
        return []
    split = _product_split(sigma)
    if split is None:
        return [sigma]
    alpha, beta = split
    return product_decompose(alpha) + product_decompose(beta)
