"""Exhaustive generation, distribution queries, and verification suites.

Generation walks the prefix tree in lexicographic order and never builds a
prefix that contains a forbidden pattern.  Each node carries the mask of
letters already used and one completion mask: the letters whose appending
would complete an occurrence of some pattern, the union of the masks of
`perms.completion_rule`.  A node's children are its free letters outside
both masks, lowest first.

Aggregation is one fold over S_n(T).  The tally (`_tally`) counts the
members by the key (one, last, tail, *statistics), once per (class,
statistics) in a process.  A refinement is a predicate on the key's first
three columns (`DistributionQuery.keeps`), so no member is filtered before
the tally: `distribution` keeps the keys that its query accepts,
`joint_distribution` drops the three columns, and the crossing
distributions of the check suites are `distribution`'s (`_crs`).

`crs_route` alone names how a class's crossing distribution is computed:
"closed-form" (`qseries.CLOSED_FORMS`), "recurrence" ({132,213}) or
"enumeration" (the tally).  The command line asks it; the check suites
never do, since they compare those formulas with the tally.

A check is one decorated function that names its suite, its name, its
default cap and its first n.  One driver (`_each_n`) scans n = start..cap
upward, stops at the first n whose body returns a note, and reports
"n={n}{note}", so every counterexample is minimal in n and says where it
came from.  A law on members (`_law`) is that driver over S_n(T), failing
at the first member that breaks the law.  The four checks that compare
whole rows or series at the cap register their fn(cap) raw (`_check`).
The suites fill themselves in registration order, and `all` runs them one
after another.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cache
from itertools import combinations, permutations
from math import comb, inf
from types import MappingProxyType

from . import bijections, perms, qseries
from .perms import Perm, fmt_patterns, fmt_perm
from .qseries import MultiPoly, QPoly, Series

# ---------------------------------------------------------------------------
# generation


def generate(n: int, patterns: Iterable[Sequence[int]] = ()) -> Iterator[Perm]:
    """All of S_n avoiding every pattern, in lexicographic order.

    >>> list(generate(3, [(3, 2, 1)]))[:3]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    if n < 0:
        raise ValueError(f"negative size: {n}")
    pats = perms.pattern_set(patterns)
    if any(len(p) == 0 for p in pats):
        return iter(())  # the empty pattern occurs in everything
    if n == 0:
        return iter([()])
    return _walk(n, pats)


def _walk(n: int, pats: tuple[Perm, ...]) -> Iterator[Perm]:
    rules = [perms.completion_rule(p) for p in pats]
    steps = [step for _, step in rules]
    full = (1 << (n + 1)) - 2
    word: list[int] = []

    def extend(used: int, mask: int) -> Iterator[Perm]:
        t = len(word)
        free = full & ~used & ~mask
        if t == n - 1:  # one letter is left; no mask is needed after it
            if free:
                yield (*word, free.bit_length() - 1)
            return
        while free:
            low = free & -free
            free ^= low
            word.append(low.bit_length() - 1)
            child = mask
            for step in steps:
                child |= step(word, t, used)
            yield from extend(used | low, child)
            word.pop()

    start = 0
    for mask, _ in rules:
        start |= mask
    return extend(0, start)


# ---------------------------------------------------------------------------
# distribution queries

STATISTICS = {
    "crs": perms.crs,
    "nes": perms.nes,
    "inv": perms.inv,
    "exc": perms.exc,
    "fp": perms.fp,
    "des": perms.des,
    "maj": perms.maj,
}

REFINEMENTS = ("none", "one-at", "last", "both", "tail")


def _frame(s: Perm) -> tuple[int, int, int]:
    # the tally key's leading columns (one, last, tail): the position of 1, the
    # last value, and the largest t with s(n+1-i) = i for every i <= t
    if not s:
        return 0, 0, 0
    tail = 0
    while tail < len(s) and s[-1 - tail] == tail + 1:
        tail += 1
    return s.index(1) + 1, s[-1], tail


@dataclasses.dataclass(frozen=True)
class DistributionQuery:
    """A class (size, patterns), a statistic, and an optional refinement.

    Refinements: "one-at" keeps sigma(k) = 1, "last" keeps sigma(n) = k,
    "both" keeps sigma(k) = 1 and sigma(n) = j, "tail" keeps the suffix
    fixed pointwise: sigma(n+1-i) = i for i = 1..k.
    """

    n: int
    patterns: tuple[Perm, ...] = ()
    statistic: str = "crs"
    refinement: str = "none"
    k: int | None = None
    j: int | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative size: {self.n}")
        object.__setattr__(self, "patterns", perms.pattern_set(self.patterns))
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic: {self.statistic!r}")
        if self.refinement not in REFINEMENTS:
            raise ValueError(f"unknown refinement: {self.refinement!r}")
        needs_k = self.refinement in ("one-at", "last", "both", "tail")
        if needs_k and not (self.k and 1 <= self.k <= self.n):
            raise ValueError(f"refinement {self.refinement!r} needs k in 1..{self.n}")
        if self.refinement == "both" and not (self.j and 1 <= self.j <= self.n):
            raise ValueError(f"refinement 'both' needs j in 1..{self.n}")
        if not needs_k and (self.k is not None or self.j is not None):
            raise ValueError("k/j are only meaningful with a refinement")
        if self.j is not None and self.refinement != "both":
            raise ValueError("j is only meaningful with refinement 'both'")

    def keeps(self, one: int, last: int, tail: int) -> bool:
        """The refinement, as a predicate on the leading columns of a tally key."""
        if self.refinement == "one-at":
            return one == self.k
        if self.refinement == "last":
            return last == self.k
        if self.refinement == "both":
            return one == self.k and last == self.j
        if self.refinement == "tail":
            return tail >= self.k
        return True

    def admits(self, sigma: Perm) -> bool:
        return self.keeps(*_frame(sigma))


@dataclasses.dataclass(frozen=True)
class DistributionResult:
    polynomial: QPoly
    count: int


@cache
def _tally(
    n: int, patterns: tuple[Perm, ...], statistics: tuple[str, ...]
) -> Mapping[tuple[int, ...], int]:
    """(one, last, tail, *statistics) -> the number of members of S_n(patterns).

    One walk, and the class is never held.  The result is cached, so it is
    handed out read-only.
    """
    fns = [STATISTICS[name] for name in statistics]
    return MappingProxyType(
        Counter((*_frame(s), *[f(s) for f in fns]) for s in generate(n, patterns))
    )


def distribution(query: DistributionQuery) -> DistributionResult:
    """Sum q^{stat(sigma)} over the queried class, by enumeration."""
    cells = Counter()
    tally = _tally(query.n, query.patterns, (query.statistic,))
    for (one, last, tail, value), count in tally.items():
        if query.keeps(one, last, tail):
            cells[value] += count
    return DistributionResult(
        polynomial=QPoly(cells[v] for v in range(max(cells, default=-1) + 1)),
        count=sum(cells.values()),
    )


_JOINT_VARS = {1: ("q",), 2: ("q", "p"), 3: ("x", "q", "p")}


def joint_distribution(
    n: int,
    patterns: Iterable[Sequence[int]],
    stats: Sequence[str],
    variables: Sequence[str] | None = None,
) -> MultiPoly:
    """Sum prod x_i^{stat_i(sigma)} for one to three statistics."""
    if not 1 <= len(stats) <= 3:
        raise ValueError("joint queries take one to three statistics")
    names = tuple(variables) if variables is not None else _JOINT_VARS[len(stats)]
    if len(names) != len(stats):
        raise ValueError("one variable per statistic")
    for stat in stats:
        if stat not in STATISTICS:
            raise ValueError(f"unknown statistic: {stat!r}")
    joint = Counter()
    for key, count in _tally(n, perms.pattern_set(patterns), tuple(stats)).items():
        joint[key[3:]] += count
    return MultiPoly(names, joint)


def _crs(n: int, pats: tuple[Perm, ...], refinement: str = "none",
         k: int | None = None) -> QPoly:
    # the crossing distributions that the check suites compare
    return distribution(DistributionQuery(n, pats, "crs", refinement, k)).polynomial


_PATTERNS3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
_AVOID321 = ((3, 2, 1),)
_PAIR_132_213 = ((1, 3, 2), (2, 1, 3))


def crs_route(patterns: Iterable[Sequence[int]]) -> tuple[str, Callable[[int], QPoly]]:
    """(source, fn): fn(n) is the crossing distribution of S_n(patterns).

    >>> [crs_route(t)[0] for t in ([(3, 2, 1)], [(2, 1, 3), (1, 3, 2)], [])]
    ['closed-form', 'recurrence', 'enumeration']
    """
    pats = perms.pattern_set(patterns)
    # qseries is read when fn runs, so a wrapped formula is the one that runs
    if pats in qseries.CLOSED_FORMS:
        return "closed-form", lambda n: qseries.closed_form(pats, n)
    if pats == _PAIR_132_213:
        return "recurrence", lambda n: qseries.dist_213_132(n)
    return "enumeration", lambda n: _crs(n, pats)


# ---------------------------------------------------------------------------
# the check registry

# a check maps its cap to (the n it reached, the counterexample or None)
_Check = Callable[[int], tuple[int, str | None]]

_CHECKS: dict[str, tuple[_Check, int]] = {}
_SUITES: dict[str, list[str]] = {}


def _check(suite: str, name: str, default_nmax: int):
    """Register fn(cap) as a check of the suite, in registration order."""

    def register(fn: _Check) -> _Check:
        _CHECKS[name] = (fn, default_nmax)
        _SUITES.setdefault(suite, []).append(name)
        return fn

    return register


def _each_n(suite: str, name: str, default_nmax: int, start: int = 0):
    """Register at(n) as a check that scans n = start..cap upward.

    at(n) returns None when n passes, else a note that follows "n={n}" in
    the counterexample (" sigma=21", ": total mismatch", or "").  The scan
    stops at the first failing n, so a counterexample is minimal in n.
    """

    def register(at: Callable[[int], str | None]):
        def scan(cap: int) -> tuple[int, str | None]:
            for n in range(start, cap + 1):
                note = at(n)
                if note is not None:
                    return n, f"n={n}{note}"
            return cap, None

        _check(suite, name, default_nmax)(scan)
        return at

    return register


def _law(suite: str, name: str, default_nmax: int, pats: tuple[Perm, ...] = (),
         start: int = 0):
    """Register a law on the members of S_n(pats) as a check.

    The check reports the first member that breaks the law.  law(sigma) is
    True when sigma satisfies it, else False or a note naming the failing
    case (" k=2"), which ends the counterexample.
    """

    def register(law: Callable[[Perm], bool | str]):
        def at(n: int) -> str | None:
            for s in generate(n, pats):
                verdict = law(s)
                if verdict is not True:
                    return f" sigma={fmt_perm(s)}{verdict or ''}"
            return None

        _each_n(suite, name, default_nmax, start)(at)
        return law

    return register


def _crs_ut_lt(s: Perm) -> int:
    # crs + ut - lt: the crossings of the inverse, of the reverse-complement,
    # and of s with 1 appended
    return perms.crs(s) + perms.ut_stat(s) - perms.lt_stat(s)


# ---- arc statistic identities


@_law("perm-lemmas", "crs-decomposition", 8)
def _crs_decomposition(s: Perm) -> bool:
    return perms.crs(s) == perms.inv(s) - perms.exc(s) - 2 * perms.nes(s)


@_law("perm-lemmas", "crs-star-split", 7)
def _crs_star_split(s: Perm) -> bool:
    return perms.crs(s) == perms.crs_star(s) + perms.lt_stat(s)


@_law("perm-lemmas", "inverse-crossings", 7)
def _inverse_crossings(s: Perm) -> bool:
    return perms.crs(perms.inverse(s)) == _crs_ut_lt(s)


@_law("perm-lemmas", "append-one", 7)
def _append_one(s: Perm) -> bool:
    return perms.crs(perms.insert(s, len(s) + 1, 1)) == _crs_ut_lt(s)


@_law("perm-lemmas", "insert-one", 7, start=1)
def _insert_one(s: Perm) -> bool | str:
    base = perms.crs(s)
    ut, lt = perms.ut_set(s), perms.lt_set(s)
    for k in range(1, len(s) + 1):
        ut_minus = sum(1 for i in ut if i < k)
        lt_minus = sum(1 for i in lt if i < k)
        want = base + ut_minus - lt_minus + perms.alpha_k(s, k)
        if perms.crs(perms.insert(s, k, 1)) != want:
            return f" k={k}"
    return True


@_law("perm-lemmas", "reverse-complement", 7)
def _reverse_complement(s: Perm) -> bool:
    return perms.crs(perms.involution(s, "rc")) == _crs_ut_lt(s)


@_each_n("perm-lemmas", "insert-letter", 7, start=1)
def _chk_insert_letter(n: int) -> str | None:
    # general insertion sigma^(a,b), window counts A1..A4 over b <= i < a
    for s in generate(n - 1):
        sinv = perms.inverse(s)
        base = perms.crs(s)
        for a in range(1, n + 1):
            for b in range(1, a + 1):
                a1 = sum(1 for i in range(b, a) if s[i - 1] < b)
                # at sinv[i-1] == a the displaced letter lands just past
                # the new one and still crosses it, hence >= not >
                a2 = sum(1 for i in range(b, a) if sinv[i - 1] >= a)
                a3 = sum(1 for i in range(b, a) if sinv[i - 1] < i < s[i - 1])
                a4 = sum(1 for i in range(b, a) if s[i - 1] < i < sinv[i - 1])
                want = base + a1 + a2 + a3 - a4
                if perms.crs(perms.insert(s, a, b)) != want:
                    return f" sigma={fmt_perm(s)} a={a} b={b}"
    return None


@_law("perm-lemmas", "insert-front", 7)
def _insert_front(s: Perm) -> bool | str:
    base = perms.crs(s)
    for j in range(1, len(s) + 2):
        x_j, y_j, z_j = perms.prepend_sets(s, j)
        want = base + len(x_j) + len(y_j) - len(z_j)
        if perms.crs(perms.insert(s, 1, j)) != want:
            return f" j={j}"
    return True


@_law("perm-lemmas", "tail-fixed-insert", 7, start=1)
def _tail_fixed_insert(s: Perm) -> bool | str:
    # sigma with sigma(n+1-i) = i for i <= k: prepending k+1 adds min(k-1, n-k)
    n, t = len(s), _frame(s)[2]
    base = perms.crs(s)
    for k in range(1, t + 1):
        if perms.crs(perms.insert(s, 1, k + 1)) != base + min(k - 1, n - k):
            return f" k={k}"
    return True


@_each_n("perm-lemmas", "sum-ops", 7)
def _chk_sum_ops(n: int) -> str | None:
    for a in range(n + 1):
        for s1 in generate(a):
            for s2 in generate(n - a):
                s = perms.direct_sum(s1, s2)
                if perms.crs(s) != perms.crs(s1) + perms.crs(s2):
                    return f" sigma={fmt_perm(s1)}+{fmt_perm(s2)}"
    for s in generate(n):
        parts = perms.sum_decompose(s)
        back: Perm = ()
        for p in parts:
            back = perms.direct_sum(back, p)
        if back != s:
            return f" sigma={fmt_perm(s)}"
    return None


@_each_n("perm-lemmas", "product-ops", 7)
def _chk_product_ops(n: int) -> str | None:
    pat132 = ((1, 3, 2),)
    for a in range(1, n):
        for s1 in generate(a, pat132):
            for s2 in generate(n - a, pat132):
                s = perms.direct_product(s1, s2)
                if perms.crs(s) != perms.crs(s1) + perms.crs(s2):
                    return f" alpha={fmt_perm(s1)} beta={fmt_perm(s2)}"
    for s in generate(n, pat132):
        parts = perms.product_decompose(s)
        back: Perm = parts[-1] if parts else ()
        for p in reversed(parts[:-1]):
            back = perms.direct_product(p, back)
        if back != s:
            return f" sigma={fmt_perm(s)}"
    return None


@_each_n("perm-lemmas", "sum-product-exchange", 8, start=2)
def _chk_exchange(n: int) -> str | None:
    for a in range(1, n):
        for s1 in generate(a, _AVOID321):
            for s2 in generate(n - a, _AVOID321):
                lhs = bijections.theta(perms.direct_sum(s1, s2))
                rhs = perms.direct_product(bijections.theta(s2), bijections.theta(s1))
                if lhs != rhs:
                    return f" sigma1={fmt_perm(s1)} sigma2={fmt_perm(s2)}"
    return None


# ---- bijection checks


@_law("bijections", "theta-routes-agree", 9, _AVOID321)
def _theta_routes_agree(s: Perm) -> bool:
    return bijections.theta_recursive(s) == bijections.theta_pipeline(s)


@_law("bijections", "theta-preserves-crs", 10, _AVOID321)
def _theta_preserves_crs(s: Perm) -> bool | str:
    image = bijections.theta(s)
    if perms.crs(image) != perms.crs(s):
        return False
    if perms.fp(image) != perms.fp(s) or perms.exc(image) != perms.exc(s):
        return " (fp/exc)"
    return True


@_each_n("bijections", "theta-inverse-roundtrip", 8)
def _chk_theta_inverse(n: int) -> str | None:
    for s in generate(n, _AVOID321):
        if bijections.theta_inverse(bijections.theta(s)) != s:
            return f" sigma={fmt_perm(s)}"
    for a in generate(n, ((1, 3, 2),)):
        if bijections.theta(bijections.theta_inverse(a)) != a:
            return f" alpha={fmt_perm(a)}"
    return None


@_law("bijections", "gamma-preserves", 8, _AVOID321)
def _gamma_preserves(s: Perm) -> bool:
    image = bijections.gamma(s)
    return all(f(image) == f(s) for f in (perms.fp, perms.exc, perms.crs))


@_law("bijections", "rsk-routes-agree", 8, _AVOID321)
def _rsk_routes_agree(s: Perm) -> bool:
    return bijections.rsk_two_row(s) == bijections.rsk_by_bumping(s)


@_law("bijections", "rsk-duality", 7, _AVOID321)
def _rsk_duality(s: Perm) -> bool:
    # inverting sigma swaps the P and Q tableaux
    tp = bijections.rsk_two_row(s)
    ti = bijections.rsk_two_row(perms.inverse(s))
    return (ti.p_row1, ti.p_row2, ti.q_row1, ti.q_row2) == (
        tp.q_row1, tp.q_row2, tp.p_row1, tp.p_row2
    )


@_each_n("bijections", "psi-injective", 6)
def _chk_psi_injective(n: int) -> str | None:
    images = {bijections.psi(s) for s in generate(n, _AVOID321)}
    if len(images) != comb(2 * n, n) // (n + 1):
        return f": {len(images)} distinct paths"
    return None


@_law("bijections", "dyck-balance", 8, _AVOID321)
def _dyck_balance(s: Perm) -> bool:
    # down-steps in the left half match up-steps in the right half
    d = bijections.psi(s)
    bijections.as_dyck(d)
    return d[: len(s)].count("d") == d[len(s) :].count("u")


@_law("bijections", "matching-columns", 8, _AVOID321)
def _matching_columns(s: Perm) -> bool:
    # the matched values and the matched places both strictly increase
    columns = zip(*bijections.matching_set(s))
    return all(list(col) == sorted(set(col)) for col in columns)


def _dyck_words(half: int) -> Iterator[str]:
    def grow(word: str, opened: int, closed: int) -> Iterator[str]:
        if len(word) == 2 * half:
            yield word
            return
        if opened < half:
            yield from grow(word + "u", opened + 1, closed)
        if closed < opened:
            yield from grow(word + "d", opened, closed + 1)

    return grow("", 0, 0)


@_each_n("bijections", "phi-roundtrip", 6)
def _chk_phi_roundtrip(n: int) -> str | None:
    for d in _dyck_words(n):
        alpha = bijections.phi_inverse(d)
        if perms.contains_pattern(alpha, (1, 3, 2)):
            return f" path={d}: image contains 132"
        if bijections.phi(alpha) != d:
            return f" path={d}"
    return None


@_each_n("bijections", "f-laws", 7, start=1)
def _chk_f_laws(n: int) -> str | None:
    for s in generate(n - 1):
        base = perms.crs(s)
        for k in range(1, n + 1):
            image = bijections.f_k(s, k)
            if image[k - 1] != 1:
                return f" sigma={fmt_perm(s)} k={k}"
        if perms.crs(bijections.f_k(s, n)) != base:
            return f" sigma={fmt_perm(s)} k={n}"
        if n >= 2:
            bump = 0 if (n - 1 <= len(s) and s[n - 2] == n - 1) else 1
            if perms.crs(bijections.f_k(s, n - 1)) != base + bump:
                return f" sigma={fmt_perm(s)} k={n - 1}"
        want = perms.direct_sum((1,), perms.inverse(s))
        if bijections.f_k(s, 1) != want:
            return f" sigma={fmt_perm(s)} k=1"
    return None


@_law("bijections", "g-laws", 7, start=1)
def _g_laws(s: Perm) -> bool:
    # g_k moves the 1 from position k to n+1-k, keeps crs, and is an involution
    image = bijections.g_k(s)
    return (
        image[len(s) - 1 - s.index(1)] == 1
        and perms.crs(image) == perms.crs(s)
        and bijections.g_k(image) == s
    )


@_each_n("bijections", "one-at-end-slice", 9, start=1)
def _chk_one_at_end(n: int) -> str | None:
    pat312 = ((3, 1, 2),)
    pat231 = ((2, 3, 1),)
    if _crs(n, pat312, "one-at", n) != _crs(n - 1, pat231):
        return ": distribution mismatch"
    image = {bijections.f_k(s, n) for s in generate(n - 1, pat231)}
    target = {s for s in generate(n, pat312) if s[n - 1] == 1}
    if image != target:
        return ": image set mismatch"
    return None


# ---- distribution checks


@_each_n("distributions", "catalan-sizes", 10)
def _chk_catalan_sizes(n: int) -> str | None:
    want = comb(2 * n, n) // (n + 1)
    for pat in _PATTERNS3:
        got = sum(1 for _ in generate(n, (pat,)))
        if got != want:
            return f" pattern={fmt_perm(pat)}: {got} != {want}"
    return None


@_each_n("distributions", "equidistribution-321-132-213", 10)
def _chk_equidistribution(n: int) -> str | None:
    polys = [_crs(n, (p,)) for p in ((3, 2, 1), (1, 3, 2), (2, 1, 3))]
    if polys[0] != polys[1] or polys[0] != polys[2]:
        return ""
    if polys[0] != qseries.catalan_crs(n):
        return ": differs from the Catalan distribution"
    return None


# the pairs with a closed form, each sorted as _PATTERNS3 is
_PAIR_CLASSES = tuple(p for p in combinations(_PATTERNS3, 2) if p != _PAIR_132_213)


@_each_n("distributions", "closed-forms-pairs", 12)
def _chk_closed_pairs(n: int) -> str | None:
    for pats in _PAIR_CLASSES:
        if qseries.closed_form(pats, n) != _crs(n, pats):
            return f" patterns={fmt_patterns(pats)}"
    return None


@_each_n("distributions", "closed-forms-singles", 10)
def _chk_closed_singles(n: int) -> str | None:
    for pat in ((3, 2, 1), (1, 3, 2), (2, 1, 3)):
        if qseries.closed_form((pat,), n) != _crs(n, (pat,)):
            return f" pattern={fmt_perm(pat)}"
    return None


@_each_n("distributions", "rec-213-132", 12)
def _chk_rec_213_132(n: int) -> str | None:
    pats = _PAIR_132_213
    if qseries.dist_213_132(n) != _crs(n, pats):
        return ": total mismatch"
    for k in range(1, n + 1):
        if qseries.dist_213_132_first(n, k) != _crs(n, pats, "one-at", k):
            return f" k={k}"
    return None


@_check("distributions", "r-table", 10)
def _chk_r_table(cap: int):
    # raw: every R-table row through cap+1 is checked before any class
    rows = qseries.r_table(cap + 1)
    for n in range(cap + 2):
        for k in range(n):
            if rows[n][k](1) != 2 ** (n - 1 - k):
                return n, f"n={n} k={k}: value {rows[n][k](1)}"
        if sum(rows[n][k](1) for k in range(n + 1)) != 2**n:
            return n, f"n={n}: row sum"
    for n in range(cap + 1):
        for tau in ((1, 3, 2), (2, 1, 3)):
            if _crs(n, (tau, (3, 1, 2))) != rows[n][0]:
                return n, f"n={n} patterns=312,{fmt_perm(tau)}"
            if _crs(n, (tau, (2, 3, 1))) != rows[n + 1][1]:
                return n, f"n={n} patterns=231,{fmt_perm(tau)}"
    return cap, None


@_each_n("distributions", "inv-dist", 9)
def _chk_inv_dist(n: int) -> str | None:
    by_recurrence = qseries.inv_dist_321(n)
    q = QPoly.q_power(1)
    if by_recurrence != qseries.catalan_qp(n).eval_poly({"q": q, "p": q}):
        return ": recurrence vs C_n(q,q)"
    if n <= 8:
        brute = distribution(DistributionQuery(n, _AVOID321, "inv")).polynomial
        if by_recurrence != brute:
            return ": recurrence vs brute force"
    return None


@_each_n("distributions", "exc-crs-catalan", 8)
def _chk_exc_crs(n: int) -> str | None:
    if joint_distribution(n, _AVOID321, ["exc", "crs"]) != qseries.catalan_qp(n):
        return ""
    return None


@_each_n("distributions", "triple-equidistribution", 8)
def _chk_triple(n: int) -> str | None:
    tables = [
        joint_distribution(n, (p,), ["fp", "exc", "crs"])
        for p in ((3, 2, 1), (1, 3, 2), (2, 1, 3))
    ]
    if tables[0] != tables[1] or tables[0] != tables[2]:
        return ""
    return None


@_each_n("distributions", "crs-nes-symmetry", 8)
def _chk_crs_nes(n: int) -> str | None:
    if not joint_distribution(n, (), ["crs", "nes"]).is_symmetric():
        return ""
    return None


# the empty set, the singles and the pairs of S_3
_ADMISSIBLE_SETS = ((), *((p,) for p in _PATTERNS3), *_PAIR_CLASSES, _PAIR_132_213)


@_each_n("distributions", "one-position-boundaries", 9, start=3)
def _chk_one_pos_boundaries(n: int) -> str | None:
    q = QPoly.q_power(1)
    one_minus_q = QPoly((1, -1))
    for pats in _ADMISSIBLE_SETS:
        lo = min((p.index(1) + 1 for p in pats), default=inf)
        hi = max((p.index(1) + 1 for p in pats), default=0)
        inv_pats = perms.pattern_set(perms.inverse(p) for p in pats)
        if lo > 1 and _crs(n, pats, "one-at", 1) != _crs(n - 1, pats):
            return f" T={fmt_patterns(pats)} identity (i)"
        if lo > 2:
            want = q * _crs(n - 1, pats) + one_minus_q * _crs(n - 2, pats)
            if _crs(n, pats, "one-at", 2) != want:
                return f" T={fmt_patterns(pats)} identity (ii)"
        if hi < 2:
            tail = _crs(n - 1, inv_pats, "last", n - 1)
            want = q * _crs(n - 1, inv_pats) + one_minus_q * tail
            if _crs(n, pats, "one-at", n - 1) != want:
                return f" T={fmt_patterns(pats)} identity (iii)"
        if hi < 3 and _crs(n, pats, "one-at", n) != _crs(n - 1, inv_pats):
            return f" T={fmt_patterns(pats)} identity (iv)"
    return None


@_each_n("distributions", "one-position-symmetry", 8, start=2)
def _chk_one_pos_symmetry(n: int) -> str | None:
    q = QPoly.q_power(1)
    one_minus_q = QPoly((1, -1))
    by_first = [_crs(n, (), "one-at", k) for k in range(1, n + 1)]
    for k in range(1, n + 1):
        if by_first[k - 1] != by_first[n - k]:
            return f" k={k}"
    if by_first[0] != _crs(n - 1, ()):
        return " boundary"
    want = q * _crs(n - 1, ()) + one_minus_q * _crs(n - 2, ())
    if by_first[1] != want:
        return " second column"
    return None


@_each_n("distributions", "pascal-rows", 10, start=2)
def _chk_pascal_rows(n: int) -> str | None:
    want = QPoly((1, 1)) ** (n - 2)
    if _crs(n, ((1, 2, 3), (1, 3, 2)), "one-at", n - 1) != want:
        return " S_n^(n-1)(123,132)"
    if _crs(n, ((1, 2, 3), (2, 1, 3)), "last", 2) != want:
        return " S_(n,2)(123,213)"
    return None


@_each_n("distributions", "sigma-words", 14, start=1)
def _chk_sigma_words(n: int) -> str | None:
    for k in range(0, n + 1):
        top = n - 1 if k == 0 else n - k
        for j in range(1, top + 1):
            word = qseries.sigma_nkj(n, k, j)
            if qseries.crs_sigma_nkj(n, k, j) != perms.crs(word):
                return f" k={k} j={j}"
    for k in range(1, n - 1):
        gamma = qseries.gamma_nk(n, k)
        if (n - k) % 2 == 1 and gamma != QPoly.zero():
            return f" k={k}: gamma should vanish"
        if (n - k) % 2 == 0 and n - k >= 2:
            middle = qseries.sigma_nkj(n, k, (n - k) // 2)
            if gamma != QPoly.q_power(perms.crs(middle)):
                return f" k={k}: gamma exponent"
    return None


# ---- series checks: raw, each compares one series at order = cap


def _series_from_dists(pats: tuple[Perm, ...], order: int) -> Series:
    return Series.of([_crs(n, pats) for n in range(order + 1)], order)


@_check("series", "cf-catalan", 10)
def _chk_cf_catalan(cap: int):
    ladder = [QPoly.q_power((i + 1) // 2 - 1) for i in range(1, cap + 1)]
    got = qseries.cf_series(ladder, cap)
    want = Series.of([qseries.catalan_crs(n) for n in range(cap + 1)], cap)
    if got != want:
        return cap, "continued fraction differs from the Catalan series"
    return cap, None


@_check("series", "cf-crs-nes", 6)
def _chk_cf_crs_nes(cap: int):
    ladder = [qseries.bi_bracket((i + 1) // 2) for i in range(1, cap + 1)]
    got = qseries.cf_series(ladder, cap)
    want = Series.of(
        [
            joint_distribution(n, (), ["crs", "nes"], variables=("x", "y"))
            for n in range(cap + 1)
        ],
        cap,
    )
    if got != want:
        return cap, "continued fraction differs from the (crs,nes) series"
    return cap, None


@_check("series", "gf-relations", 10)
def _chk_gf_relations(cap: int):
    order = cap
    one = Series.of([1], order)
    z = Series.of([0, 1], order)
    z_over = qseries.rational_series([0, 1], [1, -1], order)
    f312 = _series_from_dists(((3, 1, 2),), order)
    f231 = _series_from_dists(((2, 3, 1),), order)
    if f312 * (one - z * f231) != one:
        return order, "F(312)*(1 - z*F(231)) != 1"
    lhs = _series_from_dists(((1, 2, 3), (3, 1, 2)), order)
    rhs = one + z_over * z_over + z * _series_from_dists(((1, 2, 3), (2, 3, 1)), order)
    if lhs != rhs:
        return order, "F(312,123) relation fails"
    for tau in ((1, 3, 2), (2, 1, 3)):
        for tau2 in ((1, 3, 2), (2, 1, 3)):
            lhs = _series_from_dists((tau, (3, 1, 2)), order)
            rhs = one + z_over * _series_from_dists((tau2, (2, 3, 1)), order)
            if lhs != rhs:
                return order, f"F(312,{fmt_perm(tau)}) vs F(231,{fmt_perm(tau2)})"
    return cap, None


# ---- generation self-checks


@_each_n("generation", "generate-lex-unique", 6)
def _chk_generate(n: int) -> str | None:
    sample_sets = [
        (),
        ((3, 2, 1),),
        ((1, 2, 3), (3, 1, 2)),
        ((1, 3, 2), (3, 1, 2)),
        ((2, 1),),
    ]
    for pats in sample_sets:
        got = list(generate(n, pats))
        # the reference shares no code with the walk's completion rule
        want = [
            p
            for p in sorted(permutations(range(1, n + 1)))
            if not any(
                perms.reduce_word(c) == tau
                for tau in pats
                for c in combinations(p, len(tau))
            )
        ]
        if got != want:
            return f" T={fmt_patterns(pats)}"
    return None


@_each_n("generation", "refinement-partition", 8, start=1)
def _chk_partition(n: int) -> str | None:
    for pats in ((), _AVOID321, _PAIR_132_213):
        total = _crs(n, pats)
        for refinement, cells in (("one-at", "first-of-one"), ("last", "last-value")):
            acc = QPoly.zero()
            for k in range(1, n + 1):
                acc = acc + _crs(n, pats, refinement, k)
            if acc != total:
                return f": {cells} cells do not partition"
    return None


# ---------------------------------------------------------------------------
# suites and the report

# `all` runs the suites one after another, each in registration order
_SUITES["all"] = [name for names in _SUITES.values() for name in names]


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES) + tuple(_CHECKS)


def verify(suite: str, n_max: int | None = None, include_timings: bool = False) -> dict:
    """Run a named check suite; any single check name is also a suite.

    Checks scan n upward and stop at the first failure, so a reported
    counterexample is minimal in n.  Timings are left out by default to
    keep reports byte-reproducible.
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"negative cap: {n_max}")
    if suite in _SUITES:
        names = _SUITES[suite]
    elif suite in _CHECKS:
        names = [suite]
    else:
        known = ", ".join(sorted(set(_SUITES) | set(_CHECKS)))
        raise ValueError(f"unknown suite {suite!r}; known: {known}")
    checks = []
    for name in names:
        fn, default_cap = _CHECKS[name]
        cap = default_cap if n_max is None else n_max
        start = time.perf_counter()
        reached, counterexample = fn(cap)
        entry: dict = {
            "name": name,
            "n": reached,
            "status": "pass" if counterexample is None else "fail",
        }
        if counterexample is not None:
            entry["counterexample"] = counterexample
        if include_timings:
            entry["millis"] = round((time.perf_counter() - start) * 1000.0, 3)
        checks.append(entry)
    return {"suite": suite, "n_max": n_max, "checks": checks}

__all__ = [
    "DistributionQuery",
    "DistributionResult",
    "REFINEMENTS",
    "STATISTICS",
    "crs_route",
    "distribution",
    "generate",
    "joint_distribution",
    "suite_names",
    "verify",
]
