import dataclasses
import functools
import itertools
from collections import Counter
from math import comb

import pytest

from crossperm import bijections, enumeration, perms, qseries
from crossperm.enumeration import (
    DistributionQuery,
    distribution,
    generate,
    joint_distribution,
    suite_names,
    verify,
)
from crossperm.qseries import MultiPoly, QPoly, catalan_qp, catalan_crs


# memoized: the exhaustive tests reduce the same few hundred short words
_reduce = functools.cache(perms.reduce_word)


def naive_patterns(sigma, m):
    # every length-m pattern of sigma, by reducing each subsequence; shares
    # no code with the completion rule behind generate and avoids
    return {_reduce(c) for c in itertools.combinations(sigma, m)}


def reference_class(n, patterns):
    return [
        s
        for s in itertools.permutations(range(1, n + 1))
        if not any(p in naive_patterns(s, len(p)) for p in patterns)
    ]


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize(
    "patterns",
    [
        (),
        ((3, 2, 1),),
        ((1, 3, 2),),
        ((2, 1),),
        ((3, 2, 1), (2, 3, 1)),
        ((1, 2, 3, 4),),
        # mixed lengths: one walk unites a length-3 rule with a length-4 DFS
        # rule or with a length-2 rule
        ((3, 2, 1), (1, 3, 2, 4)),
        ((2, 1, 3), (4, 2, 3, 1)),
        ((2, 1), (1, 2, 3)),
    ],
)
def test_generate_matches_reference(patterns):
    for n in range(7):
        got = list(generate(n, patterns))
        assert got == reference_class(n, patterns), (n, patterns)


def test_generate_matches_naive_reference_exhaustively():
    # all 64 subsets of S_3 up to n = 8, every length-4 pattern up to n = 7
    singles3 = list(itertools.permutations((1, 2, 3)))
    for n in range(9):
        sigmas = list(itertools.permutations(range(1, n + 1)))
        found = {s: naive_patterns(s, 3) for s in sigmas}
        for r in range(len(singles3) + 1):
            for patterns in itertools.combinations(singles3, r):
                want = [s for s in sigmas if found[s].isdisjoint(patterns)]
                assert list(generate(n, patterns)) == want, (n, patterns)
        if n <= 7:
            found = {s: naive_patterns(s, 4) for s in sigmas}
            for p in itertools.permutations((1, 2, 3, 4)):
                want = [s for s in sigmas if p not in found[s]]
                assert list(generate(n, (p,))) == want, (n, p)


def test_generate_is_lexicographic_and_duplicate_free():
    for n in range(7):
        out = list(generate(n, ((2, 1, 3),)))
        assert out == sorted(set(out))


def test_generate_catalan_sizes():
    for n in range(9):
        want = comb(2 * n, n) // (n + 1)
        for pat in itertools.permutations((1, 2, 3)):
            assert sum(1 for _ in generate(n, (pat,))) == want, (n, pat)


def test_generate_rejects_bad_patterns():
    with pytest.raises(ValueError):
        list(generate(3, ((1, 1),)))


@pytest.mark.parametrize(
    "n, patterns, calls",
    [
        (10, ((3, 2, 1),), 206394),
        (12, ((1, 2, 3), (3, 1, 2)), 143224),
        (12, ((2, 3, 1), (3, 1, 2)), 527344),
        (8, ((1, 3, 2, 4),), 44238),
    ],
)
def test_generate_step_calls_are_pinned(monkeypatch, n, patterns, calls):
    """The completion-rule steps one full walk calls, one per pattern and node.

    A change to the walk that visits other nodes shows here.  The live walk
    of ROADMAP item 1, which skips the children without a completion, will
    change these numbers on purpose.
    """
    count = Counter()
    real = perms.completion_rule

    def counting_rule(tau):
        start, step = real(tau)

        def counted(*args):
            count["step"] += 1
            return step(*args)

        return start, counted

    monkeypatch.setattr(perms, "completion_rule", counting_rule)
    list(generate(n, patterns))
    assert count["step"] == calls


# ---------------------------------------------------------------------------
# distribution queries


def test_distribution_crs_on_321_avoiders():
    for n in range(8):
        result = distribution(DistributionQuery(n=n, patterns=((3, 2, 1),)))
        assert result.polynomial == catalan_crs(n)
        assert result.count == comb(2 * n, n) // (n + 1)


def test_distribution_other_statistics():
    q = DistributionQuery(n=4, statistic="inv")
    assert distribution(q).polynomial(1) == 24
    # maj and inv are equidistributed over the full symmetric group
    maj = distribution(DistributionQuery(n=5, statistic="maj")).polynomial
    inv = distribution(DistributionQuery(n=5, statistic="inv")).polynomial
    assert maj == inv


def test_distribution_refinements_partition_class():
    n = 6
    patterns = ((3, 1, 2),)
    whole = distribution(DistributionQuery(n=n, patterns=patterns)).polynomial
    by_one = QPoly.zero()
    by_last = QPoly.zero()
    for k in range(1, n + 1):
        by_one = by_one + distribution(
            DistributionQuery(n=n, patterns=patterns, refinement="one-at", k=k)
        ).polynomial
        by_last = by_last + distribution(
            DistributionQuery(n=n, patterns=patterns, refinement="last", k=k)
        ).polynomial
    assert by_one == whole
    assert by_last == whole


def test_distribution_both_refinement():
    q = DistributionQuery(n=5, refinement="both", k=2, j=4)
    result = distribution(q)
    members = [
        s
        for s in itertools.permutations(range(1, 6))
        if s[1] == 1 and s[-1] == 4
    ]
    assert result.count == len(members)


def test_distribution_tail_refinement():
    # tail k pins sigma(n+1-i) = i for i = 1..k
    q = DistributionQuery(n=5, refinement="tail", k=2)
    result = distribution(q)
    members = [
        s for s in itertools.permutations(range(1, 6)) if s[4] == 1 and s[3] == 2
    ]
    assert result.count == len(members) == 6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=-1),
        dict(n=3, statistic="foo"),
        dict(n=3, refinement="foo"),
        dict(n=3, refinement="one-at"),
        dict(n=3, refinement="one-at", k=4),
        dict(n=3, refinement="both", k=1),
        dict(n=3, k=2),
        dict(n=3, refinement="one-at", k=2, j=1),
        dict(n=3, refinement="last", k=2, j=1),
        dict(n=3, refinement="tail", k=2, j=1),
    ],
)
def test_distribution_query_validation(kwargs):
    with pytest.raises(ValueError):
        DistributionQuery(**kwargs)


@pytest.fixture
def walks(monkeypatch):
    """Calls of enumeration.generate per (n, patterns), from an empty tally cache."""
    counts = Counter()
    real = enumeration.generate

    def counting(n, patterns=()):
        counts[n, tuple(patterns)] += 1
        return real(n, patterns)

    monkeypatch.setattr(enumeration, "generate", counting)
    enumeration._tally.cache_clear()
    return counts


def test_distribution_query_drops_repeated_patterns(walks):
    twice = DistributionQuery(4, ((3, 2, 1), (3, 2, 1)))
    once = DistributionQuery(4, ((3, 2, 1),))
    assert twice == once and twice.patterns == ((3, 2, 1),)
    assert distribution(twice).polynomial == distribution(once).polynomial
    assert walks == {(4, ((3, 2, 1),)): 1}


def test_joint_distribution_exc_crs_is_qp_catalan():
    for n in range(7):
        got = joint_distribution(n, ((3, 2, 1),), ("exc", "crs"))
        assert got == catalan_qp(n), n


def test_joint_distribution_crs_nes_symmetric():
    for n in range(7):
        joint = joint_distribution(n, (), ("crs", "nes"), variables=("x", "y"))
        assert joint.is_symmetric(), n


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        joint_distribution(3, (), ())
    with pytest.raises(ValueError):
        joint_distribution(3, (), ("crs",), variables=("x", "y"))
    with pytest.raises(ValueError, match="^unknown statistic: 'bogus'$"):
        joint_distribution(3, (), ("bogus",))
    with pytest.raises(ValueError, match="^unknown statistic: 'bogus'$"):
        joint_distribution(3, (), ("crs", "bogus"), variables=("x", "y"))
    # the tally's private columns are not statistics
    for private in ("one", "last", "tail"):
        with pytest.raises(ValueError, match=f"^unknown statistic: '{private}'$"):
            joint_distribution(3, (), (private,))
        with pytest.raises(ValueError, match=f"^unknown statistic: '{private}'$"):
            joint_distribution(3, (), ("crs", private), variables=("x", "y"))


AGGREGATOR_CLASSES = [(), *[(p,) for p in itertools.permutations((1, 2, 3))],
                      ((2, 1, 3), (1, 3, 2))]


def refinement_cases(n):
    # every refinement with every valid k and j
    yield "none", None, None
    for k in range(1, n + 1):
        yield "one-at", k, None
        yield "last", k, None
        yield "tail", k, None
        for j in range(1, n + 1):
            yield "both", k, j


# the refinements of DistributionQuery, written out again for the reference
REFERENCE_FILTERS = {
    "none": lambda s, k, j: True,
    "one-at": lambda s, k, j: s[k - 1] == 1,
    "last": lambda s, k, j: s[-1] == k,
    "both": lambda s, k, j: s[k - 1] == 1 and s[-1] == j,
    "tail": lambda s, k, j: s[len(s) - k:] == tuple(range(k, 0, -1)),
}


# the statistics for the reference: crs, nes and inv are folds in perms, so
# the reference counts them from the pair sets and pairs of letters instead
REFERENCE_STATISTICS = {
    **enumeration.STATISTICS,
    "crs": lambda s: len(perms.crossings(s)),
    "nes": lambda s: len(perms.nestings(s)),
    "inv": lambda s: sum(1 for a, b in itertools.combinations(s, 2) if a > b),
}


def test_aggregator_matches_naive_reference():
    # the reference counts over generate filtered by its own predicates,
    # sharing nothing with the cached tally behind distribution and
    # joint_distribution, nor with the query's refinement predicate
    names = list(enumeration.STATISTICS)
    assert list(REFERENCE_STATISTICS) == names
    for n in range(7):
        for patterns in AGGREGATOR_CLASSES:
            members = list(generate(n, patterns))
            values = {s: {st: REFERENCE_STATISTICS[st](s) for st in names}
                      for s in members}
            for refinement, k, j in refinement_cases(n):
                query = DistributionQuery(n, patterns, refinement=refinement, k=k, j=j)
                keep = REFERENCE_FILTERS[refinement]
                kept = [s for s in members if keep(s, k, j)]
                for st in names:
                    want = Counter(values[s][st] for s in kept)
                    top = max(want, default=-1)
                    result = distribution(dataclasses.replace(query, statistic=st))
                    assert result.polynomial == QPoly(
                        want[v] for v in range(top + 1)
                    ), (n, patterns, refinement, k, j, st)
                    assert result.count == len(kept)
            for r in (1, 2, 3):
                for stats in itertools.combinations(names, r):
                    want = Counter(tuple(values[s][st] for st in stats) for s in members)
                    got = joint_distribution(n, patterns, stats)
                    variables = {1: ("q",), 2: ("q", "p"), 3: ("x", "q", "p")}[r]
                    assert got == MultiPoly(variables, dict(want)), (n, patterns, stats)


# ---------------------------------------------------------------------------
# the verification registry


_SUITE_ORDER = ("perm-lemmas", "bijections", "distributions", "series", "generation")

# the order of `check all`; each suite is one contiguous block of it
_ALL_CHECKS = (
    "crs-decomposition", "crs-star-split", "inverse-crossings", "append-one",
    "insert-one", "reverse-complement", "insert-letter", "insert-front",
    "tail-fixed-insert", "sum-ops", "product-ops", "sum-product-exchange",
    "theta-routes-agree", "theta-preserves-crs", "theta-inverse-roundtrip",
    "gamma-preserves", "rsk-routes-agree", "rsk-duality", "psi-injective",
    "dyck-balance", "matching-columns", "phi-roundtrip", "f-laws", "g-laws",
    "one-at-end-slice",
    "catalan-sizes", "equidistribution-321-132-213", "closed-forms-pairs",
    "closed-forms-singles", "rec-213-132", "r-table", "inv-dist",
    "exc-crs-catalan", "triple-equidistribution", "crs-nes-symmetry",
    "one-position-boundaries", "one-position-symmetry", "pascal-rows",
    "sigma-words",
    "cf-catalan", "cf-crs-nes", "gf-relations",
    "generate-lex-unique", "refinement-partition",
)


def test_suite_names_cover_groups_and_checks():
    names = suite_names()
    for expected in ("all", "perm-lemmas", "bijections", "distributions",
                     "series", "generation", "crs-decomposition", "rec-213-132"):
        assert expected in names
    assert names[:6] == (*_SUITE_ORDER, "all")
    assert names[6:] == _ALL_CHECKS

    def members(suite):
        return tuple(c["name"] for c in verify(suite, n_max=0)["checks"])

    assert len(_ALL_CHECKS) == 44
    assert members("all") == _ALL_CHECKS
    # the suites, in order, tile `all` exactly: contiguous and disjoint
    assert sum((members(s) for s in _SUITE_ORDER), ()) == _ALL_CHECKS


def test_verify_single_check_report_shape():
    report = verify("crs-decomposition", n_max=5)
    assert report["suite"] == "crs-decomposition"
    assert report["n_max"] == 5
    assert report["checks"] == [{"name": "crs-decomposition", "n": 5, "status": "pass"}]


def test_verify_suite_collects_members():
    report = verify("generation", n_max=4)
    names = [c["name"] for c in report["checks"]]
    assert names == ["generate-lex-unique", "refinement-partition"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_timings_flag():
    with_timings = verify("crs-decomposition", n_max=4, include_timings=True)
    without = verify("crs-decomposition", n_max=4)
    assert "millis" in with_timings["checks"][0]
    assert "millis" not in without["checks"][0]


def _identity_of_same_size(sigma):
    return perms.identity(len(sigma))


@pytest.mark.parametrize(
    "check, module, attr, bad_args, corrupt, n, counterexample",
    [
        ("crs-decomposition", perms, "nes", ((2, 3, 1),), lambda v: v + 1,
         3, "n=3 sigma=231"),
        ("inverse-crossings", perms, "inverse", ((3, 4, 1, 2),),
         _identity_of_same_size, 4, "n=4 sigma=3412"),
        ("append-one", perms, "insert", ((2, 3, 1), 4, 1),
         _identity_of_same_size, 3, "n=3 sigma=231"),
        ("insert-one", perms, "insert", ((1, 3, 2), 2, 1), lambda v: v[::-1],
         3, "n=3 sigma=132 k=2"),
        ("insert-front", perms, "insert", ((3, 4, 1, 2), 1, 1),
         _identity_of_same_size, 4, "n=4 sigma=3412 j=1"),
        ("tail-fixed-insert", perms, "insert", ((3, 4, 2, 1), 1, 2),
         _identity_of_same_size, 4, "n=4 sigma=3421 k=1"),
        ("theta-preserves-crs", bijections, "theta", ((1, 3, 2),), lambda v: v[::-1],
         3, "n=3 sigma=132"),
        ("theta-preserves-crs", bijections, "theta", ((1, 2, 3),), lambda v: (1, 3, 2),
         3, "n=3 sigma=123 (fp/exc)"),
        ("theta-routes-agree", bijections, "theta_pipeline", ((2, 1, 3),),
         lambda v: v[::-1], 3, "n=3 sigma=213"),
        ("gamma-preserves", bijections, "gamma", ((3, 1, 2),), lambda v: v[::-1],
         3, "n=3 sigma=312"),
        ("g-laws", bijections, "g_k", ((2, 1, 3),), lambda v: v[::-1],
         3, "n=3 sigma=213"),
        ("sum-ops", perms, "direct_sum", ((2, 1), (1,)), lambda v: v[::-1],
         3, "n=3 sigma=21+1"),
        ("phi-roundtrip", bijections, "phi", ((1, 2),), lambda v: "udud",
         2, "n=2 path=uudd"),
        ("f-laws", bijections, "f_k", ((2, 1), 3), lambda v: v[::-1],
         3, "n=3 sigma=21 k=3"),
        ("insert-letter", perms, "insert", ((2, 1), 2, 1), lambda v: v[::-1],
         3, "n=3 sigma=21 a=2 b=1"),
        ("closed-forms-pairs", qseries, "closed_form", (((1, 2, 3), (1, 3, 2)), 4),
         lambda v: v + 1, 4, "n=4 patterns=123,132"),
        ("equidistribution-321-132-213", qseries, "catalan_crs", (4,),
         lambda v: v + 1, 4, "n=4: differs from the Catalan distribution"),
        ("one-at-end-slice", bijections, "f_k", ((1, 2), 3), lambda v: v[::-1],
         3, "n=3: image set mismatch"),
        ("refinement-partition", enumeration, "_crs", (3, (), "last", 3),
         lambda v: v + 1, 3, "n=3: last-value cells do not partition"),
    ],
    ids=["crs-decomposition", "inverse-crossings", "append-one", "insert-one-k",
         "insert-front-j", "tail-fixed-insert-k", "theta-preserves-crs",
         "theta-preserves-crs-fp-exc", "theta-routes-agree", "gamma-preserves",
         "g-laws", "sum-ops", "phi-roundtrip", "f-laws-k", "insert-letter-a-b",
         "closed-forms-pairs", "equidistribution-catalan", "one-at-end-slice",
         "refinement-partition-last"],
)
def test_counterexample_strings_are_pinned(
    monkeypatch, check, module, attr, bad_args, corrupt, n, counterexample
):
    # one primitive goes wrong on a single input; the report must name the
    # smallest failing n, the member and the failing case exactly as before
    real = getattr(module, attr)

    def wrong(*args):
        out = real(*args)
        return corrupt(out) if args == bad_args else out

    monkeypatch.setattr(module, attr, wrong)
    entry = verify(check, n_max=5)["checks"][0]
    assert entry == {
        "name": check, "n": n, "status": "fail", "counterexample": counterexample
    }


def test_check_suites_walk_each_class_once(walks):
    # the crs total and both refinements read one cached tally
    report = verify("refinement-partition", n_max=5)
    assert report["checks"][0]["status"] == "pass"
    assert len(walks) == 15 and set(walks.values()) == {1}


def test_joint_distribution_walks_once_whatever_the_variable_names(walks):
    first = joint_distribution(5, (), ("crs", "nes"), variables=("q", "p"))
    second = joint_distribution(5, (), ("crs", "nes"), variables=("x", "y"))
    assert walks == {(5, ()): 1}
    assert first.variables == ("q", "p") and second.variables == ("x", "y")
    assert first.evaluate(q=1, p=1) == second.evaluate(x=1, y=1) == 120


def test_one_statistic_joint_and_distribution_share_a_walk(walks):
    joint = joint_distribution(5, ((3, 2, 1),), ("nes",))
    dist = distribution(DistributionQuery(5, ((3, 2, 1),), "nes"))
    assert joint.evaluate(q=1) == dist.count == 42
    assert walks == {(5, ((3, 2, 1),)): 1}


def test_refinements_of_a_class_share_one_walk(walks):
    # every refinement is a predicate on the key of the class's one tally
    pats = ((3, 2, 1),)
    total = distribution(DistributionQuery(5, pats)).count
    counts = {
        refinement: [
            distribution(DistributionQuery(5, pats, refinement=refinement, k=k)).count
            for k in range(1, 6)
        ]
        for refinement in ("one-at", "last", "tail")
    }
    assert sum(counts["one-at"]) == sum(counts["last"]) == total == 42
    assert counts["tail"] == [1, 0, 0, 0, 0]  # 23451 alone ends in 1
    assert walks == {(5, pats): 1}


# ---------------------------------------------------------------------------
# the crossing-distribution route


def _expected_source(pats):
    # the paper's list of solved classes, written out apart from qseries
    if set(pats) == {(1, 3, 2), (2, 1, 3)}:
        return "recurrence"
    if len(pats) == 2 or (len(pats) == 1 and pats[0] in ((1, 3, 2), (2, 1, 3), (3, 2, 1))):
        return "closed-form"
    return "enumeration"


def test_crs_route_names_its_source_and_agrees_with_the_tally():
    patterns3 = list(itertools.permutations((1, 2, 3)))
    sources = Counter()
    for size in range(len(patterns3) + 1):
        for subset in itertools.combinations(patterns3, size):
            source, at = enumeration.crs_route(subset[::-1])
            assert source == _expected_source(subset), subset
            sources[source] += 1
            for n in range(10 if subset else 9):
                assert at(n) == enumeration._crs(n, subset), (subset, n)
    assert sources == {"closed-form": 17, "recurrence": 1, "enumeration": 46}


def test_check_suites_never_ask_the_route(monkeypatch):
    # the suites check the formulas against the tally, so the route that
    # picks a formula must not stand in for either side
    def refuse(patterns):
        raise AssertionError(f"a check asked crs_route({patterns})")

    monkeypatch.setattr(enumeration, "crs_route", refuse)
    report = verify("all", 5)
    assert len(report["checks"]) == 44
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify("no-such-suite")


def test_verify_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="negative cap: -1"):
        verify("crs-decomposition", n_max=-1)
    with pytest.raises(ValueError, match="negative cap: -1"):
        verify("all", n_max=-1)
