import functools
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from crossperm import perms
from crossperm.perms import (
    alpha_k,
    as_perm,
    avoids,
    contains_pattern,
    crossings,
    crs,
    crs_star,
    des,
    direct_product,
    direct_sum,
    exc,
    fp,
    identity,
    insert,
    inv,
    inverse,
    involution,
    lt_set,
    lt_stat,
    maj,
    nes,
    nestings,
    prepend_sets,
    product_decompose,
    reduce_word,
    sum_decompose,
    ut_set,
    ut_stat,
)


def small_perms(n_max=6):
    for n in range(n_max + 1):
        for p in itertools.permutations(range(1, n + 1)):
            yield p


perm_strategy = st.integers(0, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


# ---------------------------------------------------------------------------
# construction and containment


def test_as_perm_accepts_permutations():
    assert as_perm([2, 1, 3]) == (2, 1, 3)
    assert as_perm(()) == ()


@pytest.mark.parametrize("bad", [[1, 1], [2, 3], [0, 1], [1, 2, 4]])
def test_as_perm_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        as_perm(bad)


def test_reduce_word():
    assert reduce_word((4, 7, 5)) == (1, 3, 2)
    assert reduce_word((9, 2)) == (2, 1)
    assert reduce_word(()) == ()


def test_contains_pattern_golden():
    assert contains_pattern((3, 1, 4, 2), (2, 1, 3))
    assert not contains_pattern((4, 3, 2, 1), (1, 2))
    assert contains_pattern((1, 2, 3), (1, 2, 3))
    assert not contains_pattern((1, 2), (1, 2, 3))


def test_contains_matches_brute_force_on_s5():
    # reference: reduce every subsequence of tau's length; every tau of
    # length 1-4 against every sigma of size at most 7
    reduce = functools.cache(reduce_word)  # the same short words recur
    for n in range(8):
        for sigma in itertools.permutations(range(1, n + 1)):
            for m in range(1, 5):
                present = {reduce(c) for c in itertools.combinations(sigma, m)}
                for tau in itertools.permutations(range(1, m + 1)):
                    found = contains_pattern(sigma, tau)
                    assert found == (tau in present), (sigma, tau)


def test_avoids():
    assert avoids((2, 1, 3), [(3, 2, 1)])
    assert not avoids((3, 2, 1), [(3, 2, 1)])
    assert avoids((3, 1, 2), [])


# ---------------------------------------------------------------------------
# crossings and nestings


def test_crossings_golden():
    sigma = (4, 7, 3, 5, 1, 2, 6)
    assert crossings(sigma) == frozenset({(1, 2), (5, 6), (6, 7)})
    assert nestings(sigma) == frozenset({(2, 4), (3, 5), (3, 6)})
    assert crs(sigma) == 3
    assert nes(sigma) == 3


@pytest.mark.parametrize(
    "sigma, expected",
    [
        ((), 0),
        ((1,), 0),
        ((2, 1), 0),
        ((2, 3, 1), 0),
        ((3, 1, 2), 1),
        ((3, 2, 1), 0),
        ((3, 4, 1, 2), 2),
        ((3, 4, 5, 1, 2), 3),
    ],
)
def test_crs_small_values(sigma, expected):
    assert crs(sigma) == expected


def _pair_inversions(sigma):
    return sum(1 for a, b in itertools.combinations(sigma, 2) if a > b)


def _random_words():
    rng = random.Random(20220516)
    for n in (20, 50, 200):
        for _ in range(200):
            yield tuple(rng.sample(range(1, n + 1), n))


def test_folds_match_the_pair_sets():
    # crs, nes and inv are folds over the letters; the pair sets and a pair
    # count are their oracle, on all of S_n for n <= 8 and on random words
    for sigma in itertools.chain(small_perms(8), _random_words()):
        assert crs(sigma) == len(crossings(sigma)), sigma
        assert nes(sigma) == len(nestings(sigma)), sigma
        assert inv(sigma) == _pair_inversions(sigma), sigma


def test_identity_has_no_arcs_crossing():
    for n in range(6):
        assert crs(identity(n)) == 0
        assert nes(identity(n)) == 0


@given(perm_strategy)
def test_crs_equals_inv_minus_exc_minus_two_nes(sigma):
    assert crs(sigma) == inv(sigma) - exc(sigma) - 2 * nes(sigma)


@given(perm_strategy)
def test_crs_splits_into_star_and_lower_tail(sigma):
    assert crs(sigma) == crs_star(sigma) + lt_stat(sigma)


@given(perm_strategy)
def test_crs_invariant_under_rci(sigma):
    assert crs(involution(sigma, "rci")) == crs(sigma)


def test_classic_stats_golden():
    sigma = (4, 7, 3, 5, 1, 2, 6)
    assert inv(sigma) == 12
    assert exc(sigma) == 3
    assert fp(sigma) == 1
    assert des(sigma) == 2
    assert maj(sigma) == 2 + 4


# ---------------------------------------------------------------------------
# symmetry maps


def test_involution_kinds():
    sigma = (4, 1, 5, 3, 2)
    assert involution(sigma, "r") == (2, 3, 5, 1, 4)
    assert involution(sigma, "c") == (2, 5, 1, 3, 4)
    assert involution(sigma, "i") == inverse(sigma)
    assert involution(sigma, "rc") == (4, 3, 1, 5, 2)
    with pytest.raises(ValueError):
        involution(sigma, "x")


@given(perm_strategy)
def test_inverse_is_involutive(sigma):
    assert inverse(inverse(sigma)) == sigma


@given(perm_strategy)
def test_crs_of_inverse(sigma):
    assert crs(inverse(sigma)) == crs(sigma) + ut_stat(sigma) - lt_stat(sigma)


@given(perm_strategy)
def test_crs_of_reverse_complement(sigma):
    rc = involution(sigma, "rc")
    assert crs(rc) == crs(sigma) + ut_stat(sigma) - lt_stat(sigma)


# ---------------------------------------------------------------------------
# insertion operators


def test_insert_bumps_then_places():
    assert insert((2, 1), 2, 1) == (3, 1, 2)
    assert insert((2, 1), 1, 3) == (3, 2, 1)
    assert insert((), 1, 1) == (1,)
    assert insert((1, 2), 3, 3) == (1, 2, 3)


def test_insert_rejects_out_of_range():
    with pytest.raises(ValueError):
        insert((1, 2), 4, 1)
    with pytest.raises(ValueError):
        insert((1, 2), 1, 0)


@given(perm_strategy)
def test_crs_after_appending_smallest(sigma):
    n = len(sigma)
    grown = insert(sigma, n + 1, 1)
    assert crs(grown) == crs(sigma) + ut_stat(sigma) - lt_stat(sigma)


def test_crs_after_inserting_smallest_anywhere():
    for sigma in small_perms(5):
        n = len(sigma)
        ut, lt = ut_set(sigma), lt_set(sigma)
        for k in range(1, n + 1):
            ut_minus = sum(1 for i in ut if i < k)
            lt_minus = sum(1 for i in lt if i < k)
            got = crs(insert(sigma, k, 1))
            assert got == crs(sigma) + ut_minus - lt_minus + alpha_k(sigma, k)


def test_crs_after_prepending_any_letter():
    for sigma in small_perms(5):
        n = len(sigma)
        for j in range(1, n + 2):
            x_j, y_j, z_j = prepend_sets(sigma, j)
            got = crs(insert(sigma, 1, j))
            want = crs(sigma) + len(x_j) + len(y_j) - len(z_j)
            assert got == want, (sigma, j)


def test_prepend_sets_golden():
    sigma = (1, 4, 5, 2, 3)
    assert prepend_sets(sigma, 5) == ({3}, {1}, {(2, 3)})
    assert (crs(sigma), crs(insert(sigma, 1, 5))) == (2, 3)
    for j in (0, len(sigma) + 2):
        with pytest.raises(ValueError, match=f"^j out of range: {j}$"):
            prepend_sets(sigma, j)


# ---------------------------------------------------------------------------
# direct sum and direct product


def test_direct_sum_golden():
    assert direct_sum((2, 1), (1, 2)) == (2, 1, 3, 4)
    assert direct_sum((), (1,)) == (1,)


def test_direct_product_golden():
    assert direct_product((1,), (1,)) == (1, 2)
    assert direct_product((3, 1, 2), (5, 4, 3, 6, 1, 2)) == (8, 7, 5, 3, 4, 6, 9, 1, 2)
    with pytest.raises(ValueError):
        direct_product((1, 3, 2), (1,))


@given(perm_strategy, perm_strategy)
def test_crs_additive_over_direct_sum(s1, s2):
    assert crs(direct_sum(s1, s2)) == crs(s1) + crs(s2)


def test_crs_additive_over_direct_product():
    for s1 in small_perms(4):
        for s2 in small_perms(3):
            if not s1 or not s2:
                continue
            if not avoids(s1, [(1, 3, 2)]) or not avoids(s2, [(1, 3, 2)]):
                continue
            assert crs(direct_product(s1, s2)) == crs(s1) + crs(s2)


@given(perm_strategy)
def test_sum_decompose_roundtrip(sigma):
    back = ()
    for part in sum_decompose(sigma):
        back = direct_sum(back, part)
    assert back == sigma
    for part in sum_decompose(sigma):
        assert len(sum_decompose(part)) <= 1


def test_product_decompose_roundtrip_on_132_avoiders():
    for sigma in small_perms(6):
        if not avoids(sigma, [(1, 3, 2)]):
            continue
        parts = product_decompose(sigma)
        back = parts[-1] if parts else ()
        for part in reversed(parts[:-1]):
            back = direct_product(part, back)
        assert back == sigma
