import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import crossperm
from crossperm import bijections, perms
from crossperm.bijections import (
    as_dyck,
    f_k,
    g_k,
    gamma,
    matching_set,
    phi,
    phi_inverse,
    psi,
    rsk_by_bumping,
    rsk_two_row,
    theta_inverse,
    theta_pipeline,
    theta_recursive,
    tunnel_counts,
    tunnels,
)
from crossperm.enumeration import generate
from samplers import two_run_merges


def avoiders(n, pattern):
    return list(generate(n, (pattern,)))


def dyck_words(n):
    # all balanced words with 2n steps, every prefix u-heavy
    def grow(word, ups, downs):
        if ups == n and downs == n:
            yield "".join(word)
            return
        if ups < n:
            yield from grow(word + ["u"], ups + 1, downs)
        if downs < ups:
            yield from grow(word + ["d"], ups, downs + 1)

    yield from grow([], 0, 0)


# ---------------------------------------------------------------------------
# dyck words and tunnels


def test_as_dyck_accepts_balanced_words():
    assert as_dyck("") == ""
    assert as_dyck("ud") == "ud"
    assert as_dyck("uudd") == "uudd"


@pytest.mark.parametrize("bad", ["u", "du", "udx", "uddu"])
def test_as_dyck_rejects_invalid(bad):
    with pytest.raises(ValueError):
        as_dyck(bad)


def test_tunnels_golden():
    word = "ududuuuddudduudd"
    assert tunnel_counts(word) == (4, 1, 3)
    for t in tunnels(word):
        assert word[t.up_index - 1] == "u"
        assert word[t.down_index - 1] == "d"
        assert t.up_index < t.down_index


def test_tunnel_count_partition():
    for word in dyck_words(5):
        left, centered, right = tunnel_counts(word)
        assert left + centered + right == 5


# ---------------------------------------------------------------------------
# matching and RSK on 321-avoiders


def test_matching_set_golden():
    assert matching_set((4, 3, 1, 5, 2)) == ((4, 3), (3, 5))
    assert matching_set((2, 4, 1, 3, 5, 8, 6, 7)) == ((2, 3), (4, 4), (8, 7))
    assert matching_set((1, 2, 3)) == ()


def test_rsk_two_row_rejects_321():
    with pytest.raises(ValueError):
        rsk_two_row((3, 2, 1))


def test_rsk_routes_agree_exhaustively():
    for n in range(7):
        for sigma in avoiders(n, (3, 2, 1)):
            assert rsk_two_row(sigma) == rsk_by_bumping(sigma), sigma


def test_rsk_duality():
    # inverting the permutation swaps the tableaux
    for sigma in avoiders(6, (3, 2, 1)):
        pair = rsk_two_row(sigma)
        dual = rsk_two_row(perms.inverse(sigma))
        assert (pair.p_row1, pair.p_row2) == (dual.q_row1, dual.q_row2)
        assert (pair.q_row1, pair.q_row2) == (dual.p_row1, dual.p_row2)


def test_rsk_by_bumping_rejects_deep_words():
    with pytest.raises(ValueError):
        rsk_by_bumping((3, 2, 1))


def test_tableau_pair_rejects_malformed_rows_under_optimize():
    # validation must not vanish with the asserts under python -O
    code = (
        "from crossperm.bijections import TableauPair\n"
        "try:\n"
        "    TableauPair((2, 1), (), (1, 2), ())\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(crossperm.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "rejected\n"


# ---------------------------------------------------------------------------
# psi, phi and the crossing-preserving composite


def test_psi_golden():
    assert psi((2, 4, 1, 3, 5, 8, 6, 7)) == "ududuuuddudduudd"
    assert psi((1,)) == "ud"
    assert psi(()) == ""


def test_psi_injective_and_balanced():
    for n in range(7):
        images = {psi(s) for s in avoiders(n, (3, 2, 1))}
        assert len(images) == len(avoiders(n, (3, 2, 1)))
        for word in images:
            as_dyck(word)


def test_phi_inverse_golden():
    assert phi_inverse("ududuuuddudduudd") == (7, 8, 5, 3, 4, 6, 2, 1)
    assert phi_inverse("ud") == (1,)


def test_phi_roundtrip():
    for n in range(7):
        for word in dyck_words(n):
            alpha = phi_inverse(word)
            assert perms.avoids(alpha, [(1, 3, 2)])
            assert phi(alpha) == word


def test_phi_rejects_non_avoiders():
    with pytest.raises(ValueError):
        phi((1, 3, 2))


def test_theta_golden():
    assert theta_pipeline((2, 4, 1, 3, 5, 8, 6, 7)) == (7, 8, 5, 3, 4, 6, 2, 1)


def test_theta_routes_agree():
    for n in range(8):
        for sigma in avoiders(n, (3, 2, 1)):
            assert theta_recursive(sigma) == theta_pipeline(sigma), sigma


def test_theta_preserves_crossings():
    for n in range(8):
        for sigma in avoiders(n, (3, 2, 1)):
            image = theta_pipeline(sigma)
            assert perms.avoids(image, [(1, 3, 2)])
            assert perms.crs(image) == perms.crs(sigma), sigma


def test_theta_inverse_roundtrip():
    for n in range(7):
        seen = set()
        for sigma in avoiders(n, (3, 2, 1)):
            image = theta_pipeline(sigma)
            assert theta_inverse(image) == sigma
            seen.add(image)
        # bijective onto the 132-avoiders
        assert seen == set(avoiders(n, (1, 3, 2)))


def test_theta_exchanges_sum_with_product():
    # the factors swap sides: theta(s1 + s2) = theta(s2) x theta(s1)
    for s1 in avoiders(3, (3, 2, 1)) + avoiders(4, (3, 2, 1)):
        for s2 in avoiders(3, (3, 2, 1)):
            lhs = theta_pipeline(perms.direct_sum(s1, s2))
            rhs = perms.direct_product(theta_pipeline(s2), theta_pipeline(s1))
            assert lhs == rhs, (s1, s2)


# ---------------------------------------------------------------------------
# the one-pass theta and theta_inverse against their definitions


def definition_steps(sigma):
    # per prefix: reduce it, k = its last letter, j = 1 + the matched
    # excedance values <= k; the step is insert(result, l - k + j, j)
    steps = []
    for l in range(1, len(sigma) + 1):
        prefix = perms.reduce_word(sigma[:l])
        k = prefix[-1]
        j = sum(1 for value, _ in matching_set(prefix) if value <= k) + 1
        steps.append((l - k + j, j))
    return steps


def theta_by_definition(sigma):
    result = ()
    for i, j in definition_steps(sigma):
        result = perms.insert(result, i, j)
    return result


def theta_inverse_by_definition(alpha):
    # peel the leftmost weak deficiency and reduce what is left
    ops = []
    word = alpha
    while len(word) > 1:
        m = len(word)
        l = next(i for i in range(1, m + 1) if word[i - 1] <= i)
        ops.append(m - l + word[l - 1])
        word = perms.reduce_word(word[: l - 1] + word[l:])
    result = word
    for x in reversed(ops):
        result = perms.insert(result, len(result) + 1, x)
    return result


def test_theta_steps_read_the_prefix_lemma_off_the_row_insertion():
    # every prefix of every 321-avoider: c + 1 from the two-row insertion
    # is 1 + #{matched excedance values <= k} of the reduced prefix
    for n in range(9):
        for sigma in avoiders(n, (3, 2, 1)):
            assert bijections._theta_steps(sigma) == definition_steps(sigma), sigma


def test_theta_and_gamma_match_the_definition():
    batches = [avoiders(n, (3, 2, 1)) for n in range(10)]
    batches += [two_run_merges(20, 150, 2018), two_run_merges(40, 60, 4018)]
    for batch in batches:
        for sigma in batch:
            assert bijections.theta(sigma) == theta_by_definition(sigma), sigma
            rci = perms.involution(sigma, "rci")
            assert gamma(sigma) == theta_by_definition(rci), sigma


def test_theta_inverse_matches_the_definition():
    batches = [avoiders(n, (1, 3, 2)) for n in range(10)]
    batches += [
        [theta_pipeline(s) for s in two_run_merges(n, count, seed)]
        for n, count, seed in ((20, 150, 2019), (40, 60, 4019))
    ]
    for batch in batches:
        for alpha in batch:
            assert theta_inverse(alpha) == theta_inverse_by_definition(alpha), alpha


# ---------------------------------------------------------------------------
# gamma and the f/g companions


def test_gamma_preserves_fp_exc_crs_triple():
    for n in range(8):
        images = set()
        for sigma in avoiders(n, (3, 2, 1)):
            image = gamma(sigma)
            want = (perms.fp(sigma), perms.exc(sigma), perms.crs(sigma))
            assert (perms.fp(image), perms.exc(image), perms.crs(image)) == want
            images.add(image)
        assert images == set(avoiders(n, (1, 3, 2)))


@pytest.mark.parametrize("name", ["theta", "theta_pipeline", "gamma"])
def test_composite_maps_scan_once_and_name_themselves(name, monkeypatch):
    fn = getattr(bijections, name)
    with pytest.raises(ValueError, match=f"^{name} requires a 321-avoiding input$"):
        fn((3, 2, 1))
    scans = []
    real = bijections.contains_pattern
    monkeypatch.setattr(
        bijections, "contains_pattern", lambda s, t: scans.append(t) or real(s, t)
    )
    fn((2, 4, 1, 3, 5, 8, 6, 7))
    assert scans == [(3, 2, 1)]


@pytest.mark.parametrize(
    "name",
    ["theta", "theta_recursive", "theta_pipeline", "theta_inverse", "gamma",
     "psi", "rsk_two_row", "phi", "f_k"],
)
@pytest.mark.parametrize("word", [(3,), (2, 3), (0, 1), (1, 1)])
def test_public_maps_reject_non_permutations(name, word):
    # f_k takes k = 1, which every length fits
    fn = getattr(bijections, name)
    args = (word, 1) if name == "f_k" else (word,)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\."):
        fn(*args)


def test_f_k_golden():
    assert f_k((2, 1, 3), 4) == (3, 2, 4, 1)
    assert f_k((), 1) == (1,)


def test_f_k_placement_and_crossing_laws():
    for sigma in itertools.chain.from_iterable(
        itertools.permutations(range(1, m + 1)) for m in range(6)
    ):
        n = len(sigma) + 1
        for k in range(1, n + 1):
            assert f_k(sigma, k)[k - 1] == 1
        assert perms.crs(f_k(sigma, n)) == perms.crs(sigma)
        assert f_k(sigma, 1) == perms.direct_sum((1,), perms.inverse(sigma))


def test_f_n_maps_231_avoiders_onto_312_slice():
    for n in range(1, 8):
        image = {f_k(s, n) for s in avoiders(n - 1, (2, 3, 1))}
        target = {s for s in avoiders(n, (3, 1, 2)) if s[-1] == 1}
        assert image == target


def test_g_k_is_a_crossing_preserving_involution():
    for sigma in itertools.chain.from_iterable(
        itertools.permutations(range(1, m + 1)) for m in range(1, 7)
    ):
        n = len(sigma)
        k = sigma.index(1) + 1
        image = g_k(sigma)
        assert image[n - k] == 1
        assert perms.crs(image) == perms.crs(sigma)
        assert g_k(image) == sigma
