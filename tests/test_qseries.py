from math import comb

import pytest

from crossperm.qseries import (
    MultiPoly,
    QPoly,
    Series,
    bi_bracket,
    catalan_crs,
    catalan_qp,
    cf_series,
    closed_form,
    crs_sigma_nkj,
    dist_213_132,
    dist_213_132_first,
    gamma_nk,
    inv_dist_321,
    q_bracket,
    r_table,
    rational_series,
    rec_213_132,
    sigma_nkj,
)
from crossperm import perms

# Crossing distributions computed by a standalone brute-force pass over
# S_n (direct definition scan, no package code), frozen here as goldens.
# Rows are n = 0..7, coefficients lowest power first.
ORACLE = {
    "321": [[1], [1], [2], [4, 1], [8, 4, 2], [16, 12, 9, 4, 1],
            [32, 32, 30, 20, 12, 4, 2], [64, 80, 88, 73, 56, 34, 20, 9, 4, 1]],
    "312": [[1], [1], [2], [5], [13, 1], [34, 7, 1], [89, 30, 11, 2],
            [233, 109, 57, 23, 6, 1]],
    "231": [[1], [1], [2], [4, 1], [8, 5, 1], [16, 15, 9, 2],
            [32, 40, 34, 19, 6, 1], [64, 100, 104, 81, 49, 23, 7, 1]],
    "321,231": [[1], [1], [2], [3, 1], [5, 2, 1], [8, 5, 2, 1],
                [13, 10, 6, 2, 1], [21, 20, 13, 7, 2, 1]],
    "123,132": [[1], [1], [2], [3, 1], [4, 3, 1], [5, 6, 4, 1],
                [6, 10, 10, 5, 1], [7, 15, 20, 15, 6, 1]],
    "321,132": [[1], [1], [2], [3, 1], [4, 1, 2], [5, 1, 2, 2, 1],
                [6, 1, 2, 2, 3, 0, 2], [7, 1, 2, 2, 3, 2, 2, 0, 2, 1]],
    "123,312": [[1], [1], [2], [4], [6, 1], [8, 3], [10, 4, 2], [12, 5, 4, 1]],
    "123,231": [[1], [1], [2], [3, 1], [4, 3], [5, 4, 2], [6, 5, 4, 1],
                [7, 6, 4, 4, 1]],
    "123,321": [[1], [1], [2], [3, 1], [1, 2, 1], [], [], []],
    "312,132": [[1], [1], [2], [4], [7, 1], [11, 4, 1], [16, 9, 5, 2],
                [22, 16, 13, 9, 3, 1]],
    "231,132": [[1], [1], [2], [3, 1], [4, 3, 1], [5, 5, 4, 2],
                [6, 7, 8, 7, 3, 1], [7, 9, 12, 14, 11, 7, 3, 1]],
    "213,132": [[1], [1], [2], [3, 1], [4, 2, 2], [5, 4, 3, 3, 1],
                [6, 7, 6, 4, 6, 1, 2], [7, 11, 11, 9, 10, 5, 5, 3, 2, 1]],
    "312,321": [[1], [1], [2], [4], [8], [16], [32], [64]],
}

# Inversion distributions over S_n(321), same standalone oracle.
INV_321 = [[1], [1], [1, 1], [1, 2, 2], [1, 3, 5, 4, 1], [1, 4, 9, 12, 10, 4, 2],
           [1, 5, 14, 25, 31, 26, 16, 9, 4, 1],
           [1, 6, 20, 44, 70, 82, 74, 54, 38, 22, 12, 4, 2]]


def pats(key):
    return tuple(tuple(int(c) for c in word) for word in key.split(","))


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_qpoly_arithmetic():
    p = QPoly((1, 2)) * QPoly((1, 2))  # (1+2q)^2
    assert p == QPoly((1, 4, 4))
    assert p - QPoly((1, 4, 4)) == QPoly.zero()
    assert QPoly((0, 1)) ** 3 == QPoly.q_power(3)
    assert 2 * QPoly((1, 1)) == QPoly((2, 2))


def test_qpoly_text():
    assert QPoly((11, 4, 1)).text() == "11 + 4*q + q^2"
    assert QPoly.zero().text() == "0"
    assert QPoly((0, 1)).text() == "q"
    assert QPoly((0, -1, 3)).text() == "-q + 3*q^2"


def test_qpoly_trims_trailing_zeros():
    assert QPoly((1, 1, 0, 0)) == QPoly((1, 1))
    assert QPoly((1, 1, 0)).json_coeffs() == [1, 1]


def test_qpoly_eval():
    assert QPoly((1, 4, 4))(1) == 9
    assert QPoly((1, 4, 4))(2) == 25


def test_multipoly_basics():
    x = MultiPoly.var(("x", "y"), "x")
    y = MultiPoly.var(("x", "y"), "y")
    assert (x + y).text() == "x + y"
    assert ((x + y) * (x + y)).text() == "x^2 + 2*x*y + y^2"
    assert (x * y - y * x) == MultiPoly.const(("x", "y"), 0)
    assert (x + y).is_symmetric()
    assert not (x + 2 * y).is_symmetric()


# one case per ring: a generator x and the polynomial 1 + x
RINGS = {
    "QPoly": (QPoly((0, 1)), QPoly((1, 1))),
    "MultiPoly": (MultiPoly.var(("x", "y"), "x"), MultiPoly(("x", "y"), {(0, 0): 1, (1, 0): 1})),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_int_on_the_left(ring):
    x, one_plus_x = RINGS[ring]
    assert 1 + x == one_plus_x
    assert 3 - one_plus_x == 2 - x
    assert (3 - one_plus_x) + one_plus_x == 3
    assert 2 * one_plus_x == one_plus_x + one_plus_x
    assert 0 * x == 0


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_power(ring):
    x, one_plus_x = RINGS[ring]
    assert x**0 == 1
    assert one_plus_x**0 == 1
    assert one_plus_x**3 == one_plus_x * one_plus_x * one_plus_x
    with pytest.raises(ValueError, match="negative exponent: -1"):
        x ** -1


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_equality_and_hash(ring):
    x, one_plus_x = RINGS[ring]
    assert one_plus_x - x == 1
    assert x != 1
    assert x - x == 0
    assert one_plus_x == x + 1
    assert hash(one_plus_x) == hash(x + 1)
    assert hash(x - x) == hash(0 * one_plus_x)
    assert len({one_plus_x, x + 1, 1 + x}) == 1


def test_qpoly_never_equals_multipoly():
    for poly in (QPoly.one(), QPoly((0, 1))):
        for multi in (MultiPoly.const(("q",), 1), MultiPoly.var(("q",), "q")):
            assert poly != multi
            assert not poly == multi
            assert not multi == poly


def test_multipoly_rejects_mismatches():
    x = MultiPoly.var(("x", "y"), "x")
    q = MultiPoly.var(("q", "p"), "q")
    for op in (lambda: x + q, lambda: x - q, lambda: x * q):
        with pytest.raises(ValueError, match="variable mismatch"):
            op()
    with pytest.raises(ValueError, match=r"exponent tuple \(1,\) does not match \('x', 'y'\)"):
        MultiPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError, match="does not match"):
        MultiPoly(("x", "y"), {(0, 0): 1, (1, 0, 0): 0})
    # a repeated name would print two terms as one, and var("q") could not
    # tell them apart
    with pytest.raises(ValueError, match=r"repeated variable name in \('q', 'q'\)"):
        MultiPoly(("q", "q"), {(0, 0): 4, (1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="repeated variable name"):
        MultiPoly.var(("x", "q", "x"), "q")


def test_multipoly_eval_poly():
    q = MultiPoly.var(("q", "p"), "q")
    p = MultiPoly.var(("q", "p"), "p")
    combined = q * q + p
    assert combined.eval_poly({"q": QPoly((0, 1)), "p": QPoly((0, 1))}) == QPoly(
        (0, 1, 1)
    )


def test_q_bracket():
    assert q_bracket(1) == QPoly.one()
    assert q_bracket(3) == QPoly((1, 1, 1))
    assert q_bracket(0) == QPoly.zero()


def test_bi_bracket():
    assert bi_bracket(2).text() == "x + y"
    assert bi_bracket(3).text() == "x^2 + x*y + y^2"


# ---------------------------------------------------------------------------
# series


def test_series_of_pads_and_truncates():
    s = Series.of([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0, 0)


def test_series_arithmetic_and_division():
    one = Series.of([1], order=6)
    z = Series.of([0, 1], order=6)
    geo = one / (one - z)
    assert geo.coeffs == (1,) * 7
    assert (geo * (one - z)).coeffs == (1,) + (0,) * 6


def test_rational_series_geometric():
    s = rational_series([1], [1, -1], order=5)
    assert s.coeffs == (1, 1, 1, 1, 1, 1)


def test_series_rejects_a_negative_order():
    with pytest.raises(ValueError, match=r"^negative order: -2$"):
        Series.of([1], -2)
    with pytest.raises(ValueError, match=r"^negative order: -1$"):
        rational_series([1], [1, -1], -1)
    with pytest.raises(ValueError, match=r"^negative order: -1$"):
        cf_series([1], -1)


def test_cf_series_all_ones_gives_catalan():
    s = cf_series([1] * 12, order=8)
    assert s.coeffs == tuple(comb(2 * n, n) // (n + 1) for n in range(9))


def test_cf_series_q_ladder_matches_catalan_crs():
    # ladder 1, 1, q, q, q^2, q^2, ... produces the crossing q-Catalans
    ladder = [QPoly.q_power((i + 1) // 2 - 1) for i in range(1, 23)]
    s = cf_series(ladder, order=10)
    for n in range(11):
        assert s.coeffs[n] == catalan_crs(n), n


def oracle_series(key, order=7):
    return Series.of([QPoly(row) for row in ORACLE[key]], order=order)


def test_gf_312_versus_231():
    # F(312; q, z) = 1 / (1 - z F(231; q, z)), coefficientwise to z^7
    f312 = oracle_series("312")
    f231 = oracle_series("231")
    z = Series.of([0, 1], order=7)
    one = Series.of([1], order=7)
    assert (f312 * (one - z * f231)).coeffs == one.coeffs


def test_gf_pair_with_123():
    # F(312,123) = 1 + (z/(1-z))^2 + z F(231,123)
    lhs = oracle_series("123,312")
    rhs_tail = oracle_series("123,231")
    one = Series.of([1], order=7)
    z = Series.of([0, 1], order=7)
    z_over = z / (one - z)
    assert lhs.coeffs == (one + z_over * z_over + z * rhs_tail).coeffs


def test_gf_pair_with_132():
    # F(312,132) = 1 + (z/(1-z)) F(231,132)
    lhs = oracle_series("312,132")
    rhs_tail = oracle_series("231,132")
    one = Series.of([1], order=7)
    z = Series.of([0, 1], order=7)
    assert lhs.coeffs == (one + (z / (one - z)) * rhs_tail).coeffs


# ---------------------------------------------------------------------------
# q,p-Catalan family


def test_catalan_qp_golden():
    assert catalan_qp(0) == MultiPoly.const(("q", "p"), 1)
    assert catalan_qp(3).text() == "1 + 2*q + q^2 + q*p"


def test_catalan_crs_matches_oracle():
    for n, row in enumerate(ORACLE["321"]):
        assert catalan_crs(n).json_coeffs() == row, n


def test_catalan_crs_anchors():
    assert catalan_crs(3) == QPoly((4, 1))
    assert catalan_crs(4) == QPoly((8, 4, 2))


def test_catalan_crs_is_the_substitution_q_1_p_q():
    q = QPoly((0, 1))
    for n in range(17):
        assert catalan_crs(n) == catalan_qp(n).eval_poly({"q": 1, "p": q}), n


def test_inv_dist_matches_oracle_and_diagonal():
    for n, row in enumerate(INV_321):
        assert inv_dist_321(n).json_coeffs() == row, n
    q = QPoly((0, 1))
    for n in range(9):
        diag = catalan_qp(n).eval_poly({"q": q, "p": q})
        assert inv_dist_321(n) == diag, n


@pytest.mark.parametrize("recurrence", [catalan_qp, inv_dist_321])
def test_cached_recurrence_ignores_call_order(recurrence):
    recurrence.cache_clear()
    big_first = [recurrence(8), recurrence(3)]
    recurrence.cache_clear()
    small_first = [recurrence(3), recurrence(8)][::-1]
    assert big_first == small_first
    with pytest.raises(ValueError, match="negative index: -1"):
        recurrence(-1)


# ---------------------------------------------------------------------------
# the R-table


def test_r_table_anchors():
    table = r_table(6)
    assert table[5][0] == QPoly((11, 4, 1))
    assert table[4][2] == QPoly((1, 1))
    assert table[3][3] == QPoly.one()


def test_r_table_column_values_at_one():
    table = r_table(9)
    for n in range(1, 10):
        for k in range(n):
            assert table[n][k](1) == 2 ** (n - 1 - k), (n, k)
        assert table[n][n](1) == 1


def test_r_table_matches_pair_classes():
    table = r_table(8)
    for n in range(8):
        assert table[n][0].json_coeffs() == ORACLE["312,132"][n]
    for n in range(7):
        assert table[n + 1][1].json_coeffs() == ORACLE["231,132"][n]


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize(
    "key",
    ["321,231", "123,132", "321,132", "123,312", "123,231", "123,321",
     "312,132", "231,132", "312,321"],
)
def test_closed_form_matches_oracle(key):
    for n, row in enumerate(ORACLE[key]):
        assert closed_form(pats(key), n).json_coeffs() == row, (key, n)


def test_closed_form_symmetry_aliases():
    # 213 plays the same role as 132 against 321, 312, 231 and 123
    for left in ("321", "312", "231", "123"):
        for n in range(7):
            key = f"{left},132"
            assert closed_form(pats(f"{left},213"), n) == closed_form(pats(key), n)


def test_closed_form_singletons():
    for key in ("321", "132", "213"):
        for n in range(8):
            assert closed_form(pats(key), n).json_coeffs() == ORACLE["321"][n]


@pytest.mark.parametrize("key", ["123", "231", "312", "132,213"])
def test_closed_form_rejects_unsolved(key):
    with pytest.raises(ValueError):
        closed_form(pats(key), 5)


# ---------------------------------------------------------------------------
# the {213,132} refined recurrence


def test_dist_213_132_matches_oracle():
    for n, row in enumerate(ORACLE["213,132"]):
        assert dist_213_132(n).json_coeffs() == row, n


def test_rec_213_132_case_boundaries():
    assert rec_213_132(6, 4, 4) == QPoly.zero()  # j >= k
    assert rec_213_132(6, 4, 3) == QPoly.q_power(6)  # j = k-1
    assert rec_213_132(5, 5, 4) == QPoly.one()  # singleton 2345...1 shape


def test_rec_213_132_aggregation_identities():
    for n in range(1, 9):
        assert dist_213_132_first(n, 1) == QPoly.one()
        assert dist_213_132_first(n, n) == dist_213_132(n - 1)
        total = QPoly.zero()
        for k in range(1, n + 1):
            total = total + dist_213_132_first(n, k)
        assert total == dist_213_132(n)


def test_rec_213_132_cells_match_enumeration():
    from collections import Counter
    from crossperm.enumeration import generate

    n = 6
    cells = {}
    for s in generate(n, pats("213,132")):
        key = (s.index(1) + 1, n + 1 - s[0])
        cells.setdefault(key, Counter())[perms.crs(s)] += 1
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            counter = cells.get((k, j), Counter())
            want = [counter.get(i, 0) for i in range(max(counter) + 1)] if counter else []
            assert rec_213_132(n, k, j).json_coeffs() == want, (k, j)


# ---------------------------------------------------------------------------
# the three-block words


def test_sigma_nkj_golden():
    assert sigma_nkj(7, 2, 3) == (5, 4, 3, 7, 6, 2, 1)
    assert sigma_nkj(5, 2, 3) == (5, 4, 3, 2, 1)  # j = n-k collapses to n...1
    assert sigma_nkj(5, 0, 2) == (2, 1, 5, 4, 3)


def test_sigma_nkj_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sigma_nkj(5, 6, 1)
    with pytest.raises(ValueError):
        sigma_nkj(5, 2, 4)


def test_crs_sigma_nkj_matches_direct_count():
    for n in range(1, 11):
        for k in range(0, n + 1):
            top = n - k if k else n - 1
            for j in range(1, top + 1):
                word = sigma_nkj(n, k, j)
                assert crs_sigma_nkj(n, k, j) == perms.crs(word), (n, k, j)


def test_crs_sigma_nkj_pinned_values():
    # interior cases where the middle-block reach clamps partially
    assert crs_sigma_nkj(11, 5, 3) == 8
    assert crs_sigma_nkj(12, 5, 3) == 9
    assert crs_sigma_nkj(10, 2, 5) == 1
    assert crs_sigma_nkj(6, 3, 1) == 2  # wide-first-block case j(n-k-j)


def test_crs_sigma_nkj_degenerate_rows():
    for n in range(2, 10):
        for k in range(1, n):
            assert crs_sigma_nkj(n, k, n - k) == 0
        for j in range(1, n):
            assert crs_sigma_nkj(n, 0, j) == 0


def test_crs_sigma_nkj_mirror_symmetry():
    for n in range(2, 12):
        for k in range(1, n - 1):
            for j in range(1, n - k):
                assert crs_sigma_nkj(n, k, j) == crs_sigma_nkj(n, k, n - k - j)


def test_gamma_nk():
    # nonzero only when the j-profile has a doubly counted middle term
    assert gamma_nk(6, 2) == QPoly.q_power(crs_sigma_nkj(6, 2, 2))
    assert gamma_nk(6, 3) == QPoly.zero()
    assert gamma_nk(7, 2) == QPoly.zero()
    with pytest.raises(ValueError):
        gamma_nk(5, 0)
