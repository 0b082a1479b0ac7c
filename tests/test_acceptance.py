"""Acceptance gate: one test per criterion, exact identities, stated budgets.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Where a runtime budget is stated it is asserted, not just hoped.
"""

import ast
import itertools
import json
import pathlib
import time
from collections import Counter

import crossperm
from crossperm import bijections, cli, perms
from crossperm.enumeration import (
    DistributionQuery,
    distribution,
    generate,
    joint_distribution,
    verify,
)
from crossperm.qseries import (
    MultiPoly,
    QPoly,
    Series,
    catalan_crs,
    catalan_qp,
    cf_series,
    closed_form,
    crs_sigma_nkj,
    dist_213_132,
    inv_dist_321,
    r_table,
    rational_series,
    sigma_nkj,
)

P = {word: tuple(int(c) for c in word) for word in
     ("123", "132", "213", "231", "312", "321")}


def crs_poly(n, *patterns):
    return distribution(
        DistributionQuery(n=n, patterns=tuple(P[w] for w in patterns))
    ).polynomial


def crs_series(order, *patterns):
    return Series.of([crs_poly(n, *patterns) for n in range(order + 1)], order=order)


def test_criterion_01_theta_preserves_crossings():
    start = time.perf_counter()
    for n in range(11):
        for sigma in generate(n, (P["321"],)):
            assert perms.crs(bijections.theta(sigma)) == perms.crs(sigma), sigma
    assert time.perf_counter() - start < 10.0


def test_criterion_02_theta_formulations_agree():
    start = time.perf_counter()
    for n in range(10):
        for sigma in generate(n, (P["321"],)):
            assert bijections.theta_recursive(sigma) == bijections.theta_pipeline(
                sigma
            ), sigma
    assert time.perf_counter() - start < 10.0


def test_criterion_03_equidistribution_and_continued_fraction():
    start = time.perf_counter()
    ladder = [QPoly.q_power((i + 1) // 2 - 1) for i in range(1, 25)]
    fraction = cf_series(ladder, order=10)
    for n in range(11):
        reference = crs_poly(n, "321")
        assert crs_poly(n, "132") == reference
        assert crs_poly(n, "213") == reference
        assert catalan_crs(n) == reference
        assert fraction.coeffs[n] == reference
    assert crs_poly(3, "321") == QPoly((4, 1))
    assert crs_poly(4, "321") == QPoly((8, 4, 2))
    assert time.perf_counter() - start < 20.0


def test_criterion_04_exc_crs_catalan_and_fp_exc_crs_equidistribution():
    for n in range(9):
        assert joint_distribution(n, (P["321"],), ("exc", "crs")) == catalan_qp(n)
        reference = joint_distribution(n, (P["321"],), ("fp", "exc", "crs"))
        for word in ("132", "213"):
            assert joint_distribution(n, (P[word],), ("fp", "exc", "crs")) == reference


def test_criterion_05_generating_function_relations():
    order = 10
    one = Series.of([1], order=order)
    z = Series.of([0, 1], order=order)
    z_over = rational_series([0, 1], [1, -1], order)

    f312 = crs_series(order, "312")
    f231 = crs_series(order, "231")
    assert (f312 * (one - z * f231)).coeffs == one.coeffs

    lhs = crs_series(order, "312", "123")
    rhs = one + z_over * z_over + z * crs_series(order, "231", "123")
    assert lhs.coeffs == rhs.coeffs

    for tau in ("132", "213"):
        lhs = crs_series(order, "312", tau)
        for tau2 in ("132", "213"):
            rhs = one + z_over * crs_series(order, "231", tau2)
            assert lhs.coeffs == rhs.coeffs, (tau, tau2)


def test_criterion_06_pair_closed_forms_match_brute_force():
    start = time.perf_counter()
    pairs = [
        ("321", "231"), ("123", "132"), ("123", "213"), ("321", "132"),
        ("321", "213"), ("123", "321"), ("312", "321"), ("312", "231"),
        ("312", "132"), ("312", "213"), ("231", "132"), ("231", "213"),
        ("123", "312"), ("123", "231"),
    ]
    for a, b in pairs:
        for n in range(13):
            assert closed_form((P[a], P[b]), n) == crs_poly(n, a, b), (a, b, n)
    # the recurrence-only pair rides along at the same cap
    for n in range(13):
        assert dist_213_132(n) == crs_poly(n, "213", "132"), n
    # anchors and the stated degenerate behaviors
    assert closed_form((P["321"], P["231"]), 4) == QPoly((5, 2, 1))
    assert closed_form((P["123"], P["132"]), 4) == QPoly((4, 3, 1))
    assert closed_form((P["321"], P["213"]), 4) == QPoly((4, 1, 2))
    for n in range(5, 13):
        assert closed_form((P["123"], P["321"]), n) == QPoly.zero(), n
    for n in range(13):
        for pair in (("312", "321"), ("312", "231")):
            poly = closed_form((P[pair[0]], P[pair[1]]), n)
            assert poly.json_coeffs() in ([], [2 ** max(n - 1, 0)]), (pair, n)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_r_table_identities():
    table = r_table(12)
    assert table[5][0] == QPoly((11, 4, 1))
    assert table[4][2] == QPoly((1, 1))
    for tau in ("132", "213"):
        for n in range(11):
            assert crs_poly(n, "312", tau) == table[n][0], (tau, n)
            assert crs_poly(n, "231", tau) == table[n + 1][1], (tau, n)
    for n in range(1, 13):
        for k in range(n):
            assert table[n][k](1) == 2 ** (n - 1 - k), (n, k)


def test_criterion_08_pascal_rows_from_refined_classes():
    for n in range(2, 11):
        binomial = (QPoly((1, 1))) ** (n - 2)
        one_at = distribution(
            DistributionQuery(
                n=n, patterns=(P["123"], P["132"]), refinement="one-at", k=n - 1
            )
        ).polynomial
        last2 = distribution(
            DistributionQuery(
                n=n, patterns=(P["123"], P["213"]), refinement="last", k=2
            )
        ).polynomial
        assert one_at == binomial, n
        assert last2 == binomial, n


def test_criterion_09_insertion_lemma_suite():
    lemma_checks = {
        "insert-letter": 7,
        "inverse-crossings": 7,
        "append-one": 7,
        "insert-one": 7,
        "reverse-complement": 7,
        "insert-front": 7,
        "tail-fixed-insert": 7,
        "sigma-words": 14,
    }
    for name, cap in lemma_checks.items():
        report = verify(name, n_max=cap)
        (check,) = report["checks"]
        assert check["status"] == "pass", check
        assert check["n"] == cap
    # spot assertion that the closed form really is the direct count
    for n in range(1, 15):
        for k in range(n + 1):
            top = n - k if k else n - 1
            for j in range(1, top + 1):
                assert crs_sigma_nkj(n, k, j) == perms.crs(sigma_nkj(n, k, j))


def test_criterion_10_symmetry_and_decomposition():
    for n in range(9):
        joint = joint_distribution(n, (), ("crs", "nes"), variables=("x", "y"))
        assert joint.is_symmetric(), n
        for sigma in generate(n, ()):
            assert perms.crs(sigma) == (
                perms.inv(sigma) - perms.exc(sigma) - 2 * perms.nes(sigma)
            )
    # theta swaps direct sums for direct products (factors reversed)
    for total in range(2, 9):
        for a in range(1, total):
            for s1 in generate(a, (P["321"],)):
                for s2 in generate(total - a, (P["321"],)):
                    lhs = bijections.theta(perms.direct_sum(s1, s2))
                    rhs = perms.direct_product(
                        bijections.theta(s2), bijections.theta(s1)
                    )
                    assert lhs == rhs, (s1, s2)
    q = QPoly((0, 1))
    for n in range(10):
        counter = Counter(
            perms.inv(sigma) for sigma in generate(n, (P["321"],))
        )
        brute = QPoly(tuple(counter.get(i, 0) for i in range(max(counter) + 1)))
        assert inv_dist_321(n) == brute, n
        assert catalan_qp(n).eval_poly({"q": q, "p": q}) == brute, n


def test_criterion_11_check_all_reports_are_byte_identical(capsys):
    assert cli.run(["check", "all", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["check", "all", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert len(report["checks"]) == 44


def test_criterion_11_no_assert_in_the_package():
    # python -O strips asserts, so no check of the library may rest on one
    for path in sorted(pathlib.Path(crossperm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
