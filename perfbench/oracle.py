"""Output checks for every op, run after the timed op list.

Independent references come first: class sizes (Catalan numbers, 2^(n-1),
C(n,2)+1, R-table row sums), the q-series formulas for crossing and
inversion distributions, round trips, agreement of the two theta routes
and of the two RSK routes, and invariance of (fp, exc, crs).  Ops drawn
from a finite pool are also compared with the digests in ``golden.json``,
recorded from the seed code; for ``check --json`` the digest covers the
exact bytes.  Checks run after all ops of a repetition, so they never warm
a cache that a later timed op would find filled.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, factorial
from pathlib import Path

from crossperm import bijections, perms, qseries
from crossperm.qseries import MultiPoly, QPoly, Series

from ops import patterns
from workloads import Op

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# |S_n(T)| for the pairs that are not counted by 2^(n-1).
_QUADRATIC_PAIRS = {"123,231", "123,312", "132,321", "213,321"}
# |S_7(tau)| for the length-4 patterns the benchmark draws (OEIS A022558,
# A061552, A047889 at n = 7).
LEN4_SIZES_7 = {
    "1324": 2762, "2143": 2761, "1234": 2761, "1243": 2761, "1432": 2761,
    "1342": 2740, "2413": 2740, "3142": 2740,
}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def class_size(n: int, pats: str) -> int:
    words = pats.split(",")
    if len(words) == 1 and len(words[0]) == 4:
        if n != 7:
            raise ValueError("length-4 class sizes are tabulated at n = 7 only")
        return LEN4_SIZES_7[words[0]]
    if len(words) == 1:
        return catalan(n)
    if pats == "123,321":
        if n < 5:
            raise ValueError("|S_n(123,321)| is tabulated for n >= 5 only")
        return 0
    if pats in _QUADRATIC_PAIRS:
        return comb(n, 2) + 1
    return 2 ** (n - 1) if n else 1


def canon(value):
    """A JSON value that identifies a result through public attributes."""
    if isinstance(value, QPoly):
        return ["Q", value.json_coeffs()]
    if isinstance(value, MultiPoly):
        return ["M", list(value.variables), value.text()]
    if isinstance(value, Series):
        return ["S", [canon(value.coefficient(k)) for k in range(value.order + 1)]]
    if isinstance(value, bijections.TableauPair):
        return ["T", value.p_row1, value.p_row2, value.q_row1, value.q_row2]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def digest(result) -> str:
    text = json.dumps(canon(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def covered_perms(op: Op, result) -> int:
    """Permutations the op covers: emitted by the walk, mapped, or counted.

    A refined query still walks its whole class, so it covers all of it.
    """
    if op.kind == "dist":
        return class_size(*op.params[:2])
    if op.kind == "count":
        return result
    if op.kind == "joint":
        return result.evaluate(**dict.fromkeys(result.variables, 1))
    if op.kind == "map":
        return len(result)
    if op.kind == "catalan_qp":
        return result.evaluate(q=1, p=1)
    if op.kind == "cf_series":
        return sum(_at_one(c) for c in result.coeffs)
    if op.kind == "r_table":
        return sum(_at_one(c) for row in result for c in row)
    if op.kind in ("closed_form", "dist_213_132", "inv_dist_321"):
        return result(1)
    return 0


def _at_one(c) -> int:
    if isinstance(c, MultiPoly):
        return c.evaluate(**dict.fromkeys(c.variables, 1))
    return c(1) if isinstance(c, QPoly) else c


def check(op: Op, result, golden: dict) -> list[str]:
    """Every problem with one op's result; empty when it is right."""
    problems = _CHECKS[op.kind](op, result)
    if op.kind != "map":
        want = golden.get("digests", {}).get(op.key)
        if want is None:
            problems.append("no golden digest for this op")
        elif digest(result) != want:
            problems.append(f"digest {digest(result)} != golden {want}")
    return problems


def _check_dist(op: Op, result) -> list[str]:
    n, pats, stat, refinement, k = op.params
    poly, count = result
    out = []
    if poly(1) != count:
        out.append(f"coefficients sum to {poly(1)}, count is {count}")
    size = class_size(n, pats)
    if refinement == "none" and count != size:
        out.append(f"class size {count} != {size}")
    if refinement != "none" and not 0 <= count <= size:
        out.append(f"refined count {count} outside 0..{size}")
    want = None
    if stat == "crs" and refinement == "none":
        if pats == "132,213":
            want = qseries.dist_213_132(n)
        elif "," in pats or pats in ("321", "132", "213"):
            want = qseries.closed_form(patterns(pats), n)
    elif stat == "crs" and refinement == "one-at" and pats == "132,213":
        want = qseries.dist_213_132_first(n, k)
    elif stat == "inv" and refinement == "none" and pats == "321":
        want = qseries.inv_dist_321(n)
    if want is not None and poly != want:
        out.append(f"{poly.text()} != formula {want.text()}")
    return out


def _check_count(op: Op, result) -> list[str]:
    n, pats = op.params
    size = class_size(n, pats)
    return [] if result == size else [f"count {result} != class size {size}"]


def _check_joint(op: Op, result) -> list[str]:
    n, pats, stats = op.params
    out = []
    total = covered_perms(op, result)
    if total != catalan(n):
        out.append(f"joint table covers {total} perms, want {catalan(n)}")
    if stats == ["exc", "crs"] and pats == "321" and result != qseries.catalan_qp(n):
        out.append("(exc, crs) over S_n(321) differs from C_n(q, p)")
    return out


def _triple(s) -> tuple[int, int, int]:
    return perms.fp(s), perms.exc(s), perms.crs(s)


def _check_map(op: Op, result) -> list[str]:
    name, n = op.params
    if len(result) != len(op.inputs):
        return [f"{len(result)} outputs for {len(op.inputs)} inputs"]
    for x, y in zip(op.inputs, result):
        problem = _map_problem(name, n, x, y)
        if problem:
            return [f"{name}({x}): {problem}"]
    return []


def _map_problem(name: str, n: int, x, y) -> str | None:
    B = bijections
    if name == "theta":
        if y != B.theta_pipeline(x):
            return "theta routes disagree"
        if _triple(y) != _triple(x) or not perms.avoids(y, [(1, 3, 2)]):
            return "image does not keep (fp, exc, crs) or contains 132"
    elif name == "theta_pipeline":
        if y != B.theta_recursive(x):
            return "theta routes disagree"
    elif name == "theta_inverse":
        if B.theta(y) != x or not perms.avoids(y, [(3, 2, 1)]):
            return "theta(theta_inverse(a)) != a"
    elif name == "gamma":
        if _triple(y) != _triple(x):
            return "(fp, exc, crs) not preserved"
    elif name == "psi":
        if len(y) != 2 * n or B.phi_inverse(y) != B.theta_recursive(x):
            return "phi_inverse(psi(s)) != theta(s)"
    elif name == "phi_inverse":
        if B.phi(y) != x:
            return "phi(phi_inverse(d)) != d"
    elif name in ("rsk_two_row", "rsk_by_bumping"):
        other = B.rsk_by_bumping if name == "rsk_two_row" else B.rsk_two_row
        if y != other(x):
            return "RSK routes disagree"
    elif name == "f_k":
        sigma, k = x
        if len(y) != n or y[k - 1] != 1:
            return "value 1 not at position k"
        if perms.reduce_word(y[: k - 1] + y[k:]) != perms.inverse(sigma):
            return "removing 1 does not give the inverse word"
    elif name == "g_k":
        k = x.index(1) + 1
        if y[n - k] != 1 or perms.crs(y) != perms.crs(x) or B.g_k(y) != x:
            return "g_k law fails (position of 1, crs, or g_k(g_k(s)) = s)"
    return None


def _check_catalan_qp(op: Op, result) -> list[str]:
    (n,) = op.params
    out = []
    if result.evaluate(q=1, p=1) != catalan(n):
        out.append("C_n(1,1) is not the Catalan number")
    q = QPoly.q_power(1)
    if result.eval_poly({"q": q, "p": q}) != qseries.inv_dist_321(n):
        out.append("C_n(q,q) differs from the inversion recurrence")
    return out


def _check_cf(op: Op, result) -> list[str]:
    kind, order = op.params
    if result.order != order:
        return [f"order {result.order} != {order}"]
    for m in range(order + 1):
        c = result.coefficient(m)
        if kind == "catalan" and c != qseries.catalan_crs(m):
            return [f"z^{m} differs from C_m(1,q)"]
        if kind == "bi" and (_at_one(c) != factorial(m) or not (m == 0 or c.is_symmetric())):
            return [f"z^{m} is not a symmetric table of m! perms"]
    return []


def _check_closed(op: Op, result) -> list[str]:
    pats, n = op.params
    size = class_size(n, pats)
    return [] if result(1) == size else [f"sums to {result(1)}, class size {size}"]


def _check_r_table(op: Op, result) -> list[str]:
    (n_max,) = op.params
    if len(result) != n_max + 1:
        return [f"{len(result)} rows"]
    for n, row in enumerate(result):
        if sum(c(1) for c in row) != 2**n:
            return [f"row {n} does not sum to 2^{n}"]
        if any(row[k](1) != 2 ** (n - 1 - k) for k in range(n)):
            return [f"row {n} entries are not 2^(n-1-k)"]
    return []


def _check_dist_213_132(op: Op, result) -> list[str]:
    (n,) = op.params
    size = class_size(n, "132,213")
    return [] if result(1) == size else [f"sums to {result(1)}, want {size}"]


def _check_inv(op: Op, result) -> list[str]:
    (n,) = op.params
    return [] if result(1) == catalan(n) else [f"sums to {result(1)}, want C_{n}"]


def _check_cli_series(op: Op, result) -> list[str]:
    rc, text = result
    pats, order = op.params
    if rc != 0:
        return [f"exit code {rc}"]
    lines = text.splitlines()
    source = "recurrence" if pats == "132,213" else "closed-form"
    if lines[:1] != [f"source = {source}"] or len(lines) != order + 2:
        return ["unexpected series header or length"]
    for m, line in enumerate(lines[1:]):
        want = qseries.dist_213_132(m) if source == "recurrence" else qseries.closed_form(patterns(pats), m)
        if line != f"z^{m}: {want.text()}":
            return [f"z^{m} line differs from the library value"]
    return []


def _check_cli_check(op: Op, result) -> list[str]:
    rc, text = result
    name, cap = op.params
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(text)
    entries = report.get("checks", [])
    if [(c.get("name"), c.get("n"), c.get("status")) for c in entries] != [(name, cap, "pass")]:
        return [f"report is not one passing {name} at n={cap}: {entries}"]
    return []


_CHECKS = {
    "dist": _check_dist,
    "count": _check_count,
    "joint": _check_joint,
    "map": _check_map,
    "catalan_qp": _check_catalan_qp,
    "cf_series": _check_cf,
    "closed_form": _check_closed,
    "r_table": _check_r_table,
    "dist_213_132": _check_dist_213_132,
    "inv_dist_321": _check_inv,
    "cli_series": _check_cli_series,
    "cli_check": _check_cli_check,
}
