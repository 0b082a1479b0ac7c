"""Exact polynomial arithmetic and the closed-form crossing distributions.

Everything here is integer-exact: dense univariate polynomials in q,
sparse polynomials in a few named variables, and z-series truncated at an
explicit order.  On top of that ring sit the distribution formulas: the
q,p-Catalan recurrence, the Stieltjes continued-fraction expansion, the
power-of-two q-table, and one closed form (or recurrence) per solved
pattern class.  All of them are checked against brute-force enumeration
in the test suite; none of them is allowed to be approximate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from math import comb
from typing import TypeVar

from .perms import Perm, as_perm, fmt_patterns, pattern_set


def _format_terms(parts: list[tuple[int, str]]) -> str:
    """Render (coefficient, monomial) pairs, omitting units, joining signs."""
    if not parts:
        return "0"
    chunks: list[str] = []
    for coeff, mono in parts:
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


_P = TypeVar("_P", bound="_Ring")


class _Ring:
    """Operators that QPoly and MultiPoly derive from their own +, * and -x.

    A subclass supplies ``_coerce`` (its own type, or an int as a constant,
    else NotImplemented), ``__add__``, ``__mul__``, ``__neg__`` and
    ``_key``, the canonical value that equality and hashing compare.  The
    unit is ``_coerce(1)``.
    """

    __slots__ = ()

    def __radd__(self: _P, other: int) -> _P:
        return self.__add__(other)

    def __rmul__(self: _P, other: int) -> _P:
        return self.__mul__(other)

    def __sub__(self: _P, other: "_P | int") -> _P:
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self: _P, other: int) -> _P:
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __pow__(self: _P, exp: int) -> _P:
        if exp < 0:
            raise ValueError(f"negative exponent: {exp}")
        result, base = self._coerce(1), self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class QPoly(_Ring):
    """Dense polynomial in q with integer coefficients, lowest power first.

    Distribution polynomials have nonnegative coefficients; negatives are
    still allowed so that forms like 1-q can appear in intermediate
    arithmetic (denominators, inclusion-exclusion).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> "QPoly":
        if k < 0:
            raise ValueError(f"negative power: {k}")
        return cls((0,) * k + (1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _key(self) -> tuple[int, ...]:
        return self.coeffs

    @staticmethod
    def _coerce(value: "QPoly | int") -> "QPoly":
        if isinstance(value, QPoly):
            return value
        if isinstance(value, int):
            return QPoly((value,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "QPoly | int") -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    def __call__(self, value: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)})"

    def text(self) -> str:
        """Readable form like "11 + 4*q + q^2", zero terms omitted."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append((c, "" if k == 0 else "q" if k == 1 else f"q^{k}"))
        return _format_terms(parts)

    def json_coeffs(self) -> list[int]:
        return list(self.coeffs)


class MultiPoly(_Ring):
    """Sparse polynomial in a fixed tuple of named variables.

    Terms map exponent tuples to integer coefficients; zero coefficients
    are dropped on construction.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]) -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"repeated variable name in {self.variables}")
        for key in terms:
            if len(key) != len(self.variables):
                raise ValueError(f"exponent tuple {key} does not match {self.variables}")
        self.terms = {k: c for k, c in sorted(terms.items()) if c}

    @classmethod
    def const(cls, variables: Sequence[str], value: int) -> "MultiPoly":
        zero_key = (0,) * len(tuple(variables))
        return cls(variables, {zero_key: value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        key = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not one of {variables}")
        return cls(variables, {key: 1})

    def _coerce(self, value: "MultiPoly | int") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            if value.variables != self.variables:
                raise ValueError(f"variable mismatch: {value.variables} vs {self.variables}")
            return value
        if isinstance(value, int):
            return MultiPoly.const(self.variables, value)
        return NotImplemented  # type: ignore[return-value]

    def _key(self) -> tuple:
        return self.variables, tuple(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self.terms)
        for k, v in other.terms.items():
            data[k] = data.get(k, 0) + v
        return MultiPoly(self.variables, data)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[tuple[int, ...], int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                data[key] = data.get(key, 0) + va * vb
        return MultiPoly(self.variables, data)

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables}, {self.terms})"

    def evaluate(self, **values: int) -> int:
        total = 0
        for powers, c in self.terms.items():
            term = c
            for name, p in zip(self.variables, powers):
                term *= values[name] ** p
            total += term
        return total

    def eval_poly(self, assignments: Mapping[str, "QPoly | int"]) -> QPoly:
        """Substitute a univariate polynomial for every variable."""
        total = QPoly.zero()
        subs = {name: QPoly._coerce(v) for name, v in assignments.items()}
        for powers, c in self.terms.items():
            term = QPoly((c,))
            for name, p in zip(self.variables, powers):
                term = term * subs[name] ** p
            total = total + term
        return total

    def is_symmetric(self) -> bool:
        """Invariance under swapping the two variables."""
        if len(self.variables) != 2:
            raise ValueError("symmetry check needs exactly two variables")
        return all(self.terms.get((b, a), 0) == v for (a, b), v in self.terms.items())

    def text(self) -> str:
        def mono(powers: tuple[int, ...]) -> str:
            factors = []
            for name, p in zip(self.variables, powers):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            return "*".join(factors)

        # same total degree: higher leading-variable power first, so that
        # bi-brackets read x^2 + x*y + y^2
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-p for p in kv[0])),
        )
        return _format_terms([(c, mono(powers)) for powers, c in ordered])


class Series:
    """Truncated power series in z; coefficients live in any one ring.

    The order is explicit and operations require matching orders, so a
    truncation can never sneak in silently.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, coeffs: Sequence, order: int) -> "Series":
        if order < 0:
            raise ValueError(f"negative order: {order}")
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k]

    def _check(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        out = [0 * self.coeffs[0]] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            for j in range(len(self.coeffs) - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return Series(out)

    def __truediv__(self, other: "Series") -> "Series":
        self._check(other)
        if not other.coeffs[0] == 1:
            raise ValueError("series division needs denominator constant term 1")
        out: list = []
        for k in range(len(self.coeffs)):
            c = self.coeffs[k]
            for i in range(1, k + 1):
                c = c - other.coeffs[i] * out[k - i]
            out.append(c)
        return Series(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)})"


def cf_series(ladder: Sequence, order: int) -> Series:
    """Expand the Stieltjes fraction 1/(1-a1*z/(1-a2*z/(...))) to z^order.

    Level t first contributes at z^t, so evaluating bottom-up from level
    len(ladder) with tail 1 is exact as long as the ladder is deep enough.
    """
    rungs = list(ladder)
    if len(rungs) < order:
        raise ValueError(
            f"ladder depth {len(rungs)} cannot determine coefficients up to "
            f"z^{order}; need at least {order} levels"
        )
    one = Series.of([1], order)
    tail = one
    for a in reversed(rungs):
        shifted = Series([0 * c if i == 0 else a * tail.coeffs[i - 1]
                          for i, c in enumerate(tail.coeffs)])
        tail = one / (one - shifted)
    return tail


def rational_series(numerator: Sequence, denominator: Sequence, order: int) -> Series:
    """Power-series division of two z-polynomials, exact to z^order."""
    denom = Series.of(denominator, order)
    if not denom.coeffs[0] == 1:
        raise ValueError("denominator constant term must be 1")
    return Series.of(numerator, order) / denom


# ---------------------------------------------------------------------------
# q-analogues and the Catalan recurrences

QP_VARS = ("q", "p")


def q_bracket(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q is the zero polynomial.

    >>> q_bracket(3).text()
    '1 + q + q^2'
    """
    if n < 0:
        raise ValueError(f"negative bracket: {n}")
    return QPoly((1,) * n)


def bi_bracket(n: int) -> MultiPoly:
    """[n]_{x,y} = x^(n-1) + x^(n-2) y + ... + y^(n-1); zero for n = 0.

    >>> bi_bracket(2).text()
    'x + y'
    """
    if n < 0:
        raise ValueError(f"negative bracket: {n}")
    return MultiPoly(("x", "y"), {(n - 1 - t, t): 1 for t in range(n)})


@cache
def catalan_qp(n: int) -> MultiPoly:
    """C_n(q,p) via C_n = C_{n-1} + q * sum p^k C_k C_{n-1-k}, C_0 = C_1 = 1.

    >>> catalan_qp(3).text()
    '1 + 2*q + q^2 + q*p'
    """
    if n < 0:
        raise ValueError(f"negative index: {n}")
    if n <= 1:
        return MultiPoly.const(QP_VARS, 1)
    table = [catalan_qp(k) for k in range(n)]
    p = MultiPoly.var(QP_VARS, "p")
    acc = MultiPoly.const(QP_VARS, 0)
    for k in range(n - 1):
        acc = acc + p**k * table[k] * table[n - 1 - k]
    return table[n - 1] + MultiPoly.var(QP_VARS, "q") * acc


def catalan_crs(n: int) -> QPoly:
    """C_n(1,q): the crossing distribution over the 321-avoiders.

    Setting q = 1 and p = q sums the coefficients of C_n(q,p) by p-exponent.
    """
    terms = catalan_qp(n).terms
    coeffs = [0] * (1 + max(b for _, b in terms))
    for (_, b), c in terms.items():
        coeffs[b] += c
    return QPoly(coeffs)


@cache
def inv_dist_321(n: int) -> QPoly:
    """Inversion distribution over 321-avoiders, by its own recurrence.

    I_n = I_{n-1} + sum_{k=0}^{n-2} q^{k+1} I_k I_{n-1-k}; equality with
    C_n(q,q) is a theorem and is asserted in the tests, not assumed here.
    """
    if n < 0:
        raise ValueError(f"negative index: {n}")
    if n <= 1:
        return QPoly.one()
    table = [inv_dist_321(k) for k in range(n)]
    acc = QPoly.zero()
    for k in range(n - 1):
        acc = acc + QPoly.q_power(k + 1) * table[k] * table[n - 1 - k]
    return table[n - 1] + acc


# ---------------------------------------------------------------------------
# the power-of-two q-table


def r_table(n_max: int) -> list[list[QPoly]]:
    """Rows R_n^k for 0 <= k <= n <= n_max.

    Boundary R_n^n = R_n^{n-1} = 1, then downward in k:
    R_n^k = q^{min(k-1, n-1-k)} R_{n-1}^k + R_n^{k+1}, and finally
    R_n^0 = R_{n-1}^0 + R_n^1.  Row sums at q=1 are 2^n.
    """
    if n_max < 0:
        raise ValueError(f"negative table size: {n_max}")
    one = QPoly.one()
    rows: list[list[QPoly]] = [[one]]
    for n in range(1, n_max + 1):
        row = [QPoly.zero()] * (n + 1)
        row[n] = one
        row[n - 1] = one
        for k in range(n - 2, 0, -1):
            row[k] = QPoly.q_power(min(k - 1, n - 1 - k)) * rows[n - 1][k] + row[k + 1]
        if n >= 2:
            row[0] = rows[n - 1][0] + row[1]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the {213,132} refined recurrence


@cache
def _f_total(n: int) -> QPoly:
    # plain distribution over the {213,132}-avoiders
    if n <= 1:
        return QPoly.one()
    total = QPoly.zero()
    for k in range(1, n + 1):
        total = total + _f_first(n, k)
    return total


@cache
def _f_first(n: int, k: int) -> QPoly:
    # refinement by the position k of the value 1
    if not 1 <= k <= n:
        raise ValueError(f"position out of range: {k} not in 1..{n}")
    if k == 1:
        return QPoly.one()
    if k == n:
        return _f_total(n - 1)
    total = QPoly.zero()
    for j in range(1, k):
        total = total + rec_213_132(n, k, j)
    return total


@cache
def _f_last(n: int, j: int) -> QPoly:
    # refinement by the opening run of top values: j of them, so sigma(1)
    # is n+1-j and j = n only for the identity
    if not 1 <= j <= n:
        raise ValueError(f"run length out of range: {j} not in 1..{n}")
    if j == n:
        return QPoly.one()
    total = QPoly.zero()
    for k in range(j + 1, n + 1):
        total = total + rec_213_132(n, k, j)
    return total


def rec_213_132(n: int, k: int, j: int) -> QPoly:
    """Doubly refined distribution F_{n,j}^k for the pair {213,132}.

    Members factor as (n+1-j)...n, middle block, 1 2 ... (n+1-k): value 1
    sits at position k and an ascending run of the j largest values opens
    the word.  Recurrence, in case order: zero for j >= k, the singleton
    q^{j(n-k)} at j = k-1, q^{j(n-k)} F_{n-2j}^{k-j} below the
    antidiagonal j = n+1-k, q^{j(j-1)} F_{n-2j} on it, and
    q^{(n+1-k)(j-1)} F_{n-2(n+1-k), j-(n+1-k)} above it.
    """
    if n < 1:
        raise ValueError(f"size out of range: {n}")
    if not 1 <= k <= n:
        raise ValueError(f"position out of range: {k} not in 1..{n}")
    if j < 1 or j > n:
        return QPoly.zero()
    if k == 1:
        return QPoly.one() if j == n else QPoly.zero()
    if j >= k:
        return QPoly.zero()
    if j == k - 1:
        return QPoly.q_power(j * (n - k))
    if j < n + 1 - k:
        return QPoly.q_power(j * (n - k)) * _f_first(n - 2 * j, k - j)
    if j == n + 1 - k:
        return QPoly.q_power(j * (j - 1)) * _f_total(n - 2 * j)
    m = n + 1 - k
    return QPoly.q_power(m * (j - 1)) * _f_last(n - 2 * m, j - m)


def dist_213_132(n: int) -> QPoly:
    """Full crossing distribution over the {213,132}-avoiders."""
    if n < 0:
        raise ValueError(f"negative size: {n}")
    return _f_total(n)


def dist_213_132_first(n: int, k: int) -> QPoly:
    """Crossing distribution over the {213,132}-avoiders with value 1 at k."""
    return _f_first(n, k)


# ---------------------------------------------------------------------------
# the three-block words and their crossing counts


def sigma_nkj(n: int, k: int, j: int) -> Perm:
    """The word (k+j)...(k+1) | n...(k+j+1) | k...1; n...1 when j = n-k.

    For k = 0 the convention is j...1 followed by n...(j+1), j in 1..n-1.
    """
    if n < 1:
        raise ValueError(f"size out of range: {n}")
    if k == 0:
        if not 1 <= j <= n - 1:
            raise ValueError(f"block length out of range: {j} not in 1..{n - 1}")
        return tuple(range(j, 0, -1)) + tuple(range(n, j, -1))
    if not 1 <= k <= n:
        raise ValueError(f"prefix height out of range: {k} not in 0..{n}")
    if not 1 <= j <= n - k:
        raise ValueError(f"block length out of range: {j} not in 1..{n - k}")
    if j == n - k:
        return tuple(range(n, 0, -1))
    return (
        tuple(range(k + j, k, -1))
        + tuple(range(n, k + j, -1))
        + tuple(range(k, 0, -1))
    )


def crs_sigma_nkj(n: int, k: int, j: int) -> int:
    """Closed-form crossing count of sigma_nkj.

    Every crossing pairs a letter of the first descending block with a
    position under the middle block, so arc i of the first block crosses
    min(n-k-j, k-i) times and crs is the sum over i of these clamped
    reaches.  For 2k >= n no reach is clamped short of the full width
    (giving j(n-k-j)); for 3k < n-1 no reach is clamped at all (giving
    the rising/plateau/mirrored-descent profile in j); in between the
    clamp is partial and both unclamped case formulas overcount.
    """
    as_perm(sigma_nkj(n, k, j))  # reuses the range validation
    if k == 0 or j == n - k:
        return 0
    if 2 * k >= n:
        return j * (n - k - j)
    jj = min(j, n - k - j)  # rci symmetry pairs j with n-k-j
    m = n - k - jj
    t = min(jj, k - 1)  # first-block arcs that reach the middle block at all
    a = min(t, max(0, k - m))  # arcs clamped to the full middle-block width
    return a * m + (t - a) * k - (t * (t + 1) - a * (a + 1)) // 2


def gamma_nk(n: int, k: int) -> QPoly:
    """Middle-term correction: zero unless n-k-1 is odd, else one monomial.

    The monomial is q to the crossing count of the self-mirrored word at
    j = (n-k)/2.
    """
    if not 1 <= k <= n:
        raise ValueError(f"height out of range: {k} not in 1..{n}")
    if n - k < 2 or (n - k - 1) % 2 == 0:
        return QPoly.zero()
    return QPoly.q_power(crs_sigma_nkj(n, k, (n - k) // 2))


# ---------------------------------------------------------------------------
# closed forms per solved pattern class


def _dist_321_231(n: int) -> QPoly:
    # F_m = (1+q) F_{m-1} + (1-q) F_{m-2}, seeds 1, 1
    prev, cur = QPoly.one(), QPoly.one()
    for _ in range(n):
        prev, cur = cur, QPoly((1, 1)) * cur + QPoly((1, -1)) * prev
    return prev


def _dist_123_132(n: int) -> QPoly:
    # ((1+q)^(n-1) - 1 + q)/q, written out as a binomial row
    return QPoly(comb(n - 1, i) for i in range(1, n)) + 1


def _dist_321_132(n: int) -> QPoly:
    # 1 + sum over k of [n-k] evaluated at q^k
    total = QPoly.one()
    for k in range(1, n):
        bracket = [0] * (k * (n - k - 1) + 1)
        for t in range(n - k):
            bracket[k * t] = 1
        total = total + QPoly(bracket)
    return total


def _dist_123_321(n: int) -> QPoly:
    table = {0: (1,), 1: (1,), 2: (2,), 3: (3, 1), 4: (1, 2, 1)}
    return QPoly(table.get(n, ()))


def _dist_crossing_free(n: int) -> QPoly:
    return QPoly((2 ** (n - 1),)) if n >= 1 else QPoly.one()


def _dist_312_132(n: int) -> QPoly:
    return r_table(n)[n][0]


def _dist_231_132(n: int) -> QPoly:
    return r_table(n + 1)[n + 1][1]


def _dist_123_312(n: int) -> QPoly:
    # the class is n crossing-free words plus the sigma_{n,k,j}; for each
    # first-block height k the j-profile is symmetric under j <-> n-k-j,
    # so sum half of it twice and drop the double-counted middle term
    if n == 0:
        return QPoly.one()
    total = QPoly((n,))
    for k in range(1, n - 1):
        for j in range(1, (n - k) // 2 + 1):
            total = total + 2 * QPoly.q_power(crs_sigma_nkj(n, k, j))
        total = total - gamma_nk(n, k)
    return total


def _dist_123_231(n: int) -> QPoly:
    # shift identity: F_n(123,231) = F_{n+1}(123,312) - n
    return _dist_123_312(n + 1) - QPoly((n,))


# the classes with a formula, keyed by their pattern set (perms.pattern_set)
CLOSED_FORMS: dict[tuple[Perm, ...], Callable[[int], QPoly]] = {
    ((1, 3, 2),): catalan_crs,
    ((2, 1, 3),): catalan_crs,
    ((3, 2, 1),): catalan_crs,
    ((2, 3, 1), (3, 2, 1)): _dist_321_231,
    ((1, 2, 3), (1, 3, 2)): _dist_123_132,
    ((1, 2, 3), (2, 1, 3)): _dist_123_132,
    ((1, 3, 2), (3, 2, 1)): _dist_321_132,
    ((2, 1, 3), (3, 2, 1)): _dist_321_132,
    ((1, 2, 3), (3, 2, 1)): _dist_123_321,
    ((3, 1, 2), (3, 2, 1)): _dist_crossing_free,
    ((2, 3, 1), (3, 1, 2)): _dist_crossing_free,
    ((1, 3, 2), (3, 1, 2)): _dist_312_132,
    ((2, 1, 3), (3, 1, 2)): _dist_312_132,
    ((1, 3, 2), (2, 3, 1)): _dist_231_132,
    ((2, 1, 3), (2, 3, 1)): _dist_231_132,
    ((1, 2, 3), (3, 1, 2)): _dist_123_312,
    ((1, 2, 3), (2, 3, 1)): _dist_123_231,
}


def closed_form(patterns: Iterable[Sequence[int]], n: int) -> QPoly:
    """Crossing distribution of S_n(patterns) by formula, no enumeration.

    Supported: the classes of CLOSED_FORMS, every pair of length-3 patterns
    but {213,132} and the singles 321, 132, 213 (C_n(1,q), Catalan).  Other
    classes raise: `enumeration.route(query)`, not the CLI, picks the route.

    >>> closed_form([(1, 2, 3)], 4)
    Traceback (most recent call last):
        ...
    ValueError: no closed form for {123}
    >>> closed_form([], 4)
    Traceback (most recent call last):
        ...
    ValueError: no closed form for {(none)}
    """
    if n < 0:
        raise ValueError(f"negative size: {n}")
    key = pattern_set(patterns)
    if key not in CLOSED_FORMS:
        raise ValueError(f"no closed form for {{{fmt_patterns(key)}}}")
    return CLOSED_FORMS[key](n)


__all__ = [
    "CLOSED_FORMS",
    "MultiPoly",
    "QPoly",
    "Series",
    "bi_bracket",
    "catalan_crs",
    "catalan_qp",
    "cf_series",
    "closed_form",
    "crs_sigma_nkj",
    "dist_213_132",
    "dist_213_132_first",
    "gamma_nk",
    "inv_dist_321",
    "q_bracket",
    "r_table",
    "rational_series",
    "rec_213_132",
    "sigma_nkj",
]
