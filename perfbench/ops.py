"""Run one op against the library, plain or as traced public pieces.

The plain executor is what a user's program would call.  The traced
executor performs the same op as its public pieces, each inside a span:
a distribution query drains ``generate`` into a list, applies the
statistic over the list, then aggregates into a ``QPoly``/``MultiPoly``.
Both return the same result, which the oracle checks.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter

from crossperm import bijections, cli, enumeration, qseries
from crossperm.enumeration import STATISTICS, DistributionQuery
from crossperm.qseries import MultiPoly, QPoly

from workloads import Op, pattern_class

# Variable names joint_distribution gives one to three statistics.
JOINT_VARS = {1: ("q",), 2: ("q", "p"), 3: ("x", "q", "p")}


def patterns(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in word) for word in text.split(","))


def ladder(kind: str, order: int) -> list:
    if kind == "catalan":
        return [QPoly.q_power((i + 1) // 2 - 1) for i in range(1, order + 1)]
    return [qseries.bi_bracket((i + 1) // 2) for i in range(1, order + 1)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    return rc, out.getvalue()


def cli_argv(op: Op) -> list[str]:
    if op.kind == "cli_series":
        return ["series", op.params[0], "--order", str(op.params[1])]
    return ["check", op.params[0], "--json", "--nmax", str(op.params[1])]


def _query(params) -> DistributionQuery:
    n, pats, stat, refinement, k = params
    return DistributionQuery(
        n=n, patterns=patterns(pats), statistic=stat, refinement=refinement, k=k
    )


def _map_fn(name: str):
    fn = getattr(bijections, name)
    if name == "f_k":
        return lambda item: fn(*item)
    return fn


def execute(op: Op):
    """The op as a user calls it; returns its result."""
    kind, p = op.kind, op.params
    if kind == "dist":
        r = enumeration.distribution(_query(p))
        return r.polynomial, r.count
    if kind == "count":
        return sum(1 for _ in enumeration.generate(p[0], patterns(p[1])))
    if kind == "joint":
        return enumeration.joint_distribution(p[0], patterns(p[1]), p[2])
    if kind == "map":
        fn = _map_fn(p[0])
        return [fn(x) for x in op.inputs]
    if kind == "catalan_qp":
        return qseries.catalan_qp(p[0])
    if kind == "cf_series":
        return qseries.cf_series(ladder(*p), p[1])
    if kind == "closed_form":
        return qseries.closed_form(patterns(p[0]), p[1])
    if kind in ("r_table", "dist_213_132", "inv_dist_321"):
        return getattr(qseries, kind)(p[0])
    if kind in ("cli_series", "cli_check"):
        return run_cli(cli_argv(op))
    raise ValueError(f"unknown op kind {kind!r}")


def execute_traced(op: Op, tr):
    """The same op as public pieces in spans; ``tr.install`` must be active."""
    kind, p = op.kind, op.params
    if kind in ("dist", "joint", "count"):
        return _walk_traced(op, tr)
    if kind == "map":
        fn, name = _map_fn(p[0]), "bijections." + p[0]
        out = []
        for x in op.inputs:
            with tr.span(name):
                out.append(fn(x))
        return out
    if kind in ("cli_series", "cli_check"):
        with tr.span("cli.run"):
            return run_cli(cli_argv(op))
    # The q-series entry points are wrapped by Tracer.install.
    return execute(op)


def _walk_traced(op: Op, tr):
    n, pats = op.params[0], op.params[1]
    family = pattern_class(pats)
    gen = "enumeration.generate." + family
    if op.kind == "count":
        with tr.span(gen):
            count = sum(1 for _ in enumeration.generate(n, patterns(pats)))
        tr.counts["emitted." + family] += count
        return count
    with tr.span("enumeration.query"):
        with tr.span(gen):
            emitted = list(enumeration.generate(n, patterns(pats)))
        tr.counts["emitted." + family] += len(emitted)
        tr.counts["aggregated"] += len(emitted)
        if op.kind == "dist":
            query = _query(op.params)
            kept = [s for s in emitted if query.admits(s)]
            values = _stat_traced(tr, query.statistic, kept)
            counter = Counter(values)
            top = max(counter, default=-1)
            return QPoly(counter.get(v, 0) for v in range(top + 1)), len(kept)
        stats = op.params[2]
        columns = [_stat_traced(tr, s, emitted) for s in stats]
        return MultiPoly(JOINT_VARS[len(stats)], dict(Counter(zip(*columns))))


def _stat_traced(tr, stat: str, sample: list) -> list[int]:
    fn = STATISTICS[stat]
    with tr.span("perms.stat." + stat):
        values = [fn(s) for s in sample]
    tr.counts["stat." + stat] += len(sample)
    return values
