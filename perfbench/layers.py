"""Per-layer metrics of one traced repetition, computed from its spans.

Each metric is named after the module whose public functions the spans
surround.  A workload that never calls a layer reports 0 for it: the
layer did no work there.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS, durations, layer_self_ms
from workloads import MAPS, VERIFY_CHECKS, Op

FAMILIES = ("single3", "pair3", "len4")
STATS7 = ("crs", "nes", "inv", "maj", "exc", "des", "fp")
PRECONDITION_MAPS = ("theta", "gamma", "rsk_two_row")
QSERIES_MS = ("catalan_qp", "r_table", "dist_213_132", "inv_dist_321")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for fam in FAMILIES:
        units[f"enumeration.generate.us_per_perm.{fam}"] = "us"
        units[f"enumeration.generate.perms.{fam}"] = "count"
    units["enumeration.generate.perms.all"] = "count"
    units["enumeration.aggregate.us_per_perm"] = "us"
    for name, _ in VERIFY_CHECKS:
        units[f"enumeration.verify.ms.{name}"] = "ms"
    for stat in STATS7:
        units[f"perms.stat.us.{stat}"] = "us"
    for tau in ("321", "132"):
        units[f"perms.contains_pattern.us.{tau}"] = "us"
    units["perms.reduce_word.us"] = "us"
    units["perms.insert.us"] = "us"
    for m in MAPS:
        for n in (12, 20):
            units[f"bijections.{m}.us_per_perm.n{n}"] = "us"
    for m in PRECONDITION_MAPS:
        units[f"bijections.precondition_share.{m}"] = "ratio"
    for name in QSERIES_MS:
        units[f"qseries.{name}.ms"] = "ms"
    units["qseries.cf_series.ms.catalan"] = "ms"
    units["qseries.cf_series.ms.bi"] = "ms"
    units["qseries.closed_form.us"] = "us"
    units["cli.run.overhead_ms"] = "ms"
    units["cli.output_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"layer.self_ms.{layer}"] = "ms"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ops: list[Op], spans: list[list], counts: dict, results: list) -> dict[str, float]:
    """Metrics of one traced repetition (all but the trace.* pair)."""
    dur, self_ns = durations(spans)
    total = defaultdict(int)
    calls = defaultdict(int)
    for s, d in zip(spans, dur):
        total[s[0]] += d
        calls[s[0]] += 1

    def mean_us(name: str) -> float:
        return _ratio(total[name] / 1e3, calls[name])

    m: dict[str, float] = {}
    for fam in FAMILIES:
        emitted = counts.get("emitted." + fam, 0)
        m[f"enumeration.generate.us_per_perm.{fam}"] = _ratio(
            total["enumeration.generate." + fam] / 1e3, emitted
        )
        m[f"enumeration.generate.perms.{fam}"] = emitted
    m["enumeration.generate.perms.all"] = counts.get("generate.perms", 0)
    query_self = sum(t for s, t in zip(spans, self_ns) if s[0] == "enumeration.query")
    m["enumeration.aggregate.us_per_perm"] = _ratio(query_self / 1e3, counts.get("aggregated", 0))
    for stat in STATS7:
        m[f"perms.stat.us.{stat}"] = _ratio(
            total["perms.stat." + stat] / 1e3, counts.get("stat." + stat, 0)
        )
    for tau in ("321", "132"):
        m[f"perms.contains_pattern.us.{tau}"] = mean_us("perms.contains_pattern." + tau)
    m["perms.reduce_word.us"] = mean_us("perms.reduce_word")
    m["perms.insert.us"] = mean_us("perms.insert")

    verify_ms = dict.fromkeys((name for name, _ in VERIFY_CHECKS), 0.0)
    map_ns, map_n = defaultdict(int), defaultdict(int)
    precondition = defaultdict(int)
    direct = defaultdict(list)
    cli_self = []
    for i, (s, d) in enumerate(zip(spans, dur)):
        name, parent = s[0], s[3]
        op = ops[s[4]] if s[4] >= 0 else None
        if name == "enumeration.verify":
            verify_ms[op.params[0]] += d / 1e6
        elif name.startswith("bijections.") and op is not None and op.kind == "map":
            map_ns[(name, op.params[1])] += d
            map_n[(name, op.params[1])] += 1
        elif name.startswith("perms.contains_pattern.") and parent >= 0:
            precondition[spans[parent][0]] += d
        elif name.startswith("qseries.") and parent >= 0 and spans[parent][0] == "bench.op":
            direct[name if op.kind != "cf_series" else f"{name}.{op.params[0]}"].append(d)
        elif name == "cli.run":
            cli_self.append(self_ns[i])
    for name, ms in verify_ms.items():
        m[f"enumeration.verify.ms.{name}"] = ms
    for mp in MAPS:
        for n in (12, 20):
            key = ("bijections." + mp, n)
            m[f"bijections.{mp}.us_per_perm.n{n}"] = _ratio(map_ns[key] / 1e3, map_n[key])
    for mp in PRECONDITION_MAPS:
        name = "bijections." + mp
        m[f"bijections.precondition_share.{mp}"] = _ratio(precondition[name], total[name])
    for name in QSERIES_MS:
        m[f"qseries.{name}.ms"] = sum(direct["qseries." + name]) / 1e6
    for kind in ("catalan", "bi"):
        m[f"qseries.cf_series.ms.{kind}"] = sum(direct["qseries.cf_series." + kind]) / 1e6
    closed = direct["qseries.closed_form"]
    m["qseries.closed_form.us"] = _ratio(sum(closed) / 1e3, len(closed))
    m["cli.run.overhead_ms"] = _ratio(sum(cli_self) / 1e6, len(cli_self))
    m["cli.output_bytes"] = sum(
        len(r[1].encode()) for op, r in zip(ops, results) if op.kind.startswith("cli_") and isinstance(r, tuple)
    )
    for layer, ms in layer_self_ms(spans).items():
        m[f"layer.self_ms.{layer}"] = ms
    return m
