"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import json
from collections import Counter
from pathlib import Path

import pytest

import oracle
import run
import workloads
from layers import metric_units
from ops import execute
from workloads import Op, op_list, pattern_class
from worker import check_results

from crossperm import perms

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_deterministic_for_a_seed(workload):
    assert op_list(workload, 7) == op_list(workload, 7)


def _shape(op: Op):
    """What a seed must not change: op kind, sizes, batch lengths."""
    if op.kind in ("dist", "count", "joint"):
        return op.kind, op.params[0], pattern_class(op.params[1])
    if op.kind == "map":
        return op.kind, op.params, len(op.inputs)
    if op.kind == "closed_form":
        return op.kind, op.params[1] in workloads.CLOSED_HIGH
    if op.kind in ("r_table", "dist_213_132"):
        return op.kind
    return op.key


@pytest.mark.parametrize("workload", ["dist-mix", "map-batch", "formula"])
def test_seed_changes_instances_but_not_proportions(workload):
    a, b = op_list(workload, 1), op_list(workload, 2)
    assert a != b
    assert Counter(map(_shape, a)) == Counter(map(_shape, b))


def test_map_inputs_meet_their_preconditions():
    for op in op_list("map-batch", 3):
        kind = workloads.MAP_INPUT[op.params[0]]
        for x in op.inputs:
            if kind == "321":
                assert perms.avoids(x, [(3, 2, 1)])
            elif kind == "132":
                assert perms.avoids(x, [(1, 3, 2)])
            elif kind == "fk":
                assert len(x[0]) == op.params[1] - 1 and 1 <= x[1] <= op.params[1]
            else:
                heights = [x[: i + 1].count("u") * 2 - i - 1 for i in range(len(x))]
                assert min(heights) >= 0 and heights[-1] == 0


def test_golden_table_covers_every_drawable_op():
    digests = oracle.load_golden()["digests"]
    for workload in ("dist-mix", "formula", "verify"):
        assert all(op.key in digests for op in workloads.golden_pool(workload))


def test_a_wrong_result_is_a_failed_op():
    golden = oracle.load_golden()
    theta = next(o for o in op_list("map-batch", 0) if o.params == ("theta", 12))
    ops = [
        Op("dist", (7, "321", "crs", "none", None)),
        Op("map", ("theta", 12), theta.inputs[:3]),
        Op("cli_check", ("cf-catalan", 10)),
    ]
    results = [execute(op) for op in ops]
    assert check_results(ops, results, golden)[0] == []

    poly, count = results[0]
    wrong = [
        (poly + 1, count),
        [results[1][1], results[1][0], results[1][2]],
        (0, results[2][1].replace('"pass"', '"fail"')),
    ]
    for i in range(3):
        tampered = list(results)
        tampered[i] = wrong[i]
        failures, _ = check_results(ops, tampered, golden)
        assert [f["op"] for f in failures] == [i]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


@pytest.mark.parametrize("workload", ["dist-mix", "formula", "verify"])
def test_deterministic_counters_repeat_across_runs(workload):
    counters = [
        name for name, unit in metric_units().items()
        if unit in ("count", "bytes")
    ]
    first, second = (run.run_worker(workload, 5, True, None) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert {k: first["layers"][k] for k in counters} == {k: second["layers"][k] for k in counters}
    assert any(first["layers"][k] for k in counters)
