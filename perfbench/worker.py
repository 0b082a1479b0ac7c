"""One repetition of one workload, in a fresh single-threaded process.

Imports the library from the checkout's ``src``, builds the seeded op list
(the set-up), runs every op in order while timing each one, then checks
every result.  Prints one JSON object on its last line of output.  Run it
through ``run.py``, which starts one process per repetition so that the
library's module caches start empty, as they do for each command a user
runs.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """The crossperm package of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import crossperm

    if Path(crossperm.__file__).resolve().parent != SRC / "crossperm":
        raise SystemExit(f"crossperm imported from {crossperm.__file__}, not {SRC}")
    return crossperm


def check_inputs(ops, perms) -> None:
    """Every map-batch input satisfies its map's precondition."""
    from workloads import MAP_INPUT

    avoid = {"321": [(3, 2, 1)], "132": [(1, 3, 2)], "fk": [(3, 2, 1)]}
    for op in ops:
        kind = MAP_INPUT[op.params[0]]
        for x in op.inputs:
            if kind == "dyck":
                heights = [x[: i + 1].count("u") - x[: i + 1].count("d") for i in range(len(x))]
                ok = min(heights) >= 0 and heights[-1] == 0
            else:
                ok = perms.avoids(x[0] if kind == "fk" else x, avoid[kind])
            if not ok:
                raise SystemExit(f"{op.params[0]} input {x} breaks its precondition")


def run_rep(workload: str, seed: int, traced: bool, spans_out: Path | None) -> dict:
    import_library()
    from crossperm import bijections, enumeration, perms, qseries

    import layers
    import oracle
    from ops import execute, execute_traced
    from spans import Tracer
    from workloads import op_list

    ops = op_list(workload, seed)
    if workload == "map-batch":
        check_inputs(ops, perms)
    tracer = Tracer() if traced else None
    undo = tracer.install(bijections, enumeration, qseries) if traced else None

    latencies: list[float] = []
    results: list = []
    first_op = time.monotonic()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = execute(op)
            else:
                tracer.op = i
                with tracer.span("bench.op"):
                    result = execute_traced(op, tracer)
        except Exception:  # a failed op is counted, not fatal
            result = OpError(traceback.format_exc(limit=3))
        latencies.append(time.perf_counter() - start)
        results.append(result)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if undo is not None:
        undo()

    failures, covered = check_results(ops, results, oracle.load_golden())
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "first_op_monotonic": first_op,
        "op_s": latencies,
        "wall_s": sum(latencies),
        "covered_perms": covered,
        "peak_rss_kb": peak_kb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
    }
    if tracer is not None:
        out["layers"] = layers.per_layer(ops, tracer.spans, tracer.counts, results)
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(spans_out, "wt") as fh:
                json.dump({"ops": [op.key for op in ops], "spans": tracer.spans}, fh)
    return out


def check_results(ops, results, golden: dict) -> tuple[list[dict], int]:
    """The failed ops, and the permutations the correct results cover.

    An op fails when it raised, when its result is wrong, or when the
    oracle itself cannot read the result.
    """
    import oracle

    failures = []
    covered = 0
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, OpError):
            problems = [result.text]
        else:
            try:
                problems = oracle.check(op, result, golden)
            except Exception:
                problems = ["oracle raised: " + traceback.format_exc(limit=3)]
        if problems:
            failures.append({"op": i, "key": op.key, "problems": problems})
        elif op.kind == "cli_check":
            covered += golden["verify_perms"][op.params[0]]
        else:
            covered += oracle.covered_perms(op, result)
    return failures, covered


class OpError:
    """An exception an op raised, kept as its result."""

    def __init__(self, text: str) -> None:
        self.text = text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    out = run_rep(args.workload, args.seed, bool(args.traced), args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
