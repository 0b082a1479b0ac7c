"""The crossperm benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload dist-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: dist-mix, map-batch, formula,
verify (see ``workloads.py`` for what each loads and why).

Load model: a closed loop with one client and no threads.  Each repetition
of the workload's fixed op list runs in a fresh Python process, one after
another, so the library's module caches start cold every time; cold-cache
cost is part of the timed work.  Repetitions start until the next one
would overrun ``--seconds`` (at least three, four when traced).  Only the
benchmark's own processes are measured; nothing machine-wide is traced or
tuned.

``--trace 0`` prints the end-to-end metrics, each a median over the
repetitions.  ``--trace 1`` alternates plain and traced repetitions and
prints the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
provenance goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dist-mix", "map-batch", "formula", "verify")
REP_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "perms_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "measured": "only the benchmark's own processes; nothing machine-wide traced or tuned",
    }


def run_worker(workload: str, seed: int, traced: bool, spans_out: Path | None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["first_op_monotonic"] - spawned
    rep["process_s"] = ended - spawned
    return rep


def repetitions(args) -> list[dict]:
    """Fresh-process repetitions until the next would overrun the time."""
    deadline = time.monotonic() + args.seconds
    minimum = 4 if args.trace else 3
    reps: list[dict] = []
    while True:
        if len(reps) >= minimum:
            expected = statistics.median(r["process_s"] for r in reps)
            if time.monotonic() + expected > deadline:
                return reps
        # A traced run alternates plain and traced repetitions, so that the
        # tracing overhead compares neighbours.
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans_out = OUT / "spans" / f"{args.workload}-s{args.seed}-r{len(reps)}.json.gz" if traced else None
        reps.append(run_worker(args.workload, args.seed, traced, spans_out))


def end_to_end(reps: list[dict]) -> dict[str, float]:
    latencies_ms = sorted(x * 1e3 for r in reps for x in r["op_s"])
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_ms.p50": statistics.median(latencies_ms),
        "op_ms.p90": deciles[8],
        "perms_per_s": statistics.median(r["covered_perms"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    plain_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "crossperm" / "__init__.py").is_file():
        print(f"error: no crossperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        for old in (OUT / "spans").glob(f"{args.workload}-s{args.seed}-r*.json.gz"):
            old.unlink()
    try:
        reps = repetitions(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from layers import metric_units

    units = metric_units() if args.trace else END_TO_END
    values = per_layer(reps) if args.trace else end_to_end(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    prov = provenance(args)
    n_ops = sum(len(r["op_s"]) for r in reps)

    for key, value in prov.items():
        print(f"# {key}: {value}")
    print(f"# repetitions: {len(reps)} ({sum(r['traced'] for r in reps)} traced), ops timed: {n_ops}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for r in reps:
        for f in r["failures"]:
            print(f"FAILED op {f['op']} {f['key']}: {f['problems']}")

    OUT.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": values, "attempted": attempted, "failed": failed,
              "repetitions": [{k: v for k, v in r.items() if k != "op_s"} for r in reps]}
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
