"""Rebuild ``golden.json``: digests of every op a seed can draw.

Run from the repository root as ``python3 perfbench/record_golden.py``.
Only record from a commit whose outputs are known to be right: the
independent checks of ``oracle.py`` must pass on every recorded op, and
the digests then pin the rest of each output.  Takes a few minutes.
"""

from __future__ import annotations

import json
import platform
import sys

from worker import import_library

import_library()

import oracle  # noqa: E402
from ops import execute  # noqa: E402
from run import git_commit  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import golden_pool  # noqa: E402


def main() -> int:
    from crossperm import enumeration

    digests: dict[str, str] = {}
    verify_perms: dict[str, int] = {}
    # verify first and in order, in a process whose caches are still empty,
    # so that the emitted-permutation counts match a fresh repetition.
    tracer = Tracer()
    real_generate = enumeration.generate
    enumeration.generate = tracer.counted(real_generate, "emitted")
    try:
        for op in golden_pool("verify"):
            before = tracer.counts["emitted"]
            result = execute(op)
            verify_perms[op.params[0]] = tracer.counts["emitted"] - before
            _record(op, result, digests)
    finally:
        enumeration.generate = real_generate
    for workload in ("formula", "dist-mix"):
        for op in golden_pool(workload):
            _record(op, execute(op), digests)
    payload = {
        "recorded_at_commit": git_commit(),
        "python": platform.python_version(),
        "verify_perms": verify_perms,
        "digests": digests,
    }
    oracle.GOLDEN_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {oracle.GOLDEN_PATH}")
    return 0


def _record(op, result, digests: dict) -> None:
    problems = oracle.check(op, result, {"digests": {op.key: oracle.digest(result)}})
    if problems:
        raise SystemExit(f"{op.key}: {problems}")
    digests[op.key] = oracle.digest(result)


if __name__ == "__main__":
    sys.exit(main())
