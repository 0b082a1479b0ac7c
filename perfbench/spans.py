"""In-memory spans recorded around calls into the library's modules.

A span is ``[name, start_ns, end_ns, parent_index, op_index]``; the first
component of its name is the layer it is charged to (``bench``, ``perms``,
``enumeration``, ``bijections``, ``qseries``, ``cli``).  Spans are recorded
only from the benchmark's own files: the traced executors open them around
library calls, and ``install`` wraps a few module attributes that the
library itself looks up at call time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from collections.abc import Callable

LAYERS = ("bench", "perms", "enumeration", "bijections", "qseries", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """``fn`` recording a span per call; ``name`` may be computed from the args."""
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            idx = self._open(namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def counted(self, gen_fn: Callable, counter: str) -> Callable:
        """A generator function that counts the items ``gen_fn`` yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    def install(self, bijections, enumeration, qseries) -> Callable[[], None]:
        """Wrap the library attributes other modules call through; returns undo."""
        saved = []

        def patch(module, attr: str, new) -> None:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        patch(
            bijections,
            "contains_pattern",
            self.wrap(
                bijections.contains_pattern,
                lambda sigma, tau: "perms.contains_pattern." + "".join(map(str, tau)),
            ),
        )
        for attr in ("reduce_word", "insert", "inverse", "involution"):
            patch(bijections, attr, self.wrap(getattr(bijections, attr), "perms." + attr))
        patch(enumeration, "verify", self.wrap(enumeration.verify, "enumeration.verify"))
        patch(enumeration, "generate", self.counted(enumeration.generate, "generate.perms"))
        for attr in ("closed_form", "dist_213_132", "catalan_qp", "cf_series", "r_table", "inv_dist_321"):
            patch(qseries, attr, self.wrap(getattr(qseries, attr), "qseries." + attr))

        def undo() -> None:
            for module, attr, old in reversed(saved):
                setattr(module, attr, old)

        return undo


def durations(spans: list[list]) -> tuple[list[int], list[int]]:
    """Each span's duration and self time (duration minus its children's), in ns."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def layer_self_ms(spans: list[list]) -> dict[str, float]:
    _, self_ns = durations(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_ns):
        out[s[0].split(".", 1)[0]] += t / 1e6
    return out
