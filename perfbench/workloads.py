"""Seeded op lists for the four benchmark workloads.

The seed picks the concrete instances (statistics, refinements, the
permutations in a batch, the sizes inside a band, the op order); the op
kinds, their proportions and the size bands are fixed, so every seed asks
the same amount of work of the same layers.  Nothing here imports the
library: the worker hands the ops to it.

Why each workload exists, and which layer it loads:

- ``dist-mix``: distribution, joint and count queries.  The walk
  (``enumeration``) and the statistics (``perms``) do nearly all the work;
  the pair classes show the walk's dead ends, the length-4 op the generic
  occurrence test.
- ``map-batch``: batches of 321- and 132-avoiders (built here, never by
  ``generate``) through the ten public maps of ``bijections``; the walk
  does no work.
- ``formula``: the q-series side with no enumeration (``qseries``), plus
  ``series`` through the ``cli``.
- ``verify``: the user's verification path, ``check <name> --json``
  through the ``cli``, in registry order with the caches shared across
  checks as in one ``check`` invocation.
"""

from __future__ import annotations

import dataclasses
import json
import random
from itertools import combinations

WORKLOADS = ("dist-mix", "map-batch", "formula", "verify")

PATTERNS3 = ("123", "132", "213", "231", "312", "321")
CATALAN3 = ("321", "132", "213")
# All 15 two-element sets of length-3 patterns: the 14 with a closed form
# plus {132,213}, which has only a recurrence.
PAIRS = tuple(",".join(p) for p in combinations(PATTERNS3, 2))
LEN4 = ("1324", "2143", "1234", "1342", "1243", "1432", "2413", "3142")
STATS6 = ("crs", "nes", "inv", "maj", "exc", "des")
JOINT_STATS = (("exc", "crs"), ("fp", "exc", "crs"))
REFINEMENTS = ("none", "one-at", "last")

# dist-mix sizes.  One size up (singles at 9, pairs at 9 or 10) a
# fresh-process repetition takes 4-10 s; at these it takes under two, and
# a run holds a dozen: on a shared machine the median of many short
# repetitions is far steadier.
SINGLE_NS = (7, 8)
PAIR_N = 8
JOINT_N = 8
LEN4_N = 7

MAPS = (
    "theta",
    "theta_pipeline",
    "theta_inverse",
    "gamma",
    "psi",
    "phi_inverse",
    "rsk_two_row",
    "rsk_by_bumping",
    "f_k",
    "g_k",
)
# Which input each map takes: 321-avoiders, 132-avoiders, Dyck words, or
# (321-avoider of length n-1, k) pairs for f_k.
MAP_INPUT = {m: "321" for m in MAPS}
MAP_INPUT.update(theta_inverse="132", phi_inverse="dyck", f_k="fk")
MAP_SIZES = (12, 16, 20)
BATCH = 200

CATALAN_N = 20
CF_CATALAN_ORDER = 20
CF_BI_ORDER = 10
CLOSED_PAIRS = tuple(p for p in PAIRS if p != "132,213")
CLOSED_SINGLE_NS = (18, 19, 20)
CLOSED_LOW = range(14, 18)
CLOSED_HIGH = range(18, 21)
TABLE_NS = range(14, 21)
SERIES_ORDER = 14

# (check, cap): the suites perm-lemmas, bijections, series and generation
# plus closed-forms-pairs, in registry order.  Caps sit below the defaults
# (which take about 30 s) so that one repetition takes about two seconds.
VERIFY_CHECKS = (
    ("crs-decomposition", 6),
    ("crs-star-split", 6),
    ("inverse-crossings", 6),
    ("append-one", 6),
    ("insert-one", 6),
    ("reverse-complement", 6),
    ("insert-letter", 6),
    ("insert-front", 6),
    ("tail-fixed-insert", 6),
    ("sum-ops", 6),
    ("product-ops", 6),
    ("sum-product-exchange", 7),
    ("theta-routes-agree", 7),
    ("theta-preserves-crs", 7),
    ("theta-inverse-roundtrip", 7),
    ("gamma-preserves", 7),
    ("rsk-routes-agree", 7),
    ("rsk-duality", 7),
    ("psi-injective", 6),
    ("dyck-balance", 7),
    ("matching-columns", 7),
    ("phi-roundtrip", 6),
    ("f-laws", 7),
    ("g-laws", 7),
    ("one-at-end-slice", 7),
    ("closed-forms-pairs", 8),
    ("cf-catalan", 10),
    ("cf-crs-nes", 6),
    ("gf-relations", 8),
    ("generate-lex-unique", 6),
    ("refinement-partition", 6),
)


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed operation.

    ``params`` are JSON values and, with ``kind``, name the op in the
    golden table; ``inputs`` holds a map-batch op's permutations or words.
    """

    kind: str
    params: tuple
    inputs: tuple = ()

    @property
    def key(self) -> str:
        return json.dumps([self.kind, *self.params], separators=(",", ":"))


def pattern_class(pats: str) -> str:
    """The generate-metric family of a pattern set."""
    words = pats.split(",")
    if any(len(w) == 4 for w in words):
        return "len4"
    return "pair3" if len(words) == 2 else "single3"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def balanced(rng: random.Random, choices, count: int) -> list:
    """``count`` picks that use every choice equally often, in seeded order.

    Drawing independently would let one seed pick, say, mostly unrefined
    queries and another mostly refined ones, which costs differ.
    """
    picks = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _dist_op(rng: random.Random, n: int, pats: str, stat: str, refinement: str) -> Op:
    k = None if refinement == "none" else rng.randint(1, n)
    return Op("dist", (n, pats, stat, refinement, k))


def dist_mix(seed: int) -> list[Op]:
    rng = _rng("dist-mix", seed)
    ops = []
    sizes = balanced(rng, SINGLE_NS, len(PATTERNS3))
    stats = balanced(rng, STATS6, len(PATTERNS3))
    refinements = balanced(rng, REFINEMENTS, len(PATTERNS3))
    for pat, n, stat, refinement in zip(PATTERNS3, sizes, stats, refinements):
        ops.append(_dist_op(rng, n, pat, stat, refinement))
    for pair, kind in zip(PAIRS, balanced(rng, ("count",) * 3 + REFINEMENTS * 4, len(PAIRS))):
        if kind == "count":
            ops.append(Op("count", (PAIR_N, pair)))
        else:
            ops.append(_dist_op(rng, PAIR_N, pair, "crs", kind))
    for stats in JOINT_STATS:
        ops.append(Op("joint", (JOINT_N, rng.choice(CATALAN3), list(stats))))
    ops.append(Op("dist", (LEN4_N, rng.choice(LEN4), rng.choice(STATS6), "none", None)))
    rng.shuffle(ops)
    return ops


def merge_321(rng: random.Random, n: int) -> tuple[int, ...]:
    """A shuffle of two increasing runs, which always avoids 321."""
    first = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
    second = sorted(set(range(1, n + 1)) - set(first))
    slots = set(rng.sample(range(n), len(first)))
    a, b = iter(first), iter(second)
    return tuple(next(a) if i in slots else next(b) for i in range(n))


def stack_132(rng: random.Random, n: int) -> tuple[int, ...]:
    """alpha n beta with alpha above beta, recursively: a 132-avoider."""
    if n == 0:
        return ()
    left = rng.randint(0, n - 1)
    right = n - 1 - left
    alpha = tuple(v + right for v in stack_132(rng, left))
    return alpha + (n,) + stack_132(rng, right)


def dyck_word(rng: random.Random, n: int) -> str:
    """A uniform Dyck word of semilength n, by the cycle lemma."""
    steps = ["u"] * n + ["d"] * (n + 1)
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, ch in enumerate(steps):
        height += 1 if ch == "u" else -1
        if height < low:
            low, cut = height, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def _map_input(rng: random.Random, kind: str, n: int):
    if kind == "321":
        return merge_321(rng, n)
    if kind == "132":
        return stack_132(rng, n)
    if kind == "dyck":
        return dyck_word(rng, n)
    return merge_321(rng, n - 1), rng.randint(1, n)


def map_batch(seed: int) -> list[Op]:
    rng = _rng("map-batch", seed)
    ops = []
    for name in MAPS:
        for n in MAP_SIZES:
            batch = tuple(_map_input(rng, MAP_INPUT[name], n) for _ in range(BATCH))
            ops.append(Op("map", (name, n), batch))
    rng.shuffle(ops)
    return ops


def formula(seed: int) -> list[Op]:
    rng = _rng("formula", seed)
    ops = [
        Op("cf_series", ("catalan", CF_CATALAN_ORDER)),
        Op("cf_series", ("bi", CF_BI_ORDER)),
        Op("r_table", (rng.choice(TABLE_NS),)),
        Op("dist_213_132", (rng.choice(TABLE_NS),)),
        # Fixed, as it covers C_n permutations: a seeded n would make
        # perms_per_s differ between seeds by far more than the timing does.
        Op("inv_dist_321", (CATALAN_N,)),
    ]
    # The single classes go through C_n(q, p), which costs far more than a
    # pair's closed form.  Fixed sizes keep that cost the same for every
    # seed, and nine such ops put p90 inside their group, not at its edge.
    ops += [Op("closed_form", (pat, n)) for pat in CATALAN3 for n in CLOSED_SINGLE_NS]
    for band in (CLOSED_LOW, CLOSED_HIGH):
        for pats, n in zip(CLOSED_PAIRS, balanced(rng, tuple(band), len(CLOSED_PAIRS))):
            ops.append(Op("closed_form", (pats, n)))
    ops += [Op("cli_series", (pats, SERIES_ORDER)) for pats in PAIRS]
    rng.shuffle(ops)
    # First, so that it always runs against an empty cache.
    return [Op("catalan_qp", (CATALAN_N,))] + ops


def verify(seed: int) -> list[Op]:
    """The check list is fixed: registry order is part of what it measures."""
    return [Op("cli_check", (name, cap)) for name, cap in VERIFY_CHECKS]


BUILDERS = {"dist-mix": dist_mix, "map-batch": map_batch, "formula": formula, "verify": verify}


def op_list(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def golden_pool(workload: str) -> list[Op]:
    """Every op a seed can draw for a workload with a golden table."""
    if workload == "dist-mix":
        ops = []
        for n in SINGLE_NS:
            for pat in PATTERNS3:
                for stat in STATS6:
                    ops += _refined(n, pat, stat)
        for pair in PAIRS:
            ops.append(Op("count", (PAIR_N, pair)))
            ops += _refined(PAIR_N, pair, "crs")
        for stats in JOINT_STATS:
            ops += [Op("joint", (JOINT_N, pat, list(stats))) for pat in CATALAN3]
        ops += [
            Op("dist", (LEN4_N, pat, stat, "none", None)) for pat in LEN4 for stat in STATS6
        ]
        return ops
    if workload == "formula":
        ops = [
            Op("catalan_qp", (CATALAN_N,)),
            Op("cf_series", ("catalan", CF_CATALAN_ORDER)),
            Op("cf_series", ("bi", CF_BI_ORDER)),
        ]
        for kind in ("r_table", "dist_213_132"):
            ops += [Op(kind, (n,)) for n in TABLE_NS]
        ops.append(Op("inv_dist_321", (CATALAN_N,)))
        for pats in CLOSED_PAIRS:
            ops += [Op("closed_form", (pats, n)) for n in (*CLOSED_LOW, *CLOSED_HIGH)]
        ops += [Op("closed_form", (pat, n)) for pat in CATALAN3 for n in CLOSED_SINGLE_NS]
        ops += [Op("cli_series", (pats, SERIES_ORDER)) for pats in PAIRS]
        return ops
    if workload == "verify":
        return verify(0)
    raise ValueError(f"{workload} draws unbounded inputs and has no golden table")


def _refined(n: int, pats: str, stat: str) -> list[Op]:
    ops = [Op("dist", (n, pats, stat, "none", None))]
    for refinement in REFINEMENTS[1:]:
        ops += [Op("dist", (n, pats, stat, refinement, k)) for k in range(1, n + 1)]
    return ops
