"""Seeded samplers of pattern-avoiding permutations for the law tests."""

import random


def two_run_merges(n, count, seed):
    """`count` seeded 321-avoiders of length n, each two increasing runs merged.

    A permutation avoids 321 exactly when it is the union of two increasing
    subsequences, so splitting 1..n at random into two sorted runs and
    interleaving them at random gives one.
    """
    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        first = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        runs = (iter(sorted(first)), iter(sorted(set(range(1, n + 1)) - first)))
        slots = set(rng.sample(range(n), len(first)))
        batch.append(tuple(next(runs[i not in slots]) for i in range(n)))
    return batch
