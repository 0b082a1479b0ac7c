"""Crossings and nestings over pattern-avoiding permutations.

Modules:

- ``perms``: one-line-notation primitives, arc statistics, word surgery.
- ``bijections``: the tableau/Dyck-path chain and the statistic-preserving
  maps built from it.
- ``qseries``: exact integer polynomials and the distribution recurrences.
- ``enumeration``: brute-force generation, distribution queries, and the
  identity-verification suites.
- ``cli``: the ``crossperm`` command-line interface.
"""

from .perms import (
    Perm,
    as_perm,
    avoids,
    contains_pattern,
    crossings,
    crs,
    direct_product,
    direct_sum,
    identity,
    insert,
    inverse,
    involution,
    nestings,
    nes,
    product_decompose,
    reduce_word,
    sum_decompose,
)
from .bijections import (
    gamma,
    matching_set,
    phi,
    phi_inverse,
    psi,
    rsk_two_row,
    theta,
    theta_inverse,
    tunnels,
)

__all__ = [
    "Perm",
    "as_perm",
    "avoids",
    "contains_pattern",
    "crossings",
    "crs",
    "direct_product",
    "direct_sum",
    "gamma",
    "identity",
    "insert",
    "inverse",
    "involution",
    "matching_set",
    "nestings",
    "nes",
    "phi",
    "phi_inverse",
    "product_decompose",
    "psi",
    "reduce_word",
    "rsk_two_row",
    "sum_decompose",
    "theta",
    "theta_inverse",
    "tunnels",
]
