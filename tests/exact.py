"""Exact posteriors of tiny seatings, by enumeration, used only by the tests.

``set_partitions`` lists every partition of a few items once.
``carried_labelings`` lists every seating of a few edges on a snapshot
after the first: an edge sits at one of the communities carried over from
the previous snapshot or at a new table.  ``recurrent_score`` is the log
posterior of one seating, with beta integrated out, written out from the
model and sharing no code with the package:

    sum over carried r of  lgamma(prev_r + n_r) - lgamma(prev_r)
    + K_new * log(alpha) + sum over new r of lgamma(n_r)
    + lgamma(alpha + P) - lgamma(alpha + P + M)
    + sum over rows r holding edges of the Dirichlet-marginal likelihood
      sum_i [lgamma(gamma + C_ir) - lgamma(gamma)]
      - [lgamma(g0 + 2 n_r) - lgamma(g0)]

where ``n_r`` is community r's current size, ``prev_r`` its carried size,
``P`` the carried sizes' sum, ``M`` the edge count, ``C_ir`` node i's
endpoint count in r and ``g0 = N * gamma``.  With nothing carried it is
the collapsed score of the first snapshot.  ``canonical`` names a
sampler's seating the way ``carried_labelings`` does, so that an
empirical distribution over sweeps can be set against the enumeration.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of range(n) as restricted-growth label tuples: item k
    takes a label at most one above the largest label before it, so each
    partition appears exactly once."""
    out = []

    def grow(labels, used):
        if len(labels) == n:
            out.append(tuple(labels))
            return
        for lab in range(used + 1):
            grow(labels + [lab], max(used, lab + 1))

    grow([], 0)
    return out


def carried_labelings(m: int, carried: Sequence[int]) -> list[tuple[int, ...]]:
    """Every seating of m edges when the community ids ``carried`` come from
    the previous snapshot: an edge takes a carried id or a new table, and
    new tables are labelled -1, -2, ... in the order of their first edge,
    so each seating appears exactly once."""
    out = []

    def grow(labels, new):
        if len(labels) == m:
            out.append(tuple(labels))
            return
        for lab in (*carried, *range(-1, -new - 2, -1)):
            grow(labels + [lab], max(new, -lab))

    grow([], 0)
    return out


def canonical(ids: Sequence[int], carried: Sequence[int]) -> tuple[int, ...]:
    """The seating ``ids`` (one community id per edge) as
    ``carried_labelings`` names it: carried ids stay, and every other id
    becomes -1, -2, ... in the order of its first edge."""
    fresh: dict[int, int] = {}
    return tuple(r if r in carried else fresh.setdefault(r, -1 - len(fresh))
                 for r in ids)


def recurrent_score(labels: Sequence[int], ends: Sequence[tuple[int, int]],
                    n_nodes: int, alpha: float, gamma: float,
                    prev_counts: Mapping[int, int]) -> float:
    """The log posterior, up to a constant, of the seating ``labels`` of the
    edges ``ends`` (endpoint pairs in the same order) over ``n_nodes``
    nodes, given the carried sizes ``prev_counts``; the formula is in the
    module docstring."""
    total = sum(prev_counts.values())
    score = math.lgamma(alpha + total) - math.lgamma(alpha + total + len(labels))
    sizes = Counter(labels)
    for r, n_r in sizes.items():
        if r in prev_counts:
            score += math.lgamma(prev_counts[r] + n_r) - math.lgamma(prev_counts[r])
        else:
            score += math.log(alpha) + math.lgamma(n_r)
    endpoints = Counter()
    for (u, v), r in zip(ends, labels):
        endpoints[u, r] += 1
        endpoints[v, r] += 1
    for c in endpoints.values():
        score += math.lgamma(gamma + c) - math.lgamma(gamma)
    g0 = n_nodes * gamma
    for n_r in sizes.values():
        score -= math.lgamma(g0 + 2 * n_r) - math.lgamma(g0)
    return score
