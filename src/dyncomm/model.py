"""Probability kernels of the link-community generative model.

Edges of a snapshot are seated at community "tables" by a Chinese
restaurant process (concentration ``alpha``); at later snapshots the
recurrent variant adds the previous snapshot's table sizes to the seating
weights.  Each community ``r`` carries a node-importance vector ``beta_r``
on the simplex (Dirichlet ``gamma`` prior), and an edge (i, j) seated at
``r`` is generated with probability ``beta_ir * beta_jr``.

The module holds the hyper-parameters and the exact collapsed score of an
edge partition (the seating prior times the Dirichlet-marginal likelihood),
which the sampler's long-run behaviour is tested against; it counts each
community's size and endpoint counts itself.  The seating weights are
computed in one place, ``SamplerState`` in ``sampler.py``.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import SnapshotGraph

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class HyperParams:
    """Model and sampler hyper-parameters with their default values.

    Attributes
    ----------
    alpha : float
        Concentration of the seating process; larger values favour more
        communities.  Must be positive and finite.
    gamma : float
        Dirichlet concentration for node-importance vectors, broadcast to
        every node.  Must be positive and finite.
    theta : float
        Membership threshold in (0, 1]: node i joins community r when its
        soft membership is at least ``theta`` times its maximum one.
    s_first : int
        Gibbs samples to retain on the first snapshot.
    s_later : int
        Gibbs samples to retain on every later snapshot.

    The first snapshot's starting community count is fixed, not set here
    (``_K0_DIVISOR`` in ``sampler.py``).
    """

    alpha: float = 0.1
    gamma: float = 0.1
    theta: float = 0.7
    s_first: int = 100
    s_later: int = 50

    def __post_init__(self):
        for name in ("alpha", "gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1], got %r" % (self.theta,))
        for name in ("s_first", "s_later"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))


def crp_log_prob(sizes: Iterable[int], alpha: float) -> float:
    """Log probability of a partition under the exchangeable seating process.

    For occupied table sizes ``n_1..n_K`` with ``M`` customers total:
    ``K log(alpha) + sum_r log Gamma(n_r) + log Gamma(alpha) - log Gamma(alpha + M)``.
    """
    ns = [int(s) for s in sizes if s > 0]
    m = sum(ns)
    if m == 0:
        return 0.0
    out = len(ns) * math.log(alpha) + (math.lgamma(alpha) - math.lgamma(alpha + m))
    out += sum(math.lgamma(s) for s in ns)
    return out


def collapsed_partition_score(assignment: Mapping[EdgeKey, int],
                              graph: SnapshotGraph, hyper: HyperParams) -> float:
    """Exact log score of an edge partition with the beta vectors integrated out.

    ``log p(partition) + sum_r [log C(gamma + N_r) - log C(gamma)]`` where
    ``N_r`` is community r's endpoint-count vector and C the Dirichlet
    normalizer.  Exponentiated and normalized over all partitions of the
    edge set this is the exact posterior, which makes it the reference the
    sampler's long-run behaviour is tested against.  Test oracle only; the
    production sampler never integrates beta out.
    """
    for u, v in graph.edges:
        if (u, v) not in assignment:
            raise ValueError("edge (%d, %d) is unassigned" % (u, v))
    n = Counter(assignment.values())
    endpoints = Counter(ir for (u, v), r in assignment.items() for ir in ((u, r), (v, r)))
    gamma = hyper.gamma
    g0 = graph.n * gamma
    score = crp_log_prob(n.values(), hyper.alpha)
    for c in endpoints.values():
        score += math.lgamma(gamma + c) - math.lgamma(gamma)
    for n_r in n.values():
        score -= math.lgamma(g0 + 2 * n_r) - math.lgamma(g0)
    return score
