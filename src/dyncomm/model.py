"""Probability kernels of the link-community generative model.

Edges of a snapshot are seated at community "tables" by a Chinese
restaurant process (concentration ``alpha``); at later snapshots the
recurrent variant adds the previous snapshot's table sizes to the seating
weights.  Each community ``r`` carries a node-importance vector ``beta_r``
on the simplex (Dirichlet ``gamma`` prior), and an edge (i, j) seated at
``r`` is generated with probability ``beta_ir * beta_jr``.

Everything here is a pure function of its inputs.  The sampler engine has
vectorized twins of the hot kernels; these map-based forms are the
readable reference and are what the tests exercise directly.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
from scipy.special import gammaln

from .graphs import SnapshotGraph

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class HyperParams:
    """Model and sampler hyper-parameters with their default values.

    Attributes
    ----------
    alpha : float
        Concentration of the seating process; larger values favour more
        communities.  Must be positive.
    gamma : float
        Dirichlet concentration for node-importance vectors, broadcast to
        every node.  Must be positive.
    theta : float
        Membership threshold in (0, 1]: node i joins community r when its
        soft membership is at least ``theta`` times its maximum one.
    s_first : int
        Gibbs samples to retain on the first snapshot.
    s_later : int
        Gibbs samples to retain on every later snapshot.
    k0_divisor : int
        First-snapshot initialization spreads edges over
        ``max(1, n_nodes // k0_divisor)`` communities.
    """

    alpha: float = 0.1
    gamma: float = 0.1
    theta: float = 0.7
    s_first: int = 100
    s_later: int = 50
    k0_divisor: int = 5

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive, got %r" % (self.alpha,))
        if not self.gamma > 0:
            raise ValueError("gamma must be positive, got %r" % (self.gamma,))
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1], got %r" % (self.theta,))
        for name in ("s_first", "s_later", "k0_divisor"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be a positive integer" % name)


class CommunityStats:
    """Sufficient statistics of an edge assignment.

    ``n[r]`` is the number of edges seated at community r; and
    ``endpoint_counts[(i, r)]`` is the number of those edges incident to
    node i.  Each edge contributes its two endpoints, so the endpoint
    counts of a community sum to ``2 * n[r]``.
    """

    def __init__(self, n: Mapping[int, int] | None = None,
                 endpoint_counts: Mapping[tuple[int, int], int] | None = None):
        self.n: dict[int, int] = dict(n or {})
        self.endpoint_counts: dict[tuple[int, int], int] = dict(endpoint_counts or {})

    @classmethod
    def from_assignment(cls, assignment: Mapping[EdgeKey, int]) -> "CommunityStats":
        n: Counter = Counter()
        ec: Counter = Counter()
        for (u, v), r in assignment.items():
            n[r] += 1
            ec[(u, r)] += 1
            ec[(v, r)] += 1
        return cls(dict(n), dict(ec))

    @property
    def m(self) -> int:
        return sum(self.n.values())

    def live(self) -> list[int]:
        return sorted(r for r, c in self.n.items() if c > 0)

    def endpoint_vector(self, r: int, nodes: Iterable[int]) -> np.ndarray:
        """Endpoint counts of community r as a vector in ``nodes`` order."""
        return np.array([self.endpoint_counts.get((i, r), 0) for i in nodes],
                        dtype=np.float64)


class BetaMatrix:
    """Node-importance vectors, one per community, over a fixed node order."""

    def __init__(self, nodes: Iterable[int], vectors: Mapping[int, np.ndarray]):
        self.nodes: tuple[int, ...] = tuple(nodes)
        self.vectors: dict[int, np.ndarray] = {}
        for r, vec in vectors.items():
            v = np.asarray(vec, dtype=np.float64)
            if v.shape != (len(self.nodes),):
                raise ValueError("beta vector for community %r has shape %r, "
                                 "expected (%d,)" % (r, v.shape, len(self.nodes)))
            if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
                raise ValueError("beta vector for community %r is not on the simplex" % r)
            self.vectors[int(r)] = v

    @cached_property
    def node_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @property
    def communities(self) -> list[int]:
        return sorted(self.vectors)

    def vector(self, r: int) -> np.ndarray:
        if r not in self.vectors:
            raise ValueError("unknown community %r" % (r,))
        return self.vectors[r]

    def value(self, r: int, i: int) -> float:
        return float(self.vector(r)[self.node_index[i]])


def gamma_vector(gamma, n_nodes: int) -> np.ndarray:
    """Broadcast a scalar concentration to length ``n_nodes`` (vectors pass through)."""
    vec = np.asarray(gamma, dtype=np.float64)
    if vec.ndim == 0:
        vec = np.full(n_nodes, float(vec))
    if vec.shape != (n_nodes,):
        raise ValueError("gamma has shape %r, expected scalar or (%d,)"
                         % (vec.shape, n_nodes))
    if np.any(vec <= 0):
        raise ValueError("gamma entries must be positive")
    return vec


def crp_weights(stats: CommunityStats, alpha: float) -> tuple[dict[int, float], float]:
    """Seating weights of the Chinese restaurant process.

    Returns
    -------
    existing : dict
        Community id -> weight ``n_r`` for every occupied community.
    new : float
        Weight ``alpha`` of opening a new community.  The caller
        normalizes; the shared denominator cancels.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    existing = {r: float(c) for r, c in stats.n.items() if c > 0}
    return existing, float(alpha)


def rcrp_weights(prev: CommunityStats, cur: CommunityStats,
                 alpha: float) -> tuple[dict[int, float], float]:
    """Seating weights of the recurrent process at snapshots after the first.

    A community occupied on the previous snapshot keeps its old popularity:
    its weight is ``n_{r,prev} + n_{r,cur}`` (so it stays available even
    with no current edges).  A community born this snapshot weighs
    ``n_{r,cur}`` alone, and a brand-new one weighs ``alpha``.  With an
    empty ``prev`` this reduces exactly to ``crp_weights`` on ``cur``.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    existing: dict[int, float] = {}
    for r, c in prev.n.items():
        if c > 0:
            existing[r] = float(c) + float(cur.n.get(r, 0))
    for r, c in cur.n.items():
        if c > 0 and r not in existing:
            existing[r] = float(c)
    return existing, float(alpha)


def edge_likelihood(beta: BetaMatrix, r: int, i: int, j: int) -> float:
    """Probability ``beta_ir * beta_jr`` of edge (i, j) under community r."""
    return beta.value(r, i) * beta.value(r, j)


def new_group_weight(gamma, n_nodes: int, alpha: float, i: int, j: int) -> float:
    """Marginal seating weight of a brand-new community for edge (i, j).

    Integrating the edge likelihood over the Dirichlet prior gives the
    ratio of two Dirichlet normalizers, which collapses to

        alpha * gamma_i * gamma_j / (gamma_0 * (gamma_0 + 1)),

    with ``gamma_0`` the sum of all concentrations.  ``i`` and ``j`` are
    positions in the node order (used only when gamma is a vector).
    """
    if i == j:
        raise ValueError("self-loop (%d, %d): new-community weight undefined" % (i, j))
    vec = gamma_vector(gamma, n_nodes)
    g0 = float(vec.sum())
    return float(alpha) * float(vec[i]) * float(vec[j]) / (g0 * (g0 + 1.0))


def crp_log_prob(sizes: Iterable[int], alpha: float) -> float:
    """Log probability of a partition under the exchangeable seating process.

    For occupied table sizes ``n_1..n_K`` with ``M`` customers total:
    ``K log(alpha) + sum_r log Gamma(n_r) + log Gamma(alpha) - log Gamma(alpha + M)``.
    """
    ns = [int(s) for s in sizes if s > 0]
    m = sum(ns)
    if m == 0:
        return 0.0
    out = len(ns) * math.log(alpha) + float(gammaln(alpha) - gammaln(alpha + m))
    out += float(sum(gammaln(s) for s in ns))
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
    stats = CommunityStats.from_assignment(assignment)
    gvec = gamma_vector(hyper.gamma, graph.n)
    idx = graph.node_index
    g0 = float(gvec.sum())
    score = crp_log_prob(stats.n.values(), hyper.alpha)
    per_node: dict[int, list[tuple[int, int]]] = {}
    for (i, r), c in stats.endpoint_counts.items():
        per_node.setdefault(r, []).append((i, c))
    for r, n_r in stats.n.items():
        for i, c in per_node.get(r, []):
            gi = gvec[idx[i]]
            score += float(gammaln(gi + c) - gammaln(gi))
        score -= float(gammaln(g0 + 2 * n_r) - gammaln(g0))
    return score
