"""Per-edge reference kernels of the seating rule, used only by the tests.

The sampler computes the seating weights of every live community at once
in ``SamplerState``.  These are the same formulas written out one edge and
one community at a time, keyed by community id, so a test can check the
engine against a form that shares none of its code:

    weight of community r = (n_r + n_r^prev) * beta_ir * beta_jr
    weight of a new one   = alpha * gamma_i * gamma_j / (gamma_0 * (gamma_0 + 1))

Three functions act on a ``SamplerState`` itself: they take one edge out
of its community and read the weights the engine would draw it with, which
only the tests need.  The last two are the edge-list invariants written out
edge by edge: ``edge_key`` gives an edge's canonical form, and ``validate``
lists every way a ``SnapshotGraph`` breaks the invariants that
``load_dynamic`` and the generator must keep.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from dyncomm.graphs import GraphFormatError, SnapshotGraph
from dyncomm.model import CommunityStats


def crp_weights(stats: CommunityStats, alpha: float) -> tuple[dict[int, float], float]:
    """Seating weights of the Chinese restaurant process: ``n_r`` for every
    occupied community and ``alpha`` for a new one (unnormalized)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    existing = {r: float(c) for r, c in stats.n.items() if c > 0}
    return existing, float(alpha)


def rcrp_weights(prev: CommunityStats, cur: CommunityStats,
                 alpha: float) -> tuple[dict[int, float], float]:
    """Seating weights of the recurrent process at snapshots after the first.

    A community occupied on the previous snapshot weighs ``n_prev + n_cur``
    (so it stays available with no current edges), one born this snapshot
    weighs ``n_cur``, and a brand-new one ``alpha``.  With an empty ``prev``
    this is ``crp_weights`` on ``cur``.
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


def edge_likelihood(beta: Mapping[int, np.ndarray], r: int, i: int, j: int) -> float:
    """Probability ``beta_ir * beta_jr`` of an edge between the nodes at
    positions i and j under community r; ``beta`` maps id -> beta row."""
    return float(beta[r][i]) * float(beta[r][j])


def gamma_vector(gamma, n_nodes: int) -> np.ndarray:
    """Broadcast a scalar concentration to length ``n_nodes`` (vectors pass through)."""
    vec = np.asarray(gamma, dtype=np.float64)
    if vec.ndim == 0:
        vec = np.full(n_nodes, float(vec))
    if vec.shape != (n_nodes,):
        raise ValueError("gamma has shape %r, expected scalar or (%d,)"
                         % (vec.shape, n_nodes))
    return vec


def new_group_weight(gamma, n_nodes: int, alpha: float, i: int, j: int) -> float:
    """Marginal seating weight of a brand-new community for the edge between
    node positions i and j: alpha times E[beta_i * beta_j] under the
    Dirichlet(gamma) prior, a ratio of two Dirichlet normalizers that
    collapses to ``alpha * gamma_i * gamma_j / (gamma_0 * (gamma_0 + 1))``.
    ``gamma`` may be a scalar or one concentration per node.
    """
    if i == j:
        raise ValueError("self-loop (%d, %d): new-community weight undefined" % (i, j))
    vec = gamma_vector(gamma, n_nodes)
    g0 = float(vec.sum())
    return float(alpha) * float(vec[i]) * float(vec[j]) / (g0 * (g0 + 1.0))


def edge_index(state, e) -> int:
    """Position of edge e in the sampler state's edge order."""
    return state.graph.edges.index(e)


def remove_edge(state, e) -> None:
    """Take edge e out of its community in a ``SamplerState`` (leave-one-out form)."""
    state._remove_idx(edge_index(state, e))


def edge_weights(state, e) -> tuple[dict[int, float], float]:
    """Unnormalized seating weights a ``SamplerState`` would use for edge e
    (which must currently be removed): existing communities by id, and a
    brand-new one."""
    a = edge_index(state, e)
    if state._assign_row[a] >= 0:
        raise ValueError("edge %r must be removed before weighing" % (e,))
    rows = state._live_rows()
    w = state._seat_weights(a)
    return dict(zip(state._ids[rows].tolist(), w[rows].tolist())), state._new_w


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected form of an edge: ``(min(u, v), max(u, v))``.

    Raises GraphFormatError for a self-loop, which has no canonical form.
    """
    if u == v:
        raise GraphFormatError("self-loop (%d, %d) is not a valid edge" % (u, v))
    return (u, v) if u < v else (v, u)


def validate(g: SnapshotGraph) -> list[str]:
    """Check all SnapshotGraph invariants; return every violation found.

    An empty list means the snapshot is valid.
    """
    violations: list[str] = []
    node_set = set(g.nodes)
    for v in g.nodes:
        if v < 0:
            violations.append("negative node id %d" % v)
    seen: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if u == v:
            violations.append("self-loop (%d, %d)" % (u, v))
            continue
        if u > v:
            violations.append("non-canonical edge (%d, %d); expected u < v" % (u, v))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            violations.append("duplicate edge (%d, %d)" % key)
        seen.add(key)
        for x in (u, v):
            if x not in node_set:
                violations.append("dangling endpoint %d of edge (%d, %d)" % (x, u, v))
    return violations
