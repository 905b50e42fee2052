"""Per-edge reference kernels of the seating rule, used only by the tests.

The sampler's ``gibbs_sweep`` draws the proposals of a block of up to 96
edges at once from an envelope of every community's weight, ``seats + 1``
in place of ``seats``, raises a row's envelope in place when a seating
lifts the row above it, and accepts each proposal by rejection or falls
back to the exact draw.  These are the exact formulas written out one
edge and one community at a time, keyed by community id, so a test can
check the engine against a form that shares none of its code:

    weight of community r = (n_r + n_r^prev) * beta_ir * beta_jr
    weight of a new one   = alpha * gamma_i * gamma_j / (gamma_0 * (gamma_0 + 1))

The functions from ``edge_index`` to ``edge_weights`` act on a
``SamplerState`` itself, one edge at a time: they take an edge out of its
row, weigh the rows for it, draw its community from the exact conditional
and seat it again.  ``per_visit_sweep`` is a sweep of those draws, the
edge pass before the envelope: its chain has the law of ``gibbs_sweep``'s.
Only the tests need them.  ``CommunityStats`` holds the per-community
sizes and endpoint counts of a seating that ``crp_weights`` and
``rcrp_weights`` weigh, and ``check_consistency`` recounts a state from
its seating and carried sizes.  ``edge_key`` gives an edge's canonical
form, ``edge_set`` a snapshot's edges as a set and ``membership_counts``
how many communities of a cover hold each node, and ``validate`` lists
every way a ``SnapshotGraph`` breaks the invariants that ``load_dynamic``
and the generator must keep, edge by edge.

The last three are earlier forms of production code, kept as oracles:
``init_assignments_carry_dict`` carries a seating over through a dict
keyed by endpoint pairs, where the sampler matches id arrays,
``extended_modularity_dense`` takes the inside term of the modularity from
two dense M x K gathers, where ``metrics`` visits only the (edge,
community) pairs inside a community, and ``generate_snapshot_per_attempt``
draws each rejection attempt's endpoints with two scalar calls and
recomputes the exact-placement candidates after every edge, where
``benchgen`` draws a round of attempts at once and filters its candidate
list only when an endpoint fills up.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Mapping

import numpy as np

from dyncomm.benchgen import GenConfig, GenError, _apportion
from dyncomm.graphs import GraphFormatError, SnapshotGraph
from dyncomm.membership import Cover
from dyncomm.metrics import _cover_matrix


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
    def from_assignment(cls, assignment: Mapping[tuple[int, int], int]) -> "CommunityStats":
        n: Counter = Counter()
        ec: Counter = Counter()
        for (u, v), r in assignment.items():
            n[r] += 1
            ec[(u, r)] += 1
            ec[(v, r)] += 1
        return cls(dict(n), dict(ec))


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


def row_of(state, cid: int) -> int:
    """The row of community ``cid`` in the state."""
    rows = np.flatnonzero(state._ids == cid)
    if len(rows) != 1:
        raise KeyError(cid)
    return int(rows[0])


def remove_idx(state, a: int) -> None:
    """Take edge index ``a`` out of its row; a row whose seat count reaches 0
    stays, weighing 0, until the state is compacted."""
    row = int(state._assign_row[a])
    if row < 0:
        raise ValueError("edge %r is not currently assigned" % (state.graph.edges[a],))
    state._assign_row[a] = -1
    state._seats[row] -= 1.0


def add_idx(state, a: int, cid: int) -> None:
    """Seat edge index ``a`` in community ``cid``."""
    row = row_of(state, cid)
    state._assign_row[a] = row
    state._seats[row] += 1.0


def seat_weights(state, a: int) -> np.ndarray:
    """The seating weight of every row for removed edge index ``a``:
    (current + carried size) times the edge likelihood.  An emptied row has
    seat count 0, so it weighs 0."""
    i, j = state.graph.edge_array[a]
    return state._seats * state._beta[i] * state._beta[j]


def draw_for_edge(state, a: int) -> int:
    """Draw a community id for removed edge index ``a`` from its exact
    conditional, with one ``rng.random()``; choosing a brand-new community
    opens one, with a fresh id and a beta drawn given edge ``a``."""
    ends = state.graph.edge_array[a]
    w = np.cumsum(seat_weights(state, a))
    total = float(w[-1]) + state._new_w
    if not 0.0 < total < math.inf:
        return state._create_community(*ends)
    row = int(w.searchsorted(state.rng.random() * total, side="right"))
    if row >= len(w):
        return state._create_community(*ends)
    return int(state._ids[row])


def per_visit_sweep(state) -> None:
    """One sweep that makes the exact seating draw at every edge visit: the
    edge pass ``gibbs_sweep`` made before it drew its proposals per block,
    with one ``rng.random()`` per visit.  Its chain has the same law as
    ``gibbs_sweep``'s, through a different random stream."""
    rng = state.rng
    for a in rng.permutation(state.m).tolist():
        remove_idx(state, a)
        add_idx(state, a, draw_for_edge(state, a))
    state._compact()
    state.resample_beta()


def remove_edge(state, e) -> None:
    """Take edge e out of its community in a ``SamplerState`` (leave-one-out form)."""
    remove_idx(state, edge_index(state, e))


def edge_weights(state, e) -> tuple[dict[int, float], float]:
    """Unnormalized seating weights a ``SamplerState`` would use for edge e
    (which must currently be removed): existing communities by id, and a
    brand-new one."""
    a = edge_index(state, e)
    if state._assign_row[a] >= 0:
        raise ValueError("edge %r must be removed before weighing" % (e,))
    rows = np.flatnonzero(state._seats > 0)
    w = seat_weights(state, a)
    return dict(zip(state._ids[rows].tolist(), w[rows].tolist())), state._new_w


def check_consistency(state, prev_counts: Mapping[int, int] | None) -> None:
    """Recount a ``SamplerState`` from its edge seating and the carried
    sizes ``prev_counts`` it was built with, and compare every array the
    sampler maintains with the recount; raises AssertionError on drift."""
    high, rows, ids = len(state._ids), state._assign_row, state._ids
    assert len(state._prev) == len(state._seats) == high, "a row array has the wrong length"
    assert state._beta.shape == (state.n_nodes, high), "beta has the wrong shape"
    assert np.all((rows >= 0) & (rows < high)), "an edge is unseated"
    assert len(np.unique(ids)) == high, "a community id holds two rows"
    row_of = dict(zip(ids.tolist(), range(high)))
    prev = np.zeros(high, dtype=np.int64)
    for r, c in (prev_counts or {}).items():
        if c > 0:
            assert r in row_of, "carried community %d was dropped" % r
            prev[row_of[r]] = c
    assert np.array_equal(state._prev, prev), "carried sizes drifted"
    assert np.array_equal(state._seats, np.bincount(rows, minlength=high) + prev), \
        "seat counts drifted"
    assert np.all(state._seats > 0), "a row holds no seat"
    beta = state._beta
    assert np.all(beta >= 0) and np.allclose(beta.sum(axis=0), 1.0, rtol=0, atol=1e-9), \
        "a beta row is off the simplex"


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected form of an edge: ``(min(u, v), max(u, v))``.

    Raises GraphFormatError for a self-loop, which has no canonical form.
    """
    if u == v:
        raise GraphFormatError("self-loop (%d, %d) is not a valid edge" % (u, v))
    return (u, v) if u < v else (v, u)


def edge_set(g: SnapshotGraph) -> frozenset[tuple[int, int]]:
    """The endpoint id pairs of g's edges, as a set."""
    return frozenset(g.edges)


def membership_counts(cover: Cover) -> dict[int, int]:
    """O_i: how many communities of ``cover`` contain each covered node."""
    return dict(Counter(i for members in cover.communities.values() for i in members))


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


def init_assignments_carry_dict(g: SnapshotGraph, prev_assignment: Mapping[tuple[int, int], int],
                                seed) -> dict:
    """Surviving edges keep their previous community; new edges, in edge
    order, go uniformly to one of the previously live communities, of
    which there must be one.  Returns {(u, v): id}."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    live_prev = sorted(set(int(r) for r in prev_assignment.values()))
    if not live_prev:
        raise ValueError("cannot carry over a summary that seats no edge")
    new_edges = [e for e in g.edges if e not in prev_assignment]
    labels = rng.integers(0, len(live_prev), size=len(new_edges))
    out = {}
    for e in g.edges:
        if e in prev_assignment:
            out[e] = int(prev_assignment[e])
    for e, lab in zip(new_edges, labels):
        out[e] = live_prev[int(lab)]
    return out


def extended_modularity_dense(cover: Cover, g: SnapshotGraph) -> float:
    """``metrics.extended_modularity`` with every community's inside term
    summed over all M edges by ``einsum`` on two M x K gathers."""
    if g.m == 0:
        return 0.0
    x = _cover_matrix(cover, g.nodes, "not in the snapshot")
    o = x.sum(axis=0)
    w = np.divide(x, o, out=np.zeros_like(x), where=o > 0)
    ends = g.edge_array
    two_m = 2.0 * g.m
    inside = 2.0 * np.einsum("ek,ek->k", w.T[ends[:, 0]], w.T[ends[:, 1]])
    terms = inside - (w * g.degree_array).sum(axis=1) ** 2 / two_m
    return math.fsum(terms) / two_m


def generate_snapshot_per_attempt(cover: Cover, cfg: GenConfig, rng: np.random.Generator,
                                  t: int = 1) -> SnapshotGraph:
    """``benchgen.generate_snapshot`` drawing one rejection attempt at a time.

    Each attempt takes two scalar ``rng.integers`` calls, and exact
    placement refilters its candidate arrays and deletes the picked pair
    for every edge it seats; the edges and the generator's final state must
    equal the batched form's."""
    nodes = cover.covered_nodes()
    if nodes != set(range(cfg.n)):
        raise GenError("planted cover must assign every node a community")
    total = round(cfg.n * cfg.avg_degree / 2)
    within_target = round((1.0 - cfg.mixing) * total)
    bg_target = total - within_target
    cids = sorted(c for c in cover.communities if cover.communities[c])
    member_lists = {c: sorted(cover.communities[c]) for c in cids}
    budgets = _apportion(within_target, [len(member_lists[c]) for c in cids])
    cap = cfg.max_degree if cfg.max_degree is not None else cfg.n
    deg = np.zeros(cfg.n, dtype=np.int64)
    edges: set[tuple[int, int]] = set()

    def seat(i: int, j: int) -> None:
        edges.add((i, j) if i < j else (j, i))
        deg[i] += 1
        deg[j] += 1

    def place(pool: list[int], want: int) -> int:
        attempts = 0
        limit = 200 * want + 200
        placed = 0
        while placed < want and attempts < limit:
            attempts += 1
            i = pool[int(rng.integers(0, len(pool)))]
            j = pool[int(rng.integers(0, len(pool)))]
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            if key in edges or deg[i] >= cap or deg[j] >= cap:
                continue
            seat(i, j)
            placed += 1
        if placed == want:
            return 0
        members = np.asarray(pool, dtype=np.int64)
        upper, lower = np.triu_indices(len(members), 1)
        i, j = members[upper], members[lower]
        taken = np.fromiter((a * cfg.n + b for a, b in edges), dtype=np.int64, count=len(edges))
        unused = ~np.isin(i * cfg.n + j, taken)
        i, j = i[unused], j[unused]
        while placed < want:
            room = (deg[i] < cap) & (deg[j] < cap)
            i, j = i[room], j[room]
            if len(i) == 0:
                break
            k = int(rng.integers(0, len(i)))
            seat(int(i[k]), int(j[k]))
            i, j = np.delete(i, k), np.delete(j, k)
            placed += 1
        return want - placed

    short = 0
    for c, m_c in zip(cids, budgets):
        short += place(member_lists[c], m_c)
    missing = place(list(range(cfg.n)), bg_target + short)
    if missing:
        raise GenError("degree target infeasible: placed %d of %d background edges"
                       % (bg_target + short - missing, bg_target + short))
    return SnapshotGraph(range(cfg.n), sorted(edges), t=t)
