"""Gibbs sampling engine for link communities over snapshot sequences.

One sweep reassigns every edge by its leave-one-out seating conditional
(community weight times edge likelihood, plus the marginal weight of a
brand-new community) and then redraws every community's node-importance
vector from its Dirichlet posterior.  On snapshots after the first the
seating weights also carry the previous snapshot's community sizes, which
is what lets community ids persist through time.

The state is array-backed: one row per live community holding its edge
count, carried-over count, per-node endpoint counts and beta vector.  Rows
are recycled through a free list while community ids stay monotone and are
never reused.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .graphs import DynamicNetwork, SnapshotGraph
from .membership import Cover, extract_cover, select_best, soft_membership_from_arrays
from .metrics import extended_modularity
from .model import BetaMatrix, CommunityStats, EdgeKey, HyperParams


class CommunityIdAllocator:
    """Hands out community ids 0, 1, 2, ...; retired ids are never reused."""

    def __init__(self, start: int = 0):
        self._next = int(start)

    def fresh(self) -> int:
        out = self._next
        self._next += 1
        return out

    def reserve_through(self, cid: int) -> None:
        """Make sure ``fresh`` never returns anything at or below ``cid``."""
        self._next = max(self._next, int(cid) + 1)

    @property
    def high_water(self) -> int:
        return self._next


@dataclass
class SampleRecord:
    """One retained sweep: assignment, live betas, and the extracted cover."""

    sweep_index: int
    edge_keys: tuple[EdgeKey, ...]
    assign_ids: np.ndarray
    nodes: tuple[int, ...]
    ids: tuple[int, ...]
    sizes: np.ndarray
    beta: np.ndarray
    cover: Cover
    modularity: float

    @property
    def assignment(self) -> dict[EdgeKey, int]:
        return {e: int(r) for e, r in zip(self.edge_keys, self.assign_ids)}


@dataclass
class PrevSummary:
    """What one snapshot passes to the next: the selected assignment and the
    community sizes it induces.  Beta vectors are not carried; each snapshot
    redraws them."""

    assignment: dict[EdgeKey, int] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_record(cls, record: SampleRecord) -> "PrevSummary":
        counts: dict[int, int] = {}
        for r in record.assign_ids:
            counts[int(r)] = counts.get(int(r), 0) + 1
        return cls(record.assignment, counts)


class SamplerState:
    """Mutable per-snapshot chain state.

    Attributes
    ----------
    graph : SnapshotGraph
        The immutable snapshot being fitted.
    hyper : HyperParams
        The hyper-parameters of every draw and record the state makes.
    rng : np.random.Generator
        The chain's random stream; every move draws from it.
    """

    def __init__(self, graph: SnapshotGraph, assignment: Mapping[EdgeKey, int],
                 prev_counts: Mapping[int, int] | None, hyper: HyperParams,
                 rng: np.random.Generator, alloc: CommunityIdAllocator | None = None):
        self.graph = graph
        self.hyper = hyper
        self.rng = rng
        self.alloc = alloc if alloc is not None else CommunityIdAllocator()
        self.n_nodes = graph.n
        self.m = graph.m
        self._edge_idx = graph.edge_array
        self._edge_pos = {e: a for a, e in enumerate(graph.edges)}
        self._prior_shape = np.full(self.n_nodes, hyper.gamma)
        # a brand-new community weighs alpha * gamma^2 / (gamma0 * (gamma0 + 1)),
        # the closed form of the Dirichlet-marginal edge probability
        g0 = self.n_nodes * hyper.gamma
        self._new_w = hyper.alpha * hyper.gamma * hyper.gamma / (g0 * (g0 + 1.0))

        cap = max(8, 2 * (len(set(assignment.values())) + len(prev_counts or {})))
        self._cap = cap
        self._ids = np.full(cap, -1, dtype=np.int64)
        self._n = np.zeros(cap, dtype=np.int64)
        self._prev = np.zeros(cap, dtype=np.int64)
        self._endpoint = np.zeros((cap, self.n_nodes), dtype=np.float64)
        self._beta = np.zeros((cap, self.n_nodes), dtype=np.float64)
        self._row_of: dict[int, int] = {}
        self._free: list[int] = []
        self._high = 0
        self._assign_row = np.full(self.m, -1, dtype=np.int64)

        for r, c in (prev_counts or {}).items():
            if c > 0:
                self._acquire_row(int(r), prev=int(c))
        for a, e in enumerate(graph.edges):
            r = int(assignment[e])
            row = self._row_of.get(r)
            if row is None:
                row = self._acquire_row(r)
            i, j = self._edge_idx[a]
            self._n[row] += 1
            self._endpoint[row, i] += 1
            self._endpoint[row, j] += 1
            self._assign_row[a] = row
        self._init_beta()

    # ---------------------------------------------------------------- rows

    def _grow(self) -> None:
        new_cap = 2 * self._cap
        for name in ("_ids", "_n", "_prev"):
            old = getattr(self, name)
            fresh = np.full(new_cap, -1, dtype=np.int64) if name == "_ids" \
                else np.zeros(new_cap, dtype=np.int64)
            fresh[:self._cap] = old
            setattr(self, name, fresh)
        for name in ("_endpoint", "_beta"):
            old = getattr(self, name)
            fresh = np.zeros((new_cap, self.n_nodes), dtype=np.float64)
            fresh[:self._cap] = old
            setattr(self, name, fresh)
        self._cap = new_cap

    def _acquire_row(self, cid: int, prev: int = 0) -> int:
        # ids flowing in from outside (loaded assignments, carried summaries)
        # must push the allocator forward or a later "fresh" id could collide
        self.alloc.reserve_through(cid)
        if self._free:
            row = self._free.pop()
        else:
            if self._high == self._cap:
                self._grow()
            row = self._high
            self._high += 1
        self._ids[row] = cid
        self._n[row] = 0
        self._prev[row] = prev
        self._endpoint[row, :] = 0.0
        self._beta[row, :] = 0.0
        self._row_of[cid] = row
        return row

    def _release_row(self, row: int) -> None:
        del self._row_of[int(self._ids[row])]
        self._ids[row] = -1
        self._n[row] = 0
        self._prev[row] = 0
        self._free.append(row)

    def _live_rows(self) -> np.ndarray:
        return np.nonzero(self._ids[:self._high] >= 0)[0]

    def _init_beta(self) -> None:
        # maximum-likelihood start beta_ir = N_ir / (2 n_r) for communities
        # that own edges; carried communities with no current edges start
        # from a prior draw
        for row in self._live_rows():
            if self._n[row] > 0:
                self._beta[row] = self._endpoint[row] / (2.0 * self._n[row])
            else:
                self._beta[row] = self._prior_beta()

    def _prior_beta(self) -> np.ndarray:
        """One node-importance vector drawn from the Dirichlet(gamma) prior."""
        return _dirichlet_row(self.rng, self._prior_shape)

    # ---------------------------------------------------------------- moves

    def remove_edge(self, e: EdgeKey) -> None:
        """Take edge e out of its community (leave-one-out form)."""
        self._remove_idx(self._edge_pos[e])

    def add_edge(self, e: EdgeKey, cid: int) -> None:
        """Seat edge e at community cid (creating a row for it if needed)."""
        if cid not in self._row_of:
            row = self._acquire_row(int(cid))
            self._beta[row] = self._prior_beta()
        self._add_idx(self._edge_pos[e], int(cid))

    def _remove_idx(self, a: int) -> None:
        row = int(self._assign_row[a])
        if row < 0:
            raise ValueError("edge %r is not currently assigned" % (self.graph.edges[a],))
        i, j = self._edge_idx[a]
        self._n[row] -= 1
        self._endpoint[row, i] -= 1
        self._endpoint[row, j] -= 1
        self._assign_row[a] = -1
        if self._n[row] == 0 and self._prev[row] == 0:
            self._release_row(row)

    def _add_idx(self, a: int, cid: int) -> None:
        row = self._row_of[cid]
        i, j = self._edge_idx[a]
        self._n[row] += 1
        self._endpoint[row, i] += 1
        self._endpoint[row, j] += 1
        self._assign_row[a] = row

    def _seat_weights(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Live rows and their seating weights for removed edge index ``a``.

        The weight of a live community is (current + carried size) times
        the edge likelihood, which covers the first-snapshot case (carried
        sizes all zero), communities born this snapshot, and carried-over
        ones in a single expression.
        """
        i, j = self._edge_idx[a]
        rows = self._live_rows()
        w = (self._n[rows] + self._prev[rows]) * self._beta[rows, i] * self._beta[rows, j]
        return rows, w

    def edge_weights(self, e: EdgeKey) -> tuple[dict[int, float], float]:
        """Unnormalized seating weights the sampler would use for edge e
        (which must currently be removed): existing communities and NEW."""
        a = self._edge_pos[e]
        if self._assign_row[a] >= 0:
            raise ValueError("edge %r must be removed before weighing" % (e,))
        rows, w = self._seat_weights(a)
        return {int(self._ids[r]): float(x) for r, x in zip(rows, w)}, self._new_w

    def draw_for_edge(self, a: int) -> int:
        """Draw a community for edge index ``a`` (currently removed).

        Choosing a brand-new community allocates a fresh id with a prior
        beta draw.
        """
        rows, w = self._seat_weights(a)
        total = float(w.sum()) + self._new_w
        if not np.isfinite(total) or total <= 0.0:
            return self._create_community()
        u = self.rng.random() * total
        cum = np.cumsum(w)
        pos = int(np.searchsorted(cum, u, side="right"))
        if pos >= len(rows):
            return self._create_community()
        return int(self._ids[rows[pos]])

    def _create_community(self) -> int:
        cid = self.alloc.fresh()
        row = self._acquire_row(cid)
        self._beta[row] = self._prior_beta()
        return cid

    def resample_beta(self) -> None:
        """Redraw every live community's beta from Dirichlet(counts + gamma)."""
        rows = self._live_rows()
        if len(rows) == 0:
            return
        draws = self.rng.standard_gamma(self._endpoint[rows] + self.hyper.gamma)
        sums = draws.sum(axis=1, keepdims=True)
        flat = sums[:, 0] <= 0.0
        if np.any(flat):
            draws[flat] = 1.0
            sums = draws.sum(axis=1, keepdims=True)
        self._beta[rows] = draws / sums

    # ---------------------------------------------------------------- views

    @property
    def G(self) -> dict[EdgeKey, int]:
        return {e: int(self._ids[self._assign_row[a]])
                for a, e in enumerate(self.graph.edges)}

    @property
    def B(self) -> BetaMatrix:
        return BetaMatrix(self.graph.nodes,
                          {int(self._ids[row]): self._beta[row].copy()
                           for row in self._live_rows()})

    @property
    def stats(self) -> CommunityStats:
        out = CommunityStats()
        for row in self._live_rows():
            if self._n[row] == 0:
                continue
            cid = int(self._ids[row])
            out.n[cid] = int(self._n[row])
            for b in np.nonzero(self._endpoint[row])[0]:
                out.endpoint_counts[(self.graph.nodes[b], cid)] = int(self._endpoint[row, b])
        return out

    @property
    def prev_stats(self) -> CommunityStats:
        out = CommunityStats()
        for row in self._live_rows():
            if self._prev[row] > 0:
                out.n[int(self._ids[row])] = int(self._prev[row])
        return out

    def check_consistency(self) -> None:
        """Recompute statistics from the assignment and compare with the
        incrementally maintained arrays; raises AssertionError on drift."""
        fresh = CommunityStats.from_assignment(self.G)
        assert fresh.n == self.stats.n, "community sizes drifted"
        assert fresh.endpoint_counts == self.stats.endpoint_counts, \
            "endpoint counts drifted"
        assert sum(fresh.n.values()) == self.m

    def record(self, sweep_index: int) -> SampleRecord:
        """Copy the current state into a SampleRecord with its cover."""
        rows = [row for row in self._live_rows() if self._n[row] > 0]
        ids = tuple(int(self._ids[row]) for row in rows)
        sizes = np.array([int(self._n[row]) for row in rows], dtype=np.int64)
        beta = self._beta[rows].copy() if rows else np.zeros((0, self.n_nodes))
        assign_ids = np.array([int(self._ids[self._assign_row[a]])
                               for a in range(self.m)], dtype=np.int64)
        u = soft_membership_from_arrays(self.graph.nodes, ids, sizes, beta, self.m)
        cover = extract_cover(u, self.hyper.theta)
        mod = extended_modularity(cover, self.graph)
        return SampleRecord(sweep_index, self.graph.edges, assign_ids,
                            self.graph.nodes, ids, sizes, beta, cover, mod)


def _dirichlet_row(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    draw = rng.standard_gamma(shape)
    s = draw.sum()
    if s <= 0.0:
        return np.full(len(shape), 1.0 / len(shape))
    return draw / s


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -------------------------------------------------------------- initialization


def init_assignments_first(g: SnapshotGraph, hyper: HyperParams, seed,
                           alloc: CommunityIdAllocator | None = None) -> dict[EdgeKey, int]:
    """Uniform random assignment over max(1, N // k0_divisor) starting
    communities; communities that receive no edge are simply never born."""
    rng = _as_rng(seed)
    alloc = alloc if alloc is not None else CommunityIdAllocator()
    k0 = max(1, g.n // hyper.k0_divisor)
    pool = [alloc.fresh() for _ in range(k0)]
    labels = rng.integers(0, k0, size=g.m)
    return {e: pool[int(lab)] for e, lab in zip(g.edges, labels)}


def init_assignments_carry(g: SnapshotGraph, prev_assignment: Mapping[EdgeKey, int],
                           hyper: HyperParams, seed,
                           alloc: CommunityIdAllocator | None = None) -> dict[EdgeKey, int]:
    """Surviving edges keep their previous community; new edges go uniformly
    to one of the previously live communities (or one fresh community when
    there were none)."""
    rng = _as_rng(seed)
    live_prev = sorted(set(int(r) for r in prev_assignment.values()))
    if not live_prev:
        alloc = alloc if alloc is not None else CommunityIdAllocator()
        live_prev = [alloc.fresh()]
    new_edges = [e for e in g.edges if e not in prev_assignment]
    labels = rng.integers(0, len(live_prev), size=len(new_edges))
    out: dict[EdgeKey, int] = {}
    for e in g.edges:
        if e in prev_assignment:
            out[e] = int(prev_assignment[e])
    for e, lab in zip(new_edges, labels):
        out[e] = live_prev[int(lab)]
    return out


# -------------------------------------------------------------- sweep driver


def gibbs_sweep(state: SamplerState) -> SamplerState:
    """One full pass: every edge reassigned in shuffled order, then betas
    redrawn.  Mutates and returns the state."""
    for a in state.rng.permutation(state.m):
        state._remove_idx(int(a))
        cid = state.draw_for_edge(int(a))
        state._add_idx(int(a), cid)
    state.resample_beta()
    return state


def run_snapshot(g: SnapshotGraph, prev: PrevSummary | None, hyper: HyperParams,
                 seed, alloc: CommunityIdAllocator | None = None) -> list[SampleRecord]:
    """Fit one snapshot and return every retained sweep as a SampleRecord."""
    rng = _as_rng(seed)
    alloc = alloc if alloc is not None else CommunityIdAllocator()
    if g.m == 0:
        empty = SampleRecord(0, g.edges, np.empty(0, dtype=np.int64), g.nodes,
                             (), np.empty(0, dtype=np.int64),
                             np.zeros((0, g.n)), Cover(), 0.0)
        return [empty]
    if prev is None:
        assignment = init_assignments_first(g, hyper, rng, alloc)
        prev_counts: dict[int, int] = {}
    else:
        assignment = init_assignments_carry(g, prev.assignment, hyper, rng, alloc)
        prev_counts = dict(prev.counts)
    state = SamplerState(g, assignment, prev_counts, hyper, rng, alloc)
    sweeps = hyper.s_first if prev is None else hyper.s_later
    records = []
    for sweep_index in range(sweeps):
        gibbs_sweep(state)
        records.append(state.record(sweep_index))
    return records


@dataclass
class SnapshotResult:
    """Selected outcome for one snapshot of a detection run."""

    t: int
    graph: SnapshotGraph
    cover: Cover
    record: SampleRecord
    chain: int


def detect_dynamic(net: DynamicNetwork, hyper: HyperParams | None = None,
                   seed=0, chains: int = 1) -> list[SnapshotResult]:
    """Run detection over a whole snapshot sequence.

    Per snapshot, ``chains`` independent Gibbs runs are fitted and the
    globally best sample by extended modularity wins.  Within a chain, ties
    go to the latest sweep; across chains, a tie keeps the lowest chain,
    whatever the sweep.  The winning assignment becomes every chain's
    starting summary for the next snapshot, so community ids stay
    comparable through time.  An empty snapshot passes nothing on: the
    next snapshot starts from the last non-empty one's summary.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if chains < 1:
        raise ValueError("chains must be >= 1")
    alloc = CommunityIdAllocator()
    prev: PrevSummary | None = None
    results: list[SnapshotResult] = []
    for pos, g in enumerate(net):
        best: tuple[Cover, SampleRecord, int] | None = None
        for c in range(chains):
            rng = np.random.default_rng([_seed_root(seed), pos, c])
            records = run_snapshot(g, prev, hyper, rng, alloc=alloc)
            cover, rec = select_best([(r, r.cover) for r in records])
            if best is None or rec.modularity > best[1].modularity:
                best = (cover, rec, c)
        cover, rec, c = best
        results.append(SnapshotResult(g.t, g, cover, rec, c))
        if g.m:
            prev = PrevSummary.from_record(rec)
    return results


def _seed_root(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError("detect_dynamic needs an integer seed, got %r" % (seed,))
