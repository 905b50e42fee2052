"""Gibbs sampling engine for link communities over snapshot sequences.

One sweep reassigns every edge by its leave-one-out seating conditional
(community weight times edge likelihood, plus the marginal weight of a
brand-new community) and then redraws every community's node-importance
vector from its Dirichlet posterior.  On snapshots after the first the
seating weights also carry the previous snapshot's community sizes, which
is what lets community ids persist through time.

The state is array-backed.  Each community owns one row index into
arrays of ids, carried-over sizes and seat counts (current plus carried
size, as a float), and one column of the nodes-by-rows beta array, so that
one node's betas over all rows are contiguous.  The arrays hold exactly
the state's rows: a row that empties keeps seat count 0 until the sweep
ends, and each sweep ends by replacing every array with its rows that
hold seats, so between sweeps every row holds seats.  A new table appends
a row, that is, new arrays one row longer.  That copy costs nothing
measurable because tables rarely open: a traced ``birthdeath-t2`` detect
opens 7 in 405,000 edge visits.  Community ids stay monotone and are
never reused.

``gibbs_sweep`` is the only code that seats edges.  It draws each edge
from its exact Gibbs conditional, ``seats * beta_i * beta_j`` for every row
in the arrays plus the new-community weight, by rejection
from an envelope.  It visits the shuffled edges in blocks of at most
``_BLOCK`` (96), and at a block's start one vectorised pass draws every
edge's proposal from the weights ``env * beta_i * beta_j`` and the
new-community weight, where ``env`` is ``seats + _SLACK`` (``_SLACK`` = 1)
on a row that holds seats and 0 on an emptied one.  A seating that lifts
a row above its envelope raises that envelope in place to ``seats +
_SLACK``, and a later edge of the block then proposes from the raised
mass with the probability that mass has in its raised envelope total,
and from its block-start proposal otherwise.  So an edge always proposes
from the current envelope, which is at least every row's seat count.  It
accepts a proposed row r with probability ``seats_r / env_r`` and a new
community outright; otherwise it makes the exact draw over the current
seat counts.  With ``w_r = beta_i * beta_j`` and Z~ and Z the totals of the
envelope and the conditional, a row is then proposed and accepted with
probability ``seats_r w_r / Z~``, and the exact draw, made with
probability ``1 - Z / Z~``, supplies the rest of the conditional
``seats_r w_r / Z``.  A block ends only when a table opens, since the
block's proposals know nothing of its row, or when an envelope total is
not finite and positive.  An emptied row has seat count 0, so it weighs
0 in both draws and no running sum can stop on it.  The seating is a
Python list for the length of the sweep, and the seat counts are read
and written one at a time through a memoryview of the array the
vectorised draws read.  Every beta is drawn from Dirichlet(gamma + its
row's endpoint counts) by ``_dirichlet``: every row at the start (a carried
community with no current edge from the prior) and after each sweep, from
counts recounted with ``np.bincount``, and a new table's row given the edge
that opened it, from Dirichlet(gamma + e_i + e_j).

A chain scores each sweep as it ends (``sweep_records``) from its
theta-rule mask and keeps only the best record so far (``run_snapshot``),
so it holds one state and at most two records whatever the sweep count;
only each snapshot's winner builds a ``Cover``.  Seatings are int arrays of
community ids in ``edge_array`` order from the first draw to the record.
The winner passes on its endpoint id pairs and their labels, and the
next snapshot's surviving edges find their labels by one sort of the
old and new pairs together.

``detect_dynamic`` fits each snapshot with independent chains and runs
them in parallel, up to the CPUs this process may use: the calling
process fits a share of the chains itself and worker processes fit the
rest.  Each chain draws from its own seed and takes fresh community ids
from its own allocator, so a seed gives the same bytes for any number of
CPUs.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .graphs import DynamicNetwork, SnapshotGraph
from .membership import (Cover, extract_cover, selection_key,
                         soft_membership_from_arrays, theta_mask)
from .membership import select_best  # noqa: F401  perfbench/spans.py wraps it here
from .metrics import extended_modularity
from .model import EdgeKey, HyperParams


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
    """One retained sweep: every edge's community id (``assign_ids``, in
    the snapshot's ``edge_array`` order), the ids, sizes and betas of the
    communities that hold edges, and its cover's extended modularity.  The
    cover is built on first read, over the snapshot's ``nodes``."""

    sweep_index: int
    assign_ids: np.ndarray
    ids: tuple[int, ...]
    sizes: np.ndarray
    beta: np.ndarray
    modularity: float
    nodes: np.ndarray
    theta: float

    @cached_property
    def cover(self) -> Cover:
        u = soft_membership_from_arrays(self.sizes, self.beta, int(self.sizes.sum()))
        return extract_cover(u, self.ids, self.nodes, self.theta)


@dataclass
class PrevSummary:
    """What one snapshot passes to the next: the selected seating and the
    community sizes it induces.  ``ends`` is an (m, 2) array of each edge's
    endpoint ids and ``labels`` each edge's community id; ``counts`` maps
    each community id to its size, in the order the ids first appear in
    ``labels``.  Beta vectors are not carried; each snapshot redraws them."""

    ends: np.ndarray
    labels: np.ndarray
    counts: dict[int, int]

    @classmethod
    def from_record(cls, record: SampleRecord, graph: SnapshotGraph) -> "PrevSummary":
        """The summary of ``record``, a sweep of ``graph``."""
        labels = record.assign_ids
        ids, first, sizes = np.unique(labels, return_index=True, return_counts=True)
        order = np.argsort(first)
        return cls(graph.nodes[graph.edge_array], labels,
                   dict(zip(ids[order].tolist(), sizes[order].tolist())))


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

    def __init__(self, graph: SnapshotGraph,
                 assignment: Sequence[int] | Mapping[EdgeKey, int],
                 prev_counts: Mapping[int, int] | None, hyper: HyperParams,
                 rng: np.random.Generator, alloc: CommunityIdAllocator | None = None):
        self.graph = graph
        self.hyper = hyper
        self.rng = rng
        self.alloc = alloc if alloc is not None else CommunityIdAllocator()
        self.n_nodes = graph.n
        self.m = graph.m
        # a brand-new community weighs alpha * gamma^2 / (gamma0 * (gamma0 + 1)),
        # the closed form of the Dirichlet-marginal edge probability
        g0 = self.n_nodes * hyper.gamma
        self._new_w = hyper.alpha * hyper.gamma * hyper.gamma / (g0 * (g0 + 1.0))

        # one community id per edge, in edge_array order, or a mapping from
        # each edge's endpoint ids to its community id
        if isinstance(assignment, Mapping):
            assignment = [assignment[e] for e in graph.edges]
        labels = np.asarray(assignment, dtype=np.int64)
        if labels.shape != (self.m,):
            raise ValueError("%d community ids for %d edges" % (labels.size, self.m))
        ids, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        carried = {int(r): int(c) for r, c in (prev_counts or {}).items() if c > 0}
        # one row per community: the carried ones first, then the others in
        # the order of their first edge
        row_ids = list(dict.fromkeys(list(carried) + ids[np.argsort(first)].tolist()))
        rows = len(row_ids)
        self._ids = np.array(row_ids, dtype=np.int64)
        self._prev = np.zeros(rows, dtype=np.int64)
        self._prev[:len(carried)] = list(carried.values())
        # ids flowing in from outside (loaded assignments, carried summaries)
        # must push the allocator forward or a later "fresh" id could collide
        self.alloc.reserve_through(max(row_ids, default=-1))
        row_of = dict(zip(row_ids, range(rows)))
        self._assign_row = np.array([row_of[r] for r in ids.tolist()],
                                    dtype=np.int64)[inverse]
        seated = np.bincount(self._assign_row, minlength=rows)
        self._seats = (self._prev + seated).astype(np.float64)
        self.resample_beta()

    # ---------------------------------------------------------------- rows

    def _compact(self) -> None:
        """Drop the rows that emptied since the last compaction, keeping the
        others in their order, so that every row holds seats again."""
        live = self._seats > 0.0
        self._ids, self._prev, self._seats = (self._ids[live], self._prev[live],
                                              self._seats[live])
        self._beta = self._beta[:, live]
        self._assign_row = (np.cumsum(live) - 1)[self._assign_row]

    def _node_counts(self) -> np.ndarray:
        """Recount, from the seating, how many of each row's edges touch each
        node: a (rows, nodes) array."""
        n, rows = self.n_nodes, len(self._ids)
        flat = (self._assign_row[:, None] * n + self.graph.edge_array).ravel()
        return np.bincount(flat, minlength=rows * n).reshape(rows, n)

    # ---------------------------------------------------------------- moves

    def _create_community(self, i: int, j: int) -> int:
        """Open a table with a fresh id in a new last row for the edge at
        node positions ``i`` and ``j``, its beta drawn from Dirichlet(gamma +
        e_i + e_j); return its id.  Every row array is replaced."""
        cid = self.alloc.fresh()
        shape = np.full((1, self.n_nodes), self.hyper.gamma)
        shape[0, i] += 1.0
        shape[0, j] += 1.0
        self._ids = np.append(self._ids, cid)
        self._prev = np.append(self._prev, 0)
        self._seats = np.append(self._seats, 0.0)
        self._beta = np.concatenate((self._beta, _dirichlet(self.rng, shape).T), axis=1)
        return cid

    def resample_beta(self) -> None:
        """Redraw the beta of every row from Dirichlet(counts + gamma)."""
        shape = self._node_counts() + self.hyper.gamma
        self._beta = np.ascontiguousarray(_dirichlet(self.rng, shape).T)

    # ---------------------------------------------------------------- views

    @property
    def G(self) -> dict[EdgeKey, int]:
        return dict(zip(self.graph.edges, self._ids[self._assign_row].tolist()))

    @property
    def B(self) -> dict[int, np.ndarray]:
        """Community id -> a copy of its beta row, for every row."""
        return {cid: self._beta[:, row].copy() for row, cid in enumerate(self._ids.tolist())}

    def record(self, sweep_index: int) -> SampleRecord:
        """Copy the current state into a SampleRecord, scored from its
        theta-rule membership mask."""
        sizes = (self._seats - self._prev).astype(np.int64)
        rows = np.flatnonzero(sizes > 0)
        sizes = sizes[rows]
        ids = tuple(self._ids[rows].tolist())
        beta = np.ascontiguousarray(self._beta[:, rows].T)
        assign_ids = self._ids[self._assign_row]
        u = soft_membership_from_arrays(sizes, beta, self.m)
        mod = extended_modularity(theta_mask(u, self.hyper.theta), self.graph)
        return SampleRecord(sweep_index, assign_ids, ids, sizes, beta, mod,
                            self.graph.nodes, self.hyper.theta)


def _dirichlet(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per row of the 2-D concentration array ``shape``, by
    one ``standard_gamma`` call; a row whose variates all underflow is uniform."""
    draws = rng.standard_gamma(shape)
    sums = draws.sum(axis=1, keepdims=True)
    flat = sums[:, 0] <= 0.0
    if np.any(flat):
        draws[flat] = 1.0
        sums[flat] = shape.shape[1]
    return draws / sums


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -------------------------------------------------------------- initialization


def init_assignments_first(g: SnapshotGraph, hyper: HyperParams, seed,
                           alloc: CommunityIdAllocator | None = None) -> np.ndarray:
    """Every edge's community id, in ``edge_array`` order: uniform random
    over max(1, N // k0_divisor) starting communities; communities that
    receive no edge are simply never born."""
    rng = _as_rng(seed)
    alloc = alloc if alloc is not None else CommunityIdAllocator()
    k0 = max(1, g.n // hyper.k0_divisor)
    pool = np.array([alloc.fresh() for _ in range(k0)], dtype=np.int64)
    return pool[rng.integers(0, k0, size=g.m)]


def init_assignments_carry(g: SnapshotGraph, prev: PrevSummary, hyper: HyperParams,
                           seed, alloc: CommunityIdAllocator | None = None) -> np.ndarray:
    """Every edge's community id, in ``edge_array`` order.  An edge whose
    endpoint pair ``prev`` holds keeps its previous community; the new
    edges, in edge order, go uniformly to one of the previously live
    communities (or one fresh community when there were none)."""
    rng = _as_rng(seed)
    live_prev = np.unique(prev.labels)
    if not len(live_prev):
        alloc = alloc if alloc is not None else CommunityIdAllocator()
        live_prev = np.array([alloc.fresh()], dtype=np.int64)
    src = _match_pairs(prev.ends, g.nodes[g.edge_array])
    new = src < 0
    labels = np.empty(g.m, dtype=np.int64)
    labels[~new] = prev.labels[src[~new]]
    labels[new] = live_prev[rng.integers(0, len(live_prev), size=int(new.sum()))]
    return labels


def _match_pairs(old: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """For each row of the (m, 2) id array ``ends``, the position of the
    last equal row of ``old``, or -1 where ``old`` has none.  Rows are
    compared as pairs, so ids of any size are safe."""
    p = len(old)
    pairs = np.concatenate((old, ends))
    # a stable sort: equal pairs sit side by side in their given order,
    # the rows of ``old`` before those of ``ends``
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    latest_old = np.maximum.accumulate(np.where(order < p, np.arange(len(order)), -1))
    mine = order >= p
    cand, row = latest_old[mine], order[mine]
    hit = cand >= 0
    hit[hit] = (pairs[order[cand[hit]]] == pairs[row[hit]]).all(axis=1)
    out = np.full(len(ends), -1, dtype=np.int64)
    out[row[hit] - p] = order[cand[hit]]
    return out


# -------------------------------------------------------------- sweep driver


# the edge pass draws the proposals of up to _BLOCK edges at a time, from
# an envelope that gives every live row _SLACK seats more than it holds.
# A seating that lifts a row above its envelope raises it in place, so a
# block ends only when a table opens or an envelope total is not finite.
# A longer block spreads its vectorised start over more edges, but its
# later edges carry more raised mass and take the mixture's extra cumsum
# more often.  A wider slack sends more visits to the exact draw: about
# slack + 1 per live row and sweep, whatever the edge count.  Beside the
# beta redraw, that fixed cost would keep a sweep's time from growing in
# step with the edge count, so the slack is 1 seat.
_BLOCK = 96
_SLACK = 1.0


def gibbs_sweep(state: SamplerState) -> SamplerState:
    """One full pass: every edge reseated in shuffled order from its exact
    Gibbs conditional, then betas redrawn.  Mutates and returns the state.

    For a removed edge (i, j) the conditional weighs row r by
    ``s_r * w_r``, with seat count ``s_r`` and ``w_r = beta_ir * beta_jr``,
    and a new community by ``new_w``; Z is the sum of these weights.  The
    edges are visited in blocks of at most ``_BLOCK`` (96).  At a block's
    start one vectorised pass takes ``w_r`` for each of its edges over
    every row, weights it by the envelope ``env_r``
    (``s_r + _SLACK``, that is ``s_r + 1``, on a row that holds seats and
    0 on one emptied earlier in the sweep), and draws each edge's proposal
    by inverse CDF from the running sums plus ``new_w``, whose total is
    Z~; the acceptance and mixture uniforms come in the same call.

    A seating that lifts row q above its envelope raises it in place to
    ``s_q + _SLACK``; ``raised[q]`` sums the raises of the block and
    ``extra[k]``, the mass ``raised . w`` they add to later edge k's
    envelope, so that edge's envelope total is Z~ + E with E =
    ``extra[k]``.  Per edge: take it out of its row (an emptied row stays,
    with seat count 0, until the sweep ends).  When E > 0, with a uniform
    x, ``y = x (Z~ + E) - Z~``; if y >= 0, which happens with probability
    E / (Z~ + E), the proposal is the raised row where the running sum of
    ``raised[q] * w_q`` first exceeds y, and otherwise the block-start
    proposal stands.  Accept a proposed row r when ``u * env_r < s_r``,
    with the current envelope, accept a new community outright, since it
    weighs ``new_w`` in both draws, and otherwise make the exact draw: the
    running sum of the current ``s_r * w_r``, and the row where it first
    exceeds ``u * (sum + new_w)``; past the last row, or when that total
    is not finite and positive, a new community.  A block ends right after
    a community opens and right after an edge whose block-start envelope
    total is not finite and positive, which takes the exact draw.

    So at every visit ``env_r >= s_r``, and a row is proposed with
    probability ``env_r w_r / Z~'``, Z~' being the current envelope's
    total, and accepted with probability ``s_r w_r / Z~'``.  The exact
    draw, made with the remaining probability ``1 - Z / Z~'``, adds
    ``(1 - Z / Z~') s_r w_r / Z``: in all ``s_r w_r / Z``, the exact
    conditional, and likewise ``new_w / Z`` for a new community.  A new
    table appends a row; since it ends the block, the next block reads the
    new arrays.  After the last edge the empty rows are dropped, the
    others keeping their order, and then the betas are redrawn.
    """
    rng, m = state.rng, state.m
    order = rng.permutation(m)
    visits, pairs = order.tolist(), state.graph.edge_array[order]
    random, new_w = rng.random, state._new_w
    multiply, accumulate = np.multiply, np.add.accumulate
    assign = state._assign_row.tolist()
    start = 0
    while start < m:
        stop = min(start + _BLOCK, m)
        # the seat counts are read and written one at a time through a
        # memoryview, and as a whole by the draws through the array it views
        seats, beta = state._seats, state._beta
        high = len(seats)
        counts, w = memoryview(seats), np.empty(high)
        env = np.where(seats > 0.0, seats + _SLACK, 0.0)
        prod = beta[pairs[start:stop, 0]]
        prod *= beta[pairs[start:stop, 1]]
        cum = prod * env
        accumulate(cum, axis=1, out=cum)
        totals = cum[:, -1] + new_w
        u = random((3, stop - start))
        # the proposal is the number of running sums at or below u * total:
        # a row, or ``high`` for a new community; -1 takes the exact draw
        pick = np.count_nonzero(cum <= (u[0] * totals)[:, None], axis=1)
        pick[~((totals > 0.0) & (totals < math.inf))] = -1
        env = env.tolist()
        raised = extra = None  # made at the block's first raise
        for k, (a, r, v, x, z) in enumerate(zip(visits[start:stop], pick.tolist(),
                                                 u[1].tolist(), u[2].tolist(),
                                                 totals.tolist())):
            row = assign[a]
            counts[row] -= 1.0
            if extra is not None and r >= 0:
                e = extra.item(k)
                if e > 0.0:
                    y = x * (z + e) - z
                    if y >= 0.0:
                        multiply(raised, prod[k], out=w)
                        accumulate(w, out=w)
                        # rounding may put y past the last sum: the last row
                        # that adds mass then takes it
                        r = min(int(w.searchsorted(y, side="right")),
                                int(w.searchsorted(w.item(-1))))
            if r == high or 0 <= r < high and v * env[r] < counts[r]:
                row = r
            else:
                multiply(prod[k], seats, out=w)
                accumulate(w, out=w)
                total = w.item(-1) + new_w
                if 0.0 < total < math.inf:
                    # an emptied row adds 0 to the running sum, so the first
                    # position whose sum exceeds the draw holds seats
                    row = int(w.searchsorted(random() * total, side="right"))
                else:
                    row = high
            opened = row == high
            if opened:
                # through the instance, so that a wrapper on the class sees
                # it; the table's row is ``high``, in new arrays
                state._create_community(*pairs[start + k])
                counts = memoryview(state._seats)
            assign[a] = row
            c = counts[row] + 1.0
            counts[row] = c
            if opened or r < 0:
                break
            if c > env[row]:
                lift = c + _SLACK - env[row]
                env[row] = c + _SLACK
                if raised is None:
                    raised, extra = np.zeros(high), np.zeros(stop - start)
                raised[row] += lift
                extra[k + 1:] += lift * prod[k + 1:, row]
        start += k + 1
    state._assign_row = np.array(assign, dtype=np.int64)
    state._compact()
    state.resample_beta()
    return state


def sweep_records(g: SnapshotGraph, prev: PrevSummary | None, hyper: HyperParams,
                  seed, alloc: CommunityIdAllocator | None = None) -> Iterator[SampleRecord]:
    """Fit one snapshot and yield every retained sweep's SampleRecord as
    soon as the sweep ends, for callers that score every sweep."""
    rng = _as_rng(seed)
    alloc = alloc if alloc is not None else CommunityIdAllocator()
    if g.m == 0:
        yield SampleRecord(0, np.empty(0, dtype=np.int64), (), np.empty(0, dtype=np.int64),
                           np.zeros((0, g.n)), 0.0, g.nodes, hyper.theta)
        return
    if prev is None:
        labels = init_assignments_first(g, hyper, rng, alloc)
        prev_counts: dict[int, int] = {}
    else:
        labels = init_assignments_carry(g, prev, hyper, rng, alloc)
        prev_counts = prev.counts
    state = SamplerState(g, labels, prev_counts, hyper, rng, alloc)
    for sweep_index in range(hyper.s_first if prev is None else hyper.s_later):
        gibbs_sweep(state)
        yield state.record(sweep_index)


def run_snapshot(g: SnapshotGraph, prev: PrevSummary | None, hyper: HyperParams,
                 seed, alloc: CommunityIdAllocator | None = None) -> list[SampleRecord]:
    """Fit one snapshot and return its selected sweep in a list of one: the
    record with the best extended modularity, a later sweep winning a tie,
    as in ``select_best``.  The records are folded as they come, so only
    the best so far and the newest are alive at any time."""
    return [max(sweep_records(g, prev, hyper, seed, alloc), key=selection_key)]


@dataclass
class SnapshotResult:
    """The winning sweep of one snapshot: its cover, modularity and chain."""

    t: int
    graph: SnapshotGraph
    cover: Cover
    modularity: float
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

    The chains of a snapshot run in parallel on ``w``, the smaller of
    ``chains`` and the CPUs this process may use: this process fits chains
    ``0, w, 2w, ...`` while a pool of ``w - 1`` worker processes fits the
    others, so the workers start up while this process is already
    sampling.  With ``w == 1`` every chain runs in this process and no pool
    starts.  Chain ``c`` of snapshot ``pos`` draws from ``[seed, pos, c]``
    and takes fresh ids from its own allocator, started where the previous
    snapshot's winner stopped, so a seed gives the same result for any
    number of CPUs.  An exception raised in a chain, in this process or in
    a worker, reaches the caller.  The workers are forked on Linux when
    this process runs no other thread.  Otherwise they are started with
    ``spawn`` and import the caller's main module again, so on other
    platforms a script that runs several chains keeps its top-level work
    under ``if __name__ == "__main__":``.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if chains < 1:
        raise ValueError("chains must be >= 1")
    root = _seed_root(seed)
    workers = min(chains, _usable_cpus())
    if workers == 1:
        return _detect(net, hyper, root, chains, map)
    # imported here so that single-chain runs never pay for the pool modules
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers - 1, mp_context=_pool_context()) as pool:
        return _detect(net, hyper, root, chains, partial(_fit_shared, pool, workers))


def _pool_context():
    """How chain workers start: ``fork`` on Linux, where a worker begins as
    a copy of this process and imports nothing again, ``spawn`` elsewhere.

    A forked child holds only the thread that forked it, so a lock another
    thread held stays locked in the child; a process that runs other
    threads spawns its workers instead.  The pool itself forks every worker
    on its first task, before it starts a thread."""
    import multiprocessing
    import threading

    fork = sys.platform == "linux" and threading.active_count() == 1
    return multiprocessing.get_context("fork" if fork else "spawn")


def _detect(net: DynamicNetwork, hyper: HyperParams, root: int, chains: int,
            map_chains) -> list[SnapshotResult]:
    """``detect_dynamic``'s snapshot loop; ``map_chains`` is ``map`` or
    ``_fit_shared`` and runs ``_fit_chain`` over the chains of a snapshot."""
    high = 0
    prev: PrevSummary | None = None
    results: list[SnapshotResult] = []
    for pos, g in enumerate(net):
        fit = partial(_fit_chain, g, prev, hyper, root, pos, high)
        # the first best fit wins, so a tie keeps the lowest chain
        c, (rec, high) = max(enumerate(map_chains(fit, range(chains))),
                             key=lambda f: f[1][0].modularity)
        results.append(SnapshotResult(g.t, g, rec.cover, rec.modularity, c))
        if g.m:
            prev = PrevSummary.from_record(rec, g)
    return results


def _fit_shared(pool, workers: int, fit, chains: range) -> list:
    """Fit chains ``0, workers, 2 * workers, ...`` in this process while
    ``pool`` fits the others; return every chain's fit in chain order."""
    # a pool thread pickles the snapshot while this process samples from
    # it, which is safe because fitting only reads a SnapshotGraph
    away = pool.map(fit, [c for c in chains if c % workers])
    mine = iter([fit(c) for c in chains if c % workers == 0])
    return [next(away) if c % workers else next(mine) for c in chains]


def _fit_chain(g: SnapshotGraph, prev: PrevSummary | None, hyper: HyperParams,
               root: int, pos: int, high: int,
               chain: int) -> tuple[SampleRecord, int]:
    """Fit chain ``chain`` of snapshot ``pos`` with fresh ids from ``high``
    on; return its best sweep's record, without a cover, and the chain's id
    high-water mark.  Runs in a worker process for the chains a pool fits."""
    alloc = CommunityIdAllocator(high)
    (record,) = run_snapshot(g, prev, hyper, np.random.default_rng([root, pos, chain]), alloc)
    return record, alloc.high_water


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_root(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValueError("detect_dynamic needs an integer seed, got %r" % (seed,))
