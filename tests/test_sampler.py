import hashlib
import math
import multiprocessing
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncomm import sampler
from dyncomm.graphs import DynamicNetwork, GraphFormatError, SnapshotGraph
from dyncomm.membership import Cover, extract_cover, select_best
from dyncomm.metrics import overlapping_nmi
from dyncomm.model import HyperParams, collapsed_partition_score
from dyncomm.sampler import (
    CommunityIdAllocator,
    PrevSummary,
    SamplerState,
    detect_dynamic,
    gibbs_sweep,
    init_assignments_carry,
    init_assignments_first,
    run_snapshot,
    sweep_records,
)
from reference import (CommunityStats, add_idx, check_consistency, crp_weights, draw_for_edge,
                       edge_index, edge_likelihood, edge_weights, init_assignments_carry_dict,
                       new_group_weight, per_visit_sweep, rcrp_weights, remove_edge,
                       remove_idx, row_of)


def random_graph(rng, n, tries):
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(tries, 2)) if a < b}
    return SnapshotGraph(range(n), sorted(pairs))


def partition_key(assignment):
    blocks = {}
    for e, r in assignment.items():
        blocks.setdefault(r, []).append(e)
    return frozenset(frozenset(b) for b in blocks.values())


# ---------------------------------------------------------------- init


def test_init_first_uses_n_over_divisor_communities():
    g = SnapshotGraph(range(500), [(i, i + 1) for i in range(400)])
    alloc = CommunityIdAllocator()
    assign = init_assignments_first(g, HyperParams(), seed=0, alloc=alloc)
    assert alloc.high_water == 100  # pool size before pruning
    assert assign.shape == (g.m,) and assign.dtype == np.int64
    assert set(assign.tolist()) <= set(range(100))


def test_init_first_clamps_pool_to_one():
    g = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    assign = init_assignments_first(g, HyperParams(), seed=1)
    assert len(set(assign.tolist())) == 1


def test_init_first_deterministic():
    g = SnapshotGraph(range(30), [(i, (i + 7) % 30) for i in range(30)])
    a = init_assignments_first(g, HyperParams(), seed=5)
    b = init_assignments_first(g, HyperParams(), seed=5)
    assert np.array_equal(a, b)


def summary(assignment):
    """A PrevSummary of the seating ``{(u, v): community id}``."""
    ends = np.array(list(assignment), dtype=np.int64).reshape(-1, 2)
    labels = np.array(list(assignment.values()), dtype=np.int64)
    return PrevSummary(ends, labels, dict(Counter(labels.tolist())))


def carried(g, prev_assignment, seed, alloc=None):
    """``init_assignments_carry``'s seating of g as ``{(u, v): community id}``."""
    labels = init_assignments_carry(g, summary(prev_assignment), HyperParams(), seed, alloc)
    assert labels.shape == (g.m,) and labels.dtype == np.int64
    return dict(zip(g.edges, labels.tolist()))


def test_init_carry_keeps_surviving_edges():
    g = SnapshotGraph(range(3), [(0, 1), (1, 2)])
    assign = carried(g, {(0, 1): 41}, seed=0)
    assert assign[(0, 1)] == 41
    assert assign[(1, 2)] == 41  # only one live previous community


def test_init_carry_all_new_edges_use_previous_pool():
    g = SnapshotGraph(range(6), [(0, 1), (2, 3), (4, 5)])
    prev = {(0, 2): 7, (1, 3): 9}
    assign = carried(g, prev, seed=3)
    assert set(assign.values()) <= {7, 9}


def test_init_carry_removed_edge_absent():
    g = SnapshotGraph(range(3), [(1, 2)])
    assign = carried(g, {(0, 1): 4, (1, 2): 5}, seed=0)
    assert assign == {(1, 2): 5}


def test_init_carry_empty_prev_falls_back_to_fresh_community():
    g = SnapshotGraph(range(4), [(0, 1), (2, 3)])
    alloc = CommunityIdAllocator(start=11)
    assign = carried(g, {}, seed=0, alloc=alloc)
    assert set(assign.values()) == {11}


# ---------------------------------------------------------------- beta draws


def test_start_beta_is_one_posterior_draw():
    # the start draws every row from Dirichlet(gamma + its endpoint counts),
    # the carried community 60 with no current edge from the prior, and
    # takes nothing else from the stream
    rng = np.random.default_rng(2)
    g = random_graph(rng, 12, 40)
    labels = rng.integers(0, 4, size=g.m)
    fresh = SamplerState(g, labels, {1: 2, 60: 3}, HyperParams(), np.random.default_rng(5))
    again = SamplerState(g, labels, {1: 2, 60: 3}, HyperParams(), np.random.default_rng(9))
    again.rng = np.random.default_rng(5)
    again.resample_beta()
    assert sorted(fresh.B) == sorted(again.B) == [0, 1, 2, 3, 60]
    for cid, row in fresh.B.items():
        assert np.array_equal(row, again.B[cid])
    assert fresh.rng.random() == again.rng.random()


def test_new_table_beta_is_the_posterior_given_its_edge():
    # the mean of Dirichlet(gamma + e_i + e_j) is (1 + gamma) / (2 + N gamma)
    # at i and j and gamma / (2 + N gamma) elsewhere; a prior draw's is 1/N
    g = SnapshotGraph(range(5), [(0, 1), (2, 4)])
    gamma = 0.5
    state = SamplerState(g, [0, 0], None, HyperParams(gamma=gamma), np.random.default_rng(17))
    first = len(state._ids)
    for _ in range(4000):
        state._create_community(2, 4)
    mean = state._beta[:, first:].mean(axis=1)
    on, off = (1 + gamma) / (2 + 5 * gamma), gamma / (2 + 5 * gamma)
    assert np.allclose(mean, [off, off, on, off, on], atol=0.015)


def resampled_betas(state, draws):
    """``draws`` successive posterior beta rows (id -> row) of one state."""
    out = []
    for _ in range(draws):
        state.resample_beta()
        out.append(state.B)
    return out


def test_sample_beta_posterior_mean():
    # community 5 holds (0,1) and (0,2): endpoint counts 2, 1, 1, 0
    g = SnapshotGraph(range(4), [(0, 1), (0, 2)])
    state = SamplerState(g, {e: 5 for e in g.edges}, None,
                         HyperParams(gamma=0.1), np.random.default_rng(6))
    draws = [b[5][0] for b in resampled_betas(state, 10_000)]
    assert np.mean(draws) == pytest.approx(2.1 / 4.4, abs=0.01)


def test_sample_beta_prior_dominates_for_huge_gamma():
    g = SnapshotGraph(range(4), [(0, 1)])
    state = SamplerState(g, {(0, 1): 0}, None, HyperParams(gamma=1e6),
                         np.random.default_rng(7))
    draws = np.array([b[0] for b in resampled_betas(state, 2000)])
    assert np.allclose(draws.mean(axis=0), 0.25, atol=0.01)


def test_sample_beta_rows_on_simplex():
    g = SnapshotGraph(range(5), [(0, 1), (0, 2), (1, 2), (3, 4)])
    assign = {(0, 1): 0, (0, 2): 0, (1, 2): 0, (3, 4): 1}
    state = SamplerState(g, assign, None, HyperParams(gamma=0.1),
                         np.random.default_rng(8))
    for b in resampled_betas(state, 50):
        assert sorted(b) == [0, 1]
        for vec in b.values():
            assert abs(vec.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------- conditional draws


def make_static_state(alpha=0.1, gamma=0.1):
    # community 100 holds three edges, community 200 holds (6,7) and the
    # probe edge (0,1); ten nodes so the new-community weight is 5e-4
    edges_a = [(2, 3), (3, 4), (4, 5)]
    edges_b = [(6, 7), (0, 1)]
    g = SnapshotGraph(range(10), sorted(edges_a + edges_b))
    assign = {e: 100 for e in edges_a}
    assign.update({e: 200 for e in edges_b})
    h = HyperParams(alpha=alpha, gamma=gamma)
    state = SamplerState(g, assign, None, h, np.random.default_rng(0))
    return g, state, h


def test_static_edge_weights_hand_example():
    g, state, h = make_static_state()
    remove_edge(state, (0, 1))
    row_a = row_of(state, 100)
    row_b = row_of(state, 200)
    state._beta[0, row_a], state._beta[1, row_a] = 0.2, 0.1
    state._beta[0, row_b], state._beta[1, row_b] = 0.5, 0.4
    existing, new = edge_weights(state, (0, 1))
    assert existing[100] == pytest.approx(0.06)
    assert existing[200] == pytest.approx(0.2)
    assert new == pytest.approx(5e-4)


def test_static_draw_frequencies_match_weights():
    g, state, h = make_static_state()
    remove_edge(state, (0, 1))
    row_a = row_of(state, 100)
    row_b = row_of(state, 200)
    state._beta[0, row_a], state._beta[1, row_a] = 0.2, 0.1
    state._beta[0, row_b], state._beta[1, row_b] = 0.5, 0.4
    a = edge_index(state, (0, 1))
    hits = Counter()
    for _ in range(30_000):
        # a table this opens holds no seat, so it weighs 0 in later draws
        hits[draw_for_edge(state, a)] += 1
    p_b = hits[200] / 30_000
    assert p_b == pytest.approx(0.2 / 0.2605, abs=0.015)


def test_dynamic_edge_weights_hand_example():
    # carried community 100: four previous edges plus two current after
    # leave-one-out; beta product 0.09 -> weight (2+4)*0.09
    g = SnapshotGraph(range(10), [(0, 1), (0, 2), (1, 2), (5, 6), (6, 7)])
    assign = {(0, 1): 100, (0, 2): 100, (1, 2): 100, (5, 6): 200, (6, 7): 200}
    h = HyperParams()
    state = SamplerState(g, assign, {100: 4, 300: 6}, h, np.random.default_rng(1))
    remove_edge(state, (0, 1))
    state._beta[0, row_of(state, 100)] = 0.3
    state._beta[1, row_of(state, 100)] = 0.3
    state._beta[0, row_of(state, 300)] = 0.5
    state._beta[1, row_of(state, 300)] = 0.2
    existing, new = edge_weights(state, (0, 1))
    assert existing[100] == pytest.approx(0.54)
    # previous-only community stays revivable with weight prev_size * beta product
    assert existing[300] == pytest.approx(6 * 0.1)
    assert new == pytest.approx(0.1 * 0.01 / (1.0 * 2.0))


def test_new_community_id_is_fresh():
    g = SnapshotGraph(range(10), [(0, 1), (0, 2), (1, 2), (5, 6), (6, 7)])
    assign = {(0, 1): 0, (0, 2): 0, (1, 2): 0, (5, 6): 1, (6, 7): 1}
    h = HyperParams(alpha=50.0)  # make NEW likely
    state = SamplerState(g, assign, {0: 4, 2: 6}, h, np.random.default_rng(2))
    remove_edge(state, (0, 1))
    a = edge_index(state, (0, 1))
    for _ in range(200):
        cid = draw_for_edge(state, a)
        if cid not in (0, 1, 2):
            assert cid >= 3
            return
        # re-balance nothing; the draw does not mutate counts for existing picks
    pytest.fail("a fresh community was never drawn despite alpha=50")


def test_edge_weights_agree_with_model_kernels():
    rng = np.random.default_rng(17)
    h = HyperParams(alpha=0.4, gamma=0.3)
    for trial in range(25):
        g = random_graph(rng, 8, 25)
        if g.m < 2:
            continue
        assign = {e: int(rng.integers(0, 3)) for e in g.edges}
        dynamic = trial % 2 == 1
        prev_counts = {0: 2, 7: 3} if dynamic else None
        state = SamplerState(g, assign, prev_counts, h, rng)
        probe = g.edges[int(rng.integers(0, g.m))]
        seating = state.G
        remove_edge(state, probe)
        existing, new = edge_weights(state, probe)

        del seating[probe]
        stats = CommunityStats.from_assignment(seating)
        if dynamic:
            seat, seat_new = rcrp_weights(CommunityStats(prev_counts), stats, h.alpha)
        else:
            seat, seat_new = crp_weights(stats, h.alpha)
        beta = state.B
        iu, iv = np.searchsorted(g.nodes, probe).tolist()
        expected = {r: w * edge_likelihood(beta, r, iu, iv) for r, w in seat.items()}
        expected_new = new_group_weight(h.gamma, g.n, h.alpha, iu, iv)
        assert set(existing) == set(expected)
        for r in expected:
            assert existing[r] == pytest.approx(expected[r], abs=1e-12)
        assert new == pytest.approx(expected_new, rel=1e-12)


# ---------------------------------------------------------------- invariants


def test_leave_one_out_restores_stats():
    g, state, h = make_static_state()
    before = state._seats.copy(), state._node_counts()
    remove_edge(state, (0, 1))
    add_idx(state, edge_index(state, (0, 1)), 200)
    assert np.array_equal(state._seats, before[0])
    assert np.array_equal(state._node_counts(), before[1])
    check_consistency(state, None)


def test_leave_one_out_restores_stats_after_row_retirement():
    g = SnapshotGraph(range(4), [(0, 1), (2, 3)])
    h = HyperParams()
    state = SamplerState(g, {(0, 1): 0, (2, 3): 1}, None, h, np.random.default_rng(4))
    before = CommunityStats.from_assignment(state.G)
    remove_edge(state, (2, 3))  # community 1 dies with its only edge
    assert state._seats[row_of(state, 1)] == 0.0  # its row stays until compacted
    cid = state._create_community(2, 3)
    add_idx(state, edge_index(state, (2, 3)), cid)
    state._compact()
    check_consistency(state, None)
    assert len(state._ids) == 2 and 1 not in state.B
    relabel = {0: 0, 1: cid}
    after = CommunityStats.from_assignment(state.G)
    assert after.n == {relabel[r]: n for r, n in before.n.items()}
    assert after.endpoint_counts == {(i, relabel[r]): c
                                     for (i, r), c in before.endpoint_counts.items()}


def test_sweep_keeps_state_consistent():
    rng = np.random.default_rng(19)
    h = HyperParams()
    for trial in range(5):
        g = random_graph(rng, 15, 60)
        assign = init_assignments_first(g, h, rng)
        state = SamplerState(g, assign, None, h, rng)
        for _ in range(4):
            gibbs_sweep(state)
            check_consistency(state, None)


@pytest.mark.parametrize("prev_counts", [None, {3: 4, 1000: 2}])
def test_every_row_below_the_mark_holds_seats_after_each_sweep(prev_counts):
    # every edge starts at a table of its own, so the first sweeps empty
    # most rows; each sweep must end with none of them left in the arrays
    rng = np.random.default_rng(31)
    g = random_graph(rng, 30, 120)
    state = SamplerState(g, np.arange(g.m), prev_counts, HyperParams(), rng)
    start = len(state._ids)
    for _ in range(6):
        gibbs_sweep(state)
        held = len(set(state._ids[state._assign_row].tolist()) | set(prev_counts or {}))
        assert len(state._ids) == len(state._prev) == len(state._seats) == held
        assert state._beta.shape == (g.n, held)
        assert np.all(state._seats > 0)
    assert len(state._ids) < start // 2


def test_sweep_consistency_with_carryover():
    rng = np.random.default_rng(20)
    h = HyperParams()
    g = random_graph(rng, 12, 50)
    assign = {e: int(rng.integers(0, 3)) for e in g.edges}
    prev_counts = {0: 5, 1: 2, 9: 4}
    state = SamplerState(g, assign, prev_counts, h, rng)
    for _ in range(5):
        gibbs_sweep(state)
        check_consistency(state, prev_counts)
        assert state._seats.sum() - state._prev.sum() == state.m


def corrupt(state, kind):
    last = len(state._ids) - 1
    if kind == "seat count":
        state._seats[0] += 1.0
    elif kind == "empty row":
        state._create_community(0, 1)  # a row no edge sits on, left uncompacted
    elif kind == "carried size":
        state._prev[0] += 4
    elif kind == "duplicate id":
        state._ids[last] = state._ids[last - 1]
    elif kind == "beta off simplex":
        state._beta[:, 0] *= 1.5


@pytest.mark.parametrize("kind", ["seat count", "empty row", "carried size",
                                  "duplicate id", "beta off simplex"])
def test_check_consistency_catches_each_corruption(kind):
    rng = np.random.default_rng(29)
    g = random_graph(rng, 12, 50)
    assign = {e: int(rng.integers(0, 3)) for e in g.edges}
    prev_counts = {0: 5, 1: 2, 9: 4}
    state = SamplerState(g, assign, prev_counts, HyperParams(), rng)
    gibbs_sweep(state)
    assert len(state._ids) >= 4
    check_consistency(state, prev_counts)
    corrupt(state, kind)
    with pytest.raises(AssertionError):
        check_consistency(state, prev_counts)


def test_previous_only_community_beta_resampled():
    g = SnapshotGraph(range(4), [(0, 1)])
    h = HyperParams()
    rng = np.random.default_rng(21)
    state = SamplerState(g, {(0, 1): 50}, {50: 1, 60: 5}, h, rng)
    assert 60 in state.B
    state.resample_beta()
    vec = state.B[60]
    assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_beta_and_seating_stream_is_pinned():
    # the draws the pinned CLI bytes need not reach: the start's betas,
    # carried communities with no current edge among them (gamma=0.02), an
    # opened table's, and 20 sweeps' (with raised envelopes and proposals
    # from the raised mass), so a refactor cannot move them unseen
    rng = np.random.default_rng(41)
    g = random_graph(rng, 30, 120)
    state = SamplerState(g, rng.integers(0, 4, size=g.m), {2: 3, 50: 2, 60: 4},
                         HyperParams(gamma=0.02), rng)
    digest = hashlib.sha256()

    def take():
        digest.update(state._ids.tobytes())
        digest.update(state._ids[state._assign_row].tobytes())
        digest.update(state._beta.tobytes())

    take()
    state._create_community(*g.edge_array[0])
    take()
    for _ in range(20):
        gibbs_sweep(state)
        take()
    assert digest.hexdigest() == \
        "20d7e6002eaf8c498ea11fd1383127dd80dadd2ea5a471a8abb0f251bf07e23c"


def test_retired_ids_never_return_on_first_snapshot():
    rng = np.random.default_rng(23)
    h = HyperParams(s_first=30)
    g = random_graph(rng, 20, 70)
    records = sweep_records(g, None, h, seed=23)
    seen_then_gone: set[int] = set()
    prev_ids: set[int] = set()
    for rec in records:
        ids = set(int(r) for r in rec.assign_ids)
        assert not (ids & seen_then_gone), "a retired community id came back"
        seen_then_gone |= prev_ids - ids
        prev_ids = ids


def test_run_snapshot_deterministic():
    rng = np.random.default_rng(25)
    g = random_graph(rng, 14, 45)
    h = HyperParams(s_first=12)
    a = list(sweep_records(g, None, h, seed=99))
    b = list(sweep_records(g, None, h, seed=99))
    assert len(a) == len(b) == 12
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.assign_ids, rb.assign_ids)
        assert np.array_equal(ra.beta, rb.beta)
        assert ra.modularity == rb.modularity


# ---------------------------------------------------------------- edge pass


def reference_sweep(state, events=None):
    """One raised-envelope block pass with every weight gathered afresh:
    live rows from ``np.nonzero``, sizes from ``np.bincount`` of the seated
    edges rather than the state's running seat counts, per edge
    fancy-indexed ``beta_i * beta_j * env`` over the block's live rows and
    ``np.cumsum``, and an edge's raised mass summed from the block's list of
    raises rather than kept per edge.  It moves edges with the per-edge
    functions of ``reference``, opens tables through the state's own method
    and draws from its rng in the order ``gibbs_sweep`` does, so the two
    must agree bit for bit.  ``events``, a Counter, counts the blocks, the
    envelope raises ("raise"), the blocks that raise two rows or more
    ("raised2"), the proposals taken from the raised mass ("mixture"), each
    way a block ends ("open", "nonfinite"), the exact draws ("fallback")
    and the uniforms they take ("redraw")."""
    events = events if events is not None else Counter()
    rng, ends = state.rng, state.graph.edge_array
    order = rng.permutation(state.m)
    start = 0
    while start < state.m:
        events["block"] += 1
        block = order[start:start + sampler._BLOCK].tolist()
        rows = np.flatnonzero(seat_counts(state) > 0)
        env = seat_counts(state)[rows] + sampler._SLACK
        env_now = dict(zip(rows.tolist(), env.tolist()))  # raised in place
        raises = []  # (row, how far its envelope rose), in the order they happen
        u = rng.random((3, len(block)))
        for k, a in enumerate(block):
            i, j = ends[a]
            beta = state._beta  # a new table replaces it
            fresh = state.alloc.high_water  # ids from here on are newly opened
            cum = np.cumsum(beta[i, rows] * beta[j, rows] * env)
            total = float(cum[-1]) + state._new_w
            remove_idx(state, a)
            cid, finite = None, 0.0 < total < math.inf
            if finite:
                pos = int(np.searchsorted(cum, u[0, k] * total, side="right"))
                proposal = int(rows[pos]) if pos < len(rows) else None  # None: a new table
                extra = 0.0
                for q, lift in raises:
                    extra += lift * (beta[i, q] * beta[j, q])
                y = u[2, k] * (total + extra) - total
                if extra > 0.0 and y >= 0.0:
                    events["mixture"] += 1
                    lifted = sorted({q for q, _ in raises})
                    mass = np.cumsum([sum(d for q2, d in raises if q2 == q)
                                      * (beta[i, q] * beta[j, q]) for q in lifted])
                    proposal = lifted[min(int(np.searchsorted(mass, y, side="right")),
                                          int(np.searchsorted(mass, mass[-1])))]
                if proposal is None:
                    cid = state._create_community(i, j)
                elif u[1, k] * env_now[proposal] < seat_counts(state)[proposal]:
                    cid = int(state._ids[proposal])
            else:
                events["nonfinite"] += 1
            if cid is None:
                events["fallback"] += 1
                cid = exact_draw(state, i, j, events)
            add_idx(state, a, cid)
            if cid >= fresh:
                events["open"] += 1
                break
            if not finite:
                break
            row = row_of(state, cid)
            seated = seat_counts(state)[row]
            if seated > env_now[row]:
                events["raise"] += 1
                raises.append((row, seated + sampler._SLACK - env_now[row]))
                env_now[row] = seated + sampler._SLACK
        if len({q for q, _ in raises}) >= 2:
            events["raised2"] += 1
        start += k + 1
    state._compact()
    state.resample_beta()


def seat_counts(state):
    """Every row's current plus carried size, recounted from the seating."""
    seated = state._assign_row[state._assign_row >= 0]
    return np.bincount(seated, minlength=len(state._ids)) + state._prev


def exact_draw(state, i, j, events):
    """The community id of the exact seating draw for a removed edge (i, j),
    opening a new one when it is drawn or the total is not finite and
    positive."""
    rows = np.flatnonzero(seat_counts(state) > 0)
    cum = np.cumsum(state._beta[i, rows] * state._beta[j, rows] * seat_counts(state)[rows])
    total = (float(cum[-1]) if len(cum) else 0.0) + state._new_w
    if not 0.0 < total < math.inf:
        return state._create_community(i, j)
    events["redraw"] += 1
    pos = int(np.searchsorted(cum, state.rng.random() * total, side="right"))
    if pos >= len(rows):
        return state._create_community(i, j)
    return int(state._ids[rows[pos]])


def twin_states(g, labels, prev_counts, h, seed):
    assign = {e: int(r) for e, r in zip(g.edges, labels)}
    return [SamplerState(g, assign, prev_counts, h, np.random.default_rng(seed))
            for _ in range(2)]


class CountingRng:
    """A Generator that counts its ``random`` calls: with a size, one per
    block of the edge pass; without, one per exact draw."""

    def __init__(self, rng):
        self._rng, self.calls = rng, Counter()

    def random(self, size=None):
        self.calls["block" if size is not None else "redraw"] += 1
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def run_twins(fast, slow, sweeps, events=None, prev_counts=None):
    """Sweep both states side by side, asserting they stay identical and
    that ``gibbs_sweep`` starts as many blocks and makes as many exact
    draws as ``reference_sweep``, whose events are added to ``events``;
    returns (tables opened, rows emptied and dropped)."""
    first_id = fast.alloc.high_water
    seen = Counter()
    rng, fast.rng = fast.rng, CountingRng(fast.rng)
    dropped = 0
    for _ in range(sweeps):
        before = set(fast._ids.tolist())
        gibbs_sweep(fast)
        reference_sweep(slow, seen)
        assert fast.G == slow.G
        assert np.array_equal(fast._ids, slow._ids)
        assert np.array_equal(fast._beta, slow._beta)
        assert fast.alloc.high_water == slow.alloc.high_water
        assert fast._assign_row.dtype == slow._assign_row.dtype == np.int64
        check_consistency(fast, prev_counts)
        check_consistency(slow, prev_counts)
        dropped += len(before - set(fast._ids.tolist()))
    assert fast.rng.calls["block"] == seen["block"]
    assert fast.rng.calls["redraw"] == seen["redraw"]
    fast.rng = rng
    if events is not None:
        events.update(seen)
    return fast.alloc.high_water - first_id, dropped


@st.composite
def seating_cases(draw):
    n = draw(st.integers(3, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    g = SnapshotGraph(range(n), sorted(edges))
    labels = draw(st.lists(st.integers(0, 3), min_size=g.m, max_size=g.m))
    prev_counts = draw(st.none() | st.dictionaries(st.integers(0, 6), st.integers(1, 5),
                                                   max_size=3))
    alpha = draw(st.sampled_from([0.1, 5.0, 50.0]))
    gamma = draw(st.sampled_from([0.1, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    return g, labels, prev_counts, HyperParams(alpha=alpha, gamma=gamma), seed


@settings(max_examples=60, deadline=None)
@given(seating_cases())
def test_seating_view_sweep_matches_the_gather_form(case):
    g, labels, prev_counts, h, seed = case
    fast, slow = twin_states(g, labels, prev_counts, h, seed)
    run_twins(fast, slow, sweeps=6, prev_counts=prev_counts)


@pytest.mark.parametrize("prev_counts", [None, {0: 3, 9: 2}])
def test_seating_view_twins_open_and_release(prev_counts):
    # a witness that the equivalence above covers newborn tables and rows
    # that empty and are dropped, with and without carried-over sizes
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, 40)
    labels = rng.integers(0, 2, size=g.m)
    fast, slow = twin_states(g, labels, prev_counts, HyperParams(alpha=50.0), seed=8)
    opened, dropped = run_twins(fast, slow, sweeps=8, prev_counts=prev_counts)
    assert opened > 0 and dropped > 0


def test_seating_view_twins_open_after_a_row_empties():
    # alpha = 50 on one starting community: every sweep opens tables, and
    # a sweep opens one with a row already emptied and another table still
    # to open, so it must read the new arrays from then on and compact
    # rows in them
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, 40)
    fast, slow = twin_states(g, np.zeros(g.m, dtype=np.int64), None,
                             HyperParams(alpha=50.0), seed=6)
    emptied: list[bool] = []  # per opening, whether a row had emptied
    create = fast._create_community

    def logged_create(i, j):
        emptied.append(bool(np.any(fast._seats == 0.0)))
        return create(i, j)

    fast._create_community = logged_create
    per_sweep = []
    for _ in range(4):
        emptied.clear()
        run_twins(fast, slow, sweeps=1)
        per_sweep.append(list(emptied))
    assert all(per_sweep)
    assert any(any(ev[:-1]) for ev in per_sweep)


def test_seating_view_twins_end_blocks_each_way():
    # four starting communities merge, so seatings raise the envelopes of
    # two rows or more in a block, later edges propose from the raised
    # mass, and rejected proposals take the exact draw.  With no
    # new-table weight and node 0 weightless in every row, the first edge
    # at node 0 has an envelope total of 0: it takes the exact draw, whose
    # total is 0 too, so it opens a table.
    rng = np.random.default_rng(4)
    g = random_graph(rng, 20, 120)
    fast, slow = twin_states(g, rng.integers(0, 4, size=g.m), None, HyperParams(), seed=5)
    for state in (fast, slow):
        state._new_w = 0.0
        state._beta[0] = 0.0
        state._beta /= state._beta.sum(axis=0)
    events = Counter()
    run_twins(fast, slow, sweeps=3, events=events)
    assert events["raise"] > 0 and events["raised2"] > 0 and events["mixture"] > 0
    assert events["open"] > 0 and events["nonfinite"] > 0
    assert events["fallback"] > events["nonfinite"] and events["redraw"] > 0


# ---------------------------------------------------------------- snapshots


def test_run_snapshot_record_counts():
    rng = np.random.default_rng(26)
    g = random_graph(rng, 10, 30)
    records = list(sweep_records(g, None, HyperParams(), seed=1))
    assert len(records) == 100
    assert len(run_snapshot(g, None, HyperParams(), seed=1)) == 1
    prev = PrevSummary.from_record(records[-1], g)
    assert len(list(sweep_records(g, prev, HyperParams(), seed=2))) == 50
    assert len(run_snapshot(g, prev, HyperParams(), seed=2)) == 1


def test_run_snapshot_empty_graph():
    g = SnapshotGraph([0, 1, 2], [])
    records = run_snapshot(g, None, HyperParams(), seed=0)
    assert len(records) == 1
    assert records[0].cover.communities == {}
    assert records[0].modularity == 0.0


def test_two_cliques_recovered():
    c1 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    c2 = [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    g = SnapshotGraph(range(10), sorted(c1 + c2))
    h = HyperParams(s_first=50)
    records = run_snapshot(g, None, h, seed=11)
    best = max(records, key=lambda r: (r.modularity, r.sweep_index))
    planted = Cover({0: set(range(5)), 1: set(range(5, 10))})
    assert overlapping_nmi(best.cover, planted, range(10)) == pytest.approx(1.0)


def test_detect_dynamic_shape_and_determinism():
    rng = np.random.default_rng(30)
    snaps = []
    for t in (1, 2, 3):
        g = random_graph(rng, 12, 40)
        snaps.append(SnapshotGraph(g.nodes, g.edges, t=t))
    net = DynamicNetwork(snaps)
    h = HyperParams(s_first=10, s_later=6)
    r1 = detect_dynamic(net, h, seed=4)
    r2 = detect_dynamic(net, h, seed=4)
    assert [r.t for r in r1] == [1, 2, 3]
    for a, b in zip(r1, r2):
        assert a.cover.communities == b.cover.communities
        assert a.modularity == b.modularity
        assert a.chain == 0


def test_empty_snapshot_keeps_the_carry_over():
    # an empty middle snapshot must not wipe what t=1 passes on: t=3 has the
    # same two triangles and should find them under their t=1 ids
    tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    net = DynamicNetwork([SnapshotGraph(range(6), tri, t=1),
                          SnapshotGraph(range(6), [], t=2),
                          SnapshotGraph(range(6), tri, t=3)])
    h = HyperParams(s_first=100, s_later=20)
    first, empty, last = detect_dynamic(net, h, seed=5, chains=2)
    assert empty.cover.k == 0
    assert sorted(map(sorted, first.cover.communities.values())) == \
        [[0, 1, 2], [3, 4, 5]]
    assert last.cover.communities == first.cover.communities


def test_detect_dynamic_multiple_chains_pick_best():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 10, 30)
    net = DynamicNetwork([g])
    h = HyperParams(s_first=8)
    single = detect_dynamic(net, h, seed=7, chains=1)
    multi = detect_dynamic(net, h, seed=7, chains=3)
    assert multi[0].modularity >= single[0].modularity
    assert multi[0].chain in (0, 1, 2)


def three_snapshots(seed):
    rng = np.random.default_rng(seed)
    return DynamicNetwork([SnapshotGraph(range(12), random_graph(rng, 12, 40).edges, t=t)
                           for t in (1, 2, 3)])


def children_gone(timeout=30.0):
    """Poll until this process has no live child processes, or time out."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


def first_seed(holds, seeds):
    """The first of ``seeds`` for which ``holds(seed)`` is true.  The tests
    below need a run that shows a certain outcome; searching for it, rather
    than pinning a seed, keeps them testing that outcome when the random
    stream changes."""
    for seed in seeds:
        if holds(seed):
            return seed
    pytest.fail("no seed in %r meets the precondition" % (seeds,))


def test_detect_dynamic_same_result_for_any_worker_count(monkeypatch):
    # a seed whose snapshots chains 0, 1 and 2 win in turn, so that ids
    # drawn by every chain's allocator reach the output
    net = three_snapshots(32)
    h = HyperParams(s_first=10, s_later=6)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    seed = first_seed(lambda s: [r.chain for r in detect_dynamic(net, h, seed=s, chains=3)]
                      == [0, 1, 2], range(500))
    runs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        runs[cpus] = detect_dynamic(net, h, seed=seed, chains=3)
    assert [r.chain for r in runs[1]] == [0, 1, 2]
    for cpus in (2, 3):
        for a, b in zip(runs[1], runs[cpus]):
            assert a.cover.communities == b.cover.communities
            assert a.modularity == b.modularity
            assert a.chain == b.chain
    assert children_gone()


def test_winning_chain_ids_do_not_depend_on_other_chains(monkeypatch):
    # for a seed where chain 1 wins t=1, its ids must be those of the same
    # chain fitted alone, not shifted past the ids chain 0 used
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    net = three_snapshots(32)
    h = HyperParams(s_first=10, s_later=6)
    seed = first_seed(lambda s: detect_dynamic(net, h, seed=s, chains=2)[0].chain == 1,
                      range(100))
    first = detect_dynamic(net, h, seed=seed, chains=2)[0]
    assert first.chain == 1
    records = run_snapshot(net[0], None, h, np.random.default_rng([seed, 0, 1]),
                           alloc=CommunityIdAllocator())
    cover, record = select_best([(r, r.cover) for r in records])
    assert first.cover.communities == cover.communities
    assert first.modularity == record.modularity


def test_detect_builds_one_cover_per_snapshot(monkeypatch):
    # every sweep is scored from its membership mask; only each snapshot's
    # winner becomes a Cover
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return extract_cover(*args)

    monkeypatch.setattr(sampler, "extract_cover", counted)
    results = detect_dynamic(three_snapshots(32), HyperParams(s_first=10, s_later=6),
                             seed=1, chains=2)
    assert len(calls) == len(results) == 3


class FailsInWorkers(SnapshotGraph):
    """A snapshot that a worker process refuses and this process accepts."""

    @property
    def m(self):
        if multiprocessing.parent_process() is not None:
            raise GraphFormatError("snapshot %d is refused in a worker" % self.t)
        return SnapshotGraph.m.fget(self)


class FailsEverywhere(SnapshotGraph):
    """A snapshot that every chain refuses."""

    @property
    def m(self):
        raise GraphFormatError("snapshot %d is refused everywhere" % self.t)


def test_chain_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
    for method in ("fork", "spawn"):
        monkeypatch.setattr(sampler, "_pool_context",
                            lambda method=method: multiprocessing.get_context(method))
        check_chain_errors_reach_the_caller()


def check_chain_errors_reach_the_caller():
    # chain 0 runs in this process and passes; chain 1 fails in the worker
    g = FailsInWorkers([0, 1, 2], [(0, 1), (1, 2)], t=1)
    with pytest.raises(GraphFormatError, match="refused in a worker") as err:
        detect_dynamic(DynamicNetwork([g]), HyperParams(s_first=2), seed=1, chains=2)
    assert type(err.value.__cause__).__name__ == "_RemoteTraceback"
    assert children_gone()
    # every chain raises, first the one this process fits
    bad = DynamicNetwork([FailsEverywhere([0, 1, 2], [(0, 1), (1, 2)], t=1)])
    with pytest.raises(GraphFormatError, match="refused everywhere") as err:
        detect_dynamic(bad, HyperParams(s_first=2), seed=1, chains=2)
    assert err.value.__cause__ is None
    assert children_gone()
    results = detect_dynamic(three_snapshots(32), HyperParams(s_first=2, s_later=2),
                             seed=1, chains=2)
    assert [r.t for r in results] == [1, 2, 3]
    assert children_gone()


def test_chain_workers_fork_on_linux_and_spawn_elsewhere(monkeypatch):
    monkeypatch.setattr(sampler.sys, "platform", "linux")
    assert sampler._pool_context().get_start_method() == "fork"
    for platform in ("darwin", "win32"):
        monkeypatch.setattr(sampler.sys, "platform", platform)
        assert sampler._pool_context().get_start_method() == "spawn"
    # a process with another thread running spawns, on Linux too
    monkeypatch.setattr(sampler.sys, "platform", "linux")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        assert sampler._pool_context().get_start_method() == "spawn"
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()


def test_fitting_leaves_the_snapshot_as_it_was(monkeypatch):
    # the chains of a snapshot share it, in this process and while a pool
    # thread pickles it for the workers, so fitting must not write to it
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
    net = three_snapshots(33)
    before = [dict(vars(g)) for g in net]
    detect_dynamic(net, HyperParams(s_first=4, s_later=3), seed=2, chains=2)
    for g, attrs in zip(net, before):
        assert vars(g).keys() == attrs.keys()
        for name, value in attrs.items():
            assert vars(g)[name] is value
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable


# ---------------------------------------------------------------- posterior smoke


def test_two_edge_chain_matches_exact_posterior():
    h = HyperParams(alpha=0.6, gamma=0.9)
    g = SnapshotGraph([0, 1, 2], [(0, 1), (1, 2)])
    together = {(0, 1): 0, (1, 2): 0}
    apart = {(0, 1): 0, (1, 2): 1}
    scores = np.array([collapsed_partition_score(a, g, h)
                       for a in (together, apart)])
    exact = np.exp(scores - scores.max())
    exact = exact / exact.sum()

    rng = np.random.default_rng(40)
    alloc = CommunityIdAllocator()
    assign = init_assignments_first(g, h, rng, alloc)
    state = SamplerState(g, assign, None, h, rng, alloc)
    keys = [partition_key(together), partition_key(apart)]
    counts = Counter()
    sweeps, burn_in = 8000, 500
    for sweep in range(sweeps):
        gibbs_sweep(state)
        if sweep >= burn_in:
            counts[partition_key(state.G)] += 1
    total = sweeps - burn_in
    empirical = np.array([counts[k] / total for k in keys])
    tv = 0.5 * float(np.abs(empirical - exact).sum())
    assert tv < 0.05, "TV %.4f against exact posterior %s vs %s" % (
        tv, exact, empirical)


def labeling_frequencies(sweep, g, prev_counts, h, seed, sweeps=20_000, burn_in=500):
    """How often ``sweep``'s chain holds each labeling of g's edges after
    ``burn_in`` sweeps: a carried community by its id, any other by the
    order of its first edge."""
    state = SamplerState(g, [0] * g.m, prev_counts, h, np.random.default_rng(seed))
    carried_ids = set(prev_counts or {})
    counts = Counter()
    for sweep_index in range(sweeps):
        sweep(state)
        if sweep_index >= burn_in:
            fresh = {}
            counts[tuple(cid if cid in carried_ids else -1 - fresh.setdefault(cid, len(fresh))
                         for cid in state._ids[state._assign_row].tolist())] += 1
    return {k: c / (sweeps - burn_in) for k, c in counts.items()}


@pytest.mark.parametrize("prev_counts", [None, {7: 2}])
def test_block_pass_has_the_law_of_the_per_visit_sweep(prev_counts):
    # both sweeps share the new-table bias of the seating draw, so they are
    # compared with each other; the bound was fixed before the block pass
    # was written, when two per-visit chains on this graph (seed pairs 1-2,
    # 3-4 and 5-6) differed by TV 0.015-0.024
    g = SnapshotGraph(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)])
    h = HyperParams(alpha=0.5, gamma=0.5)
    blocked = labeling_frequencies(gibbs_sweep, g, prev_counts, h, seed=1)
    per_visit = labeling_frequencies(per_visit_sweep, g, prev_counts, h, seed=2)
    tv = 0.5 * sum(abs(blocked.get(k, 0.0) - per_visit.get(k, 0.0))
                   for k in set(blocked) | set(per_visit))
    assert tv < 0.05, "TV %.4f between the block pass and the per-visit sweep" % tv


# ---------------------------------------------------------------- streaming selection


def test_run_snapshot_keeps_at_most_two_records_alive(monkeypatch):
    refs, alive = [], []
    record = SamplerState.record

    def tracked(state, sweep_index):
        rec = record(state, sweep_index)
        refs.append(weakref.ref(rec))
        alive.append(sum(r() is not None for r in refs))
        return rec

    monkeypatch.setattr(SamplerState, "record", tracked)
    g = random_graph(np.random.default_rng(34), 20, 80)
    (best,) = run_snapshot(g, None, HyperParams(s_first=50), seed=3)
    assert len(refs) == 50
    assert max(alive) <= 2
    survivors = [r() for r in refs if r() is not None]
    assert len(survivors) == 1 and survivors[0] is best


def test_run_snapshot_tie_goes_to_the_later_sweep(monkeypatch):
    monkeypatch.setattr(sampler, "extended_modularity", lambda cover, g: 0.25)
    g = random_graph(np.random.default_rng(35), 12, 40)
    (best,) = run_snapshot(g, None, HyperParams(s_first=7), seed=1)
    assert (best.modularity, best.sweep_index) == (0.25, 6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_snapshot_selects_what_select_best_selects(seed):
    rng = np.random.default_rng(36 + seed)
    g0, g1 = random_graph(rng, 14, 50), random_graph(rng, 14, 50)
    h = HyperParams(s_first=15, s_later=8)
    prev = None
    for g in (g0, g1):  # a first snapshot, then one carried over from it
        alloc = CommunityIdAllocator(9)
        records = list(sweep_records(g, prev, h, np.random.default_rng([seed, 1]), alloc))
        cover, want = select_best([(r, r.cover) for r in records])
        (got,) = run_snapshot(g, prev, h, np.random.default_rng([seed, 1]),
                              CommunityIdAllocator(9))
        assert got.sweep_index == want.sweep_index
        assert got.modularity == want.modularity
        assert np.array_equal(got.assign_ids, want.assign_ids)
        assert np.array_equal(got.beta, want.beta)
        assert got.cover == cover
        prev = PrevSummary.from_record(got, g)


# ---------------------------------------------------------------- array carry-over


def assert_carry_matches_the_dict_form(g0, g1, seed):
    """Summarize a fitted sweep of g0 and start g1 from it, through the
    arrays and through the dict form of ``reference``, with the same draws."""
    h = HyperParams(s_first=3)
    (rec,) = run_snapshot(g0, None, h, seed=seed)
    prev = PrevSummary.from_record(rec, g0)
    assignment = dict(zip(g0.edges, rec.assign_ids.tolist()))
    counts = {}
    for r in rec.assign_ids.tolist():
        counts[r] = counts.get(r, 0) + 1
    assert list(prev.counts.items()) == list(counts.items())  # first-seen order
    fast, slow = CommunityIdAllocator(50), CommunityIdAllocator(50)
    labels = init_assignments_carry(g1, prev, h, np.random.default_rng(seed), fast)
    want = init_assignments_carry_dict(g1, assignment, h, np.random.default_rng(seed), slow)
    assert labels.tolist() == [want[e] for e in g1.edges]
    assert fast.high_water == slow.high_water
    return labels


def test_array_carry_over_matches_the_dict_form_on_a_benchmark():
    from dyncomm.benchgen import GenConfig, generate_dynamic

    cfg = GenConfig(n=80, k=3, overlap_nodes=6, memberships_per_overlap=2,
                    mixing=0.1, avg_degree=8, t=3, churn=0.2, seed=4)
    net, _ = generate_dynamic(cfg)
    for g0, g1 in zip(net, net.snapshots[1:]):
        kept = len(set(g0.edges) & set(g1.edges))
        assert 0 < kept < g1.m
        for seed in (1, 2):
            assert_carry_matches_the_dict_form(g0, g1, seed)


def test_array_carry_over_matches_the_dict_form_on_a_file(tmp_path):
    # 18-digit ids, isolated nodes, edges written out of order and reversed
    from dyncomm.graphs import load_dynamic

    big = 999_999_999_999_999_990
    ids = [big + k for k in range(8)] + [3, 5]
    rng = np.random.default_rng(6)
    lines = ["2 n %d" % big, "1 n 17"]
    for t in (1, 2):
        for _ in range(25):
            u, v = rng.choice(ids, size=2, replace=False).tolist()
            lines.append("%d %d %d" % (t, u, v))
    rng.shuffle(lines)
    path = tmp_path / "net.txt"
    path.write_text("\n".join(lines) + "\n")
    g0, g1 = load_dynamic(path)
    assert 17 in g0.nodes.tolist() and g0.degrees[17] == 0
    assert 0 < len(set(g0.edges) & set(g1.edges)) < g1.m
    for seed in (1, 2, 3):
        labels = assert_carry_matches_the_dict_form(g0, g1, seed)
        assert len(labels) == g1.m
