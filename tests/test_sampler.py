from collections import Counter

import numpy as np
import pytest

from dyncomm.graphs import DynamicNetwork, SnapshotGraph
from dyncomm.membership import Cover
from dyncomm.metrics import overlapping_nmi
from dyncomm.model import (
    HyperParams,
    collapsed_partition_score,
    crp_weights,
    edge_likelihood,
    new_group_weight,
    rcrp_weights,
)
from dyncomm.sampler import (
    CommunityIdAllocator,
    PrevSummary,
    SamplerState,
    detect_dynamic,
    gibbs_sweep,
    init_assignments_carry,
    init_assignments_first,
    run_snapshot,
)


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
    assert set(assign.values()) <= set(range(100))


def test_init_first_clamps_pool_to_one():
    g = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    assign = init_assignments_first(g, HyperParams(), seed=1)
    assert len(set(assign.values())) == 1


def test_init_first_deterministic():
    g = SnapshotGraph(range(30), [(i, (i + 7) % 30) for i in range(30)])
    a = init_assignments_first(g, HyperParams(), seed=5)
    b = init_assignments_first(g, HyperParams(), seed=5)
    assert a == b


def test_init_carry_keeps_surviving_edges():
    g = SnapshotGraph(range(3), [(0, 1), (1, 2)])
    assign = init_assignments_carry(g, {(0, 1): 41}, HyperParams(), seed=0)
    assert assign[(0, 1)] == 41
    assert assign[(1, 2)] == 41  # only one live previous community


def test_init_carry_all_new_edges_use_previous_pool():
    g = SnapshotGraph(range(6), [(0, 1), (2, 3), (4, 5)])
    prev = {(0, 2): 7, (1, 3): 9}
    assign = init_assignments_carry(g, prev, HyperParams(), seed=3)
    assert set(assign.values()) <= {7, 9}


def test_init_carry_removed_edge_absent():
    g = SnapshotGraph(range(3), [(1, 2)])
    assign = init_assignments_carry(g, {(0, 1): 4, (1, 2): 5}, HyperParams(), seed=0)
    assert assign == {(1, 2): 5}


def test_init_carry_empty_prev_falls_back_to_fresh_community():
    g = SnapshotGraph(range(4), [(0, 1), (2, 3)])
    alloc = CommunityIdAllocator(start=11)
    assign = init_assignments_carry(g, {}, HyperParams(), seed=0, alloc=alloc)
    assert set(assign.values()) == {11}


def start_beta(g, assignment):
    """The beta matrix a fresh SamplerState starts from."""
    return SamplerState(g, assignment, None, HyperParams(),
                        np.random.default_rng(0)).B


def test_init_beta_mle_values():
    tri = SnapshotGraph(range(3), [(0, 1), (0, 2), (1, 2)])
    b = start_beta(tri, {e: 0 for e in tri.edges})
    assert np.allclose(b.vector(0), [1 / 3, 1 / 3, 1 / 3])

    star = SnapshotGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    b = start_beta(star, {e: 2 for e in star.edges})
    assert b.value(2, 0) == pytest.approx(0.5)
    assert b.value(2, 1) == pytest.approx(1 / 6)

    single = SnapshotGraph(range(2), [(0, 1)])
    b = start_beta(single, {(0, 1): 9})
    assert np.allclose(b.vector(9), [0.5, 0.5])


def test_init_beta_mle_rows_sum_to_one():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 12, 40)
    assign = {e: int(rng.integers(0, 4)) for e in g.edges}
    b = start_beta(g, assign)
    for r in b.communities:
        assert b.vector(r).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- beta draws


def resampled_betas(state, draws):
    """``draws`` successive posterior beta matrices of one state."""
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
    draws = [b.value(5, 0) for b in resampled_betas(state, 10_000)]
    assert np.mean(draws) == pytest.approx(2.1 / 4.4, abs=0.01)


def test_sample_beta_prior_dominates_for_huge_gamma():
    g = SnapshotGraph(range(4), [(0, 1)])
    state = SamplerState(g, {(0, 1): 0}, None, HyperParams(gamma=1e6),
                         np.random.default_rng(7))
    draws = np.array([b.vector(0) for b in resampled_betas(state, 2000)])
    assert np.allclose(draws.mean(axis=0), 0.25, atol=0.01)


def test_sample_beta_rows_on_simplex():
    g = SnapshotGraph(range(5), [(0, 1), (0, 2), (1, 2), (3, 4)])
    assign = {(0, 1): 0, (0, 2): 0, (1, 2): 0, (3, 4): 1}
    state = SamplerState(g, assign, None, HyperParams(gamma=0.1),
                         np.random.default_rng(8))
    for b in resampled_betas(state, 50):
        assert b.communities == [0, 1]
        for r in b.communities:
            assert abs(b.vector(r).sum() - 1.0) < 1e-9


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
    state.remove_edge((0, 1))
    row_a = state._row_of[100]
    row_b = state._row_of[200]
    state._beta[row_a, 0], state._beta[row_a, 1] = 0.2, 0.1
    state._beta[row_b, 0], state._beta[row_b, 1] = 0.5, 0.4
    existing, new = state.edge_weights((0, 1))
    assert existing[100] == pytest.approx(0.06)
    assert existing[200] == pytest.approx(0.2)
    assert new == pytest.approx(5e-4)


def test_static_draw_frequencies_match_weights():
    g, state, h = make_static_state()
    state.remove_edge((0, 1))
    row_a = state._row_of[100]
    row_b = state._row_of[200]
    state._beta[row_a, 0], state._beta[row_a, 1] = 0.2, 0.1
    state._beta[row_b, 0], state._beta[row_b, 1] = 0.5, 0.4
    a = state._edge_pos[(0, 1)]
    hits = Counter()
    for _ in range(30_000):
        cid = state.draw_for_edge(a)
        hits[cid] += 1
        if cid not in (100, 200):
            state._release_row(state._row_of[cid])  # keep the fixture fixed
    p_b = hits[200] / 30_000
    assert p_b == pytest.approx(0.2 / 0.2605, abs=0.015)


def test_dynamic_edge_weights_hand_example():
    # carried community 100: four previous edges plus two current after
    # leave-one-out; beta product 0.09 -> weight (2+4)*0.09
    g = SnapshotGraph(range(10), [(0, 1), (0, 2), (1, 2), (5, 6), (6, 7)])
    assign = {(0, 1): 100, (0, 2): 100, (1, 2): 100, (5, 6): 200, (6, 7): 200}
    h = HyperParams()
    state = SamplerState(g, assign, {100: 4, 300: 6}, h, np.random.default_rng(1))
    state.remove_edge((0, 1))
    state._beta[state._row_of[100], 0] = 0.3
    state._beta[state._row_of[100], 1] = 0.3
    state._beta[state._row_of[300], 0] = 0.5
    state._beta[state._row_of[300], 1] = 0.2
    existing, new = state.edge_weights((0, 1))
    assert existing[100] == pytest.approx(0.54)
    # previous-only community stays revivable with weight prev_size * beta product
    assert existing[300] == pytest.approx(6 * 0.1)
    assert new == pytest.approx(0.1 * 0.01 / (1.0 * 2.0))


def test_new_community_id_is_fresh():
    g = SnapshotGraph(range(10), [(0, 1), (0, 2), (1, 2), (5, 6), (6, 7)])
    assign = {(0, 1): 0, (0, 2): 0, (1, 2): 0, (5, 6): 1, (6, 7): 1}
    h = HyperParams(alpha=50.0)  # make NEW likely
    state = SamplerState(g, assign, {0: 4, 2: 6}, h, np.random.default_rng(2))
    state.remove_edge((0, 1))
    a = state._edge_pos[(0, 1)]
    for _ in range(200):
        cid = state.draw_for_edge(a)
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
        state.remove_edge(probe)
        existing, new = state.edge_weights(probe)

        beta = state.B
        stats = state.stats
        if dynamic:
            seat, seat_new = rcrp_weights(state.prev_stats, stats, h.alpha)
        else:
            seat, seat_new = crp_weights(stats, h.alpha)
        u, v = probe
        expected = {r: w * edge_likelihood(beta, r, u, v) for r, w in seat.items()}
        iu, iv = g.node_index[u], g.node_index[v]
        expected_new = new_group_weight(h.gamma, g.n, h.alpha, iu, iv)
        assert set(existing) == set(expected)
        for r in expected:
            assert existing[r] == pytest.approx(expected[r], abs=1e-12)
        assert new == pytest.approx(expected_new, rel=1e-12)


# ---------------------------------------------------------------- invariants


def test_leave_one_out_restores_stats():
    g, state, h = make_static_state()
    before = state.stats
    state.remove_edge((0, 1))
    state.add_edge((0, 1), 200)
    after = state.stats
    assert before.n == after.n
    assert before.endpoint_counts == after.endpoint_counts


def test_leave_one_out_restores_stats_after_row_retirement():
    g = SnapshotGraph(range(4), [(0, 1), (2, 3)])
    h = HyperParams()
    state = SamplerState(g, {(0, 1): 0, (2, 3): 1}, None, h, np.random.default_rng(4))
    before = state.stats
    state.remove_edge((2, 3))  # community 1 dies with its only edge
    assert 1 not in state.stats.n
    state.add_edge((2, 3), 1)
    after = state.stats
    assert before.n == after.n
    assert before.endpoint_counts == after.endpoint_counts


def test_sweep_keeps_state_consistent():
    rng = np.random.default_rng(19)
    h = HyperParams()
    for trial in range(5):
        g = random_graph(rng, 15, 60)
        assign = init_assignments_first(g, h, rng)
        state = SamplerState(g, assign, None, h, rng)
        for _ in range(4):
            gibbs_sweep(state)
            state.check_consistency()


def test_sweep_consistency_with_carryover():
    rng = np.random.default_rng(20)
    h = HyperParams()
    g = random_graph(rng, 12, 50)
    assign = {e: int(rng.integers(0, 3)) for e in g.edges}
    state = SamplerState(g, assign, {0: 5, 1: 2, 9: 4}, h, rng)
    for _ in range(5):
        gibbs_sweep(state)
        state.check_consistency()
        assert 2 * state.m == int(sum(state.stats.n.values()) * 2)


def test_previous_only_community_beta_resampled():
    g = SnapshotGraph(range(4), [(0, 1)])
    h = HyperParams()
    rng = np.random.default_rng(21)
    state = SamplerState(g, {(0, 1): 50}, {50: 1, 60: 5}, h, rng)
    assert 60 in state.B.communities
    state.resample_beta()
    vec = state.B.vector(60)
    assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_retired_ids_never_return_on_first_snapshot():
    rng = np.random.default_rng(23)
    h = HyperParams(s_first=30)
    g = random_graph(rng, 20, 70)
    records = run_snapshot(g, None, h, seed=23)
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
    a = run_snapshot(g, None, h, seed=99)
    b = run_snapshot(g, None, h, seed=99)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.assign_ids, rb.assign_ids)
        assert np.array_equal(ra.beta, rb.beta)
        assert ra.modularity == rb.modularity


# ---------------------------------------------------------------- snapshots


def test_run_snapshot_record_counts():
    rng = np.random.default_rng(26)
    g = random_graph(rng, 10, 30)
    records = run_snapshot(g, None, HyperParams(), seed=1)
    assert len(records) == 100
    prev = PrevSummary.from_record(records[-1])
    records2 = run_snapshot(g, prev, HyperParams(), seed=2)
    assert len(records2) == 50


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
        assert a.record.modularity == b.record.modularity
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
    assert multi[0].record.modularity >= single[0].record.modularity
    assert multi[0].chain in (0, 1, 2)


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
