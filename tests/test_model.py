import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from dyncomm.graphs import SnapshotGraph
from dyncomm.model import (
    BetaMatrix,
    CommunityStats,
    HyperParams,
    collapsed_partition_score,
    crp_log_prob,
    crp_weights,
    edge_likelihood,
    new_group_weight,
    rcrp_weights,
)


def set_partitions(items):
    """All set partitions, by recursive placement (restricted growth order)."""
    items = list(items)

    def rec(i, groups):
        if i == len(items):
            yield [tuple(g) for g in groups]
            return
        for g in groups:
            g.append(items[i])
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([items[i]])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------- seating


def test_crp_weights_two_tables():
    existing, new = crp_weights(CommunityStats({"A": 2, "B": 1}), alpha=0.1)
    assert existing == {"A": 2.0, "B": 1.0}
    assert new == 0.1
    total = 3.1
    assert abs(existing["A"] / total - 0.645) < 1e-3
    assert abs(existing["B"] / total - 0.323) < 1e-3
    assert abs(new / total - 0.032) < 1e-3


def test_crp_weights_first_customer():
    existing, new = crp_weights(CommunityStats({}), alpha=0.1)
    assert existing == {}
    assert new / (sum(existing.values()) + new) == 1.0


def test_crp_weights_single_table():
    existing, new = crp_weights(CommunityStats({"A": 5}), alpha=1.0)
    total = 6.0
    assert existing["A"] / total == pytest.approx(5 / 6)
    assert new / total == pytest.approx(1 / 6)


def test_crp_weights_requires_positive_alpha():
    with pytest.raises(ValueError):
        crp_weights(CommunityStats({"A": 1}), alpha=0.0)


def test_rcrp_weights_carries_previous_popularity():
    prev = CommunityStats({"A": 4})
    cur = CommunityStats({"A": 2, "B": 3})
    existing, new = rcrp_weights(prev, cur, alpha=0.1)
    assert existing == {"A": 6.0, "B": 3.0}
    assert new == 0.1


def test_rcrp_weights_empty_current_day():
    existing, new = rcrp_weights(CommunityStats({"A": 4}), CommunityStats({}), alpha=0.1)
    assert existing == {"A": 4.0}
    assert new == 0.1


def test_rcrp_weights_both_empty():
    existing, new = rcrp_weights(CommunityStats({}), CommunityStats({}), alpha=0.7)
    assert existing == {}
    assert new == 0.7


def test_rcrp_with_empty_prev_reduces_to_crp():
    rng = np.random.default_rng(3)
    for trial in range(50):
        cur = CommunityStats({r: int(c) for r, c in
                              enumerate(rng.integers(0, 6, size=5)) if c > 0})
        assert rcrp_weights(CommunityStats({}), cur, 0.3) == crp_weights(cur, 0.3)


def test_seating_weights_nonnegative():
    rng = np.random.default_rng(4)
    for trial in range(50):
        prev = CommunityStats({r: int(c) for r, c in
                               enumerate(rng.integers(0, 4, size=4)) if c > 0})
        cur = CommunityStats({r: int(c) for r, c in
                              enumerate(rng.integers(0, 4, size=6)) if c > 0})
        existing, new = rcrp_weights(prev, cur, 0.05)
        assert new > 0
        assert all(w > 0 for w in existing.values())


# ---------------------------------------------------------------- likelihood


def test_edge_likelihood_product():
    b = BetaMatrix([0, 1, 2], {7: np.array([0.5, 0.2, 0.3])})
    assert edge_likelihood(b, 7, 0, 1) == pytest.approx(0.1)


def test_edge_likelihood_zero_entry():
    b = BetaMatrix([0, 1], {0: np.array([0.0, 1.0])})
    assert edge_likelihood(b, 0, 0, 1) == 0.0


def test_edge_likelihood_uniform():
    b = BetaMatrix(range(4), {0: np.full(4, 0.25)})
    assert edge_likelihood(b, 0, 1, 3) == pytest.approx(1 / 16)


def test_edge_likelihood_unknown_community():
    b = BetaMatrix([0, 1], {0: np.array([0.5, 0.5])})
    with pytest.raises(ValueError, match="unknown community"):
        edge_likelihood(b, 9, 0, 1)


# ---------------------------------------------------------------- new-community weight


def test_new_group_weight_closed_form_examples():
    assert new_group_weight(0.1, 10, 0.1, 0, 1) == pytest.approx(5e-4)
    assert new_group_weight(1.0, 2, 1.0, 0, 1) == pytest.approx(1 / 6)


def test_new_group_weight_vanishes_with_alpha():
    assert new_group_weight(0.1, 10, 0.0, 0, 1) == 0.0


def test_new_group_weight_rejects_self_loop():
    with pytest.raises(ValueError):
        new_group_weight(0.1, 10, 0.1, 3, 3)


def dirichlet_pair_moment_quadrature(gvec):
    """E[beta_i * beta_j] for the first two coordinates, by quadrature."""
    gvec = np.asarray(gvec, dtype=float)
    log_c = gammaln(gvec).sum() - gammaln(gvec.sum())
    if len(gvec) == 2:
        val, err = integrate.quad(lambda x: x ** gvec[0] * (1 - x) ** gvec[1], 0, 1)
        return val / math.exp(log_c)
    assert len(gvec) == 3
    val, err = integrate.dblquad(
        lambda y, x: x ** gvec[0] * y ** gvec[1]
        * max(1 - x - y, 0.0) ** (gvec[2] - 1),
        0, 1, 0, lambda x: 1 - x)
    return val / math.exp(log_c)


def test_new_group_weight_matches_quadrature():
    cases = [
        (np.array([0.1, 0.1]), 0.1),
        (np.array([0.7, 1.3]), 1.0),
        (np.array([1.2, 1.2, 1.2]), 0.1),
        (np.array([0.5, 1.0, 1.5]), 2.0),
    ]
    for gvec, alpha in cases:
        direct = new_group_weight(gvec, len(gvec), alpha, 0, 1)
        by_quadrature = alpha * dirichlet_pair_moment_quadrature(gvec)
        assert direct == pytest.approx(by_quadrature, abs=1e-6)


# ---------------------------------------------------------------- partition prior


def test_crp_log_prob_single_customer():
    assert crp_log_prob([1], alpha=0.1) == pytest.approx(0.0)
    assert crp_log_prob([1], alpha=3.0) == pytest.approx(0.0)


def test_crp_log_prob_empty():
    assert crp_log_prob([], alpha=0.5) == 0.0


def test_crp_log_prob_sums_to_one_over_all_partitions():
    for alpha in (0.1, 0.7, 2.0):
        total = sum(math.exp(crp_log_prob([len(g) for g in p], alpha))
                    for p in set_partitions(range(4)))
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- collapsed oracle


def test_collapsed_score_single_edge_matches_new_group_weight():
    g = SnapshotGraph([0, 1, 2], [(0, 2)])
    h = HyperParams(alpha=0.3, gamma=0.7)
    score = collapsed_partition_score({(0, 2): 0}, g, h)
    expected = math.log(new_group_weight(h.gamma, 3, h.alpha, 0, 2) / h.alpha)
    assert score == pytest.approx(expected)


def test_collapsed_score_relabeling_invariance():
    g = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3)])
    h = HyperParams()
    a1 = {(0, 1): 5, (1, 2): 5, (2, 3): 9}
    a2 = {(0, 1): 0, (1, 2): 0, (2, 3): 1}
    assert collapsed_partition_score(a1, g, h) == pytest.approx(
        collapsed_partition_score(a2, g, h))


def test_collapsed_score_two_edge_path_posterior_by_quadrature():
    """Dual route: gammaln-ratio score vs brute-force numeric integration."""
    h = HyperParams(alpha=0.6, gamma=0.9)
    g = SnapshotGraph([0, 1, 2], [(0, 1), (1, 2)])
    gvec = np.full(3, h.gamma)
    log_c = gammaln(gvec).sum() - gammaln(gvec.sum())

    def moment(counts):
        # E[prod_i beta_i^counts_i] under Dir(gvec), by 2-d quadrature
        val, err = integrate.dblquad(
            lambda y, x: x ** (gvec[0] - 1 + counts[0])
            * y ** (gvec[1] - 1 + counts[1])
            * max(1 - x - y, 0.0) ** (gvec[2] - 1 + counts[2]),
            0, 1, 0, lambda x: 1 - x)
        return val / math.exp(log_c)

    together = {(0, 1): 0, (1, 2): 0}
    apart = {(0, 1): 0, (1, 2): 1}
    p_together = math.exp(crp_log_prob([2], h.alpha)) * moment([1, 2, 1])
    p_apart = math.exp(crp_log_prob([1, 1], h.alpha)) * moment([1, 1, 0]) * moment([0, 1, 1])
    brute = np.array([p_together, p_apart])
    brute = brute / brute.sum()
    scores = np.array([collapsed_partition_score(together, g, h),
                       collapsed_partition_score(apart, g, h)])
    post = np.exp(scores - scores.max())
    post = post / post.sum()
    assert np.allclose(post, brute, atol=1e-6)


# ---------------------------------------------------------------- density property


def test_shared_communities_make_denser_overlap():
    # i and j share two communities with equal mass; i and k share one.
    # Under the generative step with a symmetric seating prior the
    # marginal edge probability must favour (i, j).
    beta = BetaMatrix(range(4), {
        0: np.array([0.4, 0.4, 0.0, 0.2]),
        1: np.array([0.4, 0.4, 0.0, 0.2]),
        2: np.array([0.4, 0.0, 0.4, 0.2]),
    })
    k = len(beta.communities)
    p_ij = sum(edge_likelihood(beta, r, 0, 1) for r in beta.communities) / k
    p_ik = sum(edge_likelihood(beta, r, 0, 2) for r in beta.communities) / k
    assert p_ij >= p_ik
    assert p_ij == pytest.approx(2 * 0.16 / 3)
    assert p_ik == pytest.approx(0.16 / 3)


# ---------------------------------------------------------------- types


def test_hyper_params_defaults():
    h = HyperParams()
    assert (h.alpha, h.gamma, h.theta) == (0.1, 0.1, 0.7)
    assert (h.s_first, h.s_later, h.k0_divisor) == (100, 50, 5)


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(gamma=0.0), dict(theta=0.0),
    dict(theta=1.5), dict(s_first=0), dict(s_later=0), dict(k0_divisor=0),
])
def test_hyper_params_validation(bad):
    with pytest.raises(ValueError):
        HyperParams(**bad)


def test_community_stats_from_assignment_invariants():
    rng = np.random.default_rng(12)
    for trial in range(30):
        n = 8
        edges = sorted({(int(a), int(b)) for a, b in
                        rng.integers(0, n, size=(20, 2)) if a < b})
        assign = {e: int(rng.integers(0, 3)) for e in edges}
        stats = CommunityStats.from_assignment(assign)
        assert stats.m == len(edges)
        for r, n_r in stats.n.items():
            incident = sum(c for (i, rr), c in stats.endpoint_counts.items() if rr == r)
            assert incident == 2 * n_r


def test_beta_matrix_rejects_off_simplex():
    with pytest.raises(ValueError, match="simplex"):
        BetaMatrix([0, 1], {0: np.array([0.7, 0.7])})
    with pytest.raises(ValueError, match="simplex"):
        BetaMatrix([0, 1], {0: np.array([1.5, -0.5])})
