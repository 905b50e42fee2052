"""The sampler's long-run seatings against enumerated exact posteriors.

Each test runs one chain of ``gibbs_sweep`` on a path of three edges or on
the complete graph on four nodes, drops the first tenth of its sweeps,
reads each later sweep's seating from the state's rows and compares the
empirical distribution over seatings with the one ``exact`` enumerates, by
total variation.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from dyncomm.graphs import SnapshotGraph
from dyncomm.model import HyperParams, collapsed_partition_score
from dyncomm.sampler import SamplerState, gibbs_sweep, init_assignments_first
from exact import canonical, carried_labelings, recurrent_score, set_partitions
from test_sampler import reference_sweep

PATH = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3)])
K4 = SnapshotGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
HYPER = HyperParams(alpha=0.5, gamma=0.5)


def exact_posterior(g, hyper, prev_counts):
    """The enumerated seatings of g and their exact posterior probabilities."""
    labelings = carried_labelings(g.m, tuple(prev_counts))
    scores = np.array([recurrent_score(labels, g.edges, g.n, hyper.alpha, hyper.gamma,
                                       prev_counts) for labels in labelings])
    probs = np.exp(scores - scores.max())
    return labelings, probs / probs.sum()


def sweep_tv(g, hyper, start, prev_counts, seed, sweeps):
    """Total variation between a chain's seatings after a 10% burn-in and
    the exact posterior."""
    labelings, exact = exact_posterior(g, hyper, prev_counts)
    carried = tuple(prev_counts)
    state = SamplerState(g, start, prev_counts, hyper, np.random.default_rng(seed))
    counts: Counter = Counter()
    burn = sweeps // 10
    for sweep in range(sweeps):
        gibbs_sweep(state)
        if sweep >= burn:
            counts[canonical(state._ids[state._assign_row].tolist(), carried)] += 1
    assert set(counts) <= set(labelings)
    empirical = np.array([counts[labels] for labels in labelings]) / (sweeps - burn)
    return 0.5 * float(np.abs(empirical - exact).sum())


def test_enumeration_counts():
    assert len(set_partitions(5)) == 52
    assert len(carried_labelings(3, ())) == 5
    # each edge at carried 10, carried 11 or new tables: sum_k C(3,k) 2^(3-k) Bell(k)
    assert len(carried_labelings(3, (10, 11))) == 37
    assert len(set(carried_labelings(3, (10, 11)))) == 37


def test_recurrent_score_with_nothing_carried_is_the_collapsed_score():
    g = SnapshotGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    h = HyperParams(alpha=0.7, gamma=0.3)
    for labels in carried_labelings(g.m, ()):
        assert recurrent_score(labels, g.edges, g.n, h.alpha, h.gamma, {}) == \
            pytest.approx(collapsed_partition_score(dict(zip(g.edges, labels)), g, h))


def test_carried_posterior_sums_the_recurrent_seating_prior():
    # as gamma grows every node weighs 1/N in every row, so each seating's
    # likelihood tends to N^(-2M) and the score to the seating prior, which
    # the chain rule of the seating weights gives edge by edge
    prev, alpha = {10: 3}, 0.5
    probs = {labels: 4.0 ** 4 * np.exp(recurrent_score(labels, [(0, 1), (2, 3)], 4,
                                                       alpha, 1e6, prev))
             for labels in carried_labelings(2, (10,))}
    assert len(probs) == 5
    assert sum(probs.values()) == pytest.approx(1.0, rel=1e-4)
    assert probs[(10, 10)] == pytest.approx(3 / 3.5 * 4 / 4.5, rel=1e-4)
    assert probs[(10, -1)] == pytest.approx(3 / 3.5 * 0.5 / 4.5, rel=1e-4)
    assert probs[(-1, -1)] == pytest.approx(0.5 / 3.5 * 1 / 4.5, rel=1e-4)
    assert probs[(-1, -2)] == pytest.approx(0.5 / 3.5 * 0.5 / 4.5, rel=1e-4)


def test_path_sweeps_match_the_exact_posterior():
    tv = sweep_tv(PATH, HYPER, init_assignments_first(PATH, HYPER, 7), {}, seed=7,
                  sweeps=60_000)
    assert tv < 0.02


def test_path_sweeps_with_carried_sizes_match_the_exact_posterior():
    tv = sweep_tv(PATH, HYPER, [10, 10, 11], {10: 3, 11: 1}, seed=7, sweeps=120_000)
    assert tv < 0.012


def test_complete_graph_sweeps_through_raised_envelopes_match_the_exact_posterior():
    # on K4 with alpha = gamma = 1 a visit proposes from the mass of raised
    # envelopes (the "mixture" branch) about ten times as often per sweep as
    # on the path.  The witness replays the chain's first 2,000 sweeps with
    # reference_sweep, which draws the same stream bit for bit, and counts
    # them.  The bound was fixed on the pass before envelopes were raised,
    # which read TV 0.0150 and 0.0145 for seeds 7 and 8; a pass that raises
    # envelopes but never proposes from the raised mass read 0.0235 and
    # 0.0278.
    hyper = HyperParams(alpha=1.0, gamma=1.0)
    start = init_assignments_first(K4, hyper, 7)
    state = SamplerState(K4, start, {}, hyper, np.random.default_rng(7))
    events: Counter = Counter()
    for _ in range(2_000):
        reference_sweep(state, events)
    assert events["mixture"] >= 100
    tv = sweep_tv(K4, hyper, start, {}, seed=7, sweeps=120_000)
    assert tv < 0.02
