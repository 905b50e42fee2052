from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncomm.membership import (
    Cover,
    SoftMembership,
    extract_cover,
    load_covers,
    save_covers,
    select_best,
    soft_membership_from_arrays,
)

Rec = namedtuple("Rec", "modularity sweep_index")


def test_soft_membership_direct_product():
    u = soft_membership_from_arrays([0, 1], [3], np.array([5]),
                                    np.array([[0.4, 0.6]]), m=10)
    # one row, community 3; columns are nodes 0 and 1
    assert u.u[0, 0] == pytest.approx(0.2)
    assert u.u[0, 1] == pytest.approx(0.3)


def test_soft_membership_zero_beta_gives_zero():
    u = soft_membership_from_arrays([0, 1], [0], np.array([4]),
                                    np.array([[0.0, 1.0]]), m=4)
    assert u.u[0, 0] == 0.0  # community 0, node 0


def test_soft_membership_rows_sum_to_size_share():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = 6
        sizes = {r: int(c) for r, c in enumerate(rng.integers(1, 9, size=3))}
        m = sum(sizes.values())
        beta = np.stack([rng.dirichlet(np.ones(n)) for _ in sizes])
        u = soft_membership_from_arrays(range(n), list(sizes), np.array(list(sizes.values())),
                                        beta, m)
        for a, r in enumerate(u.ids):
            assert u.u[a].sum() == pytest.approx(sizes[r] / m)


def test_soft_membership_empty_when_no_edges():
    u = soft_membership_from_arrays([0, 1], (), np.empty(0), np.empty((0, 2)), m=0)
    assert u.ids == ()
    assert extract_cover(u, 0.7).communities == {}


def test_extract_cover_theta_rule():
    u = SoftMembership([7], [0, 1, 2], np.array([[0.2], [0.15], [0.01]]))
    cover = extract_cover(u, theta=0.7)
    assert cover.communities == {0: {7}, 1: {7}}
    assert cover.weights[(7, 0)] == pytest.approx(0.2)


def test_extract_cover_theta_one_keeps_exact_ties():
    u = SoftMembership([7], [0, 1, 2], np.array([[0.2], [0.2], [0.1]]))
    cover = extract_cover(u, theta=1.0)
    assert cover.communities == {0: {7}, 1: {7}}


def test_extract_cover_all_zero_node_belongs_nowhere():
    u = SoftMembership([7, 8], [0], np.array([[0.5, 0.0]]))
    cover = extract_cover(u, theta=0.7)
    assert cover.communities == {0: {7}}
    assert 8 not in cover.covered_nodes()


def test_extract_cover_drops_empty_communities():
    u = SoftMembership([7], [0, 1], np.array([[0.9], [0.01]]))
    cover = extract_cover(u, theta=0.5)
    assert set(cover.communities) == {0}


def test_extract_cover_scale_invariance():
    rng = np.random.default_rng(8)
    for trial in range(20):
        raw = rng.random((4, 6))
        u1 = SoftMembership(range(6), range(4), raw)
        scale = rng.uniform(0.5, 3.0, size=6)
        u2 = SoftMembership(range(6), range(4), raw * scale)
        assert extract_cover(u1, 0.7).communities == extract_cover(u2, 0.7).communities


def test_extract_cover_monotone_in_theta():
    rng = np.random.default_rng(13)
    raw = rng.random((5, 10))
    u = SoftMembership(range(10), range(5), raw)
    loose = extract_cover(u, 0.3)
    tight = extract_cover(u, 0.9)
    for r, members in tight.communities.items():
        assert members <= loose.communities.get(r, set())


def test_extract_cover_rejects_bad_theta():
    u = SoftMembership([0], [0], np.array([[1.0]]))
    with pytest.raises(ValueError):
        extract_cover(u, 0.0)


def test_select_best_argmax():
    pairs = [(Rec(0.1, 0), Cover({0: {1}})),
             (Rec(0.5, 1), Cover({0: {2}})),
             (Rec(0.3, 2), Cover({0: {3}}))]
    cover, rec = select_best(pairs)
    assert rec.modularity == 0.5
    assert cover.communities == {0: {2}}


def test_select_best_tie_takes_latest():
    pairs = [(Rec(0.4, 0), Cover({0: {1}})), (Rec(0.4, 1), Cover({0: {2}}))]
    cover, rec = select_best(pairs)
    assert rec.sweep_index == 1


def test_select_best_single_and_empty():
    only = (Rec(0.2, 0), Cover({0: {5}}))
    assert select_best([only]) == (only[1], only[0])
    with pytest.raises(ValueError):
        select_best([])


def test_cover_file_round_trip(tmp_path):
    covers = {
        1: Cover({2: {0, 1}, 5: {1, 3}}, {(0, 2): 0.25, (1, 2): 0.5,
                                          (1, 5): 0.125, (3, 5): 0.0625}),
        3: Cover({5: {4}}, {(4, 5): 1.0}),
    }
    p = tmp_path / "covers.txt"
    save_covers(p, covers)
    back = load_covers(p)
    assert set(back) == {1, 3}
    for t in covers:
        assert back[t].communities == covers[t].communities
        assert back[t].weights == covers[t].weights


@st.composite
def cover_sets(draw):
    covers = {}
    for t in draw(st.sets(st.integers(1, 9), min_size=1, max_size=3)):
        communities = draw(st.dictionaries(
            st.integers(0, 50), st.sets(st.integers(0, 40), min_size=1, max_size=6),
            min_size=1, max_size=4))
        weights = {(i, r): draw(st.floats(0.0, 1.0, exclude_min=True))
                   for r, members in communities.items() for i in members}
        covers[t] = Cover(communities, weights)
    return covers


@settings(max_examples=60, deadline=None)
@given(covers=cover_sets())
def test_cover_file_round_trips_random_covers(tmp_path_factory, covers):
    p = tmp_path_factory.getbasetemp() / "random_covers.txt"
    save_covers(p, covers)
    back = load_covers(p)
    assert set(back) == set(covers)
    for t, cover in covers.items():
        assert back[t].communities == cover.communities
        assert back[t].weights == cover.weights


def test_cover_file_is_sorted_and_defaults_weight(tmp_path):
    covers = {1: Cover({8: {2, 1}, 3: {9}})}
    p = tmp_path / "covers.txt"
    save_covers(p, covers)
    assert p.read_text() == "1 3 9 1.0\n1 8 1 1.0\n1 8 2 1.0\n"


def test_cover_file_rejects_short_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        load_covers(p)


def test_membership_counts():
    c = Cover({0: {1, 2}, 1: {2, 3}})
    assert c.membership_counts() == {1: 1, 2: 2, 3: 1}
    assert c.k == 2
