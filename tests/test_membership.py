from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncomm.membership import (
    Cover,
    extract_cover,
    load_covers,
    save_covers,
    select_best,
    soft_membership_from_arrays,
    theta_mask,
)

Rec = namedtuple("Rec", "modularity sweep_index")


def test_soft_membership_direct_product():
    u = soft_membership_from_arrays(np.array([5]), np.array([[0.4, 0.6]]), m=10)
    # one row, one community; columns are nodes 0 and 1
    assert u[0, 0] == pytest.approx(0.2)
    assert u[0, 1] == pytest.approx(0.3)


def test_soft_membership_zero_beta_gives_zero():
    u = soft_membership_from_arrays(np.array([4]), np.array([[0.0, 1.0]]), m=4)
    assert u[0, 0] == 0.0  # community 0, node 0


def test_soft_membership_rows_sum_to_size_share():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = 6
        sizes = {r: int(c) for r, c in enumerate(rng.integers(1, 9, size=3))}
        m = sum(sizes.values())
        beta = np.stack([rng.dirichlet(np.ones(n)) for _ in sizes])
        u = soft_membership_from_arrays(np.array(list(sizes.values())), beta, m)
        for a, r in enumerate(sizes):
            assert u[a].sum() == pytest.approx(sizes[r] / m)


def test_soft_membership_empty_when_no_edges():
    u = soft_membership_from_arrays(np.empty(0), np.empty((0, 2)), m=0)
    assert u.shape == (0, 2)
    assert extract_cover(u, (), [0, 1], 0.7).communities == {}


def test_extract_cover_theta_rule():
    u = np.array([[0.2], [0.15], [0.01]])
    cover = extract_cover(u, [0, 1, 2], [7], theta=0.7)
    assert cover.communities == {0: {7}, 1: {7}}
    assert cover.weights[(7, 0)] == pytest.approx(0.2)


def test_extract_cover_theta_one_keeps_exact_ties():
    u = np.array([[0.2], [0.2], [0.1]])
    cover = extract_cover(u, [0, 1, 2], [7], theta=1.0)
    assert cover.communities == {0: {7}, 1: {7}}


def test_extract_cover_all_zero_node_belongs_nowhere():
    u = np.array([[0.5, 0.0]])
    cover = extract_cover(u, [0], [7, 8], theta=0.7)
    assert cover.communities == {0: {7}}
    assert 8 not in cover.covered_nodes()


def test_extract_cover_drops_empty_communities():
    u = np.array([[0.9], [0.01]])
    cover = extract_cover(u, [0, 1], [7], theta=0.5)
    assert set(cover.communities) == {0}


def test_extract_cover_scale_invariance():
    rng = np.random.default_rng(8)
    for trial in range(20):
        raw = rng.random((4, 6))
        scale = rng.uniform(0.5, 3.0, size=6)
        assert extract_cover(raw, range(4), range(6), 0.7).communities == \
            extract_cover(raw * scale, range(4), range(6), 0.7).communities


def test_extract_cover_monotone_in_theta():
    rng = np.random.default_rng(13)
    raw = rng.random((5, 10))
    loose = extract_cover(raw, range(5), range(10), 0.3)
    tight = extract_cover(raw, range(5), range(10), 0.9)
    for r, members in tight.communities.items():
        assert members <= loose.communities.get(r, set())


def test_extract_cover_rejects_bad_theta():
    with pytest.raises(ValueError):
        extract_cover(np.array([[1.0]]), [0], [0], 0.0)
    with pytest.raises(ValueError, match="theta"):
        theta_mask(np.empty((0, 3)), 1.5)


def test_extract_cover_rejects_a_misshapen_u():
    with pytest.raises(ValueError, match="shape"):
        extract_cover(np.ones((2, 3)), [0], [0, 1, 2], 0.5)


def test_extract_cover_keeps_what_theta_mask_keeps():
    rng = np.random.default_rng(21)
    u = rng.random((6, 9)) * (rng.random((6, 9)) < 0.7)
    ids, nodes = [4, 0, 9, 2, 7, 1], list(range(100, 109))
    cover = extract_cover(u, ids, nodes, 0.6)
    kept = {(nodes[b], ids[a]) for a, b in zip(*np.nonzero(theta_mask(u, 0.6)))}
    assert set(cover.weights) == kept
    assert {(i, r) for r, members in cover.communities.items() for i in members} == kept
    assert all(cover.communities.values())
    for (i, r), w in cover.weights.items():
        assert w == u[ids.index(r), nodes.index(i)]


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


@pytest.mark.parametrize("bad", ["1 x 3 0.5", "1.5 2 3 0.5", "1 2 3 heavy",
                                 "1 2 3 0.5 9", "1 2 3 nan", "1 2 3 inf", "1 2 3 -inf",
                                 "1 2 3 -2.0"])
def test_cover_file_bad_line_names_file_and_line(tmp_path, bad):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 4 0.5\n%s\n" % bad)
    with pytest.raises(ValueError, match="bad.txt line 2: .*%s" % bad):
        load_covers(p)


def test_cover_file_rejects_a_membership_given_twice(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 0 5 0.5\n1 0 5 0.7\n1 0 6 -2.0\n")
    with pytest.raises(ValueError, match="bad.txt line 2: t=1 community 0 node 5 is given twice"):
        load_covers(p)
    # the same node in another snapshot or community, and a u of 0, are fine
    p.write_text("1 0 5 0.0\n2 0 5 0.7\n1 1 5 0.1\n")
    assert load_covers(p)[1].weights == {(5, 0): 0.0, (5, 1): 0.1}


def test_membership_counts():
    c = Cover({0: {1, 2}, 1: {2, 3}})
    assert c.membership_counts() == {1: 1, 2: 2, 3: 1}
    assert c.k == 2
