import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncomm.graphs import SnapshotGraph
from dyncomm.membership import Cover
from dyncomm.metrics import (
    MetricReport,
    MetricRow,
    extended_modularity,
    overlapping_nmi,
)
from reference import extended_modularity_dense


def newman_modularity(g, partition):
    """Naive double-loop Newman modularity over a list of node sets."""
    m = g.m
    total = 0.0
    for com in partition:
        for i in com:
            for j in com:
                a = 1.0 if (min(i, j), max(i, j)) in g.edge_set else 0.0
                total += a - g.degrees[i] * g.degrees[j] / (2.0 * m)
    return total / (2.0 * m)


def lfk_nmi(cov_x, cov_y, universe):
    """Set-based reference implementation of the overlapping NMI."""
    n = len(set(universe))

    def h(count):
        p = count / n
        return -p * math.log(p) if count > 0 else 0.0

    xs = [set(mem) for mem in cov_x.communities.values() if mem]
    ys = [set(mem) for mem in cov_y.communities.values() if mem]
    if not xs or not ys:
        return 1.0 if not xs and not ys else 0.0

    def cond(rows, others):
        vals = []
        for a in rows:
            hx = h(len(a)) + h(n - len(a))
            if hx == 0:
                vals.append(0.0)
                continue
            candidates = [hx]
            for b in others:
                c11 = len(a & b)
                c10 = len(a - b)
                c01 = len(b - a)
                c00 = n - c11 - c10 - c01
                if h(c11) + h(c00) < h(c01) + h(c10):
                    continue
                joint = h(c00) + h(c01) + h(c10) + h(c11)
                candidates.append(joint - h(len(b)) - h(n - len(b)))
            vals.append(min(candidates) / hx)
        return sum(vals) / len(vals)

    return 1 - 0.5 * (cond(xs, ys) + cond(ys, xs))


def random_graph(rng, n, tries=60):
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(tries, 2)) if a < b}
    return SnapshotGraph(range(n), sorted(pairs))


@st.composite
def partitioned_graphs(draw):
    """A graph of 2-20 nodes with at least one edge, and a partition of some
    of its nodes: label -1 leaves a node uncovered, and a label nobody
    draws is an empty community."""
    n = draw(st.integers(2, 20))
    edge = st.integers(0, n - 2).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a + 1, n - 1)))
    g = SnapshotGraph(range(n), sorted(draw(st.sets(edge, min_size=1, max_size=40))))
    k = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return g, {c: {i for i in range(n) if labels[i] == c} for c in range(k)}


@st.composite
def covers(draw, n):
    """A cover over range(n) of 1-4 communities, each of 0-n nodes (so empty
    and one-node communities come up), sometimes with one node in all of them."""
    comms = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n),
                          min_size=1, max_size=4))
    shared = draw(st.none() | st.integers(0, n - 1))
    if shared is not None:
        for members in comms:
            members.add(shared)
    return Cover(dict(enumerate(comms)))


@st.composite
def cover_pairs(draw):
    """Two covers over range(n) and a universe of n to n + 5 nodes."""
    n = draw(st.integers(1, 24))
    return draw(covers(n)), draw(covers(n)), range(n + draw(st.integers(0, 5)))


# ---------------------------------------------------------------- modularity


def test_modularity_one_community_covering_everything_is_zero():
    g = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert extended_modularity(Cover({0: set(range(4))}), g) == pytest.approx(0.0)


def test_modularity_two_disjoint_triangles():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = SnapshotGraph(range(6), edges)
    cover = Cover({0: {0, 1, 2}, 1: {3, 4, 5}})
    assert extended_modularity(cover, g) == pytest.approx(0.5)


def test_modularity_two_triangles_sharing_a_node():
    # the shared node sits in both communities with O = 2; each triangle
    # contributes 1 to the inner sum, so EQ = 2 / (2 * 6)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    g = SnapshotGraph(range(5), edges)
    cover = Cover({0: {0, 1, 2}, 1: {2, 3, 4}})
    assert extended_modularity(cover, g) == pytest.approx(1 / 6)


def test_modularity_empty_graph_is_zero():
    g = SnapshotGraph([0, 1], [])
    assert extended_modularity(Cover({0: {0, 1}}), g) == 0.0


# an empty community, a one-node community and two uncovered nodes
@example(case=(SnapshotGraph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4)]),
               {0: {0, 1, 2}, 1: set(), 2: {3}}))
@settings(max_examples=150, deadline=None)
@given(case=partitioned_graphs())
def test_modularity_matches_newman_on_partitions(case):
    g, parts = case
    assert extended_modularity(Cover(parts), g) == pytest.approx(
        newman_modularity(g, [p for p in parts.values() if p]), abs=1e-12)


@st.composite
def overlapping_cases(draw):
    """A graph of 1-20 nodes plus 0-3 isolated ones, with 0-40 edges, and a
    cover of 0-8 communities over all of its nodes, each of any size, so
    that empty communities, covered isolated nodes and nodes in several
    communities come up."""
    n = draw(st.integers(1, 20))
    nodes = n + draw(st.integers(0, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    comms = draw(st.lists(st.sets(st.integers(0, nodes - 1), max_size=nodes), max_size=8))
    return SnapshotGraph(range(nodes), edges), Cover(dict(enumerate(comms)))


# no communities; no edges; an empty community; node 2 in three communities
# and node 6 isolated but covered
@example(case=(SnapshotGraph(range(4), [(0, 1), (2, 3)]), Cover()))
@example(case=(SnapshotGraph(range(3), []), Cover({0: {0, 1}})))
@example(case=(SnapshotGraph(range(7), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                                        (2, 5)]),
               Cover({0: {0, 1, 2}, 1: set(), 2: {2, 3, 4}, 3: {2, 5, 6}})))
@settings(max_examples=300, deadline=None)
@given(case=overlapping_cases())
def test_modularity_matches_the_dense_form_bit_for_bit(case):
    g, cover = case
    assert extended_modularity(cover, g) == extended_modularity_dense(cover, g)


@settings(max_examples=200, deadline=None)
@given(case=overlapping_cases(), data=st.data())
def test_modularity_of_a_membership_array_matches_its_cover(case, data):
    # a sampler scores a sweep from its mask: rows in any order, empty
    # communities as all-zero rows
    g, cover = case
    rows = [np.isin(g.nodes, sorted(members)) for members in cover.communities.values()]
    rows += [np.zeros(g.n, dtype=bool)] * data.draw(st.integers(0, 3))
    order = data.draw(st.permutations(range(len(rows))))
    mask = np.array([rows[a] for a in order], dtype=bool).reshape(len(rows), g.n)
    got = extended_modularity(mask, g)
    assert got == extended_modularity(cover, g)
    assert got == extended_modularity_dense(cover, g)
    assert extended_modularity(mask.astype(np.float64), g) == got


def test_modularity_rejects_a_bad_membership_array():
    g = SnapshotGraph(range(4), [(0, 1), (2, 3)])
    for bad in (np.ones((2, 3), dtype=bool), np.ones(4, dtype=bool),
                np.full((1, 4), 0.5)):
        with pytest.raises(ValueError, match="0/1 array"):
            extended_modularity(bad, g)


def test_modularity_matches_the_dense_form_on_large_covers():
    # the sizes of a detect's early sweeps: thousands of edges, K near 100,
    # and nodes in up to a dozen communities
    rng = np.random.default_rng(42)
    for trial in range(4):
        g = random_graph(rng, 400, tries=5000)
        cover = Cover({c: set(rng.choice(400, size=int(rng.integers(0, 40)),
                                         replace=False).tolist())
                       for c in range(100)})
        assert max(cover.membership_counts().values()) >= 3
        assert extended_modularity(cover, g) == extended_modularity_dense(cover, g)


def test_modularity_bounded():
    rng = np.random.default_rng(22)
    for trial in range(30):
        n = int(rng.integers(4, 16))
        g = random_graph(rng, n)
        if g.m == 0:
            continue
        cover = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(1, n))}
                       for c in range(int(rng.integers(1, 4)))})
        eq = extended_modularity(cover, g)
        assert -1.0 <= eq <= 1.0


def test_modularity_ignores_community_order():
    # the same communities under any order and any ids give one float; a
    # sum rounded in community order differs on most of these graphs
    rng = np.random.default_rng(23)
    for graph in range(5):
        g = random_graph(rng, 40, tries=300)
        comms = [set(rng.choice(40, size=int(rng.integers(3, 12)), replace=False).tolist())
                 for _ in range(10)]
        values = set()
        for trial in range(10):
            ids = rng.choice(1000, size=10, replace=False).tolist()
            order = rng.permutation(10)
            values.add(extended_modularity(
                Cover({r: comms[c] for r, c in zip(ids, order)}), g))
        assert len(values) == 1, graph


def test_modularity_unknown_cover_node_rejected():
    g = SnapshotGraph([0, 1], [(0, 1)])
    with pytest.raises(ValueError, match="not in the snapshot"):
        extended_modularity(Cover({0: {0, 9}}), g)


def test_modularity_skips_uncovered_nodes():
    # covered halves only; the isolated extra node neither helps nor hurts
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = SnapshotGraph(range(7), edges)
    cover = Cover({0: {0, 1, 2}, 1: {3, 4, 5}})
    assert extended_modularity(cover, g) == pytest.approx(0.5)


# ---------------------------------------------------------------- nmi


def test_nmi_identical_covers():
    c = Cover({0: {0, 1, 2}, 1: {2, 3}})
    assert overlapping_nmi(c, c, range(5)) == pytest.approx(1.0)


def test_nmi_whole_universe_against_halves():
    whole = Cover({0: {0, 1, 2, 3}})
    halves = Cover({0: {0, 1}, 1: {2, 3}})
    assert overlapping_nmi(whole, whole, range(4)) == pytest.approx(1.0)
    value = overlapping_nmi(whole, halves, range(4))
    assert value == pytest.approx(0.5)


def test_nmi_independent_covers_score_low():
    rng = np.random.default_rng(30)
    n = 200
    x = Cover({c: {int(i) for i in np.nonzero(rng.random(n) < 0.5)[0]}
               for c in range(3)})
    y = Cover({c: {int(i) for i in np.nonzero(rng.random(n) < 0.5)[0]}
               for c in range(3)})
    assert overlapping_nmi(x, y, range(n)) < 0.1


def test_nmi_empty_cover_conventions():
    full = Cover({0: {0, 1}})
    empty = Cover()
    assert overlapping_nmi(empty, full, range(3)) == 0.0
    assert overlapping_nmi(full, empty, range(3)) == 0.0
    assert overlapping_nmi(empty, Cover(), range(3)) == 1.0


# an empty and a one-node community, a node in every community of y, and
# a universe wider than both covers
EDGE_CASE = (Cover({0: set(), 1: {3}, 2: {0, 1, 3}}),
             Cover({0: {1, 2}, 1: {1}, 2: {0, 1, 4}}), range(8))


@example(case=EDGE_CASE)
@settings(max_examples=150, deadline=None)
@given(case=cover_pairs())
def test_nmi_symmetric(case):
    x, y, universe = case
    assert overlapping_nmi(x, y, universe) == pytest.approx(
        overlapping_nmi(y, x, universe), abs=1e-12)


@example(case=EDGE_CASE)
@settings(max_examples=150, deadline=None)
@given(case=cover_pairs())
def test_nmi_self_similarity_is_one(case):
    x, _, universe = case
    assert overlapping_nmi(x, x, universe) == pytest.approx(1.0)


@example(case=EDGE_CASE)
@settings(max_examples=150, deadline=None)
@given(case=cover_pairs())
def test_nmi_matches_set_based_reference(case):
    x, y, universe = case
    assert overlapping_nmi(x, y, universe) == pytest.approx(
        lfk_nmi(x, y, universe), abs=1e-12)


def test_nmi_cover_node_outside_universe_rejected():
    with pytest.raises(ValueError, match="outside the universe"):
        overlapping_nmi(Cover({0: {9}}), Cover({0: {0}}), range(3))


# ---------------------------------------------------------------- report


def test_metric_report_csv_round_trip():
    report = MetricReport([MetricRow(1, 0.5, 0.25, 3),
                           MetricRow(2, None, 0.3, 4)])
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,nmi,modularity,k_detected"
    assert lines[1] == "1,0.5,0.25,3"
    assert lines[2].startswith("2,,")
    mean_row = lines[3].split(",")
    std_row = lines[4].split(",")
    assert mean_row[0] == "mean"
    assert float(mean_row[1]) == pytest.approx(0.5)
    assert float(mean_row[2]) == pytest.approx(0.275)
    assert float(mean_row[3]) == pytest.approx(3.5)
    assert std_row[0] == "std"
    assert float(std_row[2]) == pytest.approx(0.025)
    assert float(std_row[3]) == pytest.approx(0.5)


def test_metric_report_all_nmi_missing_leaves_blank_aggregate():
    report = MetricReport([MetricRow(1, None, 0.1, 2)])
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[2].split(",")[1] == ""
    assert lines[3].split(",")[1] == ""
