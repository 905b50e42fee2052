import io
import math

import numpy as np
import pytest

from dyncomm.graphs import SnapshotGraph
from dyncomm.membership import Cover
from dyncomm.metrics import (
    MetricReport,
    MetricRow,
    extended_modularity,
    overlapping_nmi,
)


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


def test_modularity_matches_newman_on_partitions():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(4, 21))
        g = random_graph(rng, n)
        if g.m == 0:
            continue
        k = int(rng.integers(1, 5))
        labels = rng.integers(0, k, size=n)
        parts = [set(np.nonzero(labels == c)[0].tolist()) for c in range(k)]
        parts = [p for p in parts if p]
        cover = Cover({c: p for c, p in enumerate(parts)})
        assert extended_modularity(cover, g) == pytest.approx(
            newman_modularity(g, parts), abs=1e-12)


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


def test_nmi_symmetric():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = 24
        x = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(2, 12),
                                                  replace=False)}
                   for c in range(int(rng.integers(1, 4)))})
        y = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(2, 12),
                                                  replace=False)}
                   for c in range(int(rng.integers(1, 4)))})
        a = overlapping_nmi(x, y, range(n))
        b = overlapping_nmi(y, x, range(n))
        assert a == pytest.approx(b, abs=1e-12)


def test_nmi_self_similarity_is_one():
    rng = np.random.default_rng(32)
    for trial in range(15):
        n = 20
        x = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(2, 10),
                                                  replace=False)}
                   for c in range(int(rng.integers(1, 5)))})
        assert overlapping_nmi(x, x, range(n)) == pytest.approx(1.0)


def test_nmi_matches_set_based_reference():
    rng = np.random.default_rng(33)
    for trial in range(25):
        n = int(rng.integers(8, 30))
        x = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(1, n),
                                                  replace=False)}
                   for c in range(int(rng.integers(1, 4)))})
        y = Cover({c: {int(i) for i in rng.choice(n, size=rng.integers(1, n),
                                                  replace=False)}
                   for c in range(int(rng.integers(1, 4)))})
        assert overlapping_nmi(x, y, range(n)) == pytest.approx(
            lfk_nmi(x, y, range(n)), abs=1e-12)


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
