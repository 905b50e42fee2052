import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncomm.graphs import (
    DynamicNetwork,
    GraphFormatError,
    SnapshotGraph,
    load_dynamic,
    save_dynamic,
)
from reference import edge_key, validate


def write(tmp_path, text, name="net.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_edge_key_canonical_order():
    assert edge_key(2, 1) == (1, 2)
    assert edge_key(1, 2) == (1, 2)
    assert edge_key(0, 7) == (0, 7)


def test_edge_key_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        edge_key(3, 3)


def test_load_two_edge_path(tmp_path):
    p = write(tmp_path, "1 0 1\n1 1 2\n")
    net = load_dynamic(p)
    assert len(net) == 1
    g = net[0]
    assert g.nodes.tolist() == [0, 1, 2]
    assert g.edges == ((0, 1), (1, 2))


def test_load_empty_file_reports_no_snapshots(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(GraphFormatError, match="no snapshots"):
        load_dynamic(p)


def test_load_comment_only_file_reports_no_snapshots(tmp_path):
    p = write(tmp_path, "# header\n\n  # more\n")
    with pytest.raises(GraphFormatError, match="no snapshots"):
        load_dynamic(p)


def test_load_self_loop_names_line(tmp_path):
    p = write(tmp_path, "1 3 3\n")
    with pytest.raises(GraphFormatError, match="self-loop at line 1"):
        load_dynamic(p)


def test_load_rejects_negative_id(tmp_path):
    p = write(tmp_path, "1 0 1\n1 -2 4\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_dynamic(p)


def test_load_rejects_weighted_line(tmp_path):
    p = write(tmp_path, "1 0 1 0.5\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_dynamic(p)


def test_load_rejects_non_integer(tmp_path):
    p = write(tmp_path, "1 a 2\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_dynamic(p)


def test_load_collapses_duplicates_and_orientations(tmp_path):
    p = write(tmp_path, "1 2 1\n1 1 2\n1 1 2\n")
    g = load_dynamic(p)[0]
    assert g.edges == ((1, 2),)
    assert g.m == 1


def test_load_node_declaration_keeps_isolated_node(tmp_path):
    p = write(tmp_path, "1 0 1\n1 n 9\n")
    g = load_dynamic(p)[0]
    assert 9 in g.nodes
    assert g.degrees[9] == 0


def test_load_keeps_snapshot_labels_with_gap(tmp_path):
    p = write(tmp_path, "1 0 1\n5 0 2\n")
    net = load_dynamic(p)
    assert [g.t for g in net] == [1, 5]
    # list position, not label arithmetic, defines temporal adjacency
    assert net[1].edges == ((0, 2),)


def test_load_comments_and_blank_lines(tmp_path):
    p = write(tmp_path, "# net\n1 0 1  # first edge\n\n1 1 2\n")
    g = load_dynamic(p)[0]
    assert g.edges == ((0, 1), (1, 2))


def test_degree_triangle_star_isolated():
    tri = SnapshotGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    assert [tri.degrees[i] for i in (0, 1, 2)] == [2, 2, 2]
    star = SnapshotGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert star.degrees[0] == 3
    assert star.degrees[2] == 1
    iso = SnapshotGraph([0, 1, 5], [(0, 1)])
    assert iso.degrees[5] == 0
    # compact order is (3, 7, 9)
    g = SnapshotGraph([3, 7, 9], [(3, 9), (7, 9)])
    assert np.array_equal(g.edge_array, [[0, 2], [1, 2]])
    assert np.array_equal(g.degree_array, np.array([1.0, 1.0, 2.0]))


def test_edge_array_rejects_dangling_endpoint():
    for nodes in ([0, 1], [0, 6], []):
        with pytest.raises(GraphFormatError, match="outside its nodes"):
            SnapshotGraph(nodes, [(0, 5)]).edge_array


@pytest.mark.parametrize("edges, problem", [
    ([(0, 1), (1, 0), (1, 2), (2, 2)], r"self-loop \(2, 2\)"),
    ([(0, 1), (1, 2), (1, 0)], r"the pair \(0, 1\) twice"),
    ([(7, 9), (9, 12), (7, 9)], r"the pair \(7, 9\) twice"),
], ids=["loop", "reversed", "repeated"])
def test_snapshot_graph_rejects_loops_and_repeated_pairs(edges, problem):
    # (0, 1) and (1, 0) once made m=4 and degrees {0: 2, 1: 3, 2: 3} here
    with pytest.raises(GraphFormatError, match=problem):
        SnapshotGraph([0, 1, 2, 7, 9, 12], edges)
    # either orientation of a single pair is the same edge
    assert SnapshotGraph(range(3), [(1, 0), (2, 1)]).degrees == {0: 1, 1: 2, 2: 1}


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        pairs = {edge_key(int(a), int(b))
                 for a, b in rng.integers(0, n, size=(40, 2)) if a != b}
        g = SnapshotGraph(range(n), sorted(pairs))
        assert sum(g.degrees.values()) == 2 * g.m


def test_validate_clean_graph_is_empty():
    g = SnapshotGraph([0, 1, 2], [(0, 1), (1, 2)])
    assert validate(g) == []


def test_validate_reports_each_violation():
    g = SnapshotGraph.__new__(SnapshotGraph)
    g.t = 1
    g.nodes = (0, 1, -3)
    g.edges = ((1, 1), (1, 0), (0, 1), (0, 5))
    problems = "\n".join(validate(g))
    assert "self-loop" in problems
    assert "negative node id" in problems
    assert "non-canonical" in problems
    assert "duplicate edge" in problems
    assert "dangling endpoint 5" in problems


def test_dynamic_network_rejects_unsorted_labels():
    a = SnapshotGraph([0, 1], [(0, 1)], t=2)
    b = SnapshotGraph([0, 1], [(0, 1)], t=2)
    with pytest.raises(GraphFormatError, match="strictly increasing"):
        DynamicNetwork([a, b])


def test_dynamic_network_rejects_empty():
    with pytest.raises(GraphFormatError, match="no snapshots"):
        DynamicNetwork([])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    snaps = []
    for t in (1, 2, 4):
        n = int(rng.integers(3, 15))
        pairs = {edge_key(int(a), int(b))
                 for a, b in rng.integers(0, n, size=(25, 2)) if a != b}
        snaps.append(SnapshotGraph(set(range(n)) | {n + 3}, sorted(pairs), t=t))
    net = DynamicNetwork(snaps)
    p = tmp_path / "rt.txt"
    save_dynamic(net, p)
    back = load_dynamic(p)
    assert len(back) == len(net)
    for g0, g1 in zip(net, back):
        assert g1.t == g0.t
        assert np.array_equal(g1.nodes, g0.nodes)
        assert g1.edges == g0.edges


@st.composite
def networks(draw):
    labels = sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=4)))
    snaps = []
    for t in labels:
        ids = sorted(draw(st.sets(st.integers(0, 10**12), min_size=1, max_size=12)))
        pairs = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                             .filter(lambda p: p[0] < p[1]), max_size=25))
        snaps.append(SnapshotGraph(ids, sorted(pairs), t=t))
    return DynamicNetwork(snaps)


def scramble(lines, rnd):
    """The same network written another valid way: lines shuffled, some
    endpoints reversed and edges repeated, tabs and runs of spaces between
    tokens, comments and blank lines added, and CRLF line ends."""
    out = []
    for line in lines:
        t, a, b = line.split()
        if a != "n" and rnd.random() < 0.5:
            a, b = b, a
        for _ in range(1 + (a != "n" and rnd.random() < 0.3)):
            seps = [rnd.choice([" ", "\t", "  ", " \t "]) for _ in range(2)]
            text = rnd.choice(["", " ", "\t"]) + t + seps[0] + a + seps[1] + b
            out.append(text + rnd.choice(["", " ", "\t# note", "# n 1 2 3"]))
        if rnd.random() < 0.2:
            out.append(rnd.choice(["", "   ", "# comment", "\t#"]))
    rnd.shuffle(out)
    end = rnd.choice(["\n", "\r\n"])
    return end.join(out) + rnd.choice(["", end])


@given(net=networks(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_save_load_round_trip_property(tmp_path_factory, net, rnd):
    p = tmp_path_factory.mktemp("rt") / "net.txt"
    save_dynamic(net, p)
    for text in (None, scramble(p.read_text().splitlines(), rnd)):
        if text is not None:
            p.write_text(text)
        back = load_dynamic(p)
        assert [g.t for g in back] == [g.t for g in net]
        for g0, g1 in zip(net, back):
            assert np.array_equal(g1.nodes, g0.nodes)
            assert g1.edges == g0.edges
            assert np.array_equal(g1.edge_array, g0.edge_array)


@pytest.mark.parametrize("bad, message", [
    ("1 -1 5", "negative id -1"),
    ("1 n -3", "negative id -3"),
    ("1 2 x", "not an integer: 'x'"),
    ("1\t2\t-x", "not an integer: '-x'"),
    ("0 1 2", "snapshot index must be >= 1"),
    ("1 4 4", "self-loop at line 4"),
    ("1 2", "expected 't u v' or 't n id', got '1 2'"),
    ("1 0 1 0.5  # weighted", "expected 't u v' or 't n id', got '1 0 1 0.5  # weighted'"),
    ("1 0 123456789012345678901", "id out of range: '123456789012345678901'"),
])
def test_load_error_names_its_line(tmp_path, bad, message):
    p = write(tmp_path, "# header\n1 0 1\n\n%s\n1 1 2\n1 2 3 4\n" % bad)
    with pytest.raises(GraphFormatError, match="^%s$" % re.escape("line 4: " + message)):
        load_dynamic(p)


def test_load_reports_the_first_bad_line(tmp_path):
    # a later row error does not hide an earlier malformed line, and the
    # checks of one line run in the order the format states them
    p = write(tmp_path, "1 0 1\n1 2\n1 -1 x\n")
    with pytest.raises(GraphFormatError, match="^line 2: expected"):
        load_dynamic(p)
    p = write(tmp_path, "1 0 1\n1 -1 x\n1 2\n")
    with pytest.raises(GraphFormatError, match="^line 2: negative id -1$"):
        load_dynamic(p)
    p = write(tmp_path, "-2 x 3\n")
    with pytest.raises(GraphFormatError, match="^line 1: negative id -2$"):
        load_dynamic(p)


def test_constructor_takes_arrays_or_pairs_and_freezes_its_arrays():
    pairs = [(9, 3), (3, 7), (7, 9)]
    a = SnapshotGraph([9, 3, 7, 12], pairs, t=2)
    b = SnapshotGraph(np.array([12, 7, 3, 9]), np.array(pairs), t=2)
    for g in (a, b):
        assert g.nodes.tolist() == [3, 7, 9, 12]
        assert g.edges == ((9, 3), (3, 7), (7, 9))  # the given order and orientation
        assert g.edge_array.tolist() == [[2, 0], [0, 1], [1, 2]]
        assert g.degree_array.tolist() == [2.0, 2.0, 2.0, 0.0]
        for arr in (g.nodes, g.edge_array, g.degree_array):
            assert not arr.flags.writeable
    empty = SnapshotGraph([], [])
    assert (empty.n, empty.m, empty.edges) == (0, 0, ())
    assert empty.edge_array.shape == (0, 2)


def test_load_keeps_18_digit_ids_apart(tmp_path):
    big = 999_999_999_999_999_999
    p = write(tmp_path, "1 %d %d\n1 %d 7\n1 n %d\n" % (big, big - 1, big, big - 2))
    g = load_dynamic(p)[0]
    assert g.nodes.tolist() == [7, big - 2, big - 1, big]
    assert g.edges == ((7, big), (big - 1, big))


def test_load_reads_a_file_longer_than_one_piece(tmp_path, monkeypatch):
    # pieces are cut at line ends, and a line longer than a piece is read
    # whole; line numbers count on across pieces
    import dyncomm.graphs as graphs
    monkeypatch.setattr(graphs, "_PIECE", 16)
    long_comment = "# " + "x" * 40
    text = "1 0 1\n1 1 2 %s\n2 n 5\n\n2 3 4\n1 2 3\n" % long_comment
    net = load_dynamic(write(tmp_path, text))
    assert [g.edges for g in net] == [((0, 1), (1, 2), (2, 3)), ((3, 4),)]
    assert net[1].nodes.tolist() == [3, 4, 5]
    p = write(tmp_path, text + "2 7\n")
    with pytest.raises(GraphFormatError, match="^line 7: expected"):
        load_dynamic(p)
    p = write(tmp_path, text.replace("\n", "\r\n") + "2 7 7\r\n")
    with pytest.raises(GraphFormatError, match="^line 7: self-loop at line 7$"):
        load_dynamic(p)


def test_load_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # 60,000 edge lines over six snapshots; the bound was set before the
    # parse worked in pieces, when the peak was 28 times the file's size
    import tracemalloc

    rng = np.random.default_rng(5)
    lines = []
    for t in range(1, 7):
        u = rng.integers(0, 2000, size=10_000)
        v = (u + rng.integers(1, 2000, size=10_000)) % 2000
        lines += ["%d %d %d\n" % (t, a, b) for a, b in zip(u.tolist(), v.tolist())]
    p = write(tmp_path, "".join(lines))
    tracemalloc.start()
    try:
        net = load_dynamic(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net) == 6
    assert peak < 10 * p.stat().st_size
