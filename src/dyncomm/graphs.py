"""Snapshot graphs, dynamic networks, and the flat-file edge-list format.

A dynamic network is an ordered sequence of snapshots.  Each snapshot is a
simple undirected graph over integer node ids; ids are stable across
snapshots, so the same id in two snapshots denotes the same node.  Node and
edge sets may differ between snapshots.

File format (spaces or tabs separate tokens, ``#`` starts a comment):

    t u v       edge (u, v) in snapshot t          e.g. ``1 0 5``
    t n id      declare node id in snapshot t      e.g. ``2 n 17``

Ids are non-negative integers of at most 18 digits.  Snapshot indices are
positive and are kept as written; node-declaration lines exist to encode
isolated nodes, which are retained and simply receive empty community
membership downstream.  Duplicate edges collapse to one; self-loops,
weights and directions are rejected.

A snapshot is held as arrays: its sorted node ids, and each edge as the
positions of its two endpoints among them.  ``load_dynamic`` parses the
file with array operations, a piece of lines at a time, and builds each
snapshot from id arrays, so no Python object is made per edge and the
parse needs a few times the file's size in memory.
"""
from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np


class GraphFormatError(ValueError):
    """Malformed or invalid snapshot edge-list input."""


class SnapshotGraph:
    """One snapshot: a simple undirected graph with stable integer node ids.

    The constructor takes iterables of node ids and endpoint pairs, or
    integer arrays of them, and builds every array the sampler and the
    metrics read: ``nodes`` (the sorted distinct ids), ``edge_array`` (each
    edge's two positions in ``nodes``, in the given edge order) and
    ``degree_array``.  An endpoint outside ``nodes``, a self-loop or a pair
    given twice, in either orientation, raises GraphFormatError.  The
    arrays are read-only and nothing writes to the instance afterwards, so
    one snapshot is safe to share across concurrent sampler chains.
    ``edges``, ``edge_set`` and ``degrees`` are tuple, set and dict views
    built on first use, for callers that want Python objects; detection
    reads none of them.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]], t: int = 1):
        self.t = int(t)
        self.nodes: np.ndarray = _frozen(np.unique(_int_array(nodes)))
        ends = _int_array(edges).reshape(-1, 2)
        idx = np.searchsorted(self.nodes, ends)
        where = "SnapshotGraph(t=%d, n=%d, m=%d)" % (self.t, self.n, len(ends))
        if len(ends) and (not self.n or np.any(self.nodes.take(idx, mode="clip") != ends)):
            raise GraphFormatError("%s has an edge endpoint outside its nodes" % where)
        # a simple graph: no loop, and each pair once in either orientation
        lo, hi = np.minimum(*idx.T), np.maximum(*idx.T)
        loops = np.flatnonzero(lo == hi)
        if len(loops):
            v = int(self.nodes[lo[loops[0]]])
            raise GraphFormatError("%s has a self-loop (%d, %d)" % (where, v, v))
        keys = np.sort(lo * self.n + hi)
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if len(twice):
            u, v = self.nodes[list(divmod(int(keys[twice[0]]), self.n))].tolist()
            raise GraphFormatError("%s has the pair (%d, %d) twice" % (where, u, v))
        self.edge_array: np.ndarray = _frozen(idx)
        self.degree_array: np.ndarray = _frozen(
            np.bincount(idx.ravel(), minlength=self.n).astype(np.float64))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Endpoint id pairs, in ``edge_array`` order."""
        return tuple(map(tuple, self.nodes[self.edge_array].tolist()))

    @cached_property
    def degrees(self) -> dict[int, int]:
        return dict(zip(self.nodes.tolist(), self.degree_array.astype(np.int64).tolist()))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def __repr__(self) -> str:
        return "SnapshotGraph(t=%d, n=%d, m=%d)" % (self.t, self.n, self.m)


def _int_array(values) -> np.ndarray:
    """An int64 array of an array or any iterable of ints or int pairs."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=np.int64)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DynamicNetwork:
    """Ordered snapshots t_1 < t_2 < ... of one evolving network."""

    def __init__(self, snapshots: Iterable[SnapshotGraph]):
        snaps = tuple(snapshots)
        if not snaps:
            raise GraphFormatError("no snapshots")
        ts = [g.t for g in snaps]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise GraphFormatError("snapshot indices must be strictly increasing, got %r" % (ts,))
        if ts[0] < 1:
            raise GraphFormatError("snapshot indices start at 1, got %d" % ts[0])
        self.snapshots: tuple[SnapshotGraph, ...] = snaps

    def __iter__(self) -> Iterator[SnapshotGraph]:
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> SnapshotGraph:
        return self.snapshots[i]


# ASCII whitespace separates tokens; a comment runs from # to the line's end
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\n\r\v\f")] = True
_COMMENT = re.compile(rb"#[^\n]*")
# every id of 18 digits or fewer fits in an int64
_MAX_DIGITS = 18
# the parse reads the file in pieces of about this many bytes, cut at line
# ends, so its per-token arrays stay small whatever the file's size
_PIECE = 1 << 16


def _tokens(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and end offsets of every token in the bytes ``raw``, and the
    0-based line each one is on."""
    space = np.concatenate(([True], _SPACE[raw], [True]))
    bounds = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    return starts, ends, np.searchsorted(np.flatnonzero(raw == ord("\n")), starts)


def _integers(raw: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token read as a decimal integer with an optional sign: its value
    (0 where unreadable) and whether it was readable."""
    lead = raw[starts]
    first = starts + ((lead == ord("-")) | (lead == ord("+")))
    digits = ends - first
    ok = (digits >= 1) & (digits <= _MAX_DIGITS)
    value = np.zeros(len(starts), dtype=np.int64)
    for k in range(min(int(digits.max(initial=0)), _MAX_DIGITS)):
        inside = digits > k
        d = raw[np.where(inside, first + k, 0)].astype(np.int64) - ord("0")
        ok &= ~inside | ((d >= 0) & (d <= 9))
        value = np.where(inside, 10 * value + d, value)
    value = np.where(lead == ord("-"), -value, value)
    value[~ok] = 0
    return value, ok


def _parse_piece(piece: bytes, line0: int) -> tuple[np.ndarray, ...]:
    """The rows of ``piece``, whole lines of which the first is line
    ``line0 + 1`` of the file: (t, lower id, higher id) of the edge lines
    and (t, id) of the node lines.  Raises GraphFormatError for the first
    bad line."""
    text = _COMMENT.sub(b"", piece) if b"#" in piece else piece
    raw = np.frombuffer(text, dtype=np.uint8)
    starts, ends, line = _tokens(raw)

    # rows are the lines of exactly three tokens before the first line of
    # any other nonzero count
    per_line = np.bincount(line)
    malformed = np.flatnonzero((per_line != 0) & (per_line != 3))
    stop = int(np.searchsorted(line, malformed[0])) if len(malformed) else len(starts)
    value, ok = _integers(raw, starts[:stop], ends[:stop])
    value, ok = value.reshape(-1, 3), ok.reshape(-1, 3)
    t, u, v = value.T
    mid = starts[1:stop:3]
    node = (ends[1:stop:3] - mid == 1) & (raw[mid] == ord("n"))

    # the checks of one row in the order the format states them: the
    # first row with any failure reports its earliest one
    checks = (
        ("int", 0, ~ok[:, 0]),
        ("negative", 0, t < 0),
        ("snapshot", 0, t == 0),
        ("int", 1, ~node & ~ok[:, 1]),
        ("negative", 1, ~node & (u < 0)),
        ("int", 2, ~ok[:, 2]),
        ("negative", 2, v < 0),
        ("loop", 1, ~node & (u == v)),
    )
    failed = np.any([flags for _, _, flags in checks], axis=0)
    if failed.any():
        row = int(np.argmax(failed))
        lineno = line0 + int(line[3 * row]) + 1
        kind, col = next((kind, col) for kind, col, flags in checks if flags[row])
        tok = 3 * row + col
        if kind == "int":
            word = text[starts[tok]:ends[tok]].decode("utf-8")
            digits = word[1:] if word[0] in "+-" else word
            problem = ("id out of range" if digits.isascii() and digits.isdigit()
                       else "not an integer")
            raise GraphFormatError("line %d: %s: %r" % (lineno, problem, word))
        if kind == "negative":
            raise GraphFormatError("line %d: negative id %d" % (lineno, value[row, col]))
        if kind == "snapshot":
            raise GraphFormatError("line %d: snapshot index must be >= 1" % lineno)
        raise GraphFormatError("line %d: self-loop at line %d" % (lineno, lineno))
    if len(malformed):
        bad = piece.split(b"\n")[malformed[0]].decode("utf-8")
        raise GraphFormatError("line %d: expected 't u v' or 't n id', got %r"
                               % (line0 + int(malformed[0]) + 1, bad))
    edge = ~node
    return (t[edge], np.minimum(u, v)[edge], np.maximum(u, v)[edge],
            t[node], v[node])


def _sort_unique(cols: list[np.ndarray]) -> None:
    """Sort the rows of the columns ``cols`` by the first column, then the
    second, and so on, and drop repeated rows; the list is updated in place
    so that no unsorted column outlives its sorted copy."""
    order = np.lexsort(cols[::-1])
    for k, c in enumerate(cols):
        cols[k] = c[order]
    del c, order  # the last unsorted column, and the permutation
    keep = np.ones(len(cols[0]), dtype=bool)
    keep[1:] = np.any([c[1:] != c[:-1] for c in cols], axis=0)
    for k, c in enumerate(cols):
        cols[k] = c[keep]


def load_dynamic(path) -> DynamicNetwork:
    """Load and validate a dynamic network from a snapshot edge-list file.

    Duplicate edges within a snapshot collapse to one; edges are stored in
    canonical sorted order.  Raises GraphFormatError, reporting the line
    number, on malformed lines, self-loops or negative ids.  Ids have at
    most 18 digits.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # a file that is not UTF-8 fails as it would as text
    if b"\r" in data:
        # the line ends of text mode: a CRLF or a lone CR ends a line
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    pieces = []
    start = line0 = 0
    while start < len(data):
        stop = len(data)
        if start + _PIECE < stop:
            stop = data.rfind(b"\n", start, start + _PIECE) + 1
            if stop <= start:  # one line longer than a piece
                stop = data.find(b"\n", start + _PIECE) + 1 or len(data)
        piece = data[start:stop]
        pieces.append(_parse_piece(piece, line0))
        line0 += piece.count(b"\n")
        start = stop
    del data
    # edge rows (t, lower id, higher id), then node rows (t, id); the
    # pieces and the first list go, so that sorting frees each column
    cols = [np.concatenate(c) for c in zip(*pieces)] or [np.empty(0, dtype=np.int64)] * 5
    del pieces
    edges, decls = cols[:3], cols[3:]
    del cols
    if not len(edges[0]) and not len(decls[0]):
        raise GraphFormatError("no snapshots")
    _sort_unique(edges)
    _sort_unique(decls)
    et, lo, hi = edges
    nt, ids = decls
    ts = np.union1d(et, nt)
    e_at = np.searchsorted(et, ts).tolist() + [len(et)]
    n_at = np.searchsorted(nt, ts).tolist() + [len(nt)]
    snapshots = []
    for k, snap in enumerate(ts.tolist()):
        a, b = e_at[k], e_at[k + 1]
        ends = np.column_stack((lo[a:b], hi[a:b]))
        nodes = np.concatenate((ids[n_at[k]:n_at[k + 1]], lo[a:b], hi[a:b]))
        snapshots.append(SnapshotGraph(nodes, ends, t=snap))
    return DynamicNetwork(snapshots)


def save_dynamic(net: DynamicNetwork, path) -> None:
    """Write a dynamic network in canonical form (round-trips with load):
    each snapshot's isolated nodes, then its distinct edges in sorted
    order."""
    with open(path, "w", encoding="utf-8") as fh:
        for g in net:
            t = g.t
            fh.writelines(["%d n %d\n" % (t, v)
                           for v in g.nodes[g.degree_array == 0].tolist()])
            pairs = list(g.nodes[g.edge_array].T)
            _sort_unique(pairs)
            fh.writelines(["%d %d %d\n" % (t, u, v)
                           for u, v in zip(pairs[0].tolist(), pairs[1].tolist())])
