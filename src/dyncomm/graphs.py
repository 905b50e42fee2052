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

    Instances are treated as immutable after construction; the derived
    structures (index, edge and degree arrays) are cached and safe to share
    across concurrent sampler chains.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]], t: int = 1):
        self.t = int(t)
        self.nodes: tuple[int, ...] = tuple(sorted({int(x) for x in nodes}))
        self.edges: tuple[tuple[int, int], ...] = tuple((int(u), int(v)) for u, v in edges)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def node_index(self) -> dict[int, int]:
        """Node id -> compact index in ``self.nodes`` order."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(m, 2) int array of compact endpoint indices, in ``self.edges`` order."""
        nodes = np.array(self.nodes, dtype=np.int64)
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        idx = np.searchsorted(nodes, ends)
        if self.m and (not self.n or np.any(nodes.take(idx, mode="clip") != ends)):
            raise GraphFormatError("%r has an edge endpoint outside its nodes" % self)
        return idx

    @cached_property
    def degree_array(self) -> np.ndarray:
        """Degree of every node, in ``self.nodes`` order."""
        return np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.float64)

    @cached_property
    def degrees(self) -> dict[int, int]:
        return dict(zip(self.nodes, map(int, self.degree_array)))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def __repr__(self) -> str:
        return "SnapshotGraph(t=%d, n=%d, m=%d)" % (self.t, self.n, self.m)


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


def _unique_rows(*cols: np.ndarray) -> list[np.ndarray]:
    """The distinct rows of the given columns, sorted by the first column,
    then the second, and so on."""
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = np.any([c[1:] != c[:-1] for c in cols], axis=0)
    return [c[keep] for c in cols]


def load_dynamic(path) -> DynamicNetwork:
    """Load and validate a dynamic network from a snapshot edge-list file.

    Duplicate edges within a snapshot collapse to one; edges are stored in
    canonical sorted order.  Raises GraphFormatError, reporting the line
    number, on malformed lines, self-loops or negative ids.  Ids have at
    most 18 digits.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = _COMMENT.sub(b"", text.encode("utf-8"))
    raw = np.frombuffer(data, dtype=np.uint8)
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
        lineno = int(line[3 * row]) + 1
        kind, col = next((kind, col) for kind, col, flags in checks if flags[row])
        tok = 3 * row + col
        if kind == "int":
            word = data[starts[tok]:ends[tok]].decode("utf-8")
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
        lineno = int(malformed[0]) + 1
        raise GraphFormatError("line %d: expected 't u v' or 't n id', got %r"
                               % (lineno, text.split("\n")[lineno - 1]))
    if not len(t):
        raise GraphFormatError("no snapshots")

    edge = ~node
    et, lo, hi = _unique_rows(t[edge], np.minimum(u, v)[edge], np.maximum(u, v)[edge])
    nt, ids = _unique_rows(np.concatenate([t[node], et, et]),
                           np.concatenate([v[node], lo, hi]))
    ts = np.unique(t)
    e_at = np.searchsorted(et, ts).tolist() + [len(et)]
    n_at = np.searchsorted(nt, ts).tolist() + [len(nt)]
    lo, hi, ids = lo.tolist(), hi.tolist(), ids.tolist()
    return DynamicNetwork(
        SnapshotGraph(ids[n_at[k]:n_at[k + 1]],
                      zip(lo[e_at[k]:e_at[k + 1]], hi[e_at[k]:e_at[k + 1]]), t=snap)
        for k, snap in enumerate(ts.tolist()))


def save_dynamic(net: DynamicNetwork, path) -> None:
    """Write a dynamic network in canonical form (round-trips with load)."""
    with open(path, "w", encoding="utf-8") as fh:
        for g in net:
            touched = {x for e in g.edges for x in e}
            for v in g.nodes:
                if v not in touched:
                    fh.write("%d n %d\n" % (g.t, v))
            for u, v in sorted(g.edge_set):
                fh.write("%d %d %d\n" % (g.t, u, v))
