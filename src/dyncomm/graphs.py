"""Snapshot graphs, dynamic networks, and the flat-file edge-list format.

A dynamic network is an ordered sequence of snapshots.  Each snapshot is a
simple undirected graph over integer node ids; ids are stable across
snapshots, so the same id in two snapshots denotes the same node.  Node and
edge sets may differ between snapshots.

File format (whitespace separated, ``#`` starts a comment):

    t u v       edge (u, v) in snapshot t          e.g. ``1 0 5``
    t n id      declare node id in snapshot t      e.g. ``2 n 17``

Snapshot indices are positive and are kept as written; node-declaration
lines exist to encode isolated nodes, which are retained and simply receive
empty community membership downstream.  Duplicate edges collapse to one;
self-loops, weights and directions are rejected.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse


class GraphFormatError(ValueError):
    """Malformed or invalid snapshot edge-list input."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected form of an edge: ``(min(u, v), max(u, v))``.

    Raises GraphFormatError for a self-loop, which has no canonical form.
    """
    if u == v:
        raise GraphFormatError("self-loop (%d, %d) is not a valid edge" % (u, v))
    return (u, v) if u < v else (v, u)


class SnapshotGraph:
    """One snapshot: a simple undirected graph with stable integer node ids.

    Instances are treated as immutable after construction; the derived
    structures (index, degrees, adjacency) are cached and safe to share
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
        idx = self.node_index
        if self.m == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.array([(idx[u], idx[v]) for u, v in self.edges], dtype=np.int64)

    @cached_property
    def degrees(self) -> dict[int, int]:
        deg = dict.fromkeys(self.nodes, 0)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    @cached_property
    def degree_array(self) -> np.ndarray:
        return np.array([self.degrees[v] for v in self.nodes], dtype=np.float64)

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric 0/1 adjacency over compact node indices."""
        ea = self.edge_array
        ones = np.ones(len(ea), dtype=np.float64)
        a = sparse.coo_matrix(
            (np.concatenate([ones, ones]),
             (np.concatenate([ea[:, 0], ea[:, 1]]),
              np.concatenate([ea[:, 1], ea[:, 0]]))),
            shape=(self.n, self.n),
        )
        return a.tocsr()

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


def validate(g: SnapshotGraph) -> list[str]:
    """Check all SnapshotGraph invariants; return every violation found.

    An empty list means the snapshot is valid.
    """
    violations: list[str] = []
    node_set = set(g.nodes)
    for v in g.nodes:
        if v < 0:
            violations.append("negative node id %d" % v)
    seen: set[tuple[int, int]] = set()
    for u, v in g.edges:
        if u == v:
            violations.append("self-loop (%d, %d)" % (u, v))
            continue
        if u > v:
            violations.append("non-canonical edge (%d, %d); expected u < v" % (u, v))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            violations.append("duplicate edge (%d, %d)" % key)
        seen.add(key)
        for x in (u, v):
            if x not in node_set:
                violations.append("dangling endpoint %d of edge (%d, %d)" % (x, u, v))
    return violations


def _parse_id(tok: str, lineno: int) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise GraphFormatError("line %d: not an integer: %r" % (lineno, tok)) from None
    if value < 0:
        raise GraphFormatError("line %d: negative id %d" % (lineno, value))
    return value


def load_dynamic(path) -> DynamicNetwork:
    """Load and validate a dynamic network from a snapshot edge-list file.

    Duplicate edges within a snapshot collapse to one; edges are stored in
    canonical sorted order.  Raises GraphFormatError, reporting the line
    number, on malformed lines, self-loops or negative ids.
    """
    edges_by_t: dict[int, set[tuple[int, int]]] = {}
    declared_by_t: dict[int, set[int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 3:
                raise GraphFormatError(
                    "line %d: expected 't u v' or 't n id', got %r" % (lineno, raw.rstrip("\n")))
            t = _parse_id(toks[0], lineno)
            if t < 1:
                raise GraphFormatError("line %d: snapshot index must be >= 1" % lineno)
            if toks[1] == "n":
                node = _parse_id(toks[2], lineno)
                declared_by_t.setdefault(t, set()).add(node)
                edges_by_t.setdefault(t, set())
                continue
            u = _parse_id(toks[1], lineno)
            v = _parse_id(toks[2], lineno)
            if u == v:
                raise GraphFormatError("line %d: self-loop at line %d" % (lineno, lineno))
            edges_by_t.setdefault(t, set()).add(edge_key(u, v))
            declared_by_t.setdefault(t, set())
    if not edges_by_t:
        raise GraphFormatError("no snapshots")
    snaps = []
    for t in sorted(edges_by_t):
        edges = sorted(edges_by_t[t])
        nodes = declared_by_t.get(t, set()).union(*([set(e) for e in edges] or [set()]))
        snaps.append(SnapshotGraph(nodes, edges, t=t))
    return DynamicNetwork(snaps)


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
