"""From edge-community samples to overlapping node covers.

A node's pull toward community r is u_ir = (n_r / M) * beta_ir: the
community's share of all edges times the node's importance in it.  The
cover keeps node i in every community whose pull is within a factor theta
of i's strongest one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np


class SoftMembership:
    """Membership weights u over (community, node)."""

    def __init__(self, nodes: Sequence[int], ids: Sequence[int], u: np.ndarray):
        self.nodes = tuple(nodes)
        self.ids = tuple(int(r) for r in ids)
        self.u = np.asarray(u, dtype=np.float64)
        if self.u.shape != (len(self.ids), len(self.nodes)):
            raise ValueError("u has shape %r, expected (%d, %d)"
                             % (self.u.shape, len(self.ids), len(self.nodes)))


@dataclass
class Cover:
    """Overlapping communities for one snapshot: id -> member node set.

    ``weights[(node, community)]`` keeps the membership weight u of each
    member when known (covers loaded from ground-truth files may omit it).
    """

    communities: dict[int, set[int]] = field(default_factory=dict)
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return sum(1 for members in self.communities.values() if members)

    def covered_nodes(self) -> set[int]:
        out: set[int] = set()
        for members in self.communities.values():
            out |= members
        return out

    def membership_counts(self) -> dict[int, int]:
        """O_i: how many communities contain each covered node."""
        counts: dict[int, int] = {}
        for members in self.communities.values():
            for i in members:
                counts[i] = counts.get(i, 0) + 1
        return counts


def soft_membership_from_arrays(nodes: Sequence[int], ids: Sequence[int],
                                sizes: np.ndarray, beta: np.ndarray,
                                m: int) -> SoftMembership:
    """u_ir = (n_r / M) * beta_ir for each community row; empty when M = 0."""
    if m < 1 or len(ids) == 0:
        return SoftMembership(nodes, (), np.empty((0, len(tuple(nodes)))))
    u = (np.asarray(sizes, dtype=np.float64)[:, None] / float(m)) * np.asarray(beta)
    return SoftMembership(nodes, ids, u)


def extract_cover(u: SoftMembership, theta: float) -> Cover:
    """Apply the theta-rule: i joins r iff u_ir >= theta * max_s u_is.

    The comparison is >= so that theta = 1 keeps exact ties.  Nodes whose
    u row is all zero (isolated nodes) join nothing; communities that end
    up empty are dropped.
    """
    if not 0 < theta <= 1:
        raise ValueError("theta must be in (0, 1], got %r" % (theta,))
    cover = Cover()
    if not u.ids:
        return cover
    col_max = u.u.max(axis=0)
    keep = (u.u >= theta * col_max) & (u.u > 0)
    for a, r in enumerate(u.ids):
        row = np.nonzero(keep[a])[0]
        if len(row) == 0:
            continue
        members = {u.nodes[b] for b in row}
        cover.communities[r] = members
        for b in row:
            cover.weights[(u.nodes[b], r)] = float(u.u[a, b])
    return cover


def select_best(samples: Sequence[tuple]) -> tuple[Cover, object]:
    """Pick the (record, cover) pair with maximal modularity; ties go to the
    latest sweep."""
    if not samples:
        raise ValueError("no samples to select from")
    best = max(samples, key=lambda pair: (pair[0].modularity, pair[0].sweep_index))
    return best[1], best[0]


def save_covers(path, covers: Mapping[int, Cover]) -> None:
    """Write covers of one run: lines `t community_id node_id u_value`,
    sorted by (t, community_id, node_id).  Missing weights are written as 1.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(covers):
            c = covers[t]
            for r in sorted(c.communities):
                for i in sorted(c.communities[r]):
                    w = c.weights.get((i, r), 1.0)
                    fh.write("%d %d %d %s\n" % (t, r, i, str(float(w))))


def load_covers(path) -> dict[int, Cover]:
    """Inverse of save_covers; tolerates comments and blank lines."""
    out: dict[int, Cover] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 4:
                raise ValueError("line %d: expected 't community node u', got %r"
                                 % (lineno, raw.rstrip("\n")))
            t, r, i = int(toks[0]), int(toks[1]), int(toks[2])
            w = float(toks[3])
            cover = out.setdefault(t, Cover())
            cover.communities.setdefault(r, set()).add(i)
            cover.weights[(i, r)] = w
    return out
