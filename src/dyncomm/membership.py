"""From edge-community samples to overlapping node covers.

A node's pull toward community r is u_ir = (n_r / M) * beta_ir: the
community's share of all edges times the node's importance in it.  The
cover keeps node i in every community whose pull is within a factor theta
of i's strongest one.  The pulls and the kept (community, node) pairs are
K x N arrays; only ``extract_cover`` builds the sets of a ``Cover``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np


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
        return set().union(*self.communities.values())


def soft_membership_from_arrays(sizes: np.ndarray, beta: np.ndarray, m: int) -> np.ndarray:
    """u_ir = (n_r / M) * beta_ir: a K x N array, one row per row of the
    K x N ``beta`` and its size in ``sizes``; no rows when M = 0."""
    if m < 1:
        return np.empty((0, np.shape(beta)[-1]))
    return (np.asarray(sizes, dtype=np.float64)[:, None] / float(m)) * np.asarray(beta)


def theta_mask(u: np.ndarray, theta: float) -> np.ndarray:
    """The theta-rule as a K x N boolean mask over the pulls ``u``: i joins
    r iff u_ir >= theta * max_s u_is, so theta = 1 keeps exact ties, and a
    node whose pulls are all zero (an isolated node) joins nothing."""
    if not 0 < theta <= 1:
        raise ValueError("theta must be in (0, 1], got %r" % (theta,))
    return (u >= theta * u.max(axis=0, initial=0.0)) & (u > 0)


def extract_cover(u: np.ndarray, ids: Sequence[int], nodes: Sequence[int],
                  theta: float) -> Cover:
    """The Cover of ``theta_mask(u, theta)``, where u's rows are the
    communities ``ids`` and its columns the nodes ``nodes``; each member's
    pull is its weight, and a community left empty is dropped."""
    u = np.asarray(u, dtype=np.float64)
    nodes = np.asarray(nodes)
    if u.shape != (len(ids), len(nodes)):
        raise ValueError("u has shape %r, expected (%d, %d)"
                         % (u.shape, len(ids), len(nodes)))
    cover = Cover()
    for r, keep, pull in zip(ids, theta_mask(u, theta), u):
        cols = np.flatnonzero(keep)
        if len(cols) == 0:
            continue
        r, members = int(r), nodes[cols].tolist()
        cover.communities[r] = set(members)
        cover.weights.update(zip([(i, r) for i in members], pull[cols].tolist()))
    return cover


def selection_key(record) -> tuple[float, int]:
    """What the best sample maximizes: its modularity, and then its sweep
    index, so that a tie goes to the latest sweep."""
    return (record.modularity, record.sweep_index)


def select_best(samples: Sequence[tuple]) -> tuple[Cover, object]:
    """Pick the (record, cover) pair with maximal modularity; ties go to the
    latest sweep."""
    if not samples:
        raise ValueError("no samples to select from")
    best = max(samples, key=lambda pair: selection_key(pair[0]))
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
    """Inverse of save_covers; tolerates comments and blank lines.  A line
    that is not a snapshot index t >= 1, a community and a node id >= 0 and
    a finite, non-negative u, or that names a (t, community, node) an
    earlier line named, raises naming file and line."""
    out: dict[int, Cover] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                t, r, i, w = line.split()
                t, r, i, w = int(t), int(r), int(i), float(w)
                ok = t >= 1 and r >= 0 and i >= 0 and 0.0 <= w < math.inf
            except ValueError:  # a wrong token count or an unreadable token
                ok = False
            if not ok:
                raise ValueError("%s line %d: expected 't community node u' with t >= 1, "
                                 "ids >= 0 and a finite u >= 0, got %r"
                                 % (path, lineno, raw.rstrip("\n")))
            cover = out.setdefault(t, Cover())
            if (i, r) in cover.weights:
                raise ValueError("%s line %d: t=%d community %d node %d is given twice"
                                 % (path, lineno, t, r, i))
            cover.communities.setdefault(r, set()).add(i)
            cover.weights[(i, r)] = w
    return out
