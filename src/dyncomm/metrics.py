"""Cover quality measures and the per-snapshot metric report.

Extended modularity follows Shen's overlapping form

    EQ = (1 / 2M) * sum_c sum_{i,j in c} (1 / (O_i O_j)) * (A_ij - k_i k_j / 2M)

where O_i counts the communities containing node i; on a partition every
O_i is 1 and EQ is exactly Newman modularity.  Cover similarity uses the
normalized-conditional-entropy NMI for overlapping covers (binary node
membership vectors, average normalization).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import SnapshotGraph
from .membership import Cover


def extended_modularity(cover: Cover, g: SnapshotGraph) -> float:
    """Overlapping modularity of a cover on one snapshot; 0 when M = 0."""
    if g.m == 0:
        return 0.0
    idx = g.node_index
    o_count = cover.membership_counts()
    for i in o_count:
        if i not in idx:
            raise ValueError("cover node %r is not in the snapshot" % (i,))
    inv_o = np.zeros(g.n)
    for i, o in o_count.items():
        inv_o[idx[i]] = 1.0 / o
    adj = g.adjacency
    deg = g.degree_array
    two_m = 2.0 * g.m
    total = 0.0
    for members in cover.communities.values():
        if not members:
            continue
        w = np.zeros(g.n)
        cols = [idx[i] for i in members]
        w[cols] = inv_o[cols]
        total += float(w @ (adj @ w)) - float(deg @ w) ** 2 / two_m
    return total / two_m


def _h(p: float) -> float:
    return -p * math.log(p) if p > 0 else 0.0


def _membership_matrix(cover: Cover, universe: Sequence[int]) -> np.ndarray:
    pos = {v: b for b, v in enumerate(universe)}
    rows = []
    for r in sorted(cover.communities):
        members = cover.communities[r]
        if not members:
            continue
        row = np.zeros(len(universe), dtype=bool)
        for i in members:
            if i not in pos:
                raise ValueError("cover node %r is outside the universe" % (i,))
            row[pos[i]] = True
        rows.append(row)
    if not rows:
        return np.empty((0, len(universe)), dtype=bool)
    return np.stack(rows)


def _conditional_entropy_norm(x: np.ndarray, y: np.ndarray, n: int) -> float:
    """Average over rows of X of min_l H(X_k | Y_l) / H(X_k)."""
    terms = []
    for xk in x:
        p1 = xk.sum() / n
        hx = _h(p1) + _h(1 - p1)
        if hx == 0.0:
            terms.append(0.0)
            continue
        best = hx  # the unconstrained fallback H(X_k)
        for yl in y:
            n11 = np.count_nonzero(xk & yl)
            n10 = np.count_nonzero(xk & ~yl)
            n01 = np.count_nonzero(~xk & yl)
            n00 = n - n11 - n10 - n01
            p11, p10, p01, p00 = (c / n for c in (n11, n10, n01, n00))
            if _h(p11) + _h(p00) < _h(p01) + _h(p10):
                continue
            hy = _h(p01 + p11) + _h(p10 + p00)
            joint = _h(p00) + _h(p01) + _h(p10) + _h(p11)
            best = min(best, joint - hy)
        terms.append(best / hx)
    return float(np.mean(terms))


def overlapping_nmi(x: Cover, y: Cover, universe: Iterable[int]) -> float:
    """Similarity of two overlapping covers, in [0, 1].

    1 - (H(X|Y)_norm + H(Y|X)_norm) / 2 over binary membership vectors,
    with the min-entropy constraint guarding each matched pair.  An empty
    cover scores 0 against a nonempty one and 1 against another empty one.
    """
    uni = tuple(sorted(set(universe)))
    mx = _membership_matrix(x, uni)
    my = _membership_matrix(y, uni)
    if len(mx) == 0 or len(my) == 0:
        return 1.0 if len(mx) == len(my) else 0.0
    n = len(uni)
    if n == 0:
        return 1.0
    hxy = _conditional_entropy_norm(mx, my, n)
    hyx = _conditional_entropy_norm(my, mx, n)
    value = 1.0 - 0.5 * (hxy + hyx)
    return min(1.0, max(0.0, value))


@dataclass
class MetricRow:
    t: int
    nmi: float | None
    modularity: float
    k_detected: int | float  # fractional when averaged across runs


@dataclass
class MetricReport:
    """Per-snapshot quality rows plus mean/std aggregate lines."""

    rows: list[MetricRow]

    def aggregates(self) -> dict[str, tuple[float, float]]:
        out: dict[str, tuple[float, float]] = {}
        nmis = [r.nmi for r in self.rows if r.nmi is not None]
        if nmis:
            out["nmi"] = (float(np.mean(nmis)), float(np.std(nmis)))
        mods = [r.modularity for r in self.rows]
        ks = [float(r.k_detected) for r in self.rows]
        if mods:
            out["modularity"] = (float(np.mean(mods)), float(np.std(mods)))
            out["k_detected"] = (float(np.mean(ks)), float(np.std(ks)))
        return out

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "nmi", "modularity", "k_detected"])
        for r in self.rows:
            writer.writerow([r.t, "" if r.nmi is None else str(r.nmi),
                             str(r.modularity), r.k_detected])
        agg = self.aggregates()
        for stat in ("mean", "std"):
            pick = 0 if stat == "mean" else 1
            writer.writerow([
                stat,
                str(agg["nmi"][pick]) if "nmi" in agg else "",
                str(agg["modularity"][pick]) if "modularity" in agg else "",
                str(agg["k_detected"][pick]) if "k_detected" in agg else "",
            ])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.write_csv(fh)
