"""Cover quality measures and the per-snapshot metric report.

Both scores start from a cover's K x N 0/1 membership matrix X (one row per
nonempty community, in id order).  Extended modularity is Shen's form

    EQ = (1 / 2M) * sum_c sum_{i,j in c} (1 / (O_i O_j)) * (A_ij - k_i k_j / 2M)

where O_i, the column sums of X, counts the communities holding node i.
With W = X / O, community c adds W_c . (A W_c) - (W_c . k)^2 / 2M, all from
one sparse product; ``math.fsum`` rounds the sum once, so EQ depends on the
set of communities, not their order.  On a partition it is Newman modularity.

Cover similarity is the normalized-conditional-entropy NMI for overlapping
covers (binary membership vectors, average normalization), with the pair
counts n11 = X Y^T and the other three from the row sums.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graphs import SnapshotGraph
from .membership import Cover


def _cover_matrix(cover: Cover, index: Mapping[int, int], where: str) -> np.ndarray:
    """K x N 0/1 float matrix over ``index``'s columns, one row per nonempty
    community in sorted id order; a node missing from ``index`` raises."""
    rows = [members for _, members in sorted(cover.communities.items()) if members]
    x = np.zeros((len(rows), len(index)))
    for a, members in enumerate(rows):
        missing = members - index.keys()
        if missing:
            raise ValueError("cover node %r is %s" % (min(missing), where))
        x[a, [index[i] for i in members]] = 1.0
    return x


def extended_modularity(cover: Cover, g: SnapshotGraph) -> float:
    """Overlapping modularity of a cover on one snapshot; 0 when M = 0."""
    if g.m == 0:
        return 0.0
    x = _cover_matrix(cover, g.node_index, "not in the snapshot")
    o = x.sum(axis=0)
    w = np.divide(x, o, out=np.zeros_like(x), where=o > 0)
    # C order, so every row below is summed the same way wherever it sits
    wa = np.ascontiguousarray((g.adjacency @ w.T).T)
    two_m = 2.0 * g.m
    terms = (w * wa).sum(axis=1) - (w * g.degree_array).sum(axis=1) ** 2 / two_m
    return math.fsum(terms) / two_m


def _h(p: np.ndarray) -> np.ndarray:
    """-p log p elementwise, 0 where p = 0."""
    return -p * np.log(p, out=np.zeros_like(p), where=p > 0)


def _conditional_entropy_norm(n11: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                              n: int) -> float:
    """Average over rows k of X of min_l H(X_k | Y_l) / H(X_k), from the pair
    counts n11[k, l] = |X_k & Y_l| and the row sizes sx, sy."""
    n10, n01 = sx[:, None] - n11, sy - n11
    p11, p10, p01, p00 = n11 / n, n10 / n, n01 / n, (n - n11 - n10 - n01) / n
    hx = _h(sx / n) + _h(1 - sx / n)
    hy = _h(p01 + p11) + _h(p10 + p00)
    h11, h10, h01, h00 = map(_h, (p11, p10, p01, p00))
    # the min-entropy constraint skips a pair that looks anti-correlated;
    # H(X_k) itself is the fallback when every pair is skipped
    cond = np.where(h11 + h00 < h01 + h10, np.inf, h00 + h01 + h10 + h11 - hy)
    best = np.minimum(hx, cond.min(axis=1))
    return float(np.mean(np.divide(best, hx, out=np.zeros_like(hx), where=hx != 0)))


def overlapping_nmi(x: Cover, y: Cover, universe: Iterable[int]) -> float:
    """Similarity of two overlapping covers, in [0, 1].

    1 - (H(X|Y)_norm + H(Y|X)_norm) / 2 over binary membership vectors,
    with the min-entropy constraint guarding each matched pair.  An empty
    cover scores 0 against a nonempty one and 1 against another empty one.
    """
    index = {v: b for b, v in enumerate(sorted(set(universe)))}
    mx, my = (_cover_matrix(c, index, "outside the universe") for c in (x, y))
    if len(mx) == 0 or len(my) == 0:
        return 1.0 if len(mx) == len(my) else 0.0
    n = len(index)
    n11, sx, sy = mx @ my.T, mx.sum(axis=1), my.sum(axis=1)
    hxy = _conditional_entropy_norm(n11, sx, sy, n)
    hyx = _conditional_entropy_norm(n11.T, sy, sx, n)
    return min(1.0, max(0.0, 1.0 - 0.5 * (hxy + hyx)))


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
