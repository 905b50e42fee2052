"""Output checks for the files the dyncomm CLI writes.

Each check returns a list of problems; an empty list means the output
passed.  A check never raises: a file that cannot be read or parsed is
reported as a problem, so one bad output counts as a failed operation
instead of ending the run.  The files are parsed here, not with dyncomm's
own loaders, so a loader bug cannot hide a bad output.
"""
from __future__ import annotations

import math

CSV_HEADER = "t,nmi,modularity,k_detected"


def read_network(path) -> dict[int, tuple[set[int], int]]:
    """t -> (node set, edge count) from a ``t u v`` / ``t n i`` file."""
    nodes: dict[int, set[int]] = {}
    edges: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            if len(toks) != 3:
                raise ValueError("%s line %d: expected 3 fields" % (path, lineno))
            t = int(toks[0])
            snap = nodes.setdefault(t, set())
            edges.setdefault(t, 0)
            if toks[1] == "n":
                snap.add(int(toks[2]))
            else:
                snap.update((int(toks[1]), int(toks[2])))
                edges[t] += 1
    return {t: (nodes[t], edges[t]) for t in sorted(nodes)}


def read_covers(path) -> dict[int, dict[int, set[int]]]:
    """t -> community -> members, from ``t community node weight`` lines."""
    out: dict[int, dict[int, set[int]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            if len(toks) != 4:
                raise ValueError("%s line %d: expected 4 fields" % (path, lineno))
            t, r, i = int(toks[0]), int(toks[1]), int(toks[2])
            w = float(toks[3])
            if not math.isfinite(w) or w <= 0:
                raise ValueError("%s line %d: weight %r" % (path, lineno, toks[3]))
            out.setdefault(t, {}).setdefault(r, set()).add(i)
    return out


def read_metrics(path) -> tuple[list[list[str]], dict[str, list[str]]]:
    """Per-snapshot rows and the mean/std footer rows of a metrics CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("%s: header is not %r" % (path, CSV_HEADER))
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 4 for row in rows):
        raise ValueError("%s: a row does not have 4 fields" % path)
    if len(rows) < 2 or [rows[-2][0], rows[-1][0]] != ["mean", "std"]:
        raise ValueError("%s: mean and std rows missing at the end" % path)
    return rows[:-2], {"mean": rows[-2], "std": rows[-1]}


def _guard(fn) -> list[str]:
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ["%s: %s" % (type(exc).__name__, exc)]


def check_covers(path, snapshots: dict[int, tuple[set[int], int]]) -> list[str]:
    """Every snapshot has a nonempty cover whose nodes are in that snapshot."""
    def run():
        covers = read_covers(path)
        problems = []
        if set(covers) != set(snapshots):
            problems.append("%s: snapshots %s, network has %s"
                            % (path, sorted(covers), sorted(snapshots)))
        for t, comms in covers.items():
            outside = set().union(*comms.values()) - snapshots.get(t, (set(), 0))[0]
            if outside:
                problems.append("%s: t=%d names %d nodes outside the snapshot"
                                % (path, t, len(outside)))
        return problems
    return _guard(run)


def check_metrics(path, snapshots: dict[int, tuple[set[int], int]]) -> list[str]:
    """Schema ``t,nmi,modularity,k_detected``, one row per snapshot in order,
    every value a finite number, NMI in [0, 1], then mean and std rows."""
    def run():
        rows, footer = read_metrics(path)
        problems = []
        if [int(row[0]) for row in rows] != sorted(snapshots):
            problems.append("%s: rows for t=%s, network has %s"
                            % (path, [row[0] for row in rows], sorted(snapshots)))
        for row in rows + list(footer.values()):
            values = [float(x) for x in row[1:]]
            if not all(math.isfinite(v) for v in values):
                problems.append("%s: non-finite value in %s" % (path, row))
            elif not 0.0 <= values[0] <= 1.0:
                problems.append("%s: nmi %s outside [0, 1]" % (path, row[1]))
        return problems
    return _guard(run)


def check_k(metrics_path, covers_path) -> list[str]:
    """The k_detected column counts the communities written to covers.txt."""
    def run():
        rows, _ = read_metrics(metrics_path)
        covers = read_covers(covers_path)
        return ["%s: t=%s k_detected=%s, covers hold %d"
                % (metrics_path, row[0], row[3], len(covers.get(int(row[0]), {})))
                for row in rows
                if float(row[3]) != len(covers.get(int(row[0]), {}))]
    return _guard(run)


def check_generated(network, truth) -> list[str]:
    """The generated network parses, and truth covers every snapshot with
    nodes of that snapshot."""
    def run():
        snaps = read_network(network)
        if not snaps or not all(m > 0 for _, m in snaps.values()):
            return ["%s: empty snapshot or no snapshots" % network]
        return check_covers(truth, snaps)
    return _guard(run)


def same_bytes(a, b) -> list[str]:
    """Two outputs of the same command and seed must be byte-identical."""
    def run():
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                return ["%s differs from %s" % (b, a)]
        return []
    return _guard(run)


def quality(metrics_path, truth_path) -> dict[str, float]:
    """nmi_mean and modularity_mean from the CSV mean row, and the mean over
    snapshots of |K detected - K planted|."""
    rows, footer = read_metrics(metrics_path)
    planted = {t: sum(1 for members in comms.values() if members)
               for t, comms in read_covers(truth_path).items()}
    errors = [abs(float(row[3]) - planted[int(row[0])]) for row in rows]
    return {"nmi_mean": float(footer["mean"][1]),
            "modularity_mean": float(footer["mean"][2]),
            "k_abs_err": sum(errors) / len(errors)}
