"""Synthetic dynamic networks with planted overlapping communities.

Membership planting, scripted evolution events (birth, death, expand,
contract, merge, split) with per-step churn, and model-consistent edge
sampling: every community spreads its importance uniformly over its
members, so within-community edges are uniform member pairs and a mixing
fraction of edges is background noise.  The generator is the recovery
oracle for the sampler, so stable community ids and an exact ground-truth
K series matter more here than degree-sequence realism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DynamicNetwork, SnapshotGraph
from .membership import Cover

# the keys each event kind reads; giving it any other key is an error
EVENT_KEYS = {"birth": ("size",), "death": ("community",),
              "expand": ("community", "size"), "contract": ("community", "size"),
              "merge": ("community", "other"), "split": ("community",)}
EVENT_KINDS = tuple(EVENT_KEYS)


class GenError(ValueError):
    """Invalid generator configuration, schedule, or infeasible target."""


@dataclass(frozen=True)
class GenConfig:
    n: int
    k: int
    overlap_nodes: int = 0
    memberships_per_overlap: int = 2
    mixing: float = 0.0
    avg_degree: float = 10.0
    max_degree: int | None = None
    t: int = 1
    churn: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.k < 1:
            raise GenError("need n >= 2 and k >= 1")
        if not 0 <= self.overlap_nodes <= self.n:
            raise GenError("overlap_nodes must lie in [0, n]")
        if self.memberships_per_overlap < 2:
            raise GenError("memberships_per_overlap must be >= 2")
        if self.overlap_nodes > 0 and self.k < self.memberships_per_overlap:
            raise GenError("k=%d communities cannot host %d distinct memberships"
                           % (self.k, self.memberships_per_overlap))
        if not 0 <= self.mixing < 1:
            raise GenError("mixing must lie in [0, 1)")
        if not 0 <= self.churn < 1:
            raise GenError("churn must lie in [0, 1)")
        if self.t < 1:
            raise GenError("t must be >= 1")
        if not 0 < self.avg_degree < math.inf:
            raise GenError("avg_degree must be positive and finite, got %r" % (self.avg_degree,))
        if self.avg_degree * self.n / 2 > self.n * (self.n - 1) / 2:
            raise GenError("avg_degree target exceeds a simple graph's capacity")
        if self.max_degree is not None and self.max_degree < 1:
            raise GenError("max_degree must be positive when given")


@dataclass(frozen=True)
class Event:
    """One scripted change at snapshot t (t >= 2).

    ``community`` (and ``other`` for merge) name targets by id; None means
    the generator picks uniformly among live communities.  ``size`` is the
    born community's member count, or q for expand/contract; when given it
    is at least 1.  A kind takes only the keys it reads (``EVENT_KEYS``):
    a birth names no community, only a merge names an ``other``, and a
    death, merge or split takes no size.
    """

    t: int
    kind: str
    community: int | None = None
    other: int | None = None
    size: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise GenError("unknown event kind %r" % (self.kind,))
        if self.t < 2:
            raise GenError("events start at snapshot 2, got t=%d" % self.t)
        for key in ("community", "other", "size"):
            if getattr(self, key) is not None and key not in EVENT_KEYS[self.kind]:
                raise GenError("a %s event takes no %s" % (self.kind, key))
        if self.size is not None and self.size < 1:
            raise GenError("event size must be >= 1, got %d" % self.size)


@dataclass(frozen=True)
class GenSchedule:
    events: tuple[Event, ...] = ()

    def for_snapshot(self, t: int) -> list[Event]:
        return [e for e in self.events if e.t == t]

    def k_series(self, k0: int, t_count: int) -> list[int]:
        """Analytic community-count series: birth/split +1, death/merge -1."""
        delta = {"birth": 1, "split": 1, "death": -1, "merge": -1,
                 "expand": 0, "contract": 0}
        out = [k0]
        for t in range(2, t_count + 1):
            out.append(out[-1] + sum(delta[e.kind] for e in self.for_snapshot(t)))
        return out


@dataclass
class GroundTruth:
    """Planted covers per snapshot and the community-count series."""

    covers: list[Cover]
    k_series: list[int]


# ---------------------------------------------------------------- membership


class _Memberships:
    """Mutable planted state: community -> members and its inverse."""

    def __init__(self, communities: dict[int, set[int]]):
        self.communities = {c: set(m) for c, m in communities.items()}
        self.of_node: dict[int, set[int]] = {}
        for c, members in self.communities.items():
            for i in members:
                self.of_node.setdefault(i, set()).add(c)
        self.next_id = max(self.communities, default=-1) + 1

    def live(self) -> list[int]:
        return sorted(self.communities)

    def fresh_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    def add(self, node: int, cid: int) -> None:
        self.communities[cid].add(node)
        self.of_node.setdefault(node, set()).add(cid)

    def drop(self, node: int, cid: int) -> None:
        self.communities[cid].discard(node)
        self.of_node[node].discard(cid)

    def droppable(self, node: int) -> list[int]:
        # memberships this node could leave without emptying the community
        return sorted(c for c in self.of_node.get(node, ())
                      if len(self.communities[c]) >= 2)

    def cover(self) -> Cover:
        return Cover({c: set(m) for c, m in self.communities.items() if m})


def _pick(rng: np.random.Generator, items: list[int]) -> int:
    return items[int(rng.integers(0, len(items)))]


def plant_memberships(cfg: GenConfig, rng: np.random.Generator) -> GroundTruth:
    """Initial planting: balanced single memberships round-robin over the k
    communities, then overlap_nodes nodes re-planted with om distinct ones."""
    overlap = sorted(int(i) for i in
                     rng.choice(cfg.n, size=cfg.overlap_nodes, replace=False))
    overlap_set = set(overlap)
    communities: dict[int, set[int]] = {c: set() for c in range(cfg.k)}
    slot = 0
    for i in range(cfg.n):
        if i in overlap_set:
            continue
        communities[slot % cfg.k].add(i)
        slot += 1
    for i in overlap:
        chosen = rng.choice(cfg.k, size=cfg.memberships_per_overlap, replace=False)
        for c in chosen:
            communities[int(c)].add(i)
    state = _Memberships(communities)
    return GroundTruth([state.cover()], [len(state.live())])


# ---------------------------------------------------------------- events


def _churn_step(state: _Memberships, cfg: GenConfig, rng: np.random.Generator) -> None:
    count = int(cfg.churn * cfg.n)
    if count == 0:
        return
    singles = sorted(i for i, cs in state.of_node.items() if len(cs) == 1)
    if not singles:
        return
    picked = rng.choice(len(singles), size=min(count, len(singles)), replace=False)
    for idx in picked:
        node = singles[int(idx)]
        current = next(iter(state.of_node[node]))
        if len(state.communities[current]) < 2:
            continue  # would orphan the community; skip this node
        targets = [c for c in state.live() if c != current]
        if not targets:
            continue
        state.drop(node, current)
        state.add(node, _pick(rng, targets))


def _move_node_into(state: _Memberships, cid: int, rng: np.random.Generator,
                    exclude: set[int]) -> bool:
    """Move one random eligible node into cid, dropping one old membership."""
    # a node has a droppable membership iff it shares one with this set
    big = {c for c, members in state.communities.items() if len(members) >= 2}
    candidates = sorted(i for i, cs in state.of_node.items()
                        if i not in exclude and cid not in cs and not cs.isdisjoint(big))
    if not candidates:
        return False
    node = _pick(rng, candidates)
    state.drop(node, _pick(rng, state.droppable(node)))
    state.add(node, cid)
    return True


def _resolve(state: _Memberships, named: int | None, rng: np.random.Generator,
             but: int | None = None) -> int:
    live = [c for c in state.live() if c != but]
    if named is not None:
        if named not in state.communities:
            raise GenError("event targets dead community %d" % named)
        return named
    if not live:
        raise GenError("no live community available for event")
    return _pick(rng, live)


def _apply_event(state: _Memberships, ev: Event, cfg: GenConfig,
                 rng: np.random.Generator) -> None:
    if ev.kind == "birth":
        size = ev.size if ev.size else max(3, round(0.5 * cfg.n / max(1, len(state.live()))))
        cid = state.fresh_id()
        state.communities[cid] = set()
        moved = 0
        while moved < size:
            if not _move_node_into(state, cid, rng, exclude=state.communities[cid]):
                raise GenError("birth of size %d infeasible at t=%d" % (size, ev.t))
            moved += 1
    elif ev.kind == "death":
        cid = _resolve(state, ev.community, rng)
        if len(state.live()) < 2:
            raise GenError("death would remove the last community")
        members = sorted(state.communities.pop(cid))
        for node in members:
            state.of_node[node].discard(cid)
            if not state.of_node[node]:
                state.add(node, _pick(rng, state.live()))
    elif ev.kind == "expand":
        cid = _resolve(state, ev.community, rng)
        q = ev.size if ev.size else max(1, round(0.05 * cfg.n))
        for _ in range(q):
            if not _move_node_into(state, cid, rng, exclude=set()):
                raise GenError("expand by %d infeasible at t=%d" % (q, ev.t))
    elif ev.kind == "contract":
        cid = _resolve(state, ev.community, rng)
        q = ev.size if ev.size else max(1, round(0.05 * cfg.n))
        members = sorted(state.communities[cid])
        q = min(q, len(members) - 1)  # never empty the community
        if q < 1:
            return
        picked = rng.choice(len(members), size=q, replace=False)
        others = [c for c in state.live() if c != cid]
        for idx in picked:
            node = members[int(idx)]
            state.drop(node, cid)
            if not state.of_node[node]:
                if not others:
                    raise GenError("contract stranded a node with no community")
                state.add(node, _pick(rng, others))
    elif ev.kind == "merge":
        a = _resolve(state, ev.community, rng)
        b = _resolve(state, ev.other, rng, but=a)
        if a == b:
            raise GenError("merge needs two distinct communities")
        for node in sorted(state.communities.pop(b)):
            state.of_node[node].discard(b)
            state.add(node, a)
    elif ev.kind == "split":
        cid = _resolve(state, ev.community, rng)
        members = sorted(state.communities[cid])
        if len(members) < 2:
            raise GenError("community %d too small to split" % cid)
        order = rng.permutation(len(members))
        keep = (len(members) + 1) // 2
        fresh = state.fresh_id()
        state.communities[fresh] = set()
        for idx in order[keep:]:
            node = members[int(idx)]
            state.drop(node, cid)
            state.add(node, fresh)


def apply_events(truth: GroundTruth, sched: GenSchedule, cfg: GenConfig,
                 rng: np.random.Generator) -> GroundTruth:
    """Roll the snapshot-1 planting forward: churn, then that snapshot's
    events, for t = 2..cfg.t.  Community ids are stable through time."""
    for ev in sched.events:
        if ev.t > cfg.t:
            raise GenError("event at t=%d but the run has only %d snapshots"
                           % (ev.t, cfg.t))
    first = truth.covers[0]
    state = _Memberships({c: set(m) for c, m in first.communities.items()})
    covers = [state.cover()]
    ks = [len(state.live())]
    for t in range(2, cfg.t + 1):
        _churn_step(state, cfg, rng)
        for ev in sched.for_snapshot(t):
            _apply_event(state, ev, cfg, rng)
        covers.append(state.cover())
        ks.append(len(state.live()))
    return GroundTruth(covers, ks)


# ---------------------------------------------------------------- edge sampling


# fewest attempts a rejection round draws: a pool a few edges short of its
# budget rejects most attempts, and one call per edge would cost more than
# the attempts it checks
_ROUND = 256


def _apportion(total: int, sizes: list[int]) -> list[int]:
    # Proportional to community size (largest remainder), so every member
    # sees the same expected within-community degree.  Small communities
    # saturate near their pair capacity and the excess cascades to ones
    # with room left; only a globally full budget is a hard error.  The
    # ceiling stays below a full clique because a pair shared with an
    # earlier-placed overlapping community would make the last edges
    # unplaceable.
    caps = [int(0.9 * (s * (s - 1) // 2)) for s in sizes]
    if total > sum(caps):
        raise GenError("within-community budget of %d edges exceeds the %d "
                       "pairs the planted communities hold" % (total, sum(caps)))
    out = [0] * len(sizes)
    active = [c for c in range(len(sizes)) if caps[c] > 0]
    remaining = total
    while remaining > 0:
        weight = float(sum(sizes[c] for c in active))
        raw = {c: remaining * sizes[c] / weight for c in active}
        grant = {c: int(raw[c]) for c in active}
        short = remaining - sum(grant.values())
        order = sorted(active, key=lambda c: raw[c] - grant[c], reverse=True)
        for c in order[:short]:
            grant[c] += 1
        remaining = 0
        next_active = []
        for c in active:
            take = min(out[c] + grant[c], caps[c])
            remaining += out[c] + grant[c] - take
            out[c] = take
            if take < caps[c]:
                next_active.append(c)
        active = next_active
    return out


def generate_snapshot(cover: Cover, cfg: GenConfig, rng: np.random.Generator,
                      t: int = 1) -> SnapshotGraph:
    """Sample one snapshot for a planted cover.

    Within-community edges are uniform member pairs (the planted importance
    vectors are uniform over members), apportioned to communities by size;
    a ``mixing`` fraction of the edge budget becomes uniform background
    pairs.  Simple-graph and max-degree constraints hold by rejection.  A
    pool whose rejection loop runs out of attempts places the rest exactly,
    uniformly among its pairs that are not edges yet and whose endpoints
    both have room; what a community still cannot place goes to the
    background budget, and only a background that cannot be placed either
    is an error.

    Each rejection attempt draws its two endpoints from the pool, and the
    attempts are drawn a round at a time in one ``rng.integers`` call.  A
    batched call yields the values of as many scalar calls and leaves the
    generator in the same state, so the edges and the stream are those of
    drawing attempt by attempt.  A round draws one attempt per missing
    edge, at least ``_ROUND`` and never past the attempt limit.  Each
    attempt places at most one edge, so only a round padded up to
    ``_ROUND`` can fill the pool before its end; then the state saved
    before the round is restored and only the attempts that ran are drawn
    again.  Exact placement keeps its candidate pairs in order in a list,
    pops each pick, and drops the pairs that lost room only when a seated
    endpoint reaches the degree cap.
    """
    nodes = cover.covered_nodes()
    if nodes != set(range(cfg.n)):
        raise GenError("planted cover must assign every node a community")
    n = cfg.n
    total = round(n * cfg.avg_degree / 2)
    within_target = round((1.0 - cfg.mixing) * total)
    bg_target = total - within_target
    cids = sorted(c for c in cover.communities if cover.communities[c])
    member_lists = {c: sorted(cover.communities[c]) for c in cids}
    budgets = _apportion(within_target, [len(member_lists[c]) for c in cids])
    cap = cfg.max_degree if cfg.max_degree is not None else n
    deg = [0] * n
    edges: set[int] = set()  # i * n + j for each edge i < j

    def place(pool: list[int], want: int) -> int:
        """Place ``want`` edges among the sorted ``pool``; return how many
        could not be placed."""
        members = np.asarray(pool, dtype=np.int64)
        limit = 200 * want + 200
        attempts = placed = 0
        while placed < want and attempts < limit:
            drawn = min(max(want - placed, _ROUND), limit - attempts)
            saved = rng.bit_generator.state
            ends = members[rng.integers(0, len(pool), size=2 * drawn)].tolist()
            used = 0
            for i, j in zip(ends[::2], ends[1::2]):
                used += 1
                if i == j or deg[i] >= cap or deg[j] >= cap:
                    continue
                key = i * n + j if i < j else j * n + i
                if key in edges:
                    continue
                edges.add(key)
                deg[i] += 1
                deg[j] += 1
                placed += 1
                if placed == want:
                    break
            attempts += used
            if used < drawn:
                rng.bit_generator.state = saved
                rng.integers(0, len(pool), size=2 * used)
        if placed == want:
            return 0
        upper, lower = np.triu_indices(len(members), 1)
        i, j = members[upper], members[lower]
        taken = np.fromiter(edges, dtype=np.int64, count=len(edges))
        room = np.asarray(deg) < cap
        keep = ~np.isin(i * n + j, taken) & room[i] & room[j]
        pairs = list(zip(i[keep].tolist(), j[keep].tolist()))
        while placed < want and pairs:
            a, b = pairs.pop(int(rng.integers(0, len(pairs))))
            edges.add(a * n + b)
            deg[a] += 1
            deg[b] += 1
            placed += 1
            if deg[a] >= cap or deg[b] >= cap:
                pairs = [(x, y) for x, y in pairs if deg[x] < cap and deg[y] < cap]
        return want - placed

    short = 0
    for c, m_c in zip(cids, budgets):
        short += place(member_lists[c], m_c)
    missing = place(list(range(n)), bg_target + short)
    if missing:
        raise GenError("degree target infeasible: placed %d of %d background edges"
                       % (bg_target + short - missing, bg_target + short))
    keys = np.sort(np.fromiter(edges, dtype=np.int64, count=len(edges)))
    return SnapshotGraph(range(n), np.column_stack((keys // n, keys % n)), t=t)


def generate_dynamic(cfg: GenConfig,
                     sched: GenSchedule | None = None) -> tuple[DynamicNetwork, GroundTruth]:
    """Full pipeline: plant, evolve, and sample every snapshot.

    One generator seeded from cfg.seed drives everything, so equal configs
    produce identical networks and truth.
    """
    sched = sched if sched is not None else GenSchedule()
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    truth = apply_events(truth, sched, cfg, rng)
    snaps = [generate_snapshot(cover, cfg, rng, t=t)
             for t, cover in enumerate(truth.covers, start=1)]
    return DynamicNetwork(snaps), truth


# ---------------------------------------------------------------- schedules


def load_schedule(path) -> GenSchedule:
    """Parse an event script: lines `t kind [community=N] [other=N] [size=N]`,
    comments with `#`.  Merge also accepts a=/b= for its two targets, and
    q= stands for size.  A key given twice on a line, under either of its
    names, is an error."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) < 2:
                raise GenError("line %d: expected 't kind ...'" % lineno)
            try:
                t = int(toks[0])
            except ValueError:
                raise GenError("line %d: bad snapshot index %r" % (lineno, toks[0])) from None
            kind = toks[1]
            kwargs: dict[str, int] = {}
            alias = {"a": "community", "b": "other", "q": "size",
                     "community": "community", "other": "other", "size": "size"}
            for tok in toks[2:]:
                if "=" not in tok:
                    raise GenError("line %d: expected key=value, got %r" % (lineno, tok))
                key, _, val = tok.partition("=")
                if key not in alias:
                    raise GenError("line %d: unknown key %r" % (lineno, key))
                if alias[key] in kwargs:
                    raise GenError("line %d: key %r given twice" % (lineno, alias[key]))
                try:
                    kwargs[alias[key]] = int(val)
                except ValueError:
                    raise GenError("line %d: bad value %r" % (lineno, val)) from None
            try:
                events.append(Event(t, kind, **kwargs))
            except GenError as exc:
                raise GenError("line %d: %s" % (lineno, exc)) from None
    return GenSchedule(tuple(events))


def _alternating_birth_death(t_count: int) -> GenSchedule:
    # one birth and one death per step keeps K constant while forcing the
    # membership structure to keep moving
    events = []
    for t in range(2, t_count + 1):
        events.append(Event(t, "birth"))
        events.append(Event(t, "death"))
    return GenSchedule(tuple(events))


def preset(name: str, seed: int = 0) -> tuple[GenConfig, GenSchedule]:
    """Named benchmark configurations with their event scripts."""
    if name == "birthdeath-t1":
        cfg = GenConfig(n=1000, k=20, overlap_nodes=40, memberships_per_overlap=4,
                        mixing=0.3, avg_degree=40, max_degree=60, t=10,
                        churn=0.1, seed=seed)
        return cfg, _alternating_birth_death(cfg.t)
    if name == "birthdeath-t2":
        cfg = GenConfig(n=500, k=10, overlap_nodes=20, memberships_per_overlap=3,
                        mixing=0.2, avg_degree=30, max_degree=50, t=9,
                        churn=0.1, seed=seed)
        return cfg, _alternating_birth_death(cfg.t)
    raise GenError("unknown preset %r (have: birthdeath-t1, birthdeath-t2)" % (name,))
