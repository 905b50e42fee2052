"""Benchmark generator: planting, events, churn, and edge sampling."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncomm.benchgen import (
    Event,
    GenConfig,
    GenError,
    GenSchedule,
    apply_events,
    generate_dynamic,
    generate_snapshot,
    load_schedule,
    plant_memberships,
    preset,
)
from dyncomm.membership import Cover
from reference import generate_snapshot_per_attempt, validate


def membership_map(cover):
    out = {}
    for cid, members in cover.communities.items():
        for i in members:
            out.setdefault(i, set()).add(cid)
    return out


# ---------------------------------------------------------------- config


def test_config_rejects_too_few_communities_for_overlap():
    with pytest.raises(GenError):
        GenConfig(n=500, k=2, overlap_nodes=20, memberships_per_overlap=3)


def test_config_rejects_bad_ranges():
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, mixing=1.0)
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, churn=1.5)
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, overlap_nodes=101)
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, memberships_per_overlap=1)
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, avg_degree=200.0)
    with pytest.raises(GenError):
        GenConfig(n=100, k=4, t=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -2.0])
def test_config_rejects_a_non_positive_or_non_finite_avg_degree(value):
    # avg_degree=nan once passed the capacity check and failed in the
    # generator with "cannot convert float NaN to integer"
    with pytest.raises(GenError, match="avg_degree must be positive and finite"):
        GenConfig(n=100, k=4, avg_degree=value)


def test_overlap_free_config_allows_small_k():
    cfg = GenConfig(n=100, k=1, overlap_nodes=0)
    assert cfg.memberships_per_overlap == 2


# ---------------------------------------------------------------- planting


def test_plant_splits_single_and_overlap_nodes():
    cfg = GenConfig(n=500, k=10, overlap_nodes=20, memberships_per_overlap=3,
                    seed=3)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    cover = truth.covers[0]
    assert truth.k_series == [10]
    assert cover.covered_nodes() == set(range(500))
    counts = cover.membership_counts()
    singles = [i for i in range(500) if counts[i] == 1]
    overlaps = [i for i in range(500) if counts[i] == 3]
    assert len(singles) == 480
    assert len(overlaps) == 20
    assert len(singles) + len(overlaps) == 500


def test_plant_balances_single_memberships():
    for trial in range(5):
        cfg = GenConfig(n=103, k=4, overlap_nodes=7, memberships_per_overlap=2,
                        seed=trial)
        rng = np.random.default_rng(cfg.seed)
        cover = plant_memberships(cfg, rng).covers[0]
        counts = cover.membership_counts()
        per_comm = []
        for cid, members in cover.communities.items():
            per_comm.append(sum(1 for i in members if counts[i] == 1))
        assert max(per_comm) - min(per_comm) <= 1
        # 96 singles over 4 communities
        assert sum(per_comm) == 96


def test_plant_overlap_memberships_are_distinct():
    cfg = GenConfig(n=60, k=5, overlap_nodes=12, memberships_per_overlap=4, seed=9)
    cover = plant_memberships(cfg, np.random.default_rng(9)).covers[0]
    by_node = membership_map(cover)
    heavy = [i for i, cs in by_node.items() if len(cs) > 1]
    assert len(heavy) == 12
    for i in heavy:
        assert len(by_node[i]) == 4


# ---------------------------------------------------------------- snapshots


def test_snapshot_hits_degree_target_and_validates():
    cfg = GenConfig(n=500, k=10, overlap_nodes=20, memberships_per_overlap=3,
                    mixing=0.2, avg_degree=30, seed=11)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    g = generate_snapshot(truth.covers[0], cfg, rng)
    assert validate(g) == []
    mean_deg = 2 * g.m / cfg.n
    assert abs(mean_deg - 30) / 30 < 0.1


def test_snapshot_respects_max_degree():
    cfg = GenConfig(n=300, k=6, overlap_nodes=12, memberships_per_overlap=3,
                    mixing=0.2, avg_degree=20, max_degree=30, seed=4)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    g = generate_snapshot(truth.covers[0], cfg, rng)
    assert max(g.degrees.values()) <= 30


def test_zero_mixing_keeps_every_edge_inside_a_community():
    cfg = GenConfig(n=200, k=4, overlap_nodes=0, mixing=0.0, avg_degree=12,
                    seed=2)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    g = generate_snapshot(truth.covers[0], cfg, rng)
    by_node = membership_map(truth.covers[0])
    intra = sum(1 for u, v in g.edges if by_node[u] & by_node[v])
    assert intra == g.m
    assert intra / g.m >= 0.95


def test_mixing_fraction_lands_near_target():
    cfg = GenConfig(n=400, k=8, overlap_nodes=0, mixing=0.3, avg_degree=16,
                    seed=5)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    g = generate_snapshot(truth.covers[0], cfg, rng)
    by_node = membership_map(truth.covers[0])
    inter = sum(1 for u, v in g.edges if not (by_node[u] & by_node[v]))
    # background pairs occasionally land inside a community, so the
    # observed inter-community fraction sits at or below the mixing rate
    assert inter / g.m <= 0.3 + 0.02
    assert inter / g.m >= 0.3 * 0.7


def test_overlap_nodes_collect_more_edges():
    cfg = GenConfig(n=300, k=6, overlap_nodes=15, memberships_per_overlap=3,
                    mixing=0.1, avg_degree=16, seed=8)
    rng = np.random.default_rng(cfg.seed)
    truth = plant_memberships(cfg, rng)
    g = generate_snapshot(truth.covers[0], cfg, rng)
    counts = truth.covers[0].membership_counts()
    deg_overlap = np.mean([g.degrees[i] for i in range(300) if counts[i] == 3])
    deg_single = np.mean([g.degrees[i] for i in range(300) if counts[i] == 1])
    assert deg_overlap > deg_single


def test_snapshot_rejects_impossible_community_budget():
    # two tiny communities cannot carry a degree-20 target
    cfg = GenConfig(n=6, k=2, avg_degree=4.8, mixing=0.0, seed=0)
    rng = np.random.default_rng(0)
    truth = plant_memberships(cfg, rng)
    with pytest.raises(GenError):
        generate_snapshot(truth.covers[0], cfg, rng)


def test_short_community_passes_its_edges_to_the_background():
    # communities 0 and 1 share all 15 pairs of nodes 0-5 and are granted 10
    # edges each, so community 1 runs out of pairs 5 edges short and the
    # background, budgeted 0 at mixing 0, places those 5 instead
    cover = Cover({0: set(range(6)), 1: set(range(6)), 2: set(range(6, 30))})
    cfg = GenConfig(n=30, k=3, mixing=0.0, avg_degree=4, seed=0)
    g = generate_snapshot(cover, cfg, np.random.default_rng(0))
    assert validate(g) == []
    assert g.m == 60
    assert {(i, j) for i in range(6) for j in range(i + 1, 6)} <= set(g.edges)


def test_snapshot_raises_when_the_background_cannot_take_the_shortfall():
    cover = Cover({0: set(range(30))})
    cfg = GenConfig(n=30, k=1, mixing=0.0, avg_degree=4, max_degree=1, seed=0)
    with pytest.raises(GenError, match="degree target infeasible"):
        generate_snapshot(cover, cfg, np.random.default_rng(0))


def assert_preset_generates(name, seed, m, max_degree):
    net, _ = generate_dynamic(*preset(name, seed=seed))
    for g in net:
        assert g.m == m
        assert validate(g) == []
        assert int(g.degree_array.max()) <= max_degree


# birthdeath-t2 seeds whose born communities ran out of rejection attempts
# before their last edges were placed exactly
@pytest.mark.parametrize("seed", [12, 40, 43, 53, 70, 74, 79, 82])
def test_t2_preset_generates_when_rejection_runs_out(seed):
    assert_preset_generates("birthdeath-t2", seed, 7500, 50)


# birthdeath-t1 places 20,000 edges per snapshot at max degree 60 over ten
# snapshots, the largest preset
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_t1_preset_generates(seed):
    assert_preset_generates("birthdeath-t1", seed, 20000, 60)


def preset_digests(name, seed):
    """sha256 of every snapshot's edge array and of the truth covers."""
    net, truth = generate_dynamic(*preset(name, seed))
    edges = hashlib.sha256()
    for g in net:
        edges.update(np.ascontiguousarray(g.edge_array, dtype=np.int64).tobytes())
    covers = hashlib.sha256()
    for cover in truth.covers:
        for cid in sorted(cover.communities):
            members = ",".join(map(str, sorted(cover.communities[cid])))
            covers.update(("%d:%s;" % (cid, members)).encode())
        covers.update(b"|")
    return edges.hexdigest(), covers.hexdigest()


# seed 1 places every edge by rejection; seed 12 runs a born community out
# of attempts and places its last edges exactly
@pytest.mark.parametrize("seed, edges, covers", [
    (1, "f7ae820fb0620ab8d5e54ccf95d20de55aff2de30d9db6ba6a9edbf2b9cb1618",
     "f5046815403517397f8954b3153782d1cb813f579227d50f7b89db6a5a5c79c6"),
    (12, "59a8038af7e7c5f61f6c3570f9e13b8ca7789f08c38d0cc1b59b417333201d9f",
     "e647cf01f6d47202cd4e10c52907c871ab042f16d800f45c8a25b1911d8413c6"),
])
def test_t2_preset_bytes_are_pinned(seed, edges, covers):
    assert preset_digests("birthdeath-t2", seed) == (edges, covers)


@st.composite
def snapshot_cases(draw):
    """A small overlapping cover of every node and a config for it."""
    n = draw(st.integers(2, 20))
    k = draw(st.integers(1, 4))
    communities = {c: set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
                   for c in range(k)}
    for i in range(n):
        if not any(i in members for members in communities.values()):
            communities[draw(st.integers(0, k - 1))].add(i)
    avg_degree = draw(st.integers(1, n - 1))
    # a max degree equal to the average leaves every node at the cap, so
    # the last edges are placed exactly among the few nodes with room
    max_degree = draw(st.one_of(st.none(), st.integers(1, n), st.just(avg_degree)))
    cfg = GenConfig(n=n, k=k, mixing=draw(st.sampled_from([0.0, 0.1, 0.5])),
                    avg_degree=avg_degree, max_degree=max_degree,
                    seed=draw(st.integers(0, 2**16)))
    return Cover(communities), cfg


def outcome(generate, cover, cfg):
    rng = np.random.default_rng(cfg.seed)
    try:
        result = generate(cover, cfg, rng).edges
    except GenError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@given(case=snapshot_cases())
# communities 0 and 1 share every pair, so 1 runs short and the background
# takes the rest
@example(case=(Cover({0: set(range(6)), 1: set(range(6)), 2: set(range(6, 30))}),
               GenConfig(n=30, k=3, mixing=0.0, avg_degree=4, seed=0)))
# nodes 0-9 sit in two communities and fill up at degree 5: community 1
# falls back to exact placement and passes its shortfall to the background
@example(case=(Cover({0: set(range(10)), 1: set(range(10)), 2: set(range(10, 40))}),
               GenConfig(n=40, k=3, mixing=0.1, avg_degree=4, max_degree=5, seed=0)))
# max degree 4 at average degree 4: the background runs out of attempts
# with a few nodes one edge short, and each edge it places exactly fills
# its endpoints, so the candidates must drop every pair they were in
@example(case=(Cover({0: set(range(60))}),
               GenConfig(n=60, k=1, mixing=0.05, avg_degree=4, max_degree=4, seed=1)))
# infeasible: no background edge fits under max degree 1
@example(case=(Cover({0: set(range(30))}),
               GenConfig(n=30, k=1, mixing=0.0, avg_degree=4, max_degree=1, seed=0)))
# rounds of more attempts than the shortest round
@example(case=(Cover({0: set(range(60))}),
               GenConfig(n=60, k=1, mixing=0.2, avg_degree=20, seed=0)))
@settings(max_examples=100, deadline=None)
def test_snapshot_matches_per_attempt_reference(case):
    cover, cfg = case
    assert (outcome(generate_snapshot, cover, cfg)
            == outcome(generate_snapshot_per_attempt, cover, cfg))


def test_snapshot_requires_full_cover():
    cfg = GenConfig(n=10, k=2, avg_degree=3, seed=0)
    rng = np.random.default_rng(0)
    truth = plant_memberships(cfg, rng)
    truth.covers[0].communities[0].discard(0)
    truth.covers[0].communities[1].discard(0)
    with pytest.raises(GenError):
        generate_snapshot(truth.covers[0], cfg, rng)


# ---------------------------------------------------------------- events


def birth_death_config(t=4, seed=0, churn=0.0):
    return GenConfig(n=120, k=4, overlap_nodes=6, memberships_per_overlap=2,
                     mixing=0.1, avg_degree=10, t=t, churn=churn, seed=seed)


def test_k_series_matches_analytic_prediction():
    sched = GenSchedule((
        Event(2, "birth", size=10),
        Event(3, "split"),
        Event(3, "expand", size=4),
        Event(4, "death"),
        Event(4, "merge"),
    ))
    for trial in range(4):
        cfg = birth_death_config(seed=trial)
        rng = np.random.default_rng(cfg.seed)
        truth = apply_events(plant_memberships(cfg, rng), sched, cfg, rng)
        assert truth.k_series == sched.k_series(4, cfg.t)
        assert truth.k_series == [4, 5, 6, 4]
        for cover in truth.covers:
            assert cover.covered_nodes() == set(range(cfg.n))


def test_birth_creates_fresh_id_of_requested_size():
    sched = GenSchedule((Event(2, "birth", size=15),))
    cfg = birth_death_config(t=2, seed=7)
    rng = np.random.default_rng(cfg.seed)
    truth = apply_events(plant_memberships(cfg, rng), sched, cfg, rng)
    before = set(truth.covers[0].communities)
    after = set(truth.covers[1].communities)
    assert before == {0, 1, 2, 3}
    new = after - before
    assert len(new) == 1
    assert len(truth.covers[1].communities[new.pop()]) == 15


def test_death_reassigns_orphans():
    sched = GenSchedule((Event(2, "death", community=1),))
    cfg = birth_death_config(t=2, seed=3)
    rng = np.random.default_rng(cfg.seed)
    truth = apply_events(plant_memberships(cfg, rng), sched, cfg, rng)
    assert 1 not in truth.covers[1].communities
    assert truth.covers[1].covered_nodes() == set(range(cfg.n))


def test_merge_keeps_first_target_and_unions_members():
    sched = GenSchedule((Event(2, "merge", community=0, other=2),))
    cfg = birth_death_config(t=2, seed=5)
    rng = np.random.default_rng(cfg.seed)
    planted = plant_memberships(cfg, rng)
    union = planted.covers[0].communities[0] | planted.covers[0].communities[2]
    truth = apply_events(planted, sched, cfg, rng)
    assert 2 not in truth.covers[1].communities
    assert truth.covers[1].communities[0] == union


def test_split_partitions_members_under_fresh_id():
    sched = GenSchedule((Event(2, "split", community=3),))
    cfg = birth_death_config(t=2, seed=6)
    rng = np.random.default_rng(cfg.seed)
    planted = plant_memberships(cfg, rng)
    original = set(planted.covers[0].communities[3])
    truth = apply_events(planted, sched, cfg, rng)
    after = truth.covers[1].communities
    new = set(after) - {0, 1, 2, 3}
    assert len(new) == 1
    fresh = new.pop()
    assert after[3] | after[fresh] == original
    assert not (after[3] & after[fresh])
    assert abs(len(after[3]) - len(after[fresh])) <= 1


def test_contract_never_empties_and_keeps_nodes_covered():
    sched = GenSchedule((Event(2, "contract", community=0, size=1000),))
    cfg = birth_death_config(t=2, seed=1)
    rng = np.random.default_rng(cfg.seed)
    truth = apply_events(plant_memberships(cfg, rng), sched, cfg, rng)
    assert len(truth.covers[1].communities[0]) == 1
    assert truth.covers[1].covered_nodes() == set(range(cfg.n))


def test_event_on_dead_community_errors():
    sched = GenSchedule((Event(2, "death", community=1),
                         Event(3, "expand", community=1)))
    cfg = birth_death_config(t=3, seed=0)
    rng = np.random.default_rng(cfg.seed)
    with pytest.raises(GenError, match="dead community"):
        apply_events(plant_memberships(cfg, rng), sched, cfg, rng)


def test_death_refuses_to_remove_last_community():
    cfg = GenConfig(n=30, k=1, avg_degree=4, t=2, seed=0)
    sched = GenSchedule((Event(2, "death", community=0),))
    rng = np.random.default_rng(0)
    with pytest.raises(GenError, match="last community"):
        apply_events(plant_memberships(cfg, rng), sched, cfg, rng)


def test_event_past_final_snapshot_errors():
    cfg = birth_death_config(t=3)
    sched = GenSchedule((Event(5, "birth"),))
    rng = np.random.default_rng(0)
    with pytest.raises(GenError, match="only 3 snapshots"):
        apply_events(plant_memberships(cfg, rng), sched, cfg, rng)


def test_event_validation():
    with pytest.raises(GenError):
        Event(2, "implode")
    with pytest.raises(GenError):
        Event(1, "birth")


@pytest.mark.parametrize("kind", ["birth", "expand", "contract"])
@pytest.mark.parametrize("size", [0, -2])
def test_event_rejects_size_below_one(kind, size):
    # a negative size once gave a birth that the k series counted but the
    # cover never held, and size=0 meant the default
    with pytest.raises(GenError, match="size must be >= 1"):
        Event(2, kind, size=size)


@pytest.mark.parametrize("kind, key", [
    ("birth", "community"), ("birth", "other"), ("death", "other"), ("death", "size"),
    ("expand", "other"), ("contract", "other"), ("merge", "size"), ("split", "other"),
    ("split", "size"),
])
def test_event_rejects_a_key_its_kind_never_reads(kind, key):
    # such a key was once dropped silently: a birth given community=7 took
    # a fresh id instead
    with pytest.raises(GenError, match="a %s event takes no %s" % (kind, key)):
        Event(2, kind, **{key: 3})


@pytest.mark.parametrize("line, message", [
    ("2 birth community=7", "birth event takes no community"),
    ("3 death size=4", "death event takes no size"),
    ("3 split other=1", "split event takes no other"),
    ("4 expand b=1", "expand event takes no other"),
])
def test_load_schedule_names_the_line_of_an_unread_key(tmp_path, line, message):
    path = tmp_path / "events.txt"
    path.write_text("2 birth size=5\n" + line + "\n")
    with pytest.raises(GenError, match="line 2: a " + message):
        load_schedule(path)


def test_load_schedule_reports_bad_size_with_line_number(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text("2 birth\n3 expand q=-1\n")
    with pytest.raises(GenError, match="line 2: event size"):
        load_schedule(path)


def test_churn_moves_the_requested_single_membership_count():
    cfg = GenConfig(n=500, k=10, overlap_nodes=20, memberships_per_overlap=3,
                    avg_degree=10, t=2, churn=0.1, seed=13)
    rng = np.random.default_rng(cfg.seed)
    truth = apply_events(plant_memberships(cfg, rng), GenSchedule(), cfg, rng)
    before = membership_map(truth.covers[0])
    after = membership_map(truth.covers[1])
    moved = [i for i in range(cfg.n) if before[i] != after[i]]
    assert len(moved) == 50
    for i in moved:
        assert len(before[i]) == 1
        assert len(after[i]) == 1


# ---------------------------------------------------------------- pipeline


def test_generate_dynamic_is_deterministic():
    cfg = GenConfig(n=150, k=5, overlap_nodes=10, memberships_per_overlap=2,
                    mixing=0.15, avg_degree=12, t=3, churn=0.05, seed=42)
    sched = GenSchedule((Event(2, "birth"), Event(3, "death")))
    net_a, truth_a = generate_dynamic(cfg, sched)
    net_b, truth_b = generate_dynamic(cfg, sched)
    for ga, gb in zip(net_a.snapshots, net_b.snapshots):
        assert ga.edges == gb.edges
        assert ga.t == gb.t
    for ca, cb in zip(truth_a.covers, truth_b.covers):
        assert ca.communities == cb.communities
    net_c, _ = generate_dynamic(
        GenConfig(n=150, k=5, overlap_nodes=10, memberships_per_overlap=2,
                  mixing=0.15, avg_degree=12, t=3, churn=0.05, seed=43), sched)
    assert any(ga.edges != gc.edges
               for ga, gc in zip(net_a.snapshots, net_c.snapshots))


def test_generate_dynamic_snapshot_count_and_k_series():
    cfg = GenConfig(n=100, k=4, avg_degree=8, t=5, churn=0.02, seed=1)
    sched = GenSchedule((Event(3, "birth"), Event(4, "death")))
    net, truth = generate_dynamic(cfg, sched)
    assert [g.t for g in net.snapshots] == [1, 2, 3, 4, 5]
    assert truth.k_series == [4, 4, 5, 4, 4]
    assert len(truth.covers) == 5
    for g in net.snapshots:
        assert validate(g) == []


# ---------------------------------------------------------------- schedules


def test_load_schedule_parses_events(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text(
        "# ramp up then tear down\n"
        "2 birth size=12\n"
        "3 merge a=0 b=1\n"
        "4 split community=2\n"
        "5 contract community=0 q=3\n"
    )
    sched = load_schedule(path)
    assert len(sched.events) == 4
    assert sched.events[0] == Event(2, "birth", size=12)
    assert sched.events[1] == Event(3, "merge", community=0, other=1)
    assert sched.events[3] == Event(5, "contract", community=0, size=3)


def test_load_schedule_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 birth\nnonsense\n")
    with pytest.raises(GenError, match="line 2"):
        load_schedule(path)
    path.write_text("2 birth shape=9\n")
    with pytest.raises(GenError, match="unknown key"):
        load_schedule(path)


@pytest.mark.parametrize("line", ["2 merge a=1 community=2", "3 birth size=3 size=9",
                                  "4 expand q=2 size=3", "5 merge community=0 b=1 other=2"])
def test_load_schedule_rejects_repeated_key(tmp_path, line):
    path = tmp_path / "events.txt"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(GenError, match="line 2: key .* given twice"):
        load_schedule(path)


def test_presets_expose_published_benchmark_shapes():
    cfg1, sched1 = preset("birthdeath-t1")
    assert (cfg1.n, cfg1.avg_degree, cfg1.max_degree) == (1000, 40, 60)
    assert (cfg1.overlap_nodes, cfg1.memberships_per_overlap) == (40, 4)
    assert (cfg1.mixing, cfg1.t) == (0.3, 10)
    cfg2, sched2 = preset("birthdeath-t2")
    assert (cfg2.n, cfg2.avg_degree, cfg2.max_degree) == (500, 30, 50)
    assert (cfg2.overlap_nodes, cfg2.memberships_per_overlap) == (20, 3)
    assert (cfg2.mixing, cfg2.t) == (0.2, 9)
    # paired birth and death leave the community count flat
    assert sched1.k_series(cfg1.k, cfg1.t) == [cfg1.k] * cfg1.t
    assert sched2.k_series(cfg2.k, cfg2.t) == [cfg2.k] * cfg2.t
    with pytest.raises(GenError):
        preset("steady-state")
