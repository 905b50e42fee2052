"""Tests of the benchmark's own code: span arithmetic, wrappers, checks
and the metric names it publishes.

    python3 -m pytest perfbench/tests -q
"""
import json
import re
from pathlib import Path

import pytest

import checks
import layers
import run
import spans

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, float(start), float(end), attrs]


def test_self_time_subtracts_children_on_nested_spans():
    tree = [
        _span(0, -1, "root", 0, 10),
        _span(1, 0, "a", 1, 4),
        _span(2, 1, "a.inner", 2, 3),
        _span(3, 0, "b", 5, 9),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, -1, "root", 0, 10),
        _span(1, 0, "x", 1, 4),
        _span(2, 0, "y", 3, 6),
        _span(3, 0, "z", 8, 12),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10 - 5 - 2)


def test_layer_metrics_split_sweep_into_edge_pass_and_beta():
    tree = [
        _span(0, -1, "cli.entry_point", 0, 10),
        _span(1, 0, "sampler.run_snapshot", 0.5, 9.5, {"t": 1, "n": 64}),
        _span(2, 1, "sampler.gibbs_sweep", 1, 5, {"n": 100}),
        _span(3, 2, "sampler.resample_beta", 4, 5),
        _span(4, 1, "sampler.record", 5, 6, {"n": 3}),
        _span(5, 4, "metrics.extended_modularity", 5.5, 6),
    ]
    got = layers.layer_metrics(tree, [], lambda path: 0, 0.25)
    assert set(got) == set(layers.PER_LAYER)
    assert got["sampler.edge_pass_s"] == pytest.approx(3.0)
    assert got["sampler.edge_visit_us"] == pytest.approx(3.0e4)
    assert got["sampler.edge_pass_sweep_share"] == pytest.approx(0.75)
    assert got["sampler.record_self_s"] == pytest.approx(0.5)
    assert got["cli.self_s"] == pytest.approx(1.0)
    assert got["trace.op_s"] == pytest.approx(10.0)


def test_wrappers_record_spans_and_are_removed_on_exit(tmp_path):
    from dyncomm import cli
    from dyncomm.membership import Cover
    from dyncomm.sampler import PrevSummary
    from dyncomm.graphs import SnapshotGraph

    original = cli.extended_modularity
    assert spans.wrapped_names() == []
    rec = spans.Recorder()
    with spans.Installed(rec):
        assert len(spans.wrapped_names()) == len(spans.TARGETS)
        g = SnapshotGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        cli.extended_modularity(Cover({0: {0, 1}, 1: {2, 3}}), g)
        assert isinstance(PrevSummary.__dict__["from_record"], classmethod)
    assert spans.wrapped_names() == []
    assert cli.extended_modularity is original
    assert [s[2] for s in rec.spans] == ["metrics.extended_modularity"]
    rec.dump(tmp_path / "spans.jsonl")
    row = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert row["parent"] == -1 and row["end"] >= row["start"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real generate and detect through the CLI, at toy size."""
    from dyncomm.cli import entry_point

    work = tmp_path_factory.mktemp("run")
    cfg = work / "small.cfg"
    cfg.write_text("n=40\nk=2\nmixing=0.1\navg_degree=6\nt=3\n")
    gen, out = work / "gen", work / "out"
    assert entry_point(["generate", str(cfg), "--seed", "3", "--out", str(gen)]) == 0
    assert entry_point(["detect", str(gen / "network.txt"), "--truth",
                        str(gen / "truth.txt"), "--seed", "3", "--samples-first", "2",
                        "--samples-later", "1", "--out", str(out)]) == 0
    return gen, out


def test_checker_accepts_a_good_run(small_run):
    gen, out = small_run
    snaps = checks.read_network(gen / "network.txt")
    assert sorted(snaps) == [1, 2, 3]
    assert checks.check_generated(gen / "network.txt", gen / "truth.txt") == []
    assert checks.check_covers(out / "covers.txt", snaps) == []
    assert checks.check_metrics(out / "metrics.csv", snaps) == []
    assert checks.check_k(out / "metrics.csv", out / "covers.txt") == []
    assert checks.same_bytes(out / "covers.txt", out / "covers.txt") == []
    q = checks.quality(out / "metrics.csv", gen / "truth.txt")
    assert 0 <= q["nmi_mean"] <= 1 and q["k_abs_err"] >= 0


def test_checker_rejects_a_truncated_covers_file(small_run, tmp_path):
    gen, out = small_run
    snaps = checks.read_network(gen / "network.txt")
    lines = (out / "covers.txt").read_text().splitlines(keepends=True)
    cut = tmp_path / "covers.txt"
    cut.write_text("".join(lines[: len(lines) // 2]))
    assert checks.check_covers(cut, snaps)
    assert checks.check_k(out / "metrics.csv", cut)
    assert checks.same_bytes(out / "covers.txt", cut)
    torn = tmp_path / "torn.txt"
    torn.write_text("".join(lines) + "3 7\n")
    assert checks.check_covers(torn, snaps)


def test_checker_rejects_a_wrong_csv_schema(small_run, tmp_path):
    gen, out = small_run
    snaps = checks.read_network(gen / "network.txt")
    text = (out / "metrics.csv").read_text()
    bad = tmp_path / "metrics.csv"
    bad.write_text(text.replace("k_detected", "k", 1))
    assert checks.check_metrics(bad, snaps)
    bad.write_text("\n".join(text.splitlines()[:-1]) + "\n")  # std row gone
    assert checks.check_metrics(bad, snaps)
    assert checks.check_metrics(tmp_path / "missing.csv", snaps)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    names = list(e2e) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert spec["command"] == ["python3", "perfbench/run.py"]
