"""Command-line front end: flags, config files, outputs, exit codes."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dyncomm.cli import entry_point
from dyncomm.graphs import load_dynamic, validate
from dyncomm.membership import load_covers


def run_cli(*argv):
    return entry_point(list(argv))


def small_config(tmp_path, **extra):
    lines = {"n": 60, "k": 3, "on": 4, "om": 2, "mixing": 0.1,
             "avg_degree": 8, "t": 2, "churn": 0.05}
    lines.update(extra)
    path = tmp_path / "gen.cfg"
    path.write_text("".join("%s=%s\n" % kv for kv in lines.items()))
    return path


@pytest.fixture()
def bench_dir(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "bench"
    assert run_cli("generate", str(cfg), "--seed", "5", "--out", str(out)) == 0
    return out


# ---------------------------------------------------------------- generate


def test_generate_writes_network_truth_and_meta(bench_dir, capsys):
    net = load_dynamic(bench_dir / "network.txt")
    assert [g.t for g in net.snapshots] == [1, 2]
    for g in net.snapshots:
        assert validate(g) == []
        assert len(g.nodes) == 60
    truth = load_covers(bench_dir / "truth.txt")
    assert set(truth) == {1, 2}
    assert truth[1].k == 3
    meta = (bench_dir / "run_meta.txt").read_text()
    assert "command=generate\n" in meta
    assert "seed=5\n" in meta
    assert "k_series=3 3\n" in meta


def test_generate_prints_k_series(tmp_path, capsys):
    cfg = small_config(tmp_path)
    run_cli("generate", str(cfg), "--seed", "5", "--out", str(tmp_path / "o"))
    out = capsys.readouterr().out
    assert "k_series: 3 3" in out


def test_generate_same_seed_identical_bytes(tmp_path):
    cfg = small_config(tmp_path)
    for name in ("a", "b"):
        assert run_cli("generate", str(cfg), "--seed", "9",
                       "--out", str(tmp_path / name)) == 0
    for fname in ("network.txt", "truth.txt", "run_meta.txt"):
        assert (tmp_path / "a" / fname).read_bytes() == \
               (tmp_path / "b" / fname).read_bytes()
    assert run_cli("generate", str(cfg), "--seed", "10",
                   "--out", str(tmp_path / "c")) == 0
    assert (tmp_path / "a" / "network.txt").read_bytes() != \
           (tmp_path / "c" / "network.txt").read_bytes()


def test_generate_preset_shape(tmp_path, capsys):
    out = tmp_path / "t2"
    assert run_cli("generate", "--preset", "birthdeath-t2", "--seed", "1",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "k_series: " + " ".join(["10"] * 9) in printed
    net = load_dynamic(out / "network.txt")
    assert len(net.snapshots) == 9
    assert len(net.snapshots[0].nodes) == 500
    mean_deg = 2 * net.snapshots[0].m / 500
    assert abs(mean_deg - 30) / 30 < 0.1
    meta = (out / "run_meta.txt").read_text()
    assert "preset=birthdeath-t2\n" in meta


def test_generate_config_overrides_preset(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n=80\non=0\navg_degree=6\nmax_degree=\n")
    # an empty max_degree is a parse error, not a silent default
    assert run_cli("generate", str(cfg), "--preset", "birthdeath-t2",
                   "--out", str(tmp_path / "x")) == 1
    cfg.write_text("n=80\non=0\navg_degree=6\n")
    assert run_cli("generate", str(cfg), "--preset", "birthdeath-t2",
                   "--seed", "2", "--out", str(tmp_path / "x")) == 0
    net = load_dynamic(tmp_path / "x" / "network.txt")
    assert len(net.snapshots) == 9
    assert len(net.snapshots[0].nodes) == 80
    # shrinking t under the preset's schedule is caught, not truncated
    cfg.write_text("n=80\non=0\navg_degree=6\nt=2\n")
    assert run_cli("generate", str(cfg), "--preset", "birthdeath-t2",
                   "--seed", "2", "--out", str(tmp_path / "y")) == 1


def test_generate_requires_out_and_shape(tmp_path):
    cfg = small_config(tmp_path)
    assert run_cli("generate", str(cfg)) == 1
    assert run_cli("generate", "--out", str(tmp_path / "y")) == 1


def test_generate_with_schedule_file(tmp_path, capsys):
    sched = tmp_path / "events.txt"
    sched.write_text("2 birth size=8\n3 death community=3\n")
    cfg = small_config(tmp_path, t=3, schedule=str(sched))
    out = tmp_path / "dyn"
    assert run_cli("generate", str(cfg), "--seed", "4", "--out", str(out)) == 0
    assert "k_series: 3 4 3" in capsys.readouterr().out
    truth = load_covers(out / "truth.txt")
    assert truth[2].k == 4
    assert truth[3].k == 3


def test_generate_rejects_bad_schedule(tmp_path):
    sched = tmp_path / "events.txt"
    sched.write_text("2 vanish\n")
    cfg = small_config(tmp_path, schedule=str(sched))
    assert run_cli("generate", str(cfg), "--out", str(tmp_path / "z")) == 1


# ---------------------------------------------------------------- seeds


def test_seed_precedence_flag_over_file_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNCOMM_SEED", "77")
    cfg = small_config(tmp_path, seed=33)
    out = tmp_path / "o1"
    run_cli("generate", str(cfg), "--seed", "11", "--out", str(out))
    assert "seed=11\n" in (out / "run_meta.txt").read_text()
    out2 = tmp_path / "o2"
    run_cli("generate", str(cfg), "--out", str(out2))
    assert "seed=33\n" in (out2 / "run_meta.txt").read_text()
    cfg2 = small_config(tmp_path)
    out3 = tmp_path / "o3"
    run_cli("generate", str(cfg2), "--out", str(out3))
    assert "seed=77\n" in (out3 / "run_meta.txt").read_text()


def test_bad_env_seed_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYNCOMM_SEED", "many")
    cfg = small_config(tmp_path)
    assert run_cli("generate", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "DYNCOMM_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------- detect


def fast_hyper(tmp_path):
    path = tmp_path / "hyper.cfg"
    path.write_text("samples_first=30\nsamples_later=20\n")
    return path


def test_detect_with_truth_fills_nmi(bench_dir, tmp_path, capsys):
    out = tmp_path / "det"
    code = run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--seed", "3", "--out", str(out))
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "t,nmi,modularity,k_detected"
    body = [ln.split(",") for ln in lines[1:3]]
    assert [row[0] for row in body] == ["1", "2"]
    for row in body:
        assert 0.0 <= float(row[1]) <= 1.0
        float(row[2])
        assert int(row[3]) >= 1
    assert lines[3].startswith("mean,")
    assert lines[4].startswith("std,")
    covers = load_covers(out / "covers.txt")
    assert set(covers) == {1, 2}
    meta = (out / "run_meta.txt").read_text()
    assert "samples_first=30\n" in meta
    assert "chains=1\n" in meta
    assert "k_series" in capsys.readouterr().out


def test_detect_without_truth_leaves_nmi_blank(bench_dir, tmp_path):
    out = tmp_path / "det"
    assert run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)), "--seed", "3",
                   "--out", str(out)) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == ""
    assert float(lines[1].split(",")[2]) != 0


def test_detect_deterministic_for_fixed_seed(bench_dir, tmp_path):
    for name in ("r1", "r2"):
        assert run_cli("detect", str(bench_dir / "network.txt"),
                       str(fast_hyper(tmp_path)),
                       "--truth", str(bench_dir / "truth.txt"),
                       "--seed", "8", "--out", str(tmp_path / name)) == 0
    for fname in ("covers.txt", "metrics.csv", "run_meta.txt"):
        assert (tmp_path / "r1" / fname).read_bytes() == \
               (tmp_path / "r2" / fname).read_bytes()


def test_generate_and_detect_bytes_are_pinned(tmp_path):
    # a refactor of the sampler or CLI must not move these bytes unless it
    # says it changes the RNG stream
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("n=40\nk=2\nmixing=0.1\navg_degree=6\nt=3\n")
    gen, det = tmp_path / "gen", tmp_path / "det"
    assert run_cli("generate", str(cfg), "--seed", "3", "--out", str(gen)) == 0
    assert run_cli("detect", str(gen / "network.txt"),
                   "--truth", str(gen / "truth.txt"), "--seed", "3",
                   "--chains", "2", "--samples-first", "6",
                   "--samples-later", "3", "--out", str(det)) == 0
    pinned = {
        gen / "network.txt":
            "8b3a4180897ae0dc3134ba55d923ecbab0d488102aec87bf40c7f62b3434cb20",
        gen / "truth.txt":
            "d79e00448fa24ae461ff0a46d68b44f09acdff2f1692b5734edb484bf60dfe39",
        det / "covers.txt":
            "579ca91be79c36305b25c86ca29ff6e9bb2c15dab50c4ee0f540c2ee04071e5a",
        det / "metrics.csv":
            "e4ce264efffa1cbe5ef9de9ab28b6df7698c919b173713e92a305a3889963d9e",
    }
    for path, digest in pinned.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name


def test_detect_chains_flag(bench_dir, tmp_path):
    out = tmp_path / "det"
    assert run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)), "--chains", "2",
                   "--seed", "8", "--out", str(out)) == 0
    assert "chains=2\n" in (out / "run_meta.txt").read_text()


def test_detect_flag_overrides_config_hyper(bench_dir, tmp_path):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("samples_first=30\nsamples_later=20\ntheta=0.5\n")
    out = tmp_path / "det"
    assert run_cli("detect", str(bench_dir / "network.txt"), str(cfg),
                   "--theta", "0.9", "--seed", "1", "--out", str(out)) == 0
    assert "theta=0.9\n" in (out / "run_meta.txt").read_text()


def test_detect_errors_are_nonzero_without_partial_output(tmp_path, capsys):
    out = tmp_path / "det"
    assert run_cli("detect", str(tmp_path / "missing.txt"),
                   "--out", str(out)) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    net = tmp_path / "bad.txt"
    net.write_text("1 5 5\n")
    assert run_cli("detect", str(net), "--out", str(out)) == 1
    assert not out.exists()


def test_detect_requires_truth_covering_all_snapshots(bench_dir, tmp_path):
    partial = tmp_path / "partial.txt"
    keep = [ln for ln in (bench_dir / "truth.txt").read_text().splitlines()
            if ln.startswith("1 ")]
    partial.write_text("".join(ln + "\n" for ln in keep))
    assert run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)), "--truth", str(partial),
                   "--out", str(tmp_path / "det")) == 1


# ---------------------------------------------------------------- evaluate


def test_evaluate_truth_against_itself(bench_dir, capsys):
    code = run_cli("evaluate", str(bench_dir / "truth.txt"),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,nmi,modularity,k_detected"
    for ln in lines[1:3]:
        t, nmi, mod, k = ln.split(",")
        assert float(nmi) == 1.0
        assert k == "3"


def test_evaluate_writes_csv_when_out_given(bench_dir, tmp_path):
    out = tmp_path / "ev"
    assert run_cli("evaluate", str(bench_dir / "truth.txt"),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"),
                   "--out", str(out)) == 0
    assert (out / "metrics.csv").exists()
    assert "command=evaluate\n" in (out / "run_meta.txt").read_text()


def test_evaluate_aggregate_averages_runs(bench_dir, tmp_path, capsys):
    for seed, name in (("3", "d1"), ("4", "d2")):
        run_cli("detect", str(bench_dir / "network.txt"),
                str(fast_hyper(tmp_path)),
                "--truth", str(bench_dir / "truth.txt"),
                "--seed", seed, "--out", str(tmp_path / name))
    capsys.readouterr()
    code = run_cli("evaluate", str(tmp_path / "d1" / "covers.txt"),
                   str(tmp_path / "d2" / "covers.txt"),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"),
                   "--aggregate")
    assert code == 0
    agg_lines = capsys.readouterr().out.splitlines()

    per_run = []
    for name in ("d1", "d2"):
        run_cli("evaluate", str(tmp_path / name / "covers.txt"),
                "--truth", str(bench_dir / "truth.txt"),
                "--network", str(bench_dir / "network.txt"))
        per_run.append(capsys.readouterr().out.splitlines())
    for row in range(1, 3):
        want = np.mean([float(run[row].split(",")[1]) for run in per_run])
        got = float(agg_lines[row].split(",")[1])
        assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_rejects_multiple_covers_without_aggregate(bench_dir, tmp_path):
    assert run_cli("evaluate", str(bench_dir / "truth.txt"),
                   str(bench_dir / "truth.txt"),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt")) == 1


def test_evaluate_snapshot_mismatch_is_an_error(bench_dir, tmp_path, capsys):
    partial = tmp_path / "partial.txt"
    keep = [ln for ln in (bench_dir / "truth.txt").read_text().splitlines()
            if ln.startswith("1 ")]
    partial.write_text("".join(ln + "\n" for ln in keep))
    assert run_cli("evaluate", str(partial),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt")) == 1
    assert "snapshot mismatch" in capsys.readouterr().err


def test_nmi_universe_includes_truth_nodes_absent_from_the_snapshot(tmp_path):
    # node 5 leaves the network at t=2 but the truth cover still names it
    net = tmp_path / "net.txt"
    net.write_text("1 0 1\n1 0 2\n1 1 2\n1 3 4\n1 3 5\n1 4 5\n"
                   "2 0 1\n2 0 2\n2 1 2\n2 3 4\n")
    truth = tmp_path / "truth.txt"
    truth.write_text("".join("%d %d %d 1.0\n" % (t, i // 3, i)
                             for t in (1, 2) for i in range(6)))
    out = tmp_path / "det"
    assert run_cli("detect", str(net), str(fast_hyper(tmp_path)),
                   "--truth", str(truth), "--seed", "2", "--out", str(out)) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:3]
    assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in rows)
    assert run_cli("evaluate", str(out / "covers.txt"), "--truth", str(truth),
                   "--network", str(net), "--out", str(tmp_path / "ev")) == 0
