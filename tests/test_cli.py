"""Command-line front end: flags, config files, outputs, exit codes."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyncomm
from dyncomm.cli import entry_point
from dyncomm.graphs import load_dynamic
from dyncomm.membership import load_covers
from reference import validate


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
    # this seed never needs the generator's exact placement, so its bytes
    # are those of the rejection sampler alone
    pinned = {"network.txt": "fdbf670a2c62fec110e7cb04c9d94819fda9a102966cf46fd85ae6937e50b1f3",
              "truth.txt": "cd0cc9ea806d410dd37bfe3d3d7479c6f1dab7a809c08f3be4f496df8290ada4"}
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


@pytest.mark.parametrize("argv", [
    ["generate", "--preset", "birthdeath-t2", "--alpha", "3"],
    ["generate", "--preset", "birthdeath-t2", "--k0-divisor", "9"],
    ["evaluate", "c.txt", "--truth", "t.txt", "--network", "n.txt", "--samples-first", "7"],
    ["evaluate", "c.txt", "--truth", "t.txt", "--network", "n.txt", "--seed", "4"],
], ids=["generate-alpha", "generate-k0", "evaluate-hyper", "evaluate-seed"])
def test_a_flag_the_command_never_reads_is_a_usage_error(tmp_path, capsys, argv):
    # generate --alpha 3 once exited 0 and wrote alpha=3.0 into run_meta.txt
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["alpha=4", "chains=3", "theta=0.5"])
def test_generate_rejects_a_detect_config_key(tmp_path, capsys, key):
    cfg = small_config(tmp_path)
    cfg.write_text(cfg.read_text() + key + "\n")
    out = tmp_path / "gen"
    assert run_cli("generate", str(cfg), "--seed", "5", "--out", str(out)) == 1
    assert "reads no config key " + key.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_run_meta_echoes_only_the_settings_a_command_reads(bench_dir, tmp_path):
    gen = (bench_dir / "run_meta.txt").read_text()
    assert "seed=5\n" in gen and "n=60\n" in gen
    assert "alpha=" not in gen and "k0_divisor=" not in gen and "chains=" not in gen
    out = tmp_path / "ev"
    assert run_cli("evaluate", str(bench_dir / "truth.txt"),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"), "--out", str(out)) == 0
    ev = (out / "run_meta.txt").read_text()
    assert "seed=" not in ev and "alpha=" not in ev and "samples_first=" not in ev


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
            "48d82dba76eb73abdd7e27475bdbd0bf265b2aa5e750d8e25f6afd08abf13894",
        det / "metrics.csv":
            "b7609c3ce0f6fd785f4aaebf3e160e0d40f90010547d0aca7c1c189cc46561b3",
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


@pytest.mark.parametrize("typo", ["samples_frist=2", "n=60"])
def test_detect_rejects_a_config_key_it_never_reads(bench_dir, tmp_path, capsys, typo):
    # samples_frist=2 once ran silently with the default 100 first sweeps
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("samples_later=2\n%s\n" % typo)
    out = tmp_path / "det"
    out.mkdir()
    (out / "covers.txt").write_text("old\n")
    assert run_cli("detect", str(bench_dir / "network.txt"), str(cfg),
                   "--seed", "1", "--out", str(out)) == 1
    assert typo.split("=")[0] in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["covers.txt"]
    assert (out / "covers.txt").read_text() == "old\n"


def test_generate_rejects_a_config_key_it_never_reads(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run_cli("generate", str(small_config(tmp_path, avg_degre=8)),
                   "--out", str(out)) == 1
    assert "avg_degre" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_generate_rejects_a_non_positive_or_non_finite_avg_degree(tmp_path, capsys, value):
    # avg_degree=nan once exited 1 with "cannot convert float NaN to
    # integer", which names no key
    out = tmp_path / "gen"
    out.mkdir()
    (out / "network.txt").write_text("old\n")
    assert run_cli("generate", str(small_config(tmp_path, avg_degree=value)),
                   "--out", str(out)) == 1
    assert "avg_degree must be positive and finite" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["network.txt"]
    assert (out / "network.txt").read_text() == "old\n"


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


@pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_detect_rejects_a_non_finite_concentration(bench_dir, tmp_path, capsys, flag, value):
    # gamma=inf once ran with RuntimeWarnings and exited 0 with k_series 0
    out = tmp_path / "det"
    assert run_cli("detect", str(bench_dir / "network.txt"), flag + "=" + value,
                   "--out", str(out)) == 1
    assert "%s must be positive and finite" % flag[2:] in capsys.readouterr().err
    assert not out.exists()


FAILING_CHAIN = """\
import multiprocessing
import os
import sys
from dyncomm import cli, sampler

fit_chain = sampler._fit_chain


def fail(*args):
    if multiprocessing.parent_process() is None:
        return fit_chain(*args)
    raise ValueError("chain failed in process %d" % os.getpid())


# at module level, so that spawned workers, which import this script again,
# fit with it as well; only the chains that a worker fits fail
sampler._fit_chain = fail
sampler._usable_cpus = lambda: 2
sampler._pool_context = lambda: multiprocessing.get_context(os.environ["START_METHOD"])

if __name__ == "__main__":
    print("parent process %d" % os.getpid(), file=sys.stderr)
    sys.exit(cli.entry_point(sys.argv[1:]))
"""


def test_detect_exits_nonzero_when_a_worker_chain_fails(bench_dir, tmp_path):
    script = tmp_path / "failing_chain.py"
    script.write_text(FAILING_CHAIN)
    out = tmp_path / "det"
    src = Path(dyncomm.__file__).resolve().parents[1]
    for method in ("fork", "spawn"):
        done = subprocess.run([sys.executable, str(script), "detect",
                               str(bench_dir / "network.txt"), "--chains", "2",
                               "--seed", "3", "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=str(src), START_METHOD=method),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        parent = int(done.stderr.split("parent process ")[1].split()[0])
        failed = int(done.stderr.split("error: chain failed in process ")[1].split()[0])
        assert failed != parent
        assert not out.exists()


def test_failed_write_leaves_out_as_it_was(bench_dir, tmp_path, monkeypatch, capsys):
    from dyncomm import cli
    from dyncomm.metrics import MetricReport

    def fail(*args, **kwargs):
        raise OSError("disk full")

    runs = tmp_path / "runs"
    runs.mkdir()
    monkeypatch.setattr(MetricReport, "save", fail)
    out = runs / "det"
    assert run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)), "--seed", "3", "--out", str(out)) == 1
    assert "disk full" in capsys.readouterr().err
    assert not (out / "covers.txt").exists()
    assert not out.exists()
    # an existing --out keeps exactly the files it had
    out.mkdir()
    (out / "covers.txt").write_text("old\n")
    assert run_cli("detect", str(bench_dir / "network.txt"),
                   str(fast_hyper(tmp_path)), "--seed", "3", "--out", str(out)) == 1
    assert [p.name for p in out.iterdir()] == ["covers.txt"]
    assert (out / "covers.txt").read_text() == "old\n"

    monkeypatch.setattr(cli, "save_covers", fail)
    gen = runs / "gen"
    assert run_cli("generate", str(small_config(tmp_path)), "--seed", "5",
                   "--out", str(gen)) == 1
    assert not gen.exists()
    assert [p.name for p in runs.iterdir()] == ["det"]


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
                   "--network", str(bench_dir / "network.txt"))
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

    # run_meta.txt still names whether the runs were averaged
    for covers, averaged in (["d1"], "False"), (["d1", "d2"], "True"):
        out = tmp_path / ("ev-%d" % len(covers))
        assert run_cli("evaluate", *(str(tmp_path / c / "covers.txt") for c in covers),
                       "--truth", str(bench_dir / "truth.txt"),
                       "--network", str(bench_dir / "network.txt"), "--out", str(out)) == 0
        assert "aggregate=%s\n" % averaged in (out / "run_meta.txt").read_text()


def test_evaluate_snapshot_mismatch_is_an_error(bench_dir, tmp_path, capsys):
    partial = tmp_path / "partial.txt"
    keep = [ln for ln in (bench_dir / "truth.txt").read_text().splitlines()
            if ln.startswith("1 ")]
    partial.write_text("".join(ln + "\n" for ln in keep))
    assert run_cli("evaluate", str(partial),
                   "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt")) == 1
    assert "snapshot mismatch" in capsys.readouterr().err


def test_evaluate_bad_cover_token_is_an_error_naming_the_line(bench_dir, tmp_path, capsys):
    covers = tmp_path / "covers.txt"
    covers.write_text("1 0 0 0.5\n1 0 x 0.5\n")
    out = tmp_path / "ev"
    assert run_cli("evaluate", str(covers), "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"), "--out", str(out)) == 1
    assert "%s line 2: " % covers in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad, lineno", [("1 0 5 0.5\n1 0 5 0.7\n", 2),
                                         ("1 0 5 0.5\n1 0 6 -2.0\n", 2)],
                         ids=["repeated", "negative"])
def test_evaluate_repeated_or_negative_cover_line_is_an_error(bench_dir, tmp_path, capsys,
                                                              bad, lineno):
    covers = tmp_path / "covers.txt"
    covers.write_text(bad)
    out = tmp_path / "ev"
    assert run_cli("evaluate", str(covers), "--truth", str(bench_dir / "truth.txt"),
                   "--network", str(bench_dir / "network.txt"), "--out", str(out)) == 1
    assert "%s line %d: " % (covers, lineno) in capsys.readouterr().err
    assert not out.exists()


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
