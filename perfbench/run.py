#!/usr/bin/env python3
"""dyncomm benchmark: end-to-end timings of the real CLI, or a traced run.

    python3 perfbench/run.py --workload fixture-detect --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (``src/dyncomm`` beside this
directory); nothing needs installing.  With ``--trace 0`` every operation is
a fresh ``python -m dyncomm.cli`` child process, started one at a time, and
the last stdout line is a JSON object with the end-to-end metrics.  With
``--trace 1`` the benchmark calls ``dyncomm.cli.entry_point`` in this
process, alternating untraced and traced calls, and reports the per-layer
metrics of ``layers.py``.  Outputs of the last run of each workload stay
under ``perfbench/.work/<workload>/``.  See README.md for the workloads and
the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# pinned before numpy is imported, here (traced run) or in any child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170.0  # every run, set-up included, ends inside 180 s
SHORT_REPEATS = 2  # generates and set-up probes timed per pass

# name -> unit; BENCHMARK.json lists exactly these as end_to_end
END_TO_END = {
    "detect_s": "s",
    "sweep_edges_per_s": "1/s",
    "generate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nmi_mean": "1",
    "modularity_mean": "1",
    "k_abs_err": "count",
}

PROBE = """\
import sys, time
t0 = time.perf_counter()
import dyncomm.cli
from dyncomm.graphs import load_dynamic
load_dynamic(sys.argv[1])
print(time.perf_counter() - t0, dyncomm.cli.__file__)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None = None  # None: the acceptance fixture config file
    chains: int = 1
    s_first: int = 0
    s_later: int = 0
    quality_detects: int = 2  # distinct detector seeds the quality means cover

    def generate_argv(self, workdir: Path, seed: int, out: Path) -> list[str]:
        source = (["--preset", self.preset] if self.preset
                  else [str(inputs.write_fixture(workdir))])
        return ["generate", *source, "--seed", str(seed), "--out", str(out)]

    def detect_argv(self, gen: Path, seed: int, out: Path) -> list[str]:
        return ["detect", str(gen / "network.txt"), "--truth", str(gen / "truth.txt"),
                "--seed", str(seed), "--chains", str(self.chains),
                "--samples-first", str(self.s_first),
                "--samples-later", str(self.s_later), "--out", str(out)]

    def edge_visits(self, snapshots) -> int:
        """Sweeps x edges, summed over snapshots and chains."""
        ms = [m for _, m in snapshots.values()]
        return self.chains * (self.s_first * ms[0] + self.s_later * sum(ms[1:]))


# Sweep counts are cut from the defaults (100 first, 50 later), which would
# take about 53 s and 110 s per detect, so several detects fit in one run.
# The first snapshot keeps enough sweeps for the sampler to settle (t2: about
# 30 detected communities, live K in the 36-60 of a full run); the carried-over
# later snapshots need fewer.
WORKLOADS = {w.name: w for w in (
    Workload("fixture-detect", chains=2, s_first=20, s_later=5, quality_detects=4),
    Workload("t2-detect", preset="birthdeath-t2", chains=1, s_first=30, s_later=3,
             quality_detects=2),
)}


class Run:
    """Counts operations and problems; keeps samples for the medians."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def window_open(self, window_start: float, done: int, least: int) -> bool:
        if done < least:
            return self.remaining() > 0
        return time.perf_counter() - window_start < self.seconds

    def outcome(self, label: str, problems: list[str]) -> bool:
        """Record one operation; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (label, p) for p in problems)
        return not problems

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


# ------------------------------------------------------------- child processes


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    The RSS is the child's own ``ru_maxrss`` from ``wait4``, not the maximum
    over every child this process has reaped.
    """
    if timeout <= 0:
        return -1, 0.0, 0.0
    previous = signal.signal(signal.SIGALRM, _expire)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Expired:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_child(run: Run, label: str, args: list[str]) -> tuple[list[str], float, float]:
    log = run.workdir / (label + ".log")
    code, wall, rss = run_child([sys.executable, "-m", "dyncomm.cli", *args],
                                log, run.remaining())
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        return ["exit %d: %s" % (code, tail)], wall, rss
    return [], wall, rss


def setup_probe(run: Run, label: str, network: Path) -> None:
    log = run.workdir / (label + ".log")
    code, _, _ = run_child([sys.executable, "-c", PROBE, str(network)], log,
                           run.remaining())
    if code != 0:
        run.outcome(label, ["exit %d" % code])
        return
    try:
        value, path = log.read_text(encoding="utf-8").split()[-2:]
        seconds = float(value)
    except ValueError:
        run.outcome(label, ["unreadable probe output in %s" % log])
        return
    if run.outcome(label, [] if Path(path).resolve().is_relative_to(SRC)
                   else ["imported dyncomm from %s, not %s" % (path, SRC)]):
        run.sample("setup_s", seconds)


# ------------------------------------------------------------- one run


def check_detect(out: Path, snapshots, same_as: Path | None) -> list[str]:
    """Checks of one detect's outputs; ``same_as`` holds the outputs of an
    earlier detect with the same seed, whose covers must match byte for byte."""
    problems = (checks.check_metrics(out / "metrics.csv", snapshots)
                + checks.check_covers(out / "covers.txt", snapshots)
                + checks.check_k(out / "metrics.csv", out / "covers.txt"))
    if same_as is not None:
        problems += checks.same_bytes(same_as / "covers.txt", out / "covers.txt")
    return problems


def detect_seed(seed: int, k: int) -> int:
    """Detector seed of the k-th distinct detect of a run."""
    return 1000 * seed + k


def quality_metrics(run: Run, out: Path, gen: Path) -> dict[str, float]:
    try:
        return checks.quality(out / "metrics.csv", gen / "truth.txt")
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        run.outcome("quality", [str(exc)])
        return {}


def untraced(run: Run) -> dict[str, float]:
    w, seed, work = run.workload, run.seed, run.workdir
    gen = work / "gen0"
    problems, _, _ = cli_child(run, "gen0", w.generate_argv(work, seed, gen))
    problems = problems or checks.check_generated(gen / "network.txt", gen / "truth.txt")
    if not run.outcome("generate", problems):
        return {}
    snapshots = checks.read_network(gen / "network.txt")

    # Each pass times generates, set-up probes and one detect, so all three
    # medians sample the same stretch of machine time.  Pass 2 repeats the
    # detect of pass 1 to check that it is deterministic; every other pass
    # uses a detector seed of its own.  One detect's quality varies with its
    # detector seed (k_abs_err by about 10% on the fixture), so the quality
    # metrics are means over the first ``quality_detects`` distinct detects:
    # a fixed set, so they repeat exactly for a seed however fast the host.
    first = work / "out1"
    quality: list[dict[str, float]] = []
    window = time.perf_counter()
    i = 0
    while run.window_open(window, i, least=w.quality_detects + 1):
        i += 1
        for j in range(SHORT_REPEATS):
            label = "gen%d.%d" % (i, j)
            gen_ij = work / label
            problems, wall, _ = cli_child(run, label, w.generate_argv(work, seed, gen_ij))
            if not problems:
                run.sample("generate_s", wall)
                problems = (checks.same_bytes(gen / "network.txt", gen_ij / "network.txt")
                            + checks.same_bytes(gen / "truth.txt", gen_ij / "truth.txt"))
            run.outcome(label, problems)
            shutil.rmtree(gen_ij, ignore_errors=True)
            setup_probe(run, "setup%d.%d" % (i, j), gen / "network.txt")
        out_i = work / ("out%d" % i)
        d_seed = detect_seed(seed, max(0, i - 2))
        problems, wall, rss = cli_child(run, "out%d" % i, w.detect_argv(gen, d_seed, out_i))
        if not problems:
            run.sample("detect_s", wall)
            run.sample("peak_rss_mb", rss)
            problems = check_detect(out_i, snapshots, first if i == 2 else None)
        if (run.outcome("detect%d" % i, problems) and i != 2
                and len(quality) < w.quality_detects):
            quality.append(quality_metrics(run, out_i, gen))
        if i > 1:
            shutil.rmtree(out_i, ignore_errors=True)
        if run.failed:
            break

    metrics = {key: statistics.median(vals) for key, vals in run.samples.items()}
    if "detect_s" in metrics:
        metrics["sweep_edges_per_s"] = w.edge_visits(snapshots) / metrics["detect_s"]
    if len(quality) == w.quality_detects and not run.failed:
        metrics.update({key: statistics.fmean(q[key] for q in quality)
                        for key in quality[0]})
    return metrics


def _in_process(cli, argv: list[str]) -> tuple[list[str], float]:
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.entry_point(argv)
    except Exception as exc:  # any crash is a failed operation, not a dead run
        return ["%s: %s" % (type(exc).__name__, exc)], time.perf_counter() - start
    wall = time.perf_counter() - start
    return (["exit %d: %s" % (code, sink.getvalue()[-300:])] if code else []), wall


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def traced(run: Run) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import dyncomm.cli as cli
    import spans

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        run.outcome("import", ["imported dyncomm from %s, not %s" % (cli.__file__, SRC)])
        return {}
    w, seed, work = run.workload, run.seed, run.workdir
    gen = work / "gen0"
    gen_rec = spans.Recorder()
    with spans.Installed(gen_rec):
        problems, _ = _in_process(cli, w.generate_argv(work, seed, gen))
    problems = problems or checks.check_generated(gen / "network.txt", gen / "truth.txt")
    if not run.outcome("generate", problems):
        return {}
    snapshots = checks.read_network(gen / "network.txt")

    first = work / "untraced1"
    per_op: list[dict[str, float]] = []
    rec = None
    window = time.perf_counter()
    i = 0
    while run.window_open(window, i, least=1):
        i += 1
        rec = spans.Recorder()
        took: dict[bool, float] = {}
        # alternate which call goes first, so warm-up does not land on one side
        for tracing in ((False, True) if i % 2 else (True, False)):
            out = work / ("%s%d" % ("traced" if tracing else "untraced", i))
            if not tracing:
                left = spans.wrapped_names()
                run.outcome("unwrapped%d" % i, ["still wrapped: %s" % left] if left else [])
            with spans.Installed(rec) if tracing else contextlib.nullcontext():
                problems, took[tracing] = _in_process(
                    cli, w.detect_argv(gen, detect_seed(seed, 0), out))
            run.outcome(out.name, problems or check_detect(
                out, snapshots, first if out != first else None))
        if run.failed:
            break
        run.sample("untraced_s", took[False])
        run.sample("traced_s", took[True])
        per_op.append(layers.layer_metrics(rec.spans, gen_rec.spans, _line_count,
                                           took[True] - took[False]))
        if i > 1:
            shutil.rmtree(work / ("untraced%d" % i), ignore_errors=True)
            shutil.rmtree(work / ("traced%d" % i), ignore_errors=True)
    left = spans.wrapped_names()
    run.outcome("unwrapped", ["still wrapped: %s" % left] if left else [])

    if rec is not None:
        rec.dump(work / "spans.jsonl")
        gen_rec.dump(work / "spans_generate.jsonl")
    if not per_op:
        return {}
    return {key: statistics.median(op[key] for op in per_op) for key in layers.PER_LAYER}


# ------------------------------------------------------------- reporting


def environment() -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyncomm" / "cli.py").is_file():
        print("error: no dyncomm source at %s" % (SRC / "dyncomm"), file=sys.stderr)
        return 2
    workdir = HERE / ".work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    env = environment()
    metrics = traced(run) if args.trace else untraced(run)
    units = ({k: u for k, (u, _) in layers.PER_LAYER.items()}
             if args.trace else END_TO_END)
    missing = sorted(set(units) - set(metrics))
    if missing and not run.failed:
        run.outcome("metrics", ["not measured: %s" % ", ".join(missing)])

    lines = ["workload %s  seed %d  trace %d  seconds %g"
             % (args.workload, args.seed, args.trace, args.seconds)]
    lines += ["env %-8s %s" % item for item in env.items()]
    lines += ["samples %-12s n=%d min=%.4f max=%.4f" % (key, len(vals), min(vals), max(vals))
              for key, vals in sorted(run.samples.items())]
    lines += ["metric %-34s %16.6g %s" % (key, metrics[key], units[key])
              for key in units if key in metrics]
    lines.append("metric %-34s %16.6g %s"
                 % ("fail_rate", run.failed / max(1, run.attempted), "ratio"))
    lines += ["problem " + problem for problem in run.problems]
    print("\n".join(lines))
    (workdir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = {"correct": run.failed == 0, "attempted": max(1, run.attempted),
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "samples": run.samples,
                   "problems": run.problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
