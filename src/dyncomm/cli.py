"""Batch front end for benchmark generation, detection, and evaluation.

Three subcommands share one configuration story: an optional key=value
config file, command-line flags that win over it, and DYNCOMM_SEED as the
seed of last resort.  Each command takes only the flags and keys it reads:
``generate`` the seed, a schedule and the generator's keys, ``detect`` the
seed, the chain count and the hyper-parameters, and ``evaluate`` neither a
seed nor a config file.  Outputs are plain text (edge lists, cover files,
metric CSV) plus a run_meta.txt that echoes the settings the command read,
so a run can be reproduced from its output directory alone.  A command
writes its files into a new directory beside ``--out`` and moves them in
only after every write succeeded, so a failed run leaves ``--out``
untouched.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .benchgen import (GenConfig, GenSchedule, generate_dynamic,
                       load_schedule, preset)
from .graphs import load_dynamic, save_dynamic
from .membership import load_covers, save_covers
from .metrics import (MetricReport, MetricRow, extended_modularity,
                      overlapping_nmi)
from .model import HyperParams
from .sampler import detect_dynamic

_HYPER_FIELDS = (
    ("alpha", "alpha", float),
    ("gamma", "gamma", float),
    ("theta", "theta", float),
    ("samples_first", "s_first", int),
    ("samples_later", "s_later", int),
    ("k0_divisor", "k0_divisor", int),
)
_GEN_FIELDS = (
    ("n", "n", int),
    ("k", "k", int),
    ("on", "overlap_nodes", int),
    ("om", "memberships_per_overlap", int),
    ("mixing", "mixing", float),
    ("avg_degree", "avg_degree", float),
    ("max_degree", "max_degree", int),
    ("t", "t", int),
    ("churn", "churn", float),
)


# the config file keys each command reads; evaluate takes no config file
_CONFIG_KEYS = {
    "generate": {"seed", "schedule"} | {f[0] for f in _GEN_FIELDS},
    "detect": {"seed", "chains"} | {f[0] for f in _HYPER_FIELDS},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation resolved to.  A setting the
    command does not read stays at its default: ``seed`` is None for
    evaluate and ``hyper`` is None for all but detect."""

    command: str
    seed: int | None = None
    hyper: HyperParams | None = None
    chains: int = 1
    out: Path | None = None
    network: Path | None = None
    truth: Path | None = None
    covers: tuple[Path, ...] = ()
    gen: GenConfig | None = None
    schedule: GenSchedule = GenSchedule()
    preset_name: str | None = None


def _read_config(path) -> dict[str, str]:
    """key=value lines, # comments; later lines win over earlier ones."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s line %d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _cast(filecfg: dict[str, str], key: str, cast):
    try:
        return cast(filecfg[key])
    except ValueError:
        raise ValueError("config key %s=%r is not a valid %s"
                         % (key, filecfg[key], cast.__name__)) from None


def _resolve_seed(args, filecfg: dict[str, str]) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in filecfg:
        return _cast(filecfg, "seed", int)
    env = os.environ.get("DYNCOMM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError("DYNCOMM_SEED=%r is not an integer" % env) from None
    return 0


def _resolve_hyper(args, filecfg: dict[str, str]) -> HyperParams:
    vals = {}
    for flag, field, cast in _HYPER_FIELDS:
        given = getattr(args, flag)
        if given is not None:
            vals[field] = given
        elif flag in filecfg:
            vals[field] = _cast(filecfg, flag, cast)
    return HyperParams(**vals)


def _resolve_gen(args, filecfg: dict[str, str], seed: int) -> tuple[GenConfig, GenSchedule]:
    if args.preset:
        cfg, sched = preset(args.preset, seed=seed)
    else:
        if "n" not in filecfg or "k" not in filecfg:
            raise ValueError("generate needs --preset or a config file with "
                             "at least n= and k=")
        cfg, sched = None, GenSchedule()
    overrides = {}
    for key, field, cast in _GEN_FIELDS:
        if key in filecfg:
            overrides[field] = _cast(filecfg, key, cast)
    if cfg is None:
        cfg = GenConfig(seed=seed, **overrides)
    elif overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    if "schedule" in filecfg:
        sched = load_schedule(filecfg["schedule"])
    return cfg, sched


def resolve_run_config(args) -> RunConfig:
    out = Path(args.out) if args.out else None
    if args.command == "evaluate":
        return RunConfig("evaluate", out=out, covers=tuple(Path(p) for p in args.covers),
                         network=Path(args.network), truth=Path(args.truth))
    filecfg = _read_config(args.config) if args.config else {}
    # a config key the command never reads is a typo, not a no-op
    unread = sorted(set(filecfg) - _CONFIG_KEYS[args.command])
    if unread:
        raise ValueError("%s: %s reads no config key %s"
                         % (args.config, args.command, ", ".join(unread)))
    seed = _resolve_seed(args, filecfg)
    if args.command == "generate":
        gen, sched = _resolve_gen(args, filecfg, seed)
        cfg = RunConfig("generate", seed=seed, out=out, gen=gen, schedule=sched,
                        preset_name=args.preset)
    else:
        hyper = _resolve_hyper(args, filecfg)
        chains = args.chains
        if chains is None:
            chains = _cast(filecfg, "chains", int) if "chains" in filecfg else 1
        if chains < 1:
            raise ValueError("chains must be >= 1")
        cfg = RunConfig("detect", seed=seed, hyper=hyper, chains=chains, out=out,
                        network=Path(args.network),
                        truth=Path(args.truth) if args.truth else None)
    if out is None:
        raise ValueError("%s needs --out to place its files" % args.command)
    return cfg


@contextmanager
def _staged(out: Path):
    """A new directory beside ``out`` to write into.  Its files move into
    ``out`` only when the block finishes without raising; either way the
    directory is removed, so a failed write leaves ``out`` as it was."""
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".%s." % out.name, dir=out.parent))
    try:
        yield stage
        out.mkdir(exist_ok=True)
        for path in sorted(stage.iterdir()):
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_meta(cfg: RunConfig, extra: dict[str, object], out: Path) -> None:
    """run_meta.txt: the command, its version, the seed and the
    hyper-parameters when the command read them, then ``extra``."""
    lines = {"command": cfg.command, "version": __version__}
    if cfg.seed is not None:
        lines["seed"] = cfg.seed
    if cfg.hyper is not None:
        lines.update((key, getattr(cfg.hyper, field)) for key, field, _ in _HYPER_FIELDS)
    lines.update(extra)
    with open(out / "run_meta.txt", "w", encoding="utf-8") as fh:
        for key, val in lines.items():
            fh.write("%s=%s\n" % (key, val))


def cmd_generate(cfg: RunConfig) -> int:
    """Write network.txt and truth.txt for a planted dynamic benchmark."""
    net, truth = generate_dynamic(cfg.gen, cfg.schedule)
    gen_meta = {key: getattr(cfg.gen, field) for key, field, _ in _GEN_FIELDS}
    gen_meta["preset"] = cfg.preset_name or "none"
    gen_meta["k_series"] = " ".join(str(k) for k in truth.k_series)
    with _staged(cfg.out) as stage:
        save_dynamic(net, stage / "network.txt")
        save_covers(stage / "truth.txt",
                    {t: cover for t, cover in enumerate(truth.covers, start=1)})
        _write_meta(cfg, gen_meta, stage)
    print("k_series: " + " ".join(str(k) for k in truth.k_series))
    print("wrote %s" % (cfg.out / "network.txt"))
    return 0


def cmd_detect(cfg: RunConfig) -> int:
    """Fit every snapshot, keep each best-modularity cover, score it."""
    net = load_dynamic(cfg.network)
    truth = load_covers(cfg.truth) if cfg.truth else None
    if truth is not None:
        missing = [g.t for g in net.snapshots if g.t not in truth]
        if missing:
            raise ValueError("truth file lacks snapshots %s" % missing)
    results = detect_dynamic(net, cfg.hyper, seed=cfg.seed, chains=cfg.chains)
    rows = []
    for res in results:
        nmi = None
        if truth is not None:
            nmi = overlapping_nmi(res.cover, truth[res.t],
                                  _nmi_universe(res.graph, truth[res.t]))
        rows.append(MetricRow(res.t, nmi, res.modularity, res.cover.k))
    report = MetricReport(rows)
    with _staged(cfg.out) as stage:
        save_covers(stage / "covers.txt", {r.t: r.cover for r in results})
        report.save(stage / "metrics.csv")
        _write_meta(cfg, {"chains": cfg.chains, "network": cfg.network,
                          "truth": cfg.truth or "none"}, stage)
    print("detected %d snapshots, k_series: %s"
          % (len(results), " ".join(str(r.cover.k) for r in results)))
    return 0


def _nmi_universe(g, truth_cover) -> set[int]:
    """Nodes the NMI is taken over: the snapshot's nodes plus every node the
    truth cover names, since a truth cover may still name a node that has
    left the network."""
    return set(g.nodes.tolist()) | truth_cover.covered_nodes()


def _evaluate_one(covers, truth, snaps) -> list[MetricRow]:
    rows = []
    for t in sorted(covers):
        g = snaps[t]
        nmi = overlapping_nmi(covers[t], truth[t], _nmi_universe(g, truth[t]))
        rows.append(MetricRow(t, nmi, extended_modularity(covers[t], g),
                              covers[t].k))
    return rows


def cmd_evaluate(cfg: RunConfig) -> int:
    """Score stored covers against a truth file on their network; several
    cover files are scored one by one and their metrics averaged."""
    net = load_dynamic(cfg.network)
    snaps = {g.t: g for g in net.snapshots}
    truth = load_covers(cfg.truth)
    runs = [load_covers(p) for p in cfg.covers]
    for path, covers in zip(cfg.covers, runs):
        if set(covers) != set(truth) or not set(covers) <= set(snaps):
            raise ValueError("snapshot mismatch between %s, truth, and network"
                             % path)
    per_run = [_evaluate_one(covers, truth, snaps) for covers in runs]
    aggregate = len(runs) > 1
    if aggregate:
        rows = []
        for idx, t in enumerate(sorted(runs[0])):
            nmis = [run[idx].nmi for run in per_run]
            mods = [run[idx].modularity for run in per_run]
            ks = [run[idx].k_detected for run in per_run]
            rows.append(MetricRow(t, sum(nmis) / len(nmis),
                                  sum(mods) / len(mods), sum(ks) / len(ks)))
    else:
        rows = per_run[0]
    report = MetricReport(rows)
    if cfg.out is not None:
        with _staged(cfg.out) as stage:
            report.save(stage / "metrics.csv")
            _write_meta(cfg, {"network": cfg.network, "truth": cfg.truth,
                              "covers": " ".join(str(p) for p in cfg.covers),
                              "aggregate": aggregate}, stage)
    else:
        report.write_csv(sys.stdout)
        print("covers=%d" % len(runs), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="falls back to the config file, then DYNCOMM_SEED, then 0")
    common.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(prog="dyncomm",
                                     description="overlapping community detection "
                                                 "on snapshotted networks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[common],
                         help="write a planted benchmark network and its truth")
    gen.add_argument("config", nargs="?", default=None,
                     help="key=value file: n, k, on, om, mixing, avg_degree, "
                          "max_degree, t, churn, schedule, seed")
    gen.add_argument("--preset", default=None,
                     help="birthdeath-t1 or birthdeath-t2")

    det = sub.add_parser("detect", parents=[common],
                         help="run the sampler over a snapshot file")
    det.add_argument("network", help="edge-list file (t u v lines)")
    det.add_argument("config", nargs="?", default=None,
                     help="key=value file for hyper-parameters, chains, seed")
    det.add_argument("--truth", default=None,
                     help="planted cover file; fills the nmi column")
    det.add_argument("--chains", type=int, default=None,
                     help="independent chains per snapshot; best modularity wins")
    for key, _, cast in _HYPER_FIELDS:
        det.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, default=None)

    ev = sub.add_parser("evaluate", help="score stored covers against a truth file")
    ev.add_argument("covers", nargs="+",
                    help="one or more cover files; several are averaged")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--network", required=True)
    ev.add_argument("--out", default=None, help="output directory")
    return parser


def entry_point(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_run_config(args)
        if cfg.command == "generate":
            return cmd_generate(cfg)
        if cfg.command == "detect":
            return cmd_detect(cfg)
        return cmd_evaluate(cfg)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry_point())
