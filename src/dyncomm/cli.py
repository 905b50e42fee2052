"""Batch front end for benchmark generation, detection, and evaluation.

Three subcommands share one configuration story: an optional key=value
config file, command-line flags that win over it, and DYNCOMM_SEED as the
seed of last resort.  Outputs are plain text (edge lists, cover files,
metric CSV) plus a run_meta.txt that echoes the resolved settings, so a
run can be reproduced from its output directory alone.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation resolved to."""

    command: str
    hyper: HyperParams
    seed: int
    chains: int = 1
    out: Path | None = None
    network: Path | None = None
    truth: Path | None = None
    covers: tuple[Path, ...] = ()
    gen: GenConfig | None = None
    schedule: GenSchedule = GenSchedule()
    preset_name: str | None = None
    aggregate: bool = False


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
    if getattr(args, "seed", None) is not None:
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
        given = getattr(args, flag, None)
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
    filecfg = _read_config(args.config) if getattr(args, "config", None) else {}
    seed = _resolve_seed(args, filecfg)
    hyper = _resolve_hyper(args, filecfg)
    chains = getattr(args, "chains", None)
    if chains is None:
        chains = _cast(filecfg, "chains", int) if "chains" in filecfg else 1
    if chains < 1:
        raise ValueError("chains must be >= 1")
    out = Path(args.out) if getattr(args, "out", None) else None
    common = dict(hyper=hyper, seed=seed, chains=chains, out=out)
    if args.command == "generate":
        gen, sched = _resolve_gen(args, filecfg, seed)
        if out is None:
            raise ValueError("generate needs --out to place its files")
        return RunConfig("generate", gen=gen, schedule=sched,
                         preset_name=args.preset, **common)
    if args.command == "detect":
        if out is None:
            raise ValueError("detect needs --out to place its files")
        return RunConfig("detect", network=Path(args.network),
                         truth=Path(args.truth) if args.truth else None,
                         **common)
    return RunConfig("evaluate", covers=tuple(Path(p) for p in args.covers),
                     network=Path(args.network), truth=Path(args.truth),
                     aggregate=args.aggregate, **common)


def _write_meta(cfg: RunConfig, extra: dict[str, object]) -> None:
    lines = {"command": cfg.command, "version": __version__, "seed": cfg.seed}
    lines.update((key, getattr(cfg.hyper, field)) for key, field, _ in _HYPER_FIELDS)
    lines.update(extra)
    with open(cfg.out / "run_meta.txt", "w", encoding="utf-8") as fh:
        for key, val in lines.items():
            fh.write("%s=%s\n" % (key, val))


def cmd_generate(cfg: RunConfig) -> int:
    """Write network.txt and truth.txt for a planted dynamic benchmark."""
    net, truth = generate_dynamic(cfg.gen, cfg.schedule)
    cfg.out.mkdir(parents=True, exist_ok=True)
    save_dynamic(net, cfg.out / "network.txt")
    save_covers(cfg.out / "truth.txt",
                {t: cover for t, cover in enumerate(truth.covers, start=1)})
    gen_meta = {key: getattr(cfg.gen, field) for key, field, _ in _GEN_FIELDS}
    gen_meta["preset"] = cfg.preset_name or "none"
    gen_meta["k_series"] = " ".join(str(k) for k in truth.k_series)
    _write_meta(cfg, gen_meta)
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
        rows.append(MetricRow(res.t, nmi, res.record.modularity, res.cover.k))
    report = MetricReport(rows)
    cfg.out.mkdir(parents=True, exist_ok=True)
    save_covers(cfg.out / "covers.txt", {r.t: r.cover for r in results})
    report.save(cfg.out / "metrics.csv")
    _write_meta(cfg, {"chains": cfg.chains, "network": cfg.network,
                      "truth": cfg.truth or "none"})
    print("detected %d snapshots, k_series: %s"
          % (len(results), " ".join(str(r.cover.k) for r in results)))
    return 0


def _nmi_universe(g, truth_cover) -> set[int]:
    """Nodes the NMI is taken over: the snapshot's nodes plus every node the
    truth cover names, since a truth cover may still name a node that has
    left the network."""
    return set(g.nodes) | truth_cover.covered_nodes()


def _evaluate_one(covers, truth, snaps) -> list[MetricRow]:
    rows = []
    for t in sorted(covers):
        g = snaps[t]
        nmi = overlapping_nmi(covers[t], truth[t], _nmi_universe(g, truth[t]))
        rows.append(MetricRow(t, nmi, extended_modularity(covers[t], g),
                              covers[t].k))
    return rows


def cmd_evaluate(cfg: RunConfig) -> int:
    """Score stored covers against a truth file on their network."""
    net = load_dynamic(cfg.network)
    snaps = {g.t: g for g in net.snapshots}
    truth = load_covers(cfg.truth)
    runs = [load_covers(p) for p in cfg.covers]
    if len(runs) > 1 and not cfg.aggregate:
        raise ValueError("multiple cover files need --aggregate")
    for path, covers in zip(cfg.covers, runs):
        if set(covers) != set(truth) or not set(covers) <= set(snaps):
            raise ValueError("snapshot mismatch between %s, truth, and network"
                             % path)
    per_run = [_evaluate_one(covers, truth, snaps) for covers in runs]
    if cfg.aggregate:
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
        cfg.out.mkdir(parents=True, exist_ok=True)
        report.save(cfg.out / "metrics.csv")
        _write_meta(cfg, {"network": cfg.network, "truth": cfg.truth,
                          "covers": " ".join(str(p) for p in cfg.covers),
                          "aggregate": cfg.aggregate})
    else:
        report.write_csv(sys.stdout)
        print("seed=%d covers=%d" % (cfg.seed, len(runs)), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key, _, cast in _HYPER_FIELDS:
        common.add_argument("--" + key.replace("_", "-"), dest=key, type=cast,
                            default=None)
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

    ev = sub.add_parser("evaluate", parents=[common],
                        help="score stored covers against a truth file")
    ev.add_argument("covers", nargs="+", help="one or more cover files")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--network", required=True)
    ev.add_argument("--aggregate", action="store_true",
                    help="average metrics across the given cover files")
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
