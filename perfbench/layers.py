"""Per-layer metrics computed from the spans of one traced operation.

Layers are the dyncomm modules on the CLI path: ``sampler``, ``membership``,
``metrics``, ``graphs``, ``benchgen`` and ``cli``.  ``model`` holds only
reference kernels that the CLI does not run, so it has no layer here.
Every value comes from the spans of one traced ``detect`` except
``benchgen.*`` and ``graphs.save_dynamic_s``, which come from the traced
``generate``.
"""
from __future__ import annotations

import statistics

from spans import self_times

# name -> (unit, better); BENCHMARK.json lists exactly these, in this order.
PER_LAYER = {
    "sampler.edge_pass_s": ("s", "lower"),
    "sampler.edge_visits": ("count", "lower"),
    "sampler.edge_visit_us": ("us", "lower"),
    "sampler.edge_pass_share": ("ratio", "lower"),
    "sampler.edge_pass_sweep_share": ("ratio", "lower"),
    "sampler.sweep_ms_p50": ("ms", "lower"),
    "sampler.sweep_ms_p99": ("ms", "lower"),
    "sampler.beta_resample_s": ("s", "lower"),
    "sampler.record_self_s": ("s", "lower"),
    "sampler.live_k_mean": ("count", "lower"),
    "sampler.records_built": ("count", "lower"),
    "sampler.record_use_ratio": ("ratio", "higher"),
    "sampler.record_bytes_peak": ("bytes", "lower"),
    "sampler.chain_s": ("s", "lower"),
    "sampler.chain_imbalance": ("ratio", "lower"),
    "sampler.init_s": ("s", "lower"),
    "sampler.select_s": ("s", "lower"),
    "sampler.communities_opened": ("count", "lower"),
    "membership.soft_membership_s": ("s", "lower"),
    "membership.extract_cover_s": ("s", "lower"),
    "membership.load_covers_s": ("s", "lower"),
    "membership.save_covers_s": ("s", "lower"),
    "membership.cover_lines": ("count", "lower"),
    "metrics.extended_modularity_s": ("s", "lower"),
    "metrics.extended_modularity_calls": ("count", "lower"),
    "metrics.overlapping_nmi_s": ("s", "lower"),
    "metrics.nmi_pairs": ("count", "lower"),
    "metrics.report_write_s": ("s", "lower"),
    "graphs.load_dynamic_s": ("s", "lower"),
    "graphs.lines_parsed": ("count", "lower"),
    "graphs.save_dynamic_s": ("s", "lower"),
    "benchgen.plant_s": ("s", "lower"),
    "benchgen.apply_events_s": ("s", "lower"),
    "benchgen.generate_snapshot_s": ("s", "lower"),
    "benchgen.edges_placed": ("count", "lower"),
    "cli.resolve_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.self_share": ("ratio", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

_CLI_SELF = ("cli.entry_point", "cli.cmd_generate", "cli.cmd_detect")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)

    def of(self, name):
        return [s for s in self.spans if s[2] == name]

    def total(self, *names) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] in names)

    def self_total(self, *names) -> float:
        return sum(st for s, st in zip(self.spans, self.self_s) if s[2] in names)

    def calls(self, name) -> int:
        return len(self.of(name))

    def count(self, name) -> int:
        return sum(s[5]["n"] for s in self.of(name))


def layer_metrics(op_spans, gen_spans, line_count, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER value for one traced command and its traced generate.

    ``line_count(path)`` gives the lines of a file that ``load_dynamic`` read;
    it is counted here, after the run, so the traced call does not pay it.
    """
    op, gen = _Index(op_spans), _Index(gen_spans)
    roots = [s for s in op_spans if s[1] == -1]
    op_s = sum(s[4] - s[3] for s in roots)

    sweeps = [s[4] - s[3] for s in op.of("sampler.gibbs_sweep")]
    edge_visits = op.count("sampler.gibbs_sweep")
    beta_s = op.total("sampler.resample_beta")
    edge_pass_s = sum(sweeps) - beta_s
    records = op.of("sampler.record")
    chains = op.of("sampler.run_snapshot")
    by_t: dict[int, list[float]] = {}
    for s in chains:
        by_t.setdefault(s[5]["t"], []).append(s[4] - s[3])
    imbalance = [max(d) / min(d) for d in by_t.values() if min(d) > 0]
    used = op.calls("sampler.carry_over")
    cli_self = op.self_total(*_CLI_SELF)

    return {
        "sampler.edge_pass_s": edge_pass_s,
        "sampler.edge_visits": edge_visits,
        "sampler.edge_visit_us": 1e6 * edge_pass_s / edge_visits if edge_visits else 0.0,
        "sampler.edge_pass_share": edge_pass_s / op_s if op_s else 0.0,
        "sampler.edge_pass_sweep_share": edge_pass_s / sum(sweeps) if sweeps else 0.0,
        "sampler.sweep_ms_p50": 1e3 * _percentile(sweeps, 50),
        "sampler.sweep_ms_p99": 1e3 * _percentile(sweeps, 99),
        "sampler.beta_resample_s": beta_s,
        "sampler.record_self_s": op.self_total("sampler.record"),
        "sampler.live_k_mean": (statistics.fmean(s[5]["n"] for s in records)
                                if records else 0.0),
        "sampler.records_built": len(records),
        "sampler.record_use_ratio": used / len(records) if records else 0.0,
        "sampler.record_bytes_peak": max((s[5]["n"] for s in chains), default=0),
        "sampler.chain_s": sum(sum(d) for d in by_t.values()),
        "sampler.chain_imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "sampler.init_s": op.total("sampler.init_assignments", "sampler.state_init"),
        "sampler.select_s": op.total("sampler.select_best", "sampler.carry_over"),
        "sampler.communities_opened": op.calls("sampler.open_community"),
        "membership.soft_membership_s": op.total("membership.soft_membership"),
        "membership.extract_cover_s": op.total("membership.extract_cover"),
        "membership.load_covers_s": op.total("membership.load_covers"),
        "membership.save_covers_s": op.total("membership.save_covers"),
        "membership.cover_lines": (op.count("membership.load_covers")
                                   + op.count("membership.save_covers")),
        "metrics.extended_modularity_s": op.total("metrics.extended_modularity"),
        "metrics.extended_modularity_calls": op.calls("metrics.extended_modularity"),
        "metrics.overlapping_nmi_s": op.total("metrics.overlapping_nmi"),
        "metrics.nmi_pairs": op.count("metrics.overlapping_nmi"),
        "metrics.report_write_s": op.total("metrics.report_write"),
        "graphs.load_dynamic_s": op.total("graphs.load_dynamic"),
        "graphs.lines_parsed": sum(line_count(s[5]["path"])
                                   for s in op.of("graphs.load_dynamic")),
        "graphs.save_dynamic_s": gen.total("graphs.save_dynamic"),
        "benchgen.plant_s": gen.total("benchgen.plant"),
        "benchgen.apply_events_s": gen.total("benchgen.apply_events"),
        "benchgen.generate_snapshot_s": gen.total("benchgen.generate_snapshot"),
        "benchgen.edges_placed": gen.count("benchgen.generate_snapshot"),
        "cli.resolve_s": op.total("cli.resolve"),
        "cli.write_s": op.total("membership.save_covers", "metrics.report_write",
                                "cli.write_meta"),
        "cli.self_s": cli_self,
        "cli.self_share": cli_self / op_s if op_s else 0.0,
        "trace.op_s": op_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(op_spans),
    }
