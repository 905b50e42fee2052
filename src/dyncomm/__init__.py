"""Overlapping community detection on snapshotted networks.

Communities live on edges: each edge is seated at a community table with
rich-get-richer weights carried across snapshots, and per-community node
importance vectors turn edge seatings into soft node memberships.  The
package bundles the Gibbs sampling engine, a planted-benchmark generator,
cover quality metrics, and a batch CLI around those pieces.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .benchgen import (Event, GenConfig, GenError, GenSchedule, GroundTruth,
                       apply_events, generate_dynamic, generate_snapshot,
                       load_schedule, plant_memberships, preset)
from .graphs import (DynamicNetwork, GraphFormatError, SnapshotGraph,
                     load_dynamic, save_dynamic)
from .membership import (Cover, extract_cover, load_covers, save_covers,
                         select_best)
from .metrics import (MetricReport, MetricRow, extended_modularity,
                      overlapping_nmi)
from .model import HyperParams, collapsed_partition_score, crp_log_prob
from .sampler import (PrevSummary, SampleRecord, SamplerState, SnapshotResult,
                      detect_dynamic, gibbs_sweep, init_assignments_carry,
                      init_assignments_first, run_snapshot, sweep_records)

__all__ = [
    "__version__",
    "Event", "GenConfig", "GenError", "GenSchedule", "GroundTruth",
    "apply_events", "generate_dynamic", "generate_snapshot", "load_schedule",
    "plant_memberships", "preset",
    "DynamicNetwork", "GraphFormatError", "SnapshotGraph", "load_dynamic",
    "save_dynamic",
    "Cover", "extract_cover", "load_covers", "save_covers",
    "select_best",
    "MetricReport", "MetricRow", "extended_modularity", "overlapping_nmi",
    "HyperParams", "collapsed_partition_score", "crp_log_prob",
    "PrevSummary", "SampleRecord", "SamplerState", "SnapshotResult",
    "detect_dynamic", "gibbs_sweep", "init_assignments_carry",
    "init_assignments_first", "run_snapshot", "sweep_records",
]
