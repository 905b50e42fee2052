import dyncomm

PUBLIC_API = [
    "CommunityStats", "Cover", "DynamicNetwork", "Event", "GenConfig",
    "GenError", "GenSchedule", "GraphFormatError", "GroundTruth",
    "HyperParams", "MetricReport", "MetricRow", "PrevSummary",
    "SampleRecord", "SamplerState", "SnapshotGraph", "SnapshotResult",
    "SoftMembership", "__version__", "apply_events",
    "collapsed_partition_score", "crp_log_prob", "detect_dynamic",
    "extended_modularity", "extract_cover", "generate_dynamic",
    "generate_snapshot", "gibbs_sweep", "init_assignments_carry",
    "init_assignments_first", "load_covers", "load_dynamic",
    "load_schedule", "overlapping_nmi", "plant_memberships", "preset",
    "run_snapshot", "save_covers", "save_dynamic", "select_best", "validate",
]


def test_public_api_is_pinned():
    # a change to the exported names must show up as an edit of this list
    assert sorted(dyncomm.__all__) == PUBLIC_API
    for name in dyncomm.__all__:
        assert getattr(dyncomm, name) is not None
