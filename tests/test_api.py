import argparse
import dataclasses
import inspect
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import dyncomm
from dyncomm.cli import _CONFIG_KEYS, build_parser

PUBLIC_API = [
    "Cover", "DynamicNetwork", "Event", "GenConfig",
    "GenError", "GenSchedule", "GraphFormatError", "GroundTruth",
    "HyperParams", "MetricReport", "MetricRow", "PrevSummary",
    "SampleRecord", "SamplerState", "SnapshotGraph", "SnapshotResult",
    "__version__", "apply_events",
    "collapsed_partition_score", "crp_log_prob", "detect_dynamic",
    "extended_modularity", "extract_cover", "generate_dynamic",
    "generate_snapshot", "gibbs_sweep", "init_assignments_carry",
    "init_assignments_first", "load_covers", "load_dynamic",
    "load_schedule", "overlapping_nmi", "plant_memberships", "preset",
    "run_snapshot", "save_covers", "save_dynamic", "select_best",
    "sweep_records",
]


def test_public_api_is_pinned():
    # a change to the exported names must show up as an edit of this list
    assert sorted(dyncomm.__all__) == PUBLIC_API
    for name in dyncomm.__all__:
        assert getattr(dyncomm, name) is not None


SETTINGS = {
    "HyperParams": ["alpha", "gamma", "theta", "s_first", "s_later"],
    "GenConfig": ["n", "k", "overlap_nodes", "memberships_per_overlap", "mixing",
                  "avg_degree", "max_degree", "t", "churn", "seed"],
    "generate flags": ["--out", "--preset", "--seed"],
    "generate keys": ["avg_degree", "churn", "k", "max_degree", "mixing", "n", "om",
                      "on", "schedule", "seed", "t"],
    "detect flags": ["--alpha", "--chains", "--gamma", "--out", "--samples-first",
                     "--samples-later", "--seed", "--theta", "--truth"],
    "detect keys": ["alpha", "chains", "gamma", "samples_first", "samples_later",
                    "seed", "theta"],
    "evaluate flags": ["--network", "--out", "--truth"],
}


def test_settable_surface_is_pinned():
    # a new setting must show up as an edit of this table
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    found = {name: [f.name for f in dataclasses.fields(cls)]
             for name, cls in [("HyperParams", dyncomm.HyperParams),
                               ("GenConfig", dyncomm.GenConfig)]}
    for command, sub in commands.items():
        found[command + " flags"] = sorted(opt for a in sub._actions for opt in a.option_strings
                                           if opt not in ("-h", "--help"))
    for command, keys in _CONFIG_KEYS.items():
        found[command + " keys"] = sorted(keys)
    assert found == SETTINGS


SIGNATURES = {
    "SamplerState.__init__": ["self", "graph", "assignment", "prev_counts", "hyper", "rng",
                              "first_id"],
    "init_assignments_first": ["g", "seed"],
    "init_assignments_carry": ["g", "prev", "seed"],
    "sweep_records": ["g", "prev", "hyper", "seed", "first_id"],
    "run_snapshot": ["g", "prev", "hyper", "seed", "first_id"],
    "detect_dynamic": ["net", "hyper", "seed", "chains"],
    "gibbs_sweep": ["state"],
}


def test_sampler_entry_points_are_pinned():
    # a parameter added to or dropped from the sampler's entry points must
    # show up as an edit of this table
    found = {name: list(inspect.signature(reduce(getattr, name.split("."), dyncomm)).parameters)
             for name in SIGNATURES}
    assert found == SIGNATURES


STARTUP = """\
import sys
import dyncomm, dyncomm.cli
from dyncomm import HyperParams, detect_dynamic, load_dynamic
net = load_dynamic(sys.argv[1])
detect_dynamic(net, HyperParams(s_first=2, s_later=2), seed=1)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy(tmp_path):
    # scipy costs every CLI process a third of a second and ~27 MB at start-up
    net = tmp_path / "net.txt"
    net.write_text("1 0 1\n1 1 2\n1 0 2\n1 2 3\n2 0 1\n2 n 7\n2 1 3\n")
    src = Path(dyncomm.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", STARTUP, str(net)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
