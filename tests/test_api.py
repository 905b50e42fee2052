import os
import subprocess
import sys
from pathlib import Path

import dyncomm

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
