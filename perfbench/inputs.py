"""Input builders: everything the program reads is made here from the seed.

The fixture is the acceptance gate's birth/death network, handed to
``dyncomm generate`` as a config file and a schedule file.  Only the seed
chooses the generated network; a seed whose ``generate`` fails is reported
as a failure, never replaced.
"""
from __future__ import annotations

from pathlib import Path

FIXTURE_CONFIG = """\
# acceptance fixture: n=200, k=4, T=6, births at t=2 and t=3, deaths at t=4 and t=5
n=200
k=4
on=10
om=2
mixing=0.1
avg_degree=24
t=6
churn=0
schedule={schedule}
"""

FIXTURE_SCHEDULE = """\
2 birth
3 birth
4 death community=4
5 death community=5
"""


def write_fixture(workdir: Path) -> Path:
    """Write the fixture's config and schedule files; return the config path."""
    schedule = workdir / "fixture_schedule.txt"
    schedule.write_text(FIXTURE_SCHEDULE, encoding="utf-8")
    config = workdir / "fixture.cfg"
    config.write_text(FIXTURE_CONFIG.format(schedule=schedule.resolve()),
                      encoding="utf-8")
    return config

