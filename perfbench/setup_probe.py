"""Time palmlab's import plus the build of one workload's configs and models.

Run in a fresh interpreter: ``python3 perfbench/setup_probe.py <workload>``.
Prints the elapsed seconds, then the mean of two host speed probes run
afterwards in the same process (see speed.py).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import configparser  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palmlab import events, identities, models  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def build(workload) -> list:
    built = []
    for cmd in workload.commands:
        if cmd.argv[0] == "suite":
            built.extend(m.palm_companion() for m in identities.DEFAULT_SUITE_MODELS)
            built.extend(identities.SUITE_BATTERY)
        if cmd.argv[0] == "example84":
            built.append(models.example84_exact(1.0))
        if cmd.config is None:
            continue
        parser = configparser.ConfigParser()
        parser.read_string(cmd.config)
        section = dict(parser.items(parser.sections()[0]))
        built.append(models.model_from_config(section))
        built.extend(events.parse_eventuality(text)
                     for text in section.get("eventualities", "").split(";") if text.strip())
    return built


if __name__ == "__main__":
    build(WORKLOADS[sys.argv[1]])
    elapsed = time.perf_counter() - T0
    probe = SpeedProbe()
    print(repr(elapsed), repr((probe() + probe()) / 2))
