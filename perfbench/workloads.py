"""The benchmark's workloads and command line, without the program.

``perfbench/run.py`` reads them to start the measurement process on the
right CPUs; ``perfbench/measure.py`` reads them to run it. Nothing here
imports numpy or ``repro``, so the parent can use it before the child
loads either.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    feedlines: int
    executor: str
    batch_size: int
    #: Shots per feedline per ``run()`` (on replay: the corpus size).
    shots: int
    #: Confine the measurement process to one CPU, and report its times
    #: at that CPU's nominal speed. The single-feedline path is one
    #: serving thread plus sink consumer threads that take turns on the
    #: GIL; across two CPUs the hand-offs, and BLAS threads spinning on
    #: the second CPU, make its runs swing by 2x on a shared host, while
    #: on one CPU the same runs take the same wall within a few percent,
    #: at a speed a reference kernel on that CPU can measure.
    one_cpu: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replay-1fl", "replay", 1, "serial", 64, 16384, True),
        Workload("sim-1fl", "simulator", 1, "serial", 64, 4096, True),
        Workload("replay-2fl-process", "replay", 2, "process", 256, 16384,
                 False),
    )
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Readout-serving benchmark: one workload, one result line.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measurement_cpus(workload: Workload) -> set[int] | None:
    """CPUs to confine the measurement process to (None: leave as is)."""
    if not workload.one_cpu or not hasattr(os, "sched_getaffinity"):
        return None
    return {min(os.sched_getaffinity(0))}
