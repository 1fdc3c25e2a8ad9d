"""Readout-serving benchmark: one command, one workload, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-1fl --seed 1 --seconds 10 --trace 0

Workloads (all on the five-qubit chip, source chunks of 256 shots):

- ``replay-1fl``: one feedline replaying a corpus recorded from the
  seed before timing, batch 64. The simulator is outside the timed
  window, so engine, run loop, sink and drift monitor do all the work.
- ``sim-1fl``: the same chip and batching on the in-process simulator
  backend; physics simulation dominates, so engine-only changes should
  not move it.
- ``replay-2fl-process``: two feedlines on two process shards, the same
  corpus broadcast over shared memory, batch 256; the only workload
  that runs shard dispatch and the shared-memory hand-off.

Each run drives a warm ``repro.serve.ReadoutService`` in a closed loop
(one caller waiting for each ``run()``) and checks every run against
offline ``MLRDiscriminator.predict`` on the same traces. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics
from spans recorded around the program's public functions, writes them
as Chrome trace-event JSON under ``.perfbench/`` and prints each layer's
ns/shot beside the FPGA model's cycles.

The measurement runs in a child process (``perfbench/measure.py``); the
workloads and the command line are in ``perfbench/workloads.py``. The
child of a single-feedline workload is confined to one CPU and reports
its times at that CPU's nominal speed (see ``Workload.one_cpu``). This parent adds what only it can see: the
multiprocessing resource tracker's
"leaked shared_memory" warnings, which the tracker prints after the
child exits. They are counted (``shm.tracker_warnings``), never
filtered. Every result is appended, with a machine fingerprint, to
``.perfbench/results.jsonl``; ``perfbench/compare.py`` compares results
with the same fingerprint only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero, with no result line, when the program or the benchmark cannot
run, and non-zero after the result line when any served label disagrees
with offline predict.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, measurement_cpus, parse_args

#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
#: Program switches that arm debug instrumentation; never benchmarked.
DEBUG_ENV = ("REPRO_SANITIZE", "REPRO_LOCK_DEBUG")
TRACKER_WARNING = re.compile(r"UserWarning: resource_tracker:")


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    """Machine identity (compare only equal ones) plus code identity."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name,
        },
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program at src/repro; run from the repository "
            "root", file=sys.stderr,
        )
        return 2
    cpus = measurement_cpus(WORKLOADS[parse_args(argv).workload])
    env = {k: v for k, v in os.environ.items() if k not in DEBUG_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    command = [sys.executable, "-m", "perfbench.measure", *argv]
    child = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=None if cpus is None else (
            lambda: os.sched_setaffinity(0, cpus)),
    )
    try:
        # Reading both pipes to their end also waits for the shard
        # workers and the resource tracker, which inherit them.
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        sys.stderr.write(err)
        print(f"perfbench: gave up after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stderr.write(err)
    lines = out.splitlines()
    if child.returncode != 0 or not lines[-1:] or lines[-1][:1] != "{":
        # Argument errors, --help and failed measurements print no result.
        sys.stdout.write(out)
        if child.returncode != 0:
            print(f"perfbench: measurement exited with {child.returncode}",
                  file=sys.stderr)
        return child.returncode
    payload = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    warnings = len(TRACKER_WARNING.findall(err))
    per_run = warnings / payload["runs_served"]
    print(f"resource_tracker warnings: {warnings} "
          f"({per_run:.3g} per served run)")
    run = dict(payload["run"], cpus=None if cpus is None else sorted(cpus))
    if run["trace"]:
        payload["metrics"]["shm.tracker_warnings"] = {
            "value": per_run, "unit": "count/run"}
    machine = fingerprint(root)
    print("fingerprint: " + json.dumps(machine, sort_keys=True))
    result = {key: payload[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    with open(state / "results.jsonl", "a") as trajectory:
        trajectory.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **run, "fingerprint": machine, **result,
        }) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
