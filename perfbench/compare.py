"""Summarize and compare benchmark results of one machine fingerprint.

Usage, from the repository root::

    python3 perfbench/compare.py                       # medians and IQRs
    python3 perfbench/compare.py --base SRC --head SRC # head vs base

``perfbench/run.py`` appends every result to ``.perfbench/results.jsonl``
with a fingerprint: the machine (CPU count and model, Python, numpy,
BLAS) and the code (``src_sha256``, a digest of ``src/``). Results are
only ever compared within the machine fingerprint of the most recent
result; results of other machines are skipped.
A head median that is worse than the base median by more than the
metric's bound in ``BENCHMARK.json`` is flagged ``REGRESSION``; when the
base's own spread (IQR over median) exceeds the bound, the pair is
``unresolved`` instead of unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR over median) as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=".perfbench/results.jsonl")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--base", help="src_sha256 of the base code")
    parser.add_argument("--head", help="src_sha256 of the head code")
    args = parser.parse_args(argv)

    rows = [json.loads(line) for line in
            Path(args.results).read_text().splitlines() if line.strip()]
    if not rows:
        print("no results", file=sys.stderr)
        return 1
    machines = {json.dumps(r["fingerprint"]["machine"], sort_keys=True)
                for r in rows}
    machine = json.dumps(rows[-1]["fingerprint"]["machine"], sort_keys=True)
    if len(machines) > 1:
        print(f"{len(machines)} machine fingerprints in {args.results}; "
              f"skipping all but the latest, {machine}")
    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values: dict = defaultdict(list)
    for r in rows:
        if json.dumps(r["fingerprint"]["machine"], sort_keys=True) != machine:
            continue
        code = r["fingerprint"]["src_sha256"]
        for name, metric in r["metrics"].items():
            values[(code, r["workload"], name)].append(metric["value"])

    if not (args.base and args.head):
        for (code, workload, name), vals in sorted(values.items()):
            median, iqr = spread(vals)
            print(f"{code} {workload:<20} {name:<28} median {median:<12.6g}"
                  f" iqr/median {iqr:.4f} n={len(vals)}")
        return 0

    worse = 0
    for (code, workload, name), base in sorted(values.items()):
        head = values.get((args.head, workload, name))
        if code != args.base or name not in bounds or not head:
            continue
        bound = bounds[name]["bound"]
        lower = bounds[name]["better"] == "lower"
        base_median, base_iqr = spread(base)
        head_median, _ = spread(head)
        change = (head_median - base_median) / abs(base_median)
        regressed = change > bound if lower else -change > bound
        if regressed:
            verdict = "REGRESSION"
            worse += 1
        elif base_iqr > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{workload:<20} {name:<26} base {base_median:<11.5g} head "
              f"{head_median:<11.5g} {change:+.3%} (bound {bound:.0%}) "
              f"{verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
