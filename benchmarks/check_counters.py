"""Compare a traced perfbench result with the checked-in work counters.

    python3 benchmarks/check_counters.py perfbench-suite-quick.jsonl

The last line of the perfbench output is its result; every counter named in
``perfbench_counters.json`` must equal the result's value.  On a difference
the script prints one line per counter (baseline, measured, delta) and
exits 1.  Counters are exact work counts, so the gate needs no clock.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench_counters.json")


def counter_diff(baseline: Dict[str, int], metrics: Dict[str, dict]) -> List[str]:
    """One line per counter that differs from (or is missing in) ``metrics``."""
    lines = []
    for name, expected in sorted(baseline.items()):
        measured = metrics.get(name, {}).get("value")
        if measured != expected:
            delta = "" if measured is None else f" ({measured - expected:+d})"
            lines.append(f"{name}: baseline {expected}, measured {measured}{delta}")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(argv[0], encoding="utf-8") as handle:
        result = json.loads(handle.read().splitlines()[-1])
    diff = counter_diff(baseline["counters"], result["metrics"])
    for line in diff:
        print(line)
    if diff:
        print(f"{len(diff)} counter(s) differ from {os.path.basename(BASELINE)}")
        return 1
    print(f"all {len(baseline['counters'])} counters match {os.path.basename(BASELINE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
