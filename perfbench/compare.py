#!/usr/bin/env python3
"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes to ``perfbench/results/``.  For every end-to-end metric the
script prints both medians over seeds and the change, and flags a change
worse than the metric's bound.  Per-layer medians are printed without a
verdict.  Records made with different alignment backends measure different
programs, so the script refuses to compare them.  Exit code: 0 when nothing
regressed, 1 when something did, 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import manifest  # noqa: E402


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace flag)."""
    records = defaultdict(list)
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        records[(record["stamp"]["workload"], record["stamp"]["trace"])].append(record)
    return records


def medians(records: list[dict]) -> dict[str, float]:
    values = defaultdict(list)
    for record in records:
        for name, m in record["metrics"].items():
            values[name].append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    backends = {r["stamp"]["backend"] for rs in (*base.values(), *new.values()) for r in rs}
    if len(backends) != 1:
        print(f"refusing to compare records from different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    specs = {n: (better, bound) for n, _u, better, bound in manifest.END_TO_END}
    specs.update({n: (better, None) for n, _u, better, _m in manifest.PER_LAYER})
    regressed = False
    for key in sorted(base.keys() & new.keys()):
        b, n = medians(base[key]), medians(new[key])
        print(f"## {key[0]} ({'per-layer' if key[1] else 'end-to-end'}; "
              f"{len(base[key])} vs {len(new[key])} runs)")
        for name in sorted(b.keys() & n.keys()):
            better, bound = specs.get(name, ("higher", None))
            change = (n[name] - b[name]) / b[name] if b[name] else 0.0
            worse = -change if better == "higher" else change
            verdict = ""
            if bound is not None:
                verdict = "REGRESSED" if worse > bound else "ok"
                regressed |= worse > bound
            print(f"{name:32s} {b[name]:14.6g} {n[name]:14.6g} {change:+8.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
