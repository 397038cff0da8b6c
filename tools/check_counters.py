#!/usr/bin/env python3
"""Gate a traced benchmark run's deterministic counters against pinned values.

    python3 tools/check_counters.py PINNED_JSON WORKLOAD RUN_OUTPUT

RUN_OUTPUT is what `perfbench/run.py --workload WORKLOAD --seed 1
--trace 1` printed; its last line is the run's JSON summary.  The check
fails unless the run is `correct` and every count-valued metric in it
equals the value PINNED_JSON holds for that workload, with none missing
or extra on either side.  Count-valued metrics repeat exactly run to run
for a given seed and domain count (perfbench/README.md): `router.*`,
`search.runs`/`settled_nodes`/`h_evals`, `journal.*`, `eco.*` and
`width.probes`/`failed_probes`.

A change that moves a counter on purpose updates PINNED_JSON in the same
commit, which puts the old and new values side by side in its diff.
"""

import json
import sys

COUNTED_LAYERS = ("router.", "journal.", "eco.")
COUNTED_NAMES = {
    "search.runs",
    "search.settled_nodes",
    "search.h_evals",
    "width.probes",
    "width.failed_probes",
}


def counted(name):
    return name.startswith(COUNTED_LAYERS) or name in COUNTED_NAMES


def main():
    if len(sys.argv) != 4:
        sys.exit("usage: check_counters.py PINNED_JSON WORKLOAD RUN_OUTPUT")
    pinned_path, workload, output_path = sys.argv[1:]
    with open(pinned_path) as f:
        pinned = json.load(f)[workload]
    with open(output_path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        sys.exit(f"check_counters: {output_path} is empty")
    run = json.loads(lines[-1])
    problems = []
    if run.get("correct") is not True:
        problems.append("the run is not correct")
    got = {k: v["value"] for k, v in run.get("metrics", {}).items() if counted(k)}
    for name in sorted(set(pinned) | set(got)):
        if name not in got:
            problems.append(f"{name}: pinned {pinned[name]!r}, missing from the run")
        elif name not in pinned:
            problems.append(f"{name}: {got[name]!r} in the run, not pinned")
        elif got[name] != pinned[name]:
            problems.append(f"{name}: {got[name]!r}, pinned {pinned[name]!r}")
    if problems:
        for p in problems:
            print(f"check_counters: {workload}: {p}", file=sys.stderr)
        sys.exit(1)
    print(f"check_counters: {workload}: {len(got)} counters match {pinned_path}")


if __name__ == "__main__":
    main()
