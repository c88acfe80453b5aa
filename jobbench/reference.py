#!/usr/bin/env python3
"""Record the payload digests that later runs are compared with, bit for bit.

    python3 jobbench/reference.py            # seeds 0 (default) and 1 (held out)

Runs the first cycles of every workload on each seed, refuses to record
an output that fails its own checks, and writes reference.json.  Record
again only with a versioned change to the stream layout or a change to a
workload, and say so in CHANGES.md.
"""

import json
import sys

import program
import run

SEEDS = (0, 1)  # the default seed and one held out
# Cycles covered per seed: several times what a run of today's speed uses.
CYCLES = {"fixture-p30": 120, "shared-draws": 16, "max-balanced": 120}


def main() -> int:
    program.pin_threads()
    program.use_tree(program.DEFAULT_ROOT)
    program.check_import(program.DEFAULT_ROOT)
    import workloads

    digests = {}
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, seed, workloads.load_job(name, seed))
            records = run.run_cycles(wl, range(CYCLES[name]))
            problems, found = run.check_records(records, [])
            bad = [line for p in problems for line in p]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            per_cycle = digests.setdefault(str(seed), {}).setdefault(name, [])
            for (c, _, _, _, _, _), d in zip(records, found):
                if c == len(per_cycle):
                    per_cycle.append([])
                per_cycle[c].append(d)
            print(f"seed {seed} {name}: {len(records)} ops in {len(per_cycle)} cycles", file=sys.stderr)
    doc = {"env": program.describe(program.DEFAULT_ROOT), "digests": digests}
    run.REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
