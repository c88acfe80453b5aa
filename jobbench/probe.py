"""Set-up probe: one fresh interpreter from start to ready inputs.

``run.py`` starts this script several times and takes the median of
(ready clock - spawn clock); both ends read CLOCK_MONOTONIC, which is
shared by every process on the machine.  The script prints one JSON line
with the clock reading at which the inputs were ready and the split
into import, job load and input construction.
"""

import argparse
import json
import sys
import time

T0 = time.monotonic()

import program  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    program.pin_threads()
    program.use_tree(args.root)
    t_start = time.monotonic()
    import jobfit.cli  # noqa: F401  -- the import a CLI user pays, scipy.special included

    import workloads

    t_import = time.monotonic()
    spec = workloads.load_job(args.workload, args.seed)
    t_load = time.monotonic()
    workloads.build(args.workload, args.seed, spec).cycle(0)
    t_ready = time.monotonic()
    print(json.dumps({"ready": t_ready, "interp_s": t_start - T0, "import_s": t_import - t_start,
                      "load_s": t_load - t_import, "inputs_s": t_ready - t_load}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
