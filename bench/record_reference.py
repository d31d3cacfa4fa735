"""Record the reference outputs that every benchmark pass is checked against.

    python3 bench/record_reference.py [WORKLOAD ...]

For every scenario seed in workloads.SEED_POOL it sets the workload up, runs
one pass, checks the shape and invariants of the output, and writes the CSV
text to bench/reference/<workload>.json. Run it only at a commit whose outputs
are trusted; the files in the repository come from the commit that added the
benchmark.
"""

from __future__ import annotations

import json
import os
import sys

import worker

if __name__ == "__main__":
    worker.import_package()
    import workloads

    names = sys.argv[1:] or list(workloads.WORKLOADS)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names:
        recorded = {}
        for seed in workloads.SEED_POOL:
            workload = workloads.WORKLOADS[name](seed, False, worker.OUT_DIR)
            workload.reference = None
            workload.setup()
            out = workload.run_pass()
            workload.close()
            problems = workload.check(out)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems}")
            recorded[str(seed)] = out.text
            print(f"{name} seed {seed}: {len(out.text.splitlines()) - 1} rows",
                  flush=True)
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
