"""Record the output hashes that ``cli.outputs_match_seed`` compares against.

    python3 perfbench/record_hashes.py [N_SEEDS]

Runs each workload once per seed 0..N_SEEDS-1 (once in all for a workload
without a seed) against ``src/`` of this checkout and writes the sha256 of
its outputs to ``seed_hashes.json``.  Run it only at the commit whose outputs
are the reference; the committed table was recorded at 7523dd9, whose
package code is the initial release.
"""

import json
import sys
import time

from run import OUT, SEED_HASHES, Runner
from workloads import WORKLOADS


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    OUT.mkdir(exist_ok=True)
    table = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(name, time.monotonic(), limit=None)
        seeds = range(n_seeds) if workload.seeded else [0]
        table[name] = {}
        for seed in seeds:
            record = runner.run(seed, "run")
            if not record["ok"]:
                sys.exit(f"{name} seed {seed} failed: {record['why']}")
            table[name][str(seed) if workload.seeded else "*"] = record["hashes"]
            print(name, seed, record["hashes"], flush=True)
    SEED_HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
