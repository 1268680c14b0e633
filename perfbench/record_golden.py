"""Record perfbench/golden.json, the output digests the benchmark checks against.

    python3 perfbench/record_golden.py

For each workload and for seeds 0 (the default) and 1 this sets up
in-process, runs one full input cycle of units, and stores the digest of the
set-up outputs and of every unit's output, with the numpy/BLAS build they
were recorded under. The digests
belong to the tree they were recorded from: re-record them only in a change
that alters output bytes on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import GOLDEN, ROOT, WORK_ROOT, bootstrap, digest_environment

SEEDS = (0, 1)


def main() -> int:
    bootstrap()
    import sysinfo
    import workloads

    env = sysinfo.environment(ROOT)
    golden = {
        "environment": digest_environment(env),
        "recorded_from": {"git_revision": env["git_revision"], "source_sha256": env["source_sha256"]},
        "digests": {},
    }
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workdir = os.path.join(WORK_ROOT, f"golden-{name}-seed{seed}-{os.getpid()}")
            os.makedirs(workdir)
            try:
                wl = cls(seed, workdir, sysinfo.nproc())
                setup_dir = os.path.join(workdir, "setup")
                wl.setup(setup_dir)
                wl.load(setup_dir)
                entry = {"setup": {"tree": workloads.tree_digest(setup_dir)}}
                for i in range(wl.cycle):
                    res = wl.inspect(i, wl.run_unit(i))
                    if res.failed:
                        sys.exit(f"{name} seed {seed} unit {i} failed its structural checks")
                    entry[res.key] = res.digests
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            golden["digests"].setdefault(name, {})[str(seed)] = entry
            print(f"recorded {name} seed {seed}", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
