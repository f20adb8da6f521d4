"""One set-up of gtrig in a fresh interpreter, timed in two parts.

    python3 perfbench/probe.py <src dir> <workload>

Prints ``{"import_s": ..., "warm_s": ...}``: the time to import gtrig (and
gtrig.cli for verify-catalog), then the time of the workload's warm-up (the
first calls that fill the per-pair caches; nothing for pairs-cold).  run.py starts several of these and takes
the median, so each one pays the import as a user's first process would.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# What each workload imports before its first call.
IMPORTS = {"verify-catalog": ("gtrig", "gtrig.cli")}


def main() -> None:
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    for module in IMPORTS.get(workload, ("gtrig",)):
        importlib.import_module(module)
    imported = time.perf_counter()
    import gtrig
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](gtrig, 0)
    start_warm = time.perf_counter()
    wl.warm()
    warmed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warm_s": warmed - start_warm}))


if __name__ == "__main__":
    main()
