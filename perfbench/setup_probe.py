"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD   (from the repo root)

The clock runs from just before ``import k3atlas`` until the first op may
be timed: the import, the first ``load_atlas()`` and one untimed warm-up
op per op kind (``workloads.set_up``).  For ``catalog_external`` the caller
sets ATLAS_DATA_DIR.  The benchmark's own modules load before the clock
starts.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    start = time.perf_counter()
    workloads.set_up(sys.argv[1])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
