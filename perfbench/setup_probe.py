"""Time one fresh interpreter from ``import flickersim.cli`` to built inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1>

Prints the seconds as its only line.  run.py starts it several times per
run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    t0 = time.perf_counter()
    import flickersim.cli  # noqa: F401  (the import is what is timed)
    import workloads

    sizes = workloads.TINY if tiny else workloads.FULL
    workloads.build(workload, seed, sizes, here / "_work" / "probe")
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
