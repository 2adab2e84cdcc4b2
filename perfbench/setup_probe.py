"""Set-up probe: one fresh process that gets a batch workload ready.

Run as ``python3 perfbench/setup_probe.py <workload> <workdir>``;
it prints ``ready`` once imports, session and checker construction and
prewarm are done.  The parent times process start to that line.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(workload: str, workdir: str) -> None:
    from perfbench.batch import make_state

    make_state(workload, workdir)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
