"""Set-up probe: import symcirc, generate one workload's seeded checks, then
print "ready".  run.py times a fresh interpreter from start to that line.

    python3 perfbench/probe.py families 1
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.make_checks(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
