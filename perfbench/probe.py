"""Set-up probe: import vdtoda, generate a workload's inputs, run its first op.

    python3 perfbench/probe.py WORKLOAD SEED

``run.py`` times this whole process from the outside; its wall time is one
``setup_s`` sample.  Exits non-zero if any step raises.
"""

import sys

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.load_vdtoda()
    work = workloads.WORKLOADS[name]
    work.op(work.make_inputs(seed)[0])
