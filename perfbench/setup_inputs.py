"""Generate a workload's inputs REPS times; print the times as JSON.

    python3 perfbench/setup_inputs.py WORKLOAD WORKDIR SEED QUICK REPS

run.py runs this in a child process, so that input generation's memory
stays out of the measured process's peak RSS.
"""

import json
import sys
import time

from run import cap_threads, import_package


def main(name, workdir, seed, quick, reps):
    cap_threads()
    import_package()
    from workloads import WORKLOADS
    times = []
    for _ in range(int(reps)):
        t0 = time.perf_counter()
        WORKLOADS[name].setup(workdir, int(seed), quick == "1")
        times.append(time.perf_counter() - t0)
    print(json.dumps(times))


if __name__ == "__main__":
    main(*sys.argv[1:])
