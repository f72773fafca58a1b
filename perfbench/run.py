"""vertseg benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy. The run

1. generates the workload's inputs from the seed three times in a child
   process (`setup_inputs.py`, so their memory stays out of
   `peak_rss_mb`) and keeps the median as `setup_s`;
2. repeats the workload's unit of work, one at a time in this process (a
   closed loop with one client), until the next one would end after S
   seconds, and always at least once;
3. checks every unit's output against the generated ground truth;
4. with `--trace 1`, runs one more unit with every layer's public
   functions wrapped (see spans.py) and reports per-layer metrics instead
   of end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
full run record (environment, per-unit values, gates, output digest), also
written to `.bench_out/` in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """One BLAS/OpenMP thread per worker thread, so that no more threads
    compute than the pipeline has workers (two with `--workers 2`) and
    every workload does the same floating-point arithmetic. Applies to
    this process and its children only; must run before NumPy is
    imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Put the checkout's `src/` first on the path, or exit with 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vertseg", "__init__.py")):
        print(f"error: no vertseg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def environment(nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            **{var: os.environ[var] for var in THREAD_VARS}}


def run_setup(name, workdir, seed, quick):
    """Generate the inputs SETUP_REPS times in a child process, so that
    their memory stays out of this process's peak RSS; return each time."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_inputs.py"), name,
         workdir, str(seed), str(int(quick)), str(SETUP_REPS)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_unit(wl, state, outdir, tracer=None):
    """One unit of work and its check; returns the unit's record."""
    os.makedirs(outdir, exist_ok=True)
    rec = {"ok": False}
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                (tracer or contextlib.nullcontext()):
            c0, t0 = cpu_now(), time.perf_counter()
            wl.unit(state, outdir)
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = cpu_now() - c0
        rec.update(wl.check(state, outdir))
        rec["ok"] = all(rec["gates"].values())
    except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
        rec["error"] = traceback.format_exc(limit=3)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return rec


def peak_rss_mb(children_before_kb):
    """Peak RSS of this process, or of a child started during the units
    if one went higher (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids if kids > children_before_kb else 0) / 1024.0


def end_to_end(units, setup_times, rss_mb):
    """End-to-end metrics: medians over the run's units. Timings count
    every unit that finished; failed units show in passed_pct."""
    med = statistics.median
    timed = [u for u in units if "wall_s" in u]
    scored = [u for u in units if "dice_pct" in u]
    return {
        "wall_s": (med(u["wall_s"] for u in timed) if timed else 0.0, "s"),
        "cpu_s": (med(u["cpu_s"] for u in timed) if timed else 0.0, "s"),
        "setup_s": (med(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "dice_min_pct": (med(min(u["dice_pct"]) for u in scored)
                         if scored else 0.0, "%"),
        "passed_pct": (100.0 * sum(u["ok"] for u in units) / len(units),
                       "%"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, for the benchmark's self-test")
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cap_threads()
    import_package()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = run_setup(args.workload, workdir, args.seed,
                                args.quick)
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        state = wl.load(workdir, args.quick)
        units, spent = [], []
        while not units or sum(spent) + statistics.median(spent) \
                <= args.seconds:
            t0 = time.perf_counter()
            units.append(run_unit(wl, state, os.path.join(workdir, "out")))
            spent.append(time.perf_counter() - t0)
        rss_mb = peak_rss_mb(children_kb)
        traced = None
        if args.trace:
            tracer = Tracer()
            traced = run_unit(wl, state, os.path.join(workdir, "out"),
                              tracer)
            tracer.write(os.path.join(OUT, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced is None:
        metrics = end_to_end(units, setup_times, rss_mb)
    else:
        metrics = layer_metrics(tracer.spans)
        walls = [u["wall_s"] for u in units if "wall_s" in u]
        metrics["trace_overhead_pct"] = (
            100.0 * (traced["wall_s"] / statistics.median(walls) - 1.0)
            if walls and "wall_s" in traced else 0.0, "%")
        units.append(traced)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "env": environment(nproc),
              "setup_s": setup_times, "units": units}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    failed = sum(1 for u in units if not u["ok"])
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(units),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
