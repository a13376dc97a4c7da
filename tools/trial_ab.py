"""In-process A/B of `run_sweep` between two source trees.

    python3 tools/trial_ab.py PARENT_ROOT CHANGE_ROOT [--reps R] [--trials T]

Each ROOT is a checkout holding `src/ddlink_sim`.  Both packages are
loaded into this one interpreter under different module names.  For
each of the three sweep workloads of `bench/run.py` (their configs,
shares and thresholds are read from its `WORKLOADS`, next to this
file), each rep runs the same one-worker `run_sweep` at T trials per
point on both sides, alternating which side goes first.  Rep r runs at
master seed r, so each rep draws new realizations.

Per workload it prints the number of reps whose summaries differ
between the sides and the largest relative difference between their
numbers over all reps (so that a change at the rounding level reads
differently from a wrong one), each side's median µs per (share,
point, trial) row over the reps, and the median change/parent ratio of
the per-rep times with its quartiles.  Passing the same tree twice is the A/A
control: its ratio spread is the machine's noise.  Exit status 1 when
any summary differs.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, as in the benchmark's children; it must be set
# before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parents[1] / "bench"
SWEEPS = ("paper-hm-sweep", "lm-crowd", "big-frame-outage")


def load_package(root: Path, name: str):
    """Import ROOT/src/ddlink_sim as the package `name`."""
    init = root / "src" / "ddlink_sim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no ddlink_sim package under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sweep_workloads() -> dict:
    """The sweep workloads of bench/run.py."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return {name: run.WORKLOADS[name] for name in SWEEPS}


def timed_sweep(package, workload, master_seed: int, n_trials: int) -> tuple[float, str]:
    """Seconds and the JSON summary of one side's sweep."""
    overrides = dict(workload.config, trials=n_trials, master_seed=master_seed)
    cfg = package.config_from_dict(overrides)
    start = time.perf_counter()
    sweeps = package.run_sweep(
        cfg, thresholds=workload.thresholds or None, shares=workload.p0_values
    )
    return time.perf_counter() - start, json.dumps(sweeps)


def relative_difference(a, b) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numbers of two decoded
    summaries; inf where their structure or other fields differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((relative_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((relative_difference(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool):
        return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
    return 0.0 if a == b else math.inf


def compare(packages, workload, reps: int, n_trials: int) -> tuple[int, float, list, list]:
    """Reps whose summaries differ, the largest relative difference
    between their numbers, and per-rep seconds of (parent, change)."""
    for package in packages:  # warm caches and lazy imports outside the timing
        timed_sweep(package, workload, reps, 1)
    differ, largest = 0, 0.0
    times = ([], [])
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        summaries = [None, None]
        for k in order:
            seconds, summaries[k] = timed_sweep(packages[k], workload, rep, n_trials)
            times[k].append(seconds)
        differ += summaries[0] != summaries[1]
        largest = max(largest, relative_difference(*map(json.loads, summaries)))
    return differ, largest, times[0], times[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--reps", type=int, default=12)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args(argv)
    if args.reps < 1 or args.trials < 1:
        parser.error("--reps and --trials must be at least 1")
    packages = [
        load_package(args.parent_root.resolve(), "ddlink_sim_parent"),
        load_package(args.change_root.resolve(), "ddlink_sim_change"),
    ]
    any_differ = False
    for name, workload in sweep_workloads().items():
        differ, largest, parent, change = compare(packages, workload, args.reps, args.trials)
        rows = len(workload.p0_values) * len(workload.grid) * args.trials
        ratios = [c / p for p, c in zip(parent, change)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(
            f"{name}: {differ} of {args.reps} summaries differ; "
            f"largest relative difference {largest:.3g}; "
            f"median us/row parent {1e6 * statistics.median(parent) / rows:.1f}, "
            f"change {1e6 * statistics.median(change) / rows:.1f}; "
            f"change/parent median {statistics.median(ratios):.3f} (quartiles {q1:.3f}/{q3:.3f})"
        )
        any_differ = any_differ or differ > 0
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
