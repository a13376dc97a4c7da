"""In-process A/B of `run_trial` between two source trees.

    python3 tools/trial_ab.py PARENT_ROOT CHANGE_ROOT [--reps R] [--trials T]

Each ROOT is a checkout holding `src/ddlink_sim`.  Both packages are
loaded into this one interpreter under different module names, and
each rep runs the same T trials on both, alternating which side goes
first, for each of the three sweep workloads of `bench/run.py` (their
configs are read from its `WORKLOADS`, next to this file).  Trial t of
rep r runs at grid point p = t mod P with the seed that a sweep gives
trial r*T + t of point p, so each rep draws new realizations.

Per workload it prints the number of `run_trial` rows that differ
bitwise between the sides, each side's median µs per trial over the
reps, and the median change/parent ratio of the per-rep times with its
quartiles.  Passing the same tree twice is the A/A control: its ratio
spread is the machine's noise.  Exit status 1 when any row differs.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, as in the benchmark's children; it must be set
# before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

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


def sweep_configs() -> dict:
    """Config overrides of the sweep workloads in bench/run.py."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return {name: run.WORKLOADS[name].config for name in SWEEPS}


def trial_inputs(cfg, simkit, rep: int, n_trials: int) -> list:
    """(rho_t_db, trial seed) of rep's trials, as a sweep seeds them."""
    grid = cfg.rho_T_grid
    points = [t % len(grid) for t in range(n_trials)]
    return [
        (grid[p], simkit.derive_trial_seed(cfg.master_seed, p, rep * n_trials + t))
        for t, p in enumerate(points)
    ]


def timed_rows(side, inputs) -> tuple[float, np.ndarray]:
    """Seconds per trial and the stacked rows of one side's trials."""
    cfg, run_trial = side
    start = time.perf_counter()
    rows = [run_trial(cfg, rho_t_db, seed) for rho_t_db, seed in inputs]
    return (time.perf_counter() - start) / len(inputs), np.stack(rows)


def compare(sides, simkit, reps: int, n_trials: int) -> tuple[int, int, list, list]:
    """Differing rows, rows compared, and per-rep seconds per trial of
    (parent, change)."""
    for side in sides:  # warm caches and lazy imports outside the timing
        timed_rows(side, trial_inputs(side[0], simkit, reps, 1))
    differ = compared = 0
    times = ([], [])
    for rep in range(reps):
        inputs = trial_inputs(sides[0][0], simkit, rep, n_trials)
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        rows = [None, None]
        for k in order:
            per_trial, rows[k] = timed_rows(sides[k], inputs)
            times[k].append(per_trial)
        # Bitwise: NaN columns of an absent member compare equal.
        same = (rows[0].view(np.uint64) == rows[1].view(np.uint64)).all(axis=1)
        differ += int((~same).sum())
        compared += len(same)
    return differ, compared, times[0], times[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--trials", type=int, default=100)
    args = parser.parse_args(argv)
    if args.reps < 1 or args.trials < 1:
        parser.error("--reps and --trials must be at least 1")
    packages = [
        load_package(args.parent_root.resolve(), "ddlink_sim_parent"),
        load_package(args.change_root.resolve(), "ddlink_sim_change"),
    ]
    simkit = sys.modules["ddlink_sim_parent.simkit"]
    any_differ = False
    for name, overrides in sweep_configs().items():
        sides = [(pkg.config_from_dict(dict(overrides)), pkg.run_trial) for pkg in packages]
        differ, compared, parent, change = compare(sides, simkit, args.reps, args.trials)
        ratios = [c / p for p, c in zip(parent, change)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(
            f"{name}: {differ} of {compared} rows differ; "
            f"median us/trial parent {1e6 * statistics.median(parent):.1f}, "
            f"change {1e6 * statistics.median(change):.1f}; "
            f"change/parent median {statistics.median(ratios):.3f} (quartiles {q1:.3f}/{q3:.3f})"
        )
        any_differ = any_differ or differ > 0
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
