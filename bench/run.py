"""ddlink-sim benchmark: run one workload through the public CLI.

    python3 bench/run.py --workload paper-hm-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's command runs in a fresh interpreter,
round after round, until ``--seconds`` have passed, and the end-to-end
metrics are printed.  With ``--trace 1`` the same command runs in one
process with every layer wrapped (bench/trace.py) and the per-layer
metrics are printed instead.  Either way an untimed short run is first
compared with the reference model (bench/reference.py) and every timed
round's outputs pass the property checks (bench/checks.py).  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.

Every child runs with one BLAS thread: the process count is then the
only parallelism, and ``workers 2`` fills the two cores of the machine
the reference figures were taken on without oversubscribing them.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Children still running this long after the start are killed, so a run
# always ends within 180 s.
RUN_LIMIT_S = 170.0
SETUP_PROBES_PER_ROUND = 2
REFERENCE_TRIALS = 3
DEFAULT_GRID = tuple(float(db) for db in range(0, 21, 2))
CLI = ("-c", "import sys; from ddlink_sim.cli import main; sys.exit(main())")
SETUP = (
    "-c",
    "import sys, ddlink_sim; ddlink_sim.load_config(sys.argv[1] if len(sys.argv) > 1 else None)",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command with its config overrides (see README.md)."""

    command: str
    config: dict
    workers: int = 1
    p0_values: tuple = (0.5, 0.8)
    thresholds: tuple = ()

    @property
    def grid(self) -> tuple:
        return tuple(float(x) for x in self.config.get("rho_T_grid", DEFAULT_GRID))

    @property
    def stem(self) -> str:
        return self.command.replace("-", "_")


WORKLOADS = {
    "paper-hm-sweep": Workload("hm-sweep", {"trials": 40}),
    "lm-crowd": Workload(
        "lm-sweep",
        {"trials": 40, "U": 16, "M": 16, "mode": "real",
         "rho_T_grid": [float(db) for db in range(26, 41, 2)]},
    ),
    "big-frame-outage": Workload(
        "outage",
        {"trials": 30, "N": 64, "M": 64, "L_0": 10, "N_p": 8, "l_max": 16, "U": 2},
        workers=2,
        p0_values=(0.5,),
        thresholds=(0.3, 0.6),
    ),
    # Default inputs, independent of --seed: its one failing check must
    # fail on every run for the failed share to stay fixed.
    "oracle-validate": Workload("validate", {}),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
PER_TRIAL_US = (
    "simkit.run_trial",
    "simkit.derive_trial_seed",
    "channel.hm_eigen_spectra",
    "channel.lm_eigen_spectrum",
    "channel.sample_lm_channel",
    "channel.lm_subchannel_gains",
    "channel.sample_hm_channel",
    "channel.without_fractional_doppler",
    "equalizer.mmse_spectrum",
    "equalizer.detection_power_terms",
    "equalizer.hm_detection_snr",
    "equalizer.hm_at_lm_snr",
    "equalizer.lm_detection_snr",
    "noma.allocate_power",
    "noma.assemble_rates",
)
PER_TRIAL_CALLS = ("channel.hm_eigen_spectra", "channel.lm_eigen_spectrum", "equalizer.mmse_spectrum")
BYTES_PER_CALL = ("channel.hm_eigen_spectra", "channel.lm_eigen_spectrum")
PER_RUN_MS = ("grids.build_basis", "grids.diagonalize_bccb", "channel.hm_channel_matrices")


def per_layer_units() -> dict:
    units = {f"{n}.us": "us" for n in PER_TRIAL_US}
    units["simkit.run_trial.self_us"] = "us"
    units["simkit.run_sweep.self_s"] = "s"
    units["simkit.pool.speedup"] = "x"
    units.update({f"{n}.calls": "calls/trial" for n in PER_TRIAL_CALLS})
    units.update({f"{n}.bytes_out": "B/call" for n in BYTES_PER_CALL})
    units["cli.self_ms"] = "ms"
    units["cli.output_bytes"] = "B"
    units.update({f"validation.{c}.s": "s" for c in checks.VALIDATION_CHECKS})
    units.update({f"{n}.ms": "ms" for n in PER_RUN_MS})
    units["equalizer.empirical_hm_sinr.s"] = "s"
    units["trace.overhead"] = "%"
    return units


# === children ========================================================


@dataclass(frozen=True)
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, log_path: Path, deadline: float) -> Child:
    """Run the interpreter on args; wall time, CPU and peak RSS of the
    child and every process it waited for."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, args)],
            cwd=ROOT,
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(
            max(deadline - time.monotonic(), 0.1), os.killpg, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def more_rounds(started: float, seconds: float, laps: list) -> bool:
    """At least one round; then another while its expected midpoint
    falls inside the measuring window, so runs end near --seconds."""
    if not laps:
        return True
    return time.monotonic() - started + 0.5 * statistics.fmean(laps) < seconds


def master_seed(seed: int, round_index: int) -> int:
    return (seed * 1_000_003 + round_index) % 2**64


def cli_args(wl: Workload, config_path: Path, out_dir: Path, workers: int) -> list:
    if wl.command == "validate":
        return ["validate", "--out", out_dir]
    return [wl.command, "--config", config_path, "--out", out_dir, "--workers", workers]


def write_config(wl: Workload, path: Path, **changes) -> Path:
    path.write_text(json.dumps(dict(wl.config, **changes)), encoding="utf-8")
    return path


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# === correctness =====================================================


def reference_problems(wl: Workload, seed: int, work: Path, deadline: float) -> list:
    """Untimed short run against the reference model; at more than one
    worker the CSV must also be byte-identical to the one-worker CSV."""
    if wl.command == "validate":
        return []
    changes = {"trials": REFERENCE_TRIALS, "master_seed": master_seed(seed, 0)}
    config = write_config(wl, work / "reference.json", **changes)
    problems, csvs = [], {}
    for workers in sorted({1, wl.workers}):
        out_dir = fresh_dir(work / f"reference-w{workers}")
        child = run_child([*CLI, *cli_args(wl, config, out_dir, workers)], out_dir / "log", deadline)
        if child.rc != 0:
            problems.append(f"reference run at workers {workers} exited {child.rc}")
            continue
        csvs[workers] = (out_dir / f"{wl.stem}.csv").read_bytes()
    if len(set(csvs.values())) > 1:
        problems.append("short-run CSV differs between worker counts")
    if 1 not in csvs:
        return problems
    out_dir = work / "reference-w1"
    resolved = json.loads((out_dir / f"{wl.stem}_manifest.json").read_text())["config"]
    wanted = dict(wl.config, **changes)
    if any(resolved.get(k) != v for k, v in wanted.items()):
        problems.append("manifest config differs from the requested config")
    problem = reference.compare_csv(
        out_dir / f"{wl.stem}.csv", wl.command, resolved, wl.p0_values, wl.thresholds
    )
    if problem:
        problems.append(f"reference mismatch: {problem}")
    return problems


def check_round(wl: Workload, out_dir: Path, rc: int) -> tuple:
    """(attempted, failed, failures, inconsistencies) of one round."""
    if wl.command == "validate":
        return checks.check_validation(out_dir / "validation_report.json", rc)
    n_points = len(wl.grid) * len(wl.p0_values)
    if rc != 0:
        return n_points, n_points, [f"exit code {rc}"], []
    attempted, failed, failures = checks.check_sweep(
        out_dir / f"{wl.stem}_summary.json", out_dir / f"{wl.stem}.csv", wl.grid, wl.p0_values
    )
    return attempted, failed, failures, []


def trials_in(wl: Workload, out_dir: Path, rc: int) -> int:
    """Paired trials a finished round completed; for validate, the
    channel realizations its checks evaluated."""
    if wl.command == "validate":
        return checks.realizations(out_dir / "validation_report.json") if rc in (0, 1) else 0
    return wl.config["trials"] * len(wl.grid) * len(wl.p0_values) if rc == 0 else 0


# === modes ===========================================================


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, round_check, label: str) -> None:
        attempted, failed, failures, wrong = round_check
        self.attempted += attempted
        self.failed += failed
        for line in failures:
            print(f"{label}: failed: {line}", file=sys.stderr)
        self.problems.extend(f"{label}: {line}" for line in wrong)


def end_to_end(wl: Workload, seed: int, seconds: float, work: Path, deadline: float, tally: Tally) -> dict:
    probe = [*SETUP] if wl.command == "validate" else [
        *SETUP, write_config(wl, work / "setup.json", master_seed=master_seed(seed, 0))
    ]

    def setup_probe() -> float:
        child = run_child(probe, work / "setup.log", deadline)
        if child.rc != 0:
            raise RuntimeError(f"setup probe exited {child.rc}; see {work / 'setup.log'}")
        return child.wall_s

    setup_probe()  # fills the bytecode cache, as any earlier use would have
    tally.problems.extend(reference_problems(wl, seed, work, deadline))

    # Set-up probes are spread between the rounds, so that both sample
    # the same stretch of the machine's load.
    rounds, setups, laps = [], [], []
    started = time.monotonic()
    while more_rounds(started, seconds, laps):
        lap_start = time.monotonic()
        setups.extend(setup_probe() for _ in range(SETUP_PROBES_PER_ROUND))
        r = len(rounds)
        config = write_config(wl, work / "round.json", master_seed=master_seed(seed, r))
        out_dir = fresh_dir(work / "round")
        child = run_child([*CLI, *cli_args(wl, config, out_dir, wl.workers)], work / "round.log", deadline)
        tally.add(check_round(wl, out_dir, child.rc), f"round {r}")
        rounds.append((child, trials_in(wl, out_dir, child.rc)))
        laps.append(time.monotonic() - lap_start)
        print(f"round {r}: wall {child.wall_s:.3f} s, cpu {child.cpu_s:.3f} s, "
              f"peak {child.maxrss_mib:.1f} MiB, exit {child.rc}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c.wall_s for c, _ in rounds),
        "trials_per_s": statistics.median(n / c.wall_s for c, n in rounds),
        "cpu_s": statistics.median(c.cpu_s for c, _ in rounds),
        "peak_rss_mib": max(c.maxrss_mib for c, _ in rounds),
    }


def traced(wl: Workload, seed: int, seconds: float, work: Path, deadline: float, tally: Tally) -> dict:
    tally.problems.extend(reference_problems(wl, seed, work, deadline))
    tracer = HERE / "trace.py"
    config = write_config(wl, work / "round.json", master_seed=master_seed(seed, 0))
    started = time.monotonic()

    def timed(workers: int) -> tuple:
        out_dir = fresh_dir(work / f"time-w{workers}")
        summary = out_dir / "summary.json"
        child = run_child(
            [tracer, "--mode", "time", "--summary", summary, "--",
             *cli_args(wl, config, out_dir, workers)],
            out_dir / "log",
            deadline,
        )
        stats = json.loads(summary.read_text())["stats"] if child.rc == 0 else {}
        return child, stats.get("simkit.run_sweep", {}).get("total_ns", 0)

    untraced, sweep_w1 = timed(1)
    sweep_w2 = timed(2)[1] if wl.command != "validate" else 0

    totals, absent, trials, walls, output_bytes = {}, set(), 0, [], None
    while more_rounds(started, seconds, walls):
        r = len(walls)
        config = write_config(wl, work / "round.json", master_seed=master_seed(seed, r))
        out_dir = fresh_dir(work / "round")
        summary_path = work / "trace-summary.json"
        # The first round also writes its spans; trace.overhead compares
        # that round, same inputs, with the untraced one.
        spans = ["--spans", work / "spans.jsonl"] if r == 0 else []
        child = run_child(
            [tracer, "--mode", "trace", "--summary", summary_path, *spans,
             "--", *cli_args(wl, config, out_dir, 1)],
            work / "round.log",
            deadline,
        )
        if child.rc != 0:
            raise RuntimeError(f"traced run exited {child.rc}; see {work / 'round.log'}")
        summary = json.loads(summary_path.read_text())
        tally.add(check_round(wl, out_dir, summary["rc"]), f"traced round {r}")
        walls.append(child.wall_s)
        absent.update(summary["absent"])
        trials += trials_in(wl, out_dir, summary["rc"])
        if output_bytes is None:
            output_bytes = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        for name, entry in summary["stats"].items():
            total = totals.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
    if absent:
        print(f"absent (reported as 0): {', '.join(sorted(absent))}", file=sys.stderr)
    extra = {
        "simkit.pool.speedup": sweep_w1 / sweep_w2 if sweep_w2 else 0.0,
        "cli.output_bytes": float(output_bytes),
        "trace.overhead": 100.0 * (walls[0] - untraced.wall_s) / untraced.wall_s,
    }
    return layer_metrics(totals, trials, len(walls), extra)


def layer_metrics(stats: dict, trials: int, rounds: int, extra: dict) -> dict:
    def value(name, key="total_ns"):
        return stats.get(name, {}).get(key, 0)

    trials = max(trials, 1)
    m = {f"{n}.us": value(n) / 1e3 / trials for n in PER_TRIAL_US}
    m["simkit.run_trial.self_us"] = value("simkit.run_trial", "self_ns") / 1e3 / trials
    m["simkit.run_sweep.self_s"] = value("simkit.run_sweep", "self_ns") / 1e9 / rounds
    m.update({f"{n}.calls": value(n, "calls") / trials for n in PER_TRIAL_CALLS})
    m.update(
        {f"{n}.bytes_out": value(n, "bytes_out") / max(value(n, "calls"), 1) for n in BYTES_PER_CALL}
    )
    m["cli.self_ms"] = value("cli.main", "self_ns") / 1e6 / rounds
    for check in checks.VALIDATION_CHECKS:
        name = f"validation.{check}"
        m[f"{name}.s"] = value(name) / 1e9 / max(value(name, "calls"), 1)
    m.update({f"{n}.ms": value(n) / 1e6 / rounds for n in PER_RUN_MS})
    m["equalizer.empirical_hm_sinr.s"] = value("equalizer.empirical_hm_sinr") / 1e9 / rounds
    m.update(extra)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description="ddlink-sim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ddlink_sim" / "cli.py").is_file():
        print(f"error: no ddlink-sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = fresh_dir(OUT / args.workload)
    tally = Tally()
    mode = traced if args.trace else end_to_end
    try:
        metrics = mode(wl, args.seed, args.seconds, work, deadline, tally)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    for problem in tally.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
