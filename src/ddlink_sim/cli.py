"""Command-line front end: sweep experiments and the validation suite.

Subcommands
    hm-sweep   spectral efficiency of the mobile user, with and without
               fractional Doppler, for power factors 0.5 and 0.8
    lm-sweep   static-user side rates (both detection stages), same factors
    outage     outage probability of the mobile user at thresholds 0.3/0.6
    validate   numerical self-check suite, nonzero exit on any failure

Each sweep writes a CSV (one row per sweep point), a JSON summary with
full per-point statistics, and a JSON manifest.  Re-running with
--config pointed at a manifest reproduces the CSV bitwise.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 I/O error.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ConfigError, SystemConfig, ValidationError, load_config
from .simkit import SweepSummary, run_sweep
from .validation import run_validation

_SWEEP_P0_VALUES = (0.5, 0.8)
_OUTAGE_THRESHOLDS = (0.3, 0.6)

_HM_HEADER = (
    "rho_t_db",
    "p0",
    "se_hm_real_mean",
    "se_hm_real_stderr",
    "se_hm_ideal_mean",
    "se_hm_ideal_stderr",
    "gap",
)
_LM_HEADER = (
    "rho_t_db",
    "p0",
    "se_hm_at_lm_mean",
    "se_hm_at_lm_mean_stderr",
    "se_hm_at_lm_min",
    "se_hm_at_lm_min_stderr",
    "se_lm_mean",
    "se_lm_mean_stderr",
    "se_lm_min",
    "se_lm_min_stderr",
    "se_lm_worst_stage",
    "se_lm_worst_stage_stderr",
)
_OUTAGE_HEADER = (
    "rho_t_db",
    "p0",
    "r_th",
    "outage_real",
    "outage_real_stderr",
    "outage_ideal",
    "outage_ideal_stderr",
)


# === argument handling ===============================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlink-sim",
        description="Link-level delay-Doppler downlink simulator (mobile "
        "user on the full grid, static users on dedicated subcarriers).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("hm-sweep", "mobile-user spectral efficiency sweep", True),
        ("lm-sweep", "static-user side spectral efficiency sweep", True),
        ("outage", "mobile-user outage probability sweep", True),
        ("validate", "run the numerical self-check suite", False),
    )
    for name, help_text, is_sweep in specs:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="JSON config file or run manifest")
        sub.add_argument(
            "--out",
            required=is_sweep,
            default=None,
            help="output directory" + ("" if is_sweep else " for the check report (optional)"),
        )
        sub.add_argument("--seed", type=int, default=None, help="override master_seed")
        if is_sweep:
            sub.add_argument("--trials", type=int, default=None, help="override trial count")
            sub.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    return parser


def _resolve_config(args: argparse.Namespace) -> SystemConfig:
    cfg = load_config(args.config)
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    return cfg.replace(**changes) if changes else cfg


def _require_both_modes(cfg: SystemConfig, command: str) -> None:
    if cfg.mode != "both":
        raise ValidationError(
            f"{command} compares the Real and Ideal members and needs "
            f"mode 'both', got {cfg.mode!r}"
        )


# === output files ====================================================


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_manifest(
    out_dir: Path,
    command: str,
    cfg: SystemConfig,
    workers: int,
    outputs: list[str],
    timing: dict | None = None,
) -> Path:
    """Write the run manifest; timings vary between runs, so they go
    here and never into the CSVs or summaries."""
    name = command.replace("-", "_")
    path = out_dir / f"{name}_manifest.json"
    manifest = {
        "tool": "ddlink-sim",
        "version": __version__,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg.master_seed,
        "workers": workers,
        "config": cfg.to_dict(),
        "outputs": outputs,
    }
    if timing is not None:
        manifest["timing"] = timing
    _write_json(path, manifest)
    return path


def _summary_payload(command: str, cfg: SystemConfig, sweeps: list[SweepSummary]) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": cfg.to_dict(),
        "sweeps": [
            {
                "p0": summary.config.p0,
                "thresholds": list(summary.thresholds),
                "points": [asdict(point) for point in summary.points],
            }
            for summary in sweeps
        ],
    }


# === subcommands =====================================================


def _run_p0_sweeps(cfg: SystemConfig, workers: int, thresholds=None) -> list[SweepSummary]:
    sweeps = []
    for p0 in _SWEEP_P0_VALUES:
        started = time.perf_counter()
        sweeps.append(run_sweep(cfg.replace(p0=p0), workers=workers, thresholds=thresholds))
        print(
            f"p0={p0}: {len(cfg.rho_T_grid)} points x {cfg.trials} trials "
            f"in {time.perf_counter() - started:.1f} s"
        )
    return sweeps


def cmd_hm_sweep(cfg: SystemConfig, args: argparse.Namespace) -> int:
    _require_both_modes(cfg, "hm-sweep")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweeps = _run_p0_sweeps(cfg, args.workers)
    rows = [
        (
            point.rho_t_db,
            point.p0,
            point.se_hm_real_mean,
            point.se_hm_real_stderr,
            point.se_hm_ideal_mean,
            point.se_hm_ideal_stderr,
            point.gap_mean,
        )
        for summary in sweeps
        for point in summary.points
    ]
    _write_csv(out_dir / "hm_sweep.csv", _HM_HEADER, rows)
    _write_json(out_dir / "hm_sweep_summary.json", _summary_payload("hm-sweep", cfg, sweeps))
    _write_manifest(
        out_dir, "hm-sweep", cfg, args.workers, ["hm_sweep.csv", "hm_sweep_summary.json"]
    )
    print(f"wrote {out_dir / 'hm_sweep.csv'}")
    return 0


def cmd_lm_sweep(cfg: SystemConfig, args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweeps = _run_p0_sweeps(cfg, args.workers)
    rows = [
        (
            point.rho_t_db,
            point.p0,
            point.se_hm_at_lm_mean,
            point.se_hm_at_lm_mean_stderr,
            point.se_hm_at_lm_min,
            point.se_hm_at_lm_min_stderr,
            point.se_lm_mean,
            point.se_lm_mean_stderr,
            point.se_lm_min,
            point.se_lm_min_stderr,
            point.se_lm_worst_stage,
            point.se_lm_worst_stage_stderr,
        )
        for summary in sweeps
        for point in summary.points
    ]
    _write_csv(out_dir / "lm_sweep.csv", _LM_HEADER, rows)
    _write_json(out_dir / "lm_sweep_summary.json", _summary_payload("lm-sweep", cfg, sweeps))
    _write_manifest(
        out_dir, "lm-sweep", cfg, args.workers, ["lm_sweep.csv", "lm_sweep_summary.json"]
    )
    print(f"wrote {out_dir / 'lm_sweep.csv'}")
    return 0


def cmd_outage(cfg: SystemConfig, args: argparse.Namespace) -> int:
    _require_both_modes(cfg, "outage")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    summary = run_sweep(cfg, workers=args.workers, thresholds=_OUTAGE_THRESHOLDS)
    print(
        f"p0={cfg.p0}: {len(cfg.rho_T_grid)} points x {cfg.trials} trials "
        f"in {time.perf_counter() - started:.1f} s"
    )
    rows = [
        (
            point.rho_t_db,
            point.p0,
            estimate.r_th,
            estimate.real,
            estimate.real_stderr,
            estimate.ideal,
            estimate.ideal_stderr,
        )
        for point in summary.points
        for estimate in point.outage
    ]
    _write_csv(out_dir / "outage.csv", _OUTAGE_HEADER, rows)
    _write_json(out_dir / "outage_summary.json", _summary_payload("outage", cfg, [summary]))
    _write_manifest(out_dir, "outage", cfg, args.workers, ["outage.csv", "outage_summary.json"])
    print(f"wrote {out_dir / 'outage.csv'}")
    return 0


def cmd_validate(cfg: SystemConfig, args: argparse.Namespace) -> int:
    # run_validation reports each check as soon as it finishes, so the
    # gaps between the report calls are the checks' run times.
    stamps = [time.perf_counter()]

    def report(line: str) -> None:
        stamps.append(time.perf_counter())
        print(line)

    results = run_validation(cfg, report=report)
    if args.out is not None:
        seconds = {
            result.name: round(end - start, 6)
            for result, start, end in zip(results, stamps, stamps[1:])
        }
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            out_dir / "validation_report.json",
            {
                "command": "validate",
                "version": __version__,
                "config": cfg.to_dict(),
                "checks": [asdict(result) for result in results],
            },
        )
        _write_manifest(out_dir, "validate", cfg, 1, ["validation_report.json"], seconds)
    failed = [result for result in results if not result.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


_COMMANDS = {
    "hm-sweep": cmd_hm_sweep,
    "lm-sweep": cmd_lm_sweep,
    "outage": cmd_outage,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print(f"config error: workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
