"""Command-line front end: sweep experiments and the validation suite.

Subcommands
    hm-sweep   spectral efficiency of the mobile user, with and without
               fractional Doppler, for power factors 0.5 and 0.8
    lm-sweep   static-user side rates (both detection stages), same factors
    outage     outage probability of the mobile user at thresholds 0.3/0.6
    validate   numerical self-check suite, nonzero exit on any failure

A sweep command runs all its power shares in one `run_sweep` call and
writes a CSV (one row per sweep point), a JSON summary with full
per-point statistics, and a JSON manifest with the run time.  Re-running
with --config pointed at a manifest reproduces the CSV bitwise.

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
from .simkit import OUTAGE_STATS, STATS, run_sweep
from .validation import run_validation


def _columns(table, prefix: str = "") -> tuple:
    """CSV columns (header, summary field) of every field in table."""
    return tuple((prefix + field, field) for pair in table for field in pair)


_POINT_COLUMNS = (("rho_t_db", "rho_t_db"), ("p0", "p0"))

# Per sweep command: the p0 shares (None: the config's own p0), the outage
# thresholds (None: the config's R_th), whether it compares the Real and
# Ideal members, and the CSV columns as (header, summary field).  A CSV
# row is one (grid point, outage threshold) pair; the two rate sweeps
# keep the single default threshold, so theirs is one row per point.
_SWEEPS = {
    "hm-sweep": (
        (0.5, 0.8),
        None,
        True,
        _POINT_COLUMNS + _columns(STATS[:2]) + (("gap", STATS[2][0]),),
    ),
    "lm-sweep": ((0.5, 0.8), None, False, _POINT_COLUMNS + _columns(STATS[3:])),
    "outage": (
        None,
        (0.3, 0.6),
        True,
        _POINT_COLUMNS + (("r_th", "r_th"),) + _columns(OUTAGE_STATS, "outage_"),
    ),
}


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


# === subcommands =====================================================


def cmd_sweep(cfg: SystemConfig, args: argparse.Namespace) -> int:
    """Run all the command's p0 shares in one sweep; write CSV, summary, manifest."""
    shares, thresholds, both_members, columns = _SWEEPS[args.command]
    if both_members and cfg.mode != "both":
        raise ValidationError(
            f"{args.command} compares the Real and Ideal members and needs "
            f"mode 'both', got {cfg.mode!r}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    sweeps = run_sweep(cfg, workers=args.workers, thresholds=thresholds, shares=shares)
    timing = {"sweep": round(time.perf_counter() - started, 6)}
    rows = [
        [{**point, **estimate}[field] for _, field in columns]
        for sweep in sweeps
        for point in sweep["points"]
        for estimate in point["outage"]
    ]
    name = args.command.replace("-", "_")
    outputs = [f"{name}.csv", f"{name}_summary.json"]
    _write_csv(out_dir / outputs[0], [header for header, _ in columns], rows)
    summary = {
        "command": args.command,
        "version": __version__,
        "config": cfg.to_dict(),
        "sweeps": sweeps,
    }
    _write_json(out_dir / outputs[1], summary)
    _write_manifest(out_dir, args.command, cfg, args.workers, outputs, timing)
    print(f"wrote {out_dir / outputs[0]}")
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


_COMMANDS = {**dict.fromkeys(_SWEEPS, cmd_sweep), "validate": cmd_validate}


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
