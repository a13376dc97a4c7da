"""Property checks on the outputs of every timed run.

An operation is one sweep point (one validation check on the validate
workload).  A point fails when it is missing from the summary or the
CSV, or breaks one of the properties below; each check returns the
number attempted, the number failed and one line per failure.
"""

import json
import math
import re

from reference import read_csv

VALIDATION_CHECKS = (
    "dense-vs-fast",
    "spectral-split",
    "ratio-identities",
    "truncation",
    "empirical-sinr",
    "worked-example",
)
# Rounding slack on the closed-form rate ceiling log2(1/(1-p0)).
CEILING_SLACK = 1e-12


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _point_problems(point: dict, row_values, outage_rise) -> list[str]:
    p0 = point["p0"]
    ceiling = math.inf if p0 >= 1.0 else math.log2(1.0 / (1.0 - p0)) + CEILING_SLACK
    problems = []
    if not all(math.isfinite(v) for v in _numbers(point)) or not all(
        math.isfinite(v) for v in row_values
    ):
        problems.append("non-finite value")
    for key in ("se_hm_real_mean", "se_hm_ideal_mean", "se_hm_at_lm_mean", "se_hm_at_lm_min"):
        value = point.get(key)
        if value is not None and not 0.0 <= value <= ceiling:
            problems.append(f"{key} {value!r} outside [0, log2(1/(1-p0))]")
    if point.get("gap_mean") is not None and point["gap_mean"] < -3.0 * point["gap_stderr"]:
        problems.append(f"gap {point['gap_mean']!r} below -3 stderr")
    if not point["se_lm_worst_stage"] <= point["se_lm_min"] <= point["se_lm_mean"]:
        problems.append("se_lm_worst_stage <= se_lm_min <= se_lm_mean violated")
    estimates = sorted(point["outage"], key=lambda e: e["r_th"])
    for member in ("real", "ideal"):
        values = [e[member] for e in estimates if e[member] is not None]
        if any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"outage_{member} outside [0, 1]")
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"outage_{member} falls as the threshold rises")
    problems.extend(outage_rise)
    return problems


def _outage_rises(points: list[dict]) -> dict:
    """Points whose outage exceeds that of the lowest-SNR point of their
    sweep by more than 3 combined standard errors, keyed by (p0, rho_t_db).

    Each point is compared with the sweep's first point, not with its
    neighbour: on the flat interference-limited floor (about 0.04 at the
    0.6 threshold from 14 dB up on big-frame-outage) a neighbour-to-
    neighbour 3-sigma test flags a correct sweep by chance in about 10%
    of sets of twenty runs, which would make the failed count depend on
    the seed.
    """
    found = {}
    for p0 in sorted({p["p0"] for p in points}):
        sweep = sorted((p for p in points if p["p0"] == p0), key=lambda p: p["rho_t_db"])
        for cur in sweep[1:]:
            for a, b in zip(sweep[0]["outage"], cur["outage"]):
                for member in ("real", "ideal"):
                    if a[member] is None or b[member] is None:
                        continue
                    limit = 3.0 * math.hypot(a[f"{member}_stderr"], b[f"{member}_stderr"])
                    if b[member] - a[member] > limit:
                        found.setdefault((p0, cur["rho_t_db"]), []).append(
                            f"outage_{member} at r_th {b['r_th']} exceeds the lowest-SNR"
                            " value by more than 3 stderr"
                        )
    return found


def check_sweep(summary_path, csv_path, grid, p0_values) -> tuple[int, int, list[str]]:
    """Check every expected (p0, rho_T) point of one sweep command."""
    expected = [(float(p0), float(rho)) for p0 in p0_values for rho in grid]
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        points = [p for sweep in summary["sweeps"] for p in sweep["points"]]
        rows = {}
        for row in read_csv(csv_path):
            rows.setdefault((row[1], row[0]), []).extend(row)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(expected), len(expected), [f"unreadable output: {exc}"]
    by_key = {(p["p0"], p["rho_t_db"]): p for p in points}
    rises = _outage_rises(points)
    failures = []
    for key in expected:
        if key not in by_key or key not in rows:
            failures.append(f"point p0={key[0]} rho_T={key[1]}: missing")
            continue
        problems = _point_problems(by_key[key], rows[key], rises.get(key, []))
        if problems:
            failures.append(f"point p0={key[0]} rho_T={key[1]}: {'; '.join(problems)}")
    return len(expected), len(failures), failures


def check_validation(report_path, rc: int) -> tuple[int, int, list[str], list[str]]:
    """Each named check is one operation; returns (attempted, failed,
    failures, inconsistencies).  An inconsistency means the report itself
    is wrong: a verdict that contradicts its own observed value and bound,
    or an exit code that contradicts the verdicts."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            checks = {c["name"]: c for c in json.load(fh)["checks"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        n = len(VALIDATION_CHECKS)
        return n, n, [f"unreadable report: {exc}"], []
    failures, wrong = [], []
    for name in VALIDATION_CHECKS:
        check = checks.get(name)
        if check is None:
            failures.append(f"{name}: missing")
            continue
        observed, bound = check["observed"], check["bound"]
        holds = observed <= bound if check["op"] == "<=" else observed >= bound
        if bool(holds) != check["passed"]:
            wrong.append(f"{name}: verdict {check['passed']} contradicts {observed} {check['op']} {bound}")
        if not check["passed"] or not math.isfinite(observed):
            failures.append(f"{name}: observed {observed} (required {check['op']} {bound})")
    if rc != (1 if any(not c["passed"] for c in checks.values()) else 0):
        wrong.append(f"exit code {rc} contradicts the verdicts")
    return len(VALIDATION_CHECKS), len(failures), failures, wrong


def realizations(report_path) -> int:
    """Channel realizations the validation checks evaluated, as each
    check's detail line states them."""
    with open(report_path, encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    return sum(
        int(m.group(1)) for c in checks for m in [re.search(r"over (\d+) realizations", c["detail"])] if m
    )
