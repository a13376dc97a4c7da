"""End-to-end acceptance targets for the default experiment protocol.

Every test prints one `[acceptance N] PASS/FAIL` verdict line (routed
past pytest's capture so the report is visible in a plain run) and then
asserts it.  The expensive sweeps are shared module fixtures: the two
default-grid paired sweeps back the gap and outage targets, and one
high-power sweep pair backs the static-side power-sensitivity target.

The targets encode the simulator's headline behavior: removing the
fractional part of the Doppler shifts can only help the mobile user,
the size of that improvement tracks its power share, and the static
users' stage rates respond to the power split in a level, predictable
way once the links run interference limited.
"""

import json
import time

import numpy as np
import pytest

from ddlink_sim import cli
from ddlink_sim.config import SystemConfig
from ddlink_sim.simkit import run_sweep
from ddlink_sim.validation import run_validation

# Production-size runs: `pytest -m "not slow"` leaves them out.
pytestmark = pytest.mark.slow

GAP_WINDOW_LOW_SHARE = (0.15, 0.65)
GAP_WINDOW_HIGH_SHARE = (0.6, 1.4)
GAP_SPREAD_LIMIT = 0.3
LM_DIFF_WINDOW = (0.5, 1.5)
LM_DIFF_SPREAD_LIMIT = 0.4
HIGH_SNR_GRID = tuple(float(db) for db in range(26, 41, 2))


def _verdict(capsys, tag: str, passed: bool, detail: str) -> str:
    line = f"[acceptance {tag}] {'PASS' if passed else 'FAIL'} {detail}"
    # Route past pytest's capture so the verdict report always reaches
    # the terminal, for passing criteria too.
    with capsys.disabled():
        print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def sweep05():
    """Default-protocol paired sweep at p0 = 0.5, with outage thresholds."""
    cfg = SystemConfig(p0=0.5)
    started = time.perf_counter()
    (summary,) = run_sweep(cfg, workers=1, thresholds=(0.3, 0.5, 0.6))
    return summary, time.perf_counter() - started


@pytest.fixture(scope="module")
def sweep08():
    cfg = SystemConfig(p0=0.8)
    (summary,) = run_sweep(cfg, workers=1, thresholds=(0.3, 0.5, 0.6))
    return summary


@pytest.fixture(scope="module")
def high_snr_sweeps():
    """Sweeps for the static-side power-sensitivity target.

    The level-difference and stage-ordering targets describe the
    interference-limited regime: below roughly 24 dB the strong-share
    configuration still runs noise limited, so the stage difference has
    not developed and the cancellation-stage ordering has not yet
    established.  The grid therefore covers 26-40 dB, where both
    behaviors are attainable and stable.  The static-side statistics do
    not depend on the fractional-Doppler mode, so the single-member
    sweep halves the cost.
    """
    cfg = SystemConfig(mode="real", rho_T_grid=HIGH_SNR_GRID)
    shares = (0.5, 0.8)
    return dict(zip(shares, run_sweep(cfg, workers=1, shares=shares)))


def test_acceptance_1_gap_window_at_half_share(sweep05, capsys):
    """Mean paired improvement inside [0.15, 0.65] b/s/Hz at every point."""
    summary, elapsed = sweep05
    gaps = np.array([point["gap_mean"] for point in summary["points"]])
    low, high = GAP_WINDOW_LOW_SHARE
    bad = [
        (point["rho_t_db"], point["gap_mean"])
        for point in summary["points"]
        if not low <= point["gap_mean"] <= high
    ]
    in_time = elapsed < 300.0
    passed = not bad and in_time
    detail = (
        f"gap range [{gaps.min():.3f}, {gaps.max():.3f}] b/s/Hz over 0-20 dB, "
        f"{len(bad)}/{gaps.size} points outside [{low}, {high}]"
        + (f" (first misses: {bad[:3]})" if bad else "")
        + f", sweep took {elapsed:.0f} s (budget 300 s)"
    )
    line = _verdict(capsys, "1", passed, detail)
    assert passed, line


def test_acceptance_2_gap_window_at_high_share(sweep05, sweep08, capsys):
    """Gap inside [0.6, 1.4] and above the half-share gap by >= 2 stderr."""
    summary05, _ = sweep05
    low, high = GAP_WINDOW_HIGH_SHARE
    bad_window = []
    bad_order = []
    for p05, p08 in zip(summary05["points"], sweep08["points"]):
        if not low <= p08["gap_mean"] <= high:
            bad_window.append((p08["rho_t_db"], round(p08["gap_mean"], 3)))
        margin = 2.0 * float(np.hypot(p05["gap_stderr"], p08["gap_stderr"]))
        if not p08["gap_mean"] > p05["gap_mean"] + margin:
            bad_order.append(p08["rho_t_db"])
    passed = not bad_window and not bad_order
    gaps = np.array([point["gap_mean"] for point in sweep08["points"]])
    detail = (
        f"gap range [{gaps.min():.3f}, {gaps.max():.3f}] b/s/Hz, "
        f"{len(bad_window)}/11 points outside [{low}, {high}]"
        + (f" (first misses: {bad_window[:3]})" if bad_window else "")
        + f"; larger-than-half-share ordering violated at {len(bad_order)} points"
    )
    line = _verdict(capsys, "2", passed, detail)
    assert passed, line


def test_acceptance_3_gap_flat_across_grid(sweep05, sweep08, capsys):
    """Gap spread (max - min over the grid) <= 0.3 b/s/Hz for both shares."""
    summary05, _ = sweep05
    spreads = {}
    for label, summary in (("p0=0.5", summary05), ("p0=0.8", sweep08)):
        gaps = np.array([point["gap_mean"] for point in summary["points"]])
        spreads[label] = float(gaps.max() - gaps.min())
    passed = all(spread <= GAP_SPREAD_LIMIT for spread in spreads.values())
    detail = (
        f"spread p0=0.5: {spreads['p0=0.5']:.3f}, p0=0.8: {spreads['p0=0.8']:.3f} "
        f"(limit {GAP_SPREAD_LIMIT})"
    )
    line = _verdict(capsys, "3", passed, detail)
    assert passed, line


def test_acceptance_4_static_side_power_sensitivity(high_snr_sweeps, capsys):
    """Stage-rate difference level and cancellation ordering at high power.

    Three clauses over the 26-40 dB grid: the mean static-stage rate
    difference between the half-share and high-share configurations sits
    inside [0.5, 1.5] b/s/Hz, stays approximately constant (spread
    <= 0.4), and the strong-signal detection stage rate stays below the
    own-signal stage rate for both configurations (the cancellation
    stage works at a lower operating point).
    """
    half = high_snr_sweeps[0.5]["points"]
    strong = high_snr_sweeps[0.8]["points"]
    diffs = np.array([a["se_lm_mean"] - b["se_lm_mean"] for a, b in zip(half, strong)])
    low, high = LM_DIFF_WINDOW
    window_ok = bool(np.all((diffs >= low) & (diffs <= high)))
    spread = float(diffs.max() - diffs.min())
    spread_ok = spread <= LM_DIFF_SPREAD_LIMIT
    order_bad = [
        (points[i]["p0"], points[i]["rho_t_db"])
        for points in (half, strong)
        for i in range(len(points))
        if not points[i]["se_hm_at_lm_mean"] < points[i]["se_lm_mean"]
    ]
    passed = window_ok and spread_ok and not order_bad
    detail = (
        f"stage-rate diff range [{diffs.min():.3f}, {diffs.max():.3f}] b/s/Hz on "
        f"26-40 dB (window [{low}, {high}]), spread {spread:.3f} "
        f"(limit {LM_DIFF_SPREAD_LIMIT}), ordering violations: {len(order_bad)}"
    )
    line = _verdict(capsys, "4", passed, detail)
    assert passed, line


def test_acceptance_5_outage_trends(sweep05, capsys):
    """Outage monotonicity, threshold ordering, pairing gain, gap growth.

    The growth clause compares the grid endpoints: the strict-threshold
    (0.6) outage gap between the fractional and zero-offset members must
    grow significantly from 0 dB to 20 dB.  In between the gap peaks
    where the mean rate crosses the threshold and then shrinks, so a
    pointwise monotone test would not describe the actual behavior.
    """
    summary, _ = sweep05
    points = summary["points"]
    idx = {o["r_th"]: i for i, o in enumerate(points[0]["outage"])}

    monotone_bad = []
    for r_th, i in idx.items():
        for member in ("real", "ideal"):
            values = np.array([p["outage"][i][member] for p in points])
            errs = np.array([p["outage"][i][f"{member}_stderr"] for p in points])
            for k in range(values.size - 1):
                margin = 3.0 * float(np.hypot(errs[k], errs[k + 1]))
                if values[k + 1] > values[k] + margin:
                    monotone_bad.append((r_th, member, points[k]["rho_t_db"]))

    threshold_bad = [
        p["rho_t_db"]
        for p in points
        if p["outage"][idx[0.6]]["real"] < p["outage"][idx[0.3]]["real"]
        or p["outage"][idx[0.6]]["ideal"] < p["outage"][idx[0.3]]["ideal"]
    ]

    ordering_bad = [
        p["rho_t_db"] for p in points if not p["gap_mean"] >= 3.0 * p["gap_stderr"]
    ]

    first, last = points[0]["outage"][idx[0.6]], points[-1]["outage"][idx[0.6]]
    gap_first = first["real"] - first["ideal"]
    gap_last = last["real"] - last["ideal"]
    growth_err = float(
        np.hypot(
            np.hypot(first["real_stderr"], first["ideal_stderr"]),
            np.hypot(last["real_stderr"], last["ideal_stderr"]),
        )
    )
    growth_ok = gap_last > gap_first + 3.0 * growth_err

    passed = not monotone_bad and not threshold_bad and not ordering_bad and growth_ok
    detail = (
        f"monotonicity violations: {len(monotone_bad)}, threshold-ordering "
        f"violations: {len(threshold_bad)}, pairing-gain violations: "
        f"{len(ordering_bad)}, strict-threshold gap {gap_first:.3f} -> {gap_last:.3f} "
        f"(3-sigma margin {3.0 * growth_err:.3f})"
    )
    line = _verdict(capsys, "5", passed, detail)
    assert passed, line


def test_acceptance_6_oracle_suite(capsys):
    """All six validation checks pass at defaults in under two minutes."""
    started = time.perf_counter()
    results = run_validation(SystemConfig())
    elapsed = time.perf_counter() - started
    names = [r.name for r in results]
    expected = [
        "dense-vs-fast",
        "spectral-split",
        "ratio-identities",
        "truncation",
        "empirical-sinr",
        "worked-example",
    ]
    failed = [r for r in results if not r.passed]
    passed = names == expected and not failed and elapsed < 120.0
    detail = (
        f"{len(results) - len(failed)}/{len(results)} checks passed in {elapsed:.0f} s"
        + "".join(
            f"; {r.name} observed {r.observed:.3g} vs bound {r.bound:g}" for r in failed
        )
    )
    line = _verdict(capsys, "6", passed, detail)
    assert passed, line


def test_acceptance_7_worker_determinism(tmp_path_factory, capsys):
    """Rerunning from a manifest with 8 workers reproduces CSVs bitwise."""
    base = tmp_path_factory.mktemp("determinism")
    config_path = base / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "N": 8,
                "M": 8,
                "N_p": 3,
                "l_max": 4,
                "L_0": 4,
                "U": 4,
                "trials": 64,
                "rho_T_grid": [0.0, 10.0, 20.0],
            }
        ),
        encoding="utf-8",
    )
    serial = base / "serial"
    pooled = base / "pooled"
    assert cli.main(["hm-sweep", "--config", str(config_path), "--out", str(serial)]) == 0
    manifest = serial / "hm_sweep_manifest.json"
    code = cli.main(
        ["hm-sweep", "--config", str(manifest), "--out", str(pooled), "--workers", "8"]
    )
    assert code == 0
    assert cli.main(["outage", "--config", str(config_path), "--out", str(serial)]) == 0
    code = cli.main(
        [
            "outage",
            "--config",
            str(serial / "outage_manifest.json"),
            "--out",
            str(pooled),
            "--workers",
            "8",
        ]
    )
    assert code == 0

    same_hm = (serial / "hm_sweep.csv").read_bytes() == (pooled / "hm_sweep.csv").read_bytes()
    same_outage = (serial / "outage.csv").read_bytes() == (pooled / "outage.csv").read_bytes()
    passed = same_hm and same_outage
    detail = (
        f"1 vs 8 workers: hm_sweep.csv identical: {same_hm}, "
        f"outage.csv identical: {same_outage}"
    )
    line = _verdict(capsys, "7", passed, detail)
    assert passed, line
