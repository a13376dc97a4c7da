"""Tests of the benchmark itself: python3 -m pytest bench"""

import csv
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
from ddlink_sim import cli, simkit  # noqa: E402
from ddlink_sim.config import config_from_dict  # noqa: E402

SMALL = {"trials": 3, "rho_T_grid": [0.0, 10.0, 20.0], "master_seed": 11}


def _hm_sweep(tmp_path) -> tuple[Path, dict]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    out = tmp_path / "out"
    assert cli.main(["hm-sweep", "--config", str(config), "--out", str(out)]) == 0
    resolved = json.loads((out / "hm_sweep_manifest.json").read_text())["config"]
    return out, resolved


def _write_rows(path: Path, rows) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def test_reference_rejects_gap_perturbed_by_one_part_per_million(tmp_path):
    out, cfg = _hm_sweep(tmp_path)
    path = out / "hm_sweep.csv"
    assert reference.compare_csv(path, "hm-sweep", cfg, (0.5, 0.8)) == ""
    rows = [list(r) for r in reference.read_csv(path)]
    rows[4][6] *= 1.0 + 1e-6
    _write_rows(path, rows)
    assert "column 6" in reference.compare_csv(path, "hm-sweep", cfg, (0.5, 0.8))


def test_reference_accepts_real_member_with_cross_term(tmp_path):
    out, cfg = _hm_sweep(tmp_path)
    path = out / "hm_sweep.csv"
    without_cross, exact = reference.expected_rows("hm-sweep", cfg, (0.5, 0.8))
    assert without_cross != exact
    _write_rows(path, exact)
    assert reference.compare_csv(path, "hm-sweep", cfg, (0.5, 0.8)) == ""
    # The Ideal member has only the one form.
    rows = [list(r) for r in exact]
    rows[0][4] = without_cross[0][4] * (1.0 + 1e-6)
    _write_rows(path, rows)
    assert reference.compare_csv(path, "hm-sweep", cfg, (0.5, 0.8)) != ""


def test_every_workload_config_passes_config_from_dict():
    for wl in run.WORKLOADS.values():
        for trials in (wl.config.get("trials", 1), run.REFERENCE_TRIALS):
            cfg = config_from_dict(dict(wl.config, trials=trials, master_seed=run.master_seed(7, 3)))
            assert cfg.rho_T_grid == wl.grid


def test_traced_run_tolerates_a_missing_function(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL))
    sites = dict(
        trace.SITES,
        **{"channel.gone": [("channel", "no_such_function")], "gone.f": [("no_such_module", "f")]},
    )
    original = simkit.run_trial
    summary = trace.run(
        ["hm-sweep", "--config", str(config), "--out", str(tmp_path / "out")],
        sites,
        spans_path=tmp_path / "spans.jsonl",
    )
    assert summary["rc"] == 0
    assert sorted(summary["absent"]) == ["channel.gone", "gone.f"]
    assert summary["stats"]["simkit.run_trial"]["calls"] == 3 * 3 * 2
    assert summary["stats"]["channel.hm_eigen_spectra"]["calls"] == 2 * 3 * 3 * 2
    assert simkit.run_trial is original
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert {s["name"] for s in spans} >= {"cli.main", "simkit.run_sweep", "simkit.run_trial"}
    assert all(s["trial"] >= 0 for s in spans if s["name"] == "channel.hm_eigen_spectra")


def test_property_checks_flag_a_broken_point(tmp_path):
    out, _ = _hm_sweep(tmp_path)
    summary_path, csv_path = out / "hm_sweep_summary.json", out / "hm_sweep.csv"
    grid = SMALL["rho_T_grid"]
    assert checks.check_sweep(summary_path, csv_path, grid, (0.5, 0.8))[:2] == (6, 0)
    summary = json.loads(summary_path.read_text())
    point = summary["sweeps"][1]["points"][2]
    point["se_lm_min"] = point["se_lm_mean"] + 1.0
    summary_path.write_text(json.dumps(summary))
    attempted, failed, failures = checks.check_sweep(summary_path, csv_path, grid, (0.5, 0.8))
    assert (attempted, failed) == (6, 1)
    assert "p0=0.8 rho_T=20.0" in failures[0]


def test_property_checks_flag_outage_rising_with_snr(tmp_path):
    out, _ = _hm_sweep(tmp_path)
    summary_path, csv_path = out / "hm_sweep_summary.json", out / "hm_sweep.csv"
    summary = json.loads(summary_path.read_text())
    points = summary["sweeps"][0]["points"]
    points[0]["outage"][0].update(real=0.0, real_stderr=0.0)
    points[1]["outage"][0].update(real=0.9, real_stderr=0.01)
    summary_path.write_text(json.dumps(summary))
    attempted, failed, failures = checks.check_sweep(
        summary_path, csv_path, SMALL["rho_T_grid"], (0.5, 0.8)
    )
    assert (attempted, failed) == (6, 1)
    assert "p0=0.5 rho_T=10.0" in failures[0] and "lowest-SNR" in failures[0]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
