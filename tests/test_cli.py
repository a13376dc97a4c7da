"""Config ingestion, CLI exit codes, and output-file contracts."""

import csv
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from ddlink_sim import cli, validation
from ddlink_sim.channel import sample_hm_channel
from ddlink_sim.config import (
    ParseError,
    SystemConfig,
    ValidationError,
    config_from_dict,
    load_config,
)
from ddlink_sim.validation import (
    CheckResult,
    NotBlockCirculant,
    check_dense_vs_fast,
    check_truncation_energy,
    check_worked_example,
    run_validation,
)

SMALL = {
    "N": 8,
    "M": 8,
    "N_p": 3,
    "l_max": 4,
    "L_0": 4,
    "U": 4,
    "trials": 5,
    "rho_T_grid": [0.0, 10.0],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# The CSV headers as README.md documents them.
HM_HEADER = [
    "rho_t_db",
    "p0",
    "se_hm_real_mean",
    "se_hm_real_stderr",
    "se_hm_ideal_mean",
    "se_hm_ideal_stderr",
    "gap",
]
LM_HEADER = [
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
]
OUTAGE_HEADER = [
    "rho_t_db",
    "p0",
    "r_th",
    "outage_real",
    "outage_real_stderr",
    "outage_ideal",
    "outage_ideal_stderr",
]


# === config loading ==================================================


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    assert cfg == SystemConfig()
    assert (cfg.A, cfg.N, cfg.M, cfg.U) == (4, 16, 16, 8)
    assert cfg.rho_T_grid == tuple(float(db) for db in range(0, 21, 2))


def test_none_path_gives_defaults():
    assert load_config(None) == SystemConfig()


def test_too_many_users_rejected(tmp_path):
    with pytest.raises(ValidationError, match="U"):
        load_config(write_config(tmp_path, {"U": 20, "M": 16}))


def test_bad_power_share_rejected(tmp_path):
    with pytest.raises(ValidationError, match="p0"):
        load_config(write_config(tmp_path, {"p0": 1.5}))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError, match="bogus"):
        load_config(write_config(tmp_path, {"bogus": 1}))


def test_unknown_key_rejected_by_replace_as_from_a_file():
    message = r"^unknown config key\(s\): bogus, zz$"
    with pytest.raises(ValidationError, match=message):
        config_from_dict({"zz": 2, "bogus": 1})
    with pytest.raises(TypeError, match="unexpected keyword argument 'zz'"):
        SystemConfig().replace(zz=2, bogus=1, N=8)


def test_unknown_key_rejected_by_constructor_and_config_still_pickles():
    with pytest.raises(ValidationError, match=r"^unknown config key\(s\): bogus$"):
        config_from_dict({"bogus": 1})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        SystemConfig(bogus=1)
    cfg = config_from_dict(SMALL)
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "absent.json")


def test_manifest_shaped_document_unwraps(tmp_path):
    manifest = {
        "tool": "ddlink-sim",
        "command": "hm-sweep",
        "config": {"N": 8, "M": 8, "U": 4, "N_p": 3},
    }
    cfg = load_config(write_config(tmp_path, manifest))
    assert (cfg.N, cfg.M, cfg.U, cfg.N_p) == (8, 8, 4, 3)


def test_config_from_dict_round_trips():
    cfg = config_from_dict(SMALL)
    again = config_from_dict(dataclasses.asdict(cfg))
    assert cfg == again


# One wrongly typed field each, rejected the same way from a file and
# from Python.
WRONGLY_TYPED = {
    "int-as-float": {"N": 8.0},
    "float-as-bool": {"p0": True},
    "mode-as-int": {"mode": 3},
    "grid-as-string": {"rho_T_grid": "0"},
    "nu-max-as-string": {"nu_max": "5"},
    "flag-as-int": {"lm_min_includes_hm_stage": 1},
}


@pytest.mark.parametrize(
    "payload",
    [*WRONGLY_TYPED.values(), {"U": True}, {"master_seed": True}, {"rho": "1"}],
    ids=[*WRONGLY_TYPED, "int-as-bool", "seed-as-bool", "rho-as-string"],
)
def test_wrongly_typed_value_rejected_by_constructor_and_replace(payload):
    with pytest.raises(ValidationError):
        SystemConfig(**payload)
    with pytest.raises(ValidationError):
        SystemConfig().replace(**payload)


def test_int_values_for_float_fields_are_stored_as_floats(tmp_path):
    cfg = SystemConfig(p0=1, R_th=0, rho_T_grid=(0, 10))
    path = cli._write_manifest(tmp_path, "hm-sweep", cfg, 1, [], {})
    written = json.loads(path.read_text(encoding="utf-8"))["config"]
    for value in (written["p0"], written["R_th"], *written["rho_T_grid"]):
        assert type(value) is float
    assert load_config(path) == cfg


# === exit codes ======================================================


def test_bad_config_exits_2(tmp_path):
    path = write_config(tmp_path, {"p0": 2.0})
    code = cli.main(["validate", "--config", str(path)])
    assert code == 2


def test_overflowing_snr_entry_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"trials": 3, "rho_T_grid": [4000]})
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_extreme_finite_snr_runs_without_nan(tmp_path):
    path = write_config(tmp_path, {"trials": 3, "rho_T_grid": [3000]})
    out = tmp_path / "out"
    assert cli.main(["hm-sweep", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "hm_sweep.csv").read_text(encoding="utf-8").lower()
    assert "nan" not in text


def test_huge_rho_exits_2(tmp_path, capsys):
    # 1/rho^2 underflows in the equalizer's noise term once rho^2
    # overflows, so such a rho is a config error, not a failed run.
    path = write_config(tmp_path, {"trials": 3, "rho_T_grid": [0.0, 10.0], "rho": 1e200})
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_large_finite_rho_runs_without_nan(tmp_path):
    path = write_config(tmp_path, {"trials": 3, "rho_T_grid": [0.0, 10.0], "rho": 1e150})
    out = tmp_path / "out"
    assert cli.main(["hm-sweep", "--config", str(path), "--out", str(out)]) == 0
    assert "nan" not in (out / "hm_sweep.csv").read_text(encoding="utf-8").lower()


@pytest.mark.parametrize(
    "change", [{"v_max": 1e300}, {"nu_max": 1e30}, {"f_c": 1e300}, {"delta_f": 1e-300}]
)
def test_doppler_span_beyond_int64_exits_2(tmp_path, capsys, change):
    path = write_config(tmp_path, dict(SMALL, **change))
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_large_doppler_span_runs(tmp_path):
    path = write_config(tmp_path, dict(SMALL, v_max=1e20))
    out = tmp_path / "out"
    assert cli.main(["hm-sweep", "--config", str(path), "--out", str(out)]) == 0
    assert "nan" not in (out / "hm_sweep.csv").read_text(encoding="utf-8").lower()


def test_largest_doppler_span_below_int64_samples():
    # nu_max * N / delta_f is exact here, so the span is the largest
    # float below 2^63; 2^63 itself is rejected.
    span = math.nextafter(2.0**63, 0.0)
    cfg = SystemConfig(N=16, delta_f=16.0, nu_max=span)
    taps = sample_hm_channel(cfg, np.random.default_rng(1)).doppler
    assert np.all(np.abs(taps) <= span)
    with pytest.raises(ValidationError, match="Doppler"):
        SystemConfig(N=16, delta_f=16.0, nu_max=2.0**63)


def test_largest_delay_span_below_int64_samples():
    # Delay taps are drawn from l_max + 1 int64 values, so
    # l_max + 1 = 2^63 - 1 is the largest range; 2^63 is rejected.
    l_max = 2**63 - 2
    cfg = SystemConfig(l_max=l_max)
    taps = sample_hm_channel(cfg, np.random.default_rng(1)).delay
    assert np.all((taps >= 0) & (taps <= l_max))
    with pytest.raises(ValidationError, match="l_max"):
        SystemConfig(l_max=2**63 - 1)


@pytest.mark.parametrize(
    "field",
    [
        '"R_th": NaN',
        '"R_th": Infinity',
        # Infinite values the Doppler tap span alone lets through.
        '"delta_f": Infinity',
        '"nu_max": 100, "v_max": Infinity',
        '"nu_max": 100, "f_c": Infinity',
    ],
    ids=["R_th-NaN", "R_th-Infinity", "delta_f-Infinity", "v_max-Infinity", "f_c-Infinity"],
)
def test_non_finite_value_exits_2(tmp_path, capsys, field):
    # Such a value would reach the summary and the manifest as a token
    # that is not JSON.
    path = tmp_path / "config.json"
    path.write_text(f'{{"trials": 2, "rho_T_grid": [0], {field}}}', encoding="utf-8")
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload", [*WRONGLY_TYPED.values(), [SMALL]], ids=[*WRONGLY_TYPED, "top-level-list"]
)
def test_wrongly_typed_value_exits_2(tmp_path, capsys, payload):
    path = write_config(tmp_path, payload)
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_zero_workers_exits_2(tmp_path):
    path = write_config(tmp_path, SMALL)
    code = cli.main(
        ["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--workers", "0"]
    )
    assert code == 2


def test_validate_takes_no_trials_or_workers():
    # The suite's sizes are fixed, so these sweep flags are usage errors.
    for flag in ("--workers", "--trials"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", flag, "2"])
        assert exc.value.code == 2


def test_single_mode_sweep_exits_2(tmp_path):
    path = write_config(tmp_path, dict(SMALL, mode="real"))
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2


def test_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    path = write_config(tmp_path, SMALL)
    code = cli.main(["hm-sweep", "--config", str(path), "--out", str(blocker / "sub")])
    assert code == 3


# === end-to-end sweeps on a tiny grid ================================


def test_hm_sweep_csv_contract(tmp_path):
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert cli.main(["hm-sweep", "--config", str(config_path), "--out", str(out)]) == 0
    rows = read_csv(out / "hm_sweep.csv")
    assert rows[0] == HM_HEADER
    # two p0 configurations times two grid points
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        values = [float(x) for x in row]
        assert values[0] in (0.0, 10.0)
        assert values[1] in (0.5, 0.8)
        # gap column repeats the paired mean difference
        assert values[6] == pytest.approx(values[4] - values[2], abs=1e-12)
    summary = json.loads((out / "hm_sweep_summary.json").read_text(encoding="utf-8"))
    assert [s["p0"] for s in summary["sweeps"]] == [0.5, 0.8]
    manifest = json.loads((out / "hm_sweep_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "hm-sweep"
    assert manifest["config"]["trials"] == 5


def test_hm_sweep_seed_and_trials_overrides(tmp_path):
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    code = cli.main(
        [
            "hm-sweep",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--seed",
            "99",
            "--trials",
            "3",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "hm_sweep_manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 99
    assert manifest["config"]["trials"] == 3
    assert len(read_csv(out / "hm_sweep.csv")) == 1 + 4


def test_manifest_rerun_reproduces_csv_bitwise(tmp_path):
    config_path = write_config(tmp_path, SMALL)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main(["hm-sweep", "--config", str(config_path), "--out", str(first)]) == 0
    manifest_path = first / "hm_sweep_manifest.json"
    assert cli.main(["hm-sweep", "--config", str(manifest_path), "--out", str(second)]) == 0
    assert (first / "hm_sweep.csv").read_bytes() == (second / "hm_sweep.csv").read_bytes()


def test_lm_sweep_works_in_real_mode(tmp_path):
    config_path = write_config(tmp_path, dict(SMALL, mode="real"))
    out = tmp_path / "run"
    assert cli.main(["lm-sweep", "--config", str(config_path), "--out", str(out)]) == 0
    rows = read_csv(out / "lm_sweep.csv")
    assert rows[0] == LM_HEADER
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        values = [float(x) for x in row]
        assert all(v >= 0.0 for v in values[2:])


def test_outage_bounds_and_thresholds(tmp_path):
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert cli.main(["outage", "--config", str(config_path), "--out", str(out)]) == 0
    rows = read_csv(out / "outage.csv")
    assert rows[0] == OUTAGE_HEADER
    # one p0, two grid points, two thresholds
    assert len(rows) == 1 + 4
    seen_thresholds = set()
    for row in rows[1:]:
        values = [float(x) for x in row]
        seen_thresholds.add(values[2])
        assert 0.0 <= values[3] <= 1.0
        assert 0.0 <= values[5] <= 1.0
    assert seen_thresholds == {0.3, 0.6}


def test_csv_values_round_trip_exactly(tmp_path):
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    assert cli.main(["hm-sweep", "--config", str(config_path), "--out", str(out)]) == 0
    from ddlink_sim.simkit import run_sweep

    cfg = load_config(config_path).replace(p0=0.5)
    expected = run_sweep(cfg, thresholds=None)[0]["points"][0]
    rows = read_csv(out / "hm_sweep.csv")
    assert float(rows[1][2]) == expected["se_hm_real_mean"]
    assert float(rows[1][6]) == expected["gap_mean"]


# === validate plumbing ===============================================


def passing_check(name):
    return CheckResult(name, True, 0.0, 1e-9, "<=", "synthetic")


def test_validate_reports_and_exits_0_on_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_validation", lambda cfg, report: [passing_check("a"), passing_check("b")]
    )
    config_path = write_config(tmp_path, SMALL)
    code = cli.main(["validate", "--config", str(config_path)])
    assert code == 0
    assert "2/2 checks passed" in capsys.readouterr().out


def test_validate_exits_1_on_failure(tmp_path, capsys, monkeypatch):
    failing = CheckResult("bad", False, 1.0, 1e-9, "<=", "synthetic")
    monkeypatch.setattr(
        cli, "run_validation", lambda cfg, report: [passing_check("a"), failing]
    )
    config_path = write_config(tmp_path, SMALL)
    code = cli.main(["validate", "--config", str(config_path)])
    assert code == 1
    assert "1/2 checks passed" in capsys.readouterr().out


def test_validate_writes_report_when_out_given(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_validation", lambda cfg, report: [passing_check("a")])
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "report"
    assert cli.main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads((out / "validation_report.json").read_text(encoding="utf-8"))
    assert payload["checks"][0]["name"] == "a"
    manifest = json.loads((out / "validate_manifest.json").read_text(encoding="utf-8"))
    assert manifest["workers"] == 1


def test_validate_manifest_times_each_check(tmp_path, monkeypatch):
    def fake_validation(cfg, report):
        results = []
        for name in ("a", "b"):
            results.append(passing_check(name))
            report(name)
        return results

    monkeypatch.setattr(cli, "run_validation", fake_validation)
    config_path = write_config(tmp_path, SMALL)
    reports = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "validate_manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["timing"]) == ["a", "b"]
        assert all(seconds >= 0.0 for seconds in manifest["timing"].values())
        reports.append((out / "validation_report.json").read_bytes())
    # Timings live in the manifest only; the report stays byte-stable.
    assert reports[0] == reports[1]
    assert b"timing" not in reports[0]


def test_validate_report_serializes_real_check_results(tmp_path, monkeypatch):
    # Real checks compare numpy scalars; the results must still carry
    # plain Python values all the way through the JSON report writer.
    monkeypatch.setattr(
        cli,
        "run_validation",
        lambda cfg, report: [check_truncation_energy(cfg), check_worked_example()],
    )
    config_path = write_config(tmp_path, SMALL)
    out = tmp_path / "report"
    assert cli.main(["validate", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads((out / "validation_report.json").read_text(encoding="utf-8"))
    names = [check["name"] for check in payload["checks"]]
    assert names == ["truncation", "worked-example"]
    assert all(check["passed"] is True for check in payload["checks"])


@pytest.mark.parametrize("n_p, passes", [(0, False), (1, False), (2, False), (3, True)])
def test_validate_checks_the_configured_truncation_window(
    tmp_path, capsys, monkeypatch, n_p, passes
):
    # At N = 16 and the worst offset 0.5 the window |q| <= N_p keeps 0.41,
    # 0.86, 0.92 and 0.951 of a path's energy.  dense-vs-fast and
    # empirical-sinr, nearly all of a run's time, do not read the window
    # and are stood in for, so the exit code follows the truncation.
    for name in ("check_dense_vs_fast", "check_empirical_sinr"):
        monkeypatch.setattr(validation, name, lambda cfg, name=name: passing_check(name))
    config_path = write_config(tmp_path, {"N_p": n_p})
    code = cli.main(["validate", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == (0 if passes else 1)
    status = "[ok  ]" if passes else "[FAIL]"
    assert f"{status} truncation: " in out
    assert f"window |q| <= {n_p}, kappa 0.5, N 16" in out


def test_dense_vs_fast_reports_a_matrix_that_is_not_block_circulant(monkeypatch):
    def reject(h, basis):
        raise NotBlockCirculant("synthetic")

    monkeypatch.setattr(validation, "diagonalize_bccb", reject)
    assert check_dense_vs_fast(SystemConfig()) == CheckResult(
        "dense-vs-fast", False, math.inf, 1e-9, "<=", "synthetic"
    )


def test_validate_observed_values_at_defaults():
    observed = {check.name: check for check in run_validation(SystemConfig())}
    assert [name for name, check in observed.items() if not check.passed] == ["empirical-sinr"]
    assert observed["spectral-split"].observed == 5.094901452383371e-16
    assert observed["ratio-identities"].observed == 4.095858920016109e-14
    assert observed["truncation"].observed == 0.9785580402795427
    assert observed["worked-example"].observed == 0.0
    assert observed["dense-vs-fast"].observed <= 1e-13
    # The closed form drops the desired-leakage cross term; ROADMAP item 2
    # adds it and re-records this value.
    assert observed["empirical-sinr"].observed == pytest.approx(0.16848728021049966, rel=1e-9)
    # The worst realization misses by about 39 standard errors: a
    # modelling gap, not Monte Carlo noise.
    assert observed["empirical-sinr"].detail.endswith(
        "worst is realization 18: measured 0.4285 (stderr 0.0022) against closed form 0.5153"
    )
