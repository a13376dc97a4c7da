"""Trial seeding, paired trials, outage estimation, and sweep aggregation."""

import concurrent.futures
import json
import math

import numpy as np
import pytest

from ddlink_sim import cli, simkit
from ddlink_sim.config import SystemConfig, ValidationError
from ddlink_sim.simkit import (
    _N_COLS,
    _chunk_bounds,
    _point_rows,
    db_to_linear,
    derive_trial_seed,
    run_sweep,
    run_trial,
)

# Record row columns: simkit.STATS without the gap.
REAL, IDEAL, HM_AT_LM_MEAN, HM_AT_LM_MIN, LM_MEAN, LM_MIN, LM_WORST_STAGE = range(_N_COLS)


def small_config(**changes):
    base = dict(N=8, M=8, N_p=3, l_max=4, L_0=4, U=4, trials=40, rho_T_grid=(0.0, 10.0))
    base.update(changes)
    return SystemConfig(**base)


# === seed derivation =================================================


def test_seed_golden_values():
    # Pinned so that published results stay reproducible across releases.
    assert derive_trial_seed(715517, 0, 0) == 11351146791022928155
    assert derive_trial_seed(715517, 0, 1) == 15756925787403938303
    assert derive_trial_seed(715517, 3, 2) == 7840454170649034760
    assert derive_trial_seed(0, 0, 0) == 16871404019307972170
    assert derive_trial_seed(2**64 - 1, 10, 9999) == 15644059711510469944


def test_seed_range_and_distinctness():
    seen = set()
    for point in range(8):
        for trial in range(200):
            s = derive_trial_seed(42, point, trial)
            assert 0 <= s < 2**64
            seen.add(s)
    assert len(seen) == 8 * 200


def test_seed_sensitive_to_every_index():
    base = derive_trial_seed(1, 2, 3)
    assert derive_trial_seed(2, 2, 3) != base
    assert derive_trial_seed(1, 3, 3) != base
    assert derive_trial_seed(1, 2, 4) != base


def test_db_to_linear():
    assert db_to_linear(0.0) == pytest.approx(1.0, abs=1e-15)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)


# === single trials ===================================================


def test_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, 10.0, 12345)
    b = run_trial(cfg, 10.0, 12345)
    assert a.shape == (_N_COLS,)
    assert np.array_equal(a, b)


def test_trial_lm_side_shared_between_members():
    # The LM stages carry no fractional Doppler, so they must not depend
    # on which members the trial simulates, bit for bit.
    rows = [run_trial(small_config(mode=mode), 10.0, 999) for mode in ("both", "real", "ideal")]
    for row in rows[1:]:
        assert np.array_equal(row[HM_AT_LM_MEAN:], rows[0][HM_AT_LM_MEAN:])


def test_trial_mode_selects_members():
    real_only = run_trial(small_config(mode="real"), 10.0, 5)
    assert np.isfinite(real_only[REAL]) and np.isnan(real_only[IDEAL])
    ideal_only = run_trial(small_config(mode="ideal"), 10.0, 5)
    assert np.isnan(ideal_only[REAL]) and np.isfinite(ideal_only[IDEAL])
    assert np.isfinite(run_trial(small_config(), 10.0, 5)).all()


def test_trial_result_requires_a_member():
    # Every accepted mode simulates at least one HM member; no other
    # mode is accepted.
    for mode in ("both", "real", "ideal"):
        row = run_trial(small_config(mode=mode), 10.0, 6)
        assert np.isfinite(row[[REAL, IDEAL]]).any()
    with pytest.raises(ValidationError, match="mode"):
        small_config(mode="neither")


def test_trial_worst_stage_without_hm_stage_is_lm_min():
    for seed in range(5):
        row = run_trial(small_config(lm_min_includes_hm_stage=False), 30.0, seed)
        assert row[LM_WORST_STAGE] == row[LM_MIN]


def test_ideal_beats_real_on_average():
    cfg = small_config()
    diffs = []
    for trial in range(300):
        row = run_trial(cfg, 10.0, derive_trial_seed(7, 0, trial))
        diffs.append(row[IDEAL] - row[REAL])
    diffs = np.asarray(diffs)
    # Removing the Doppler leakage can only help; the mean improvement
    # should clear zero by many standard errors.
    assert diffs.mean() > 5.0 * diffs.std(ddof=1) / np.sqrt(diffs.size)


# Outputs of run_trial at the default config, recorded at version 0.1.0
# (per-antenna channel draws) and kept to guard the physics through
# refactors of the draw and spectra path: (seed, rho_T dB, se_hm Real,
# se_hm Ideal, se_hm_at_lm per user, se_lm per user, se_lm_min).
PRESERVED_TRIALS = [
    (11, 0.0, 0.24301366394213947, 0.4491533692465179,
     [0.34765798732363096, 0.29184374439121435, 0.4713517443119708, 0.24654322120857194, 0.28910536975628304, 0.4547702099418365, 0.5290837789067809, 0.17360714583715314],
     [0.039191159961712255, 0.035890111328103276, 0.05135088616697785, 0.024096520811973134, 0.03952357856882018, 0.01698346257250077, 0.06634560254549463, 0.026260131877041487],
     0.01698346257250077),
    (11, 10.0, 0.43739532338434656, 0.8890363072658205,
     [0.8393771153870233, 0.8015141947911575, 0.8976015183249519, 0.7622140560479965, 0.7993880096385448, 0.8912668896494385, 0.917099160958544, 0.6731270939881473],
     [0.35092242452590056, 0.324109499374112, 0.446094867058597, 0.22456761347910942, 0.3535984611521358, 0.16145693541181722, 0.5564154753221422, 0.2432889217024194],
     0.16145693541181722),
    (11, 20.0, 0.47559206936078474, 0.9876246825751198,
     [0.9811191377635969, 0.9756705321216622, 0.9886801960346072, 0.9695039050166331, 0.9753508133696783, 0.9879013522459099, 0.9910153857592924, 0.9531930090542396],
     [1.9083356879601905, 1.8151305535737505, 2.2089779477099483, 1.42452984613874, 1.9174076371934548, 1.127078699583826, 2.5125070280762776, 1.5043053782402414],
     0.9531930090542396),
    (2024, 0.0, 0.2679115012821159, 0.4154565138711234,
     [0.25371641776898474, 0.05178686312905947, 0.2412077037602001, 0.633133120191621, 0.594853229140382, 0.4178454168838572, 0.4058044101856159, 0.5982496415803188],
     [0.054660578704094194, 0.019283271736177224, 0.05642180030275187, 0.06317834329724055, 0.07475765637209804, 0.08719007103954585, 0.08277194180284261, 0.13623532279550088],
     0.019283271736177224),
    (2024, 10.0, 0.5249781410937838, 0.8746594283473973,
     [0.7690784223396884, 0.35051713853120203, 0.7569296053027549, 0.9445825724679385, 0.9354186208141604, 0.8757387046991764, 0.8701977166688759, 0.9362719815707637],
     [0.4710804788871209, 0.18213127467613666, 0.484224985574947, 0.5337119136414392, 0.6152666281278749, 0.6986552860972195, 0.6694886163162846, 0.9930110583955651],
     0.18213127467613666),
    (2024, 20.0, 0.5811040352505128, 0.985810520502518,
     [0.9706215004131884, 0.8410725830218573, 0.9686312658806394, 0.9941559126543014, 0.993127690412956, 0.9859485983127626, 0.9852363945781609, 0.9932242256427796],
     [2.2813932356355284, 1.2299491158595797, 2.3185604121745342, 2.4532517140409786, 2.659561726037875, 2.8539783311035487, 2.7876604046805302, 3.446699161503169],
     0.8410725830218573),
    (715517, 0.0, 0.35448973565539976, 0.4372924289291165,
     [0.48285745744043224, 0.4694559343538713, 0.30230715995707136, 0.47042446011622924, 0.34083505751229554, 0.13260229259302297, 0.34631432168995224, 0.4730626356242325],
     [0.00888498817855299, 0.05697391625308956, 0.01895591393301976, 0.05091277296004641, 0.021860091342354258, 0.02119706122144681, 0.04024750886065404, 0.051180896002231295],
     0.00888498817855299),
    (715517, 10.0, 0.6796886026796964, 0.8841764461202257,
     [0.9017895878855031, 0.8968955427955376, 0.8093820612819703, 0.8972567834614604, 0.8352452826277723, 0.6000752620839843, 0.8385730730127935, 0.898234706331685],
     [0.08647954142501958, 0.48832433225500854, 0.17920448345219891, 0.44275912386891386, 0.20498752793334016, 0.1991371099825357, 0.35941125003820473, 0.4448013769701316],
     0.08647954142501958),
    (715517, 20.0, 0.749154271761395, 0.9870174695201219,
     [0.9891896094688851, 0.9885938954740935, 0.9768405093014917, 0.9886380701680607, 0.9805462508855121, 0.93672728508059, 0.981008056143695, 0.9887574930223098],
     [0.6939982818690368, 2.3300264893903573, 1.2157368245938578, 2.1991266859677023, 1.3372908193408581, 1.3104070920884077, 1.9369761402281591, 2.2051632354168547],
     0.6939982818690368),
]


@pytest.mark.parametrize("seed, db, real, ideal, hm_at_lm, lm, lm_min", PRESERVED_TRIALS)
def test_trial_values_preserved(seed, db, real, ideal, hm_at_lm, lm, lm_min):
    hm_at_lm, lm = np.array(hm_at_lm), np.array(lm)
    expected = [real, ideal, hm_at_lm.mean(), hm_at_lm.min(), lm.mean(), lm.min(), lm_min]
    assert run_trial(SystemConfig(), db, seed) == pytest.approx(expected, rel=1e-12)


# === sweeps ==========================================================


def test_sweep_shape_and_thresholds():
    cfg = small_config(trials=10)
    (summary,) = run_sweep(cfg)
    assert summary["p0"] == cfg.p0
    assert summary["thresholds"] == [cfg.R_th]
    assert len(summary["points"]) == len(cfg.rho_T_grid)
    for point, db in zip(summary["points"], cfg.rho_T_grid):
        assert point["rho_t_db"] == db
        assert point["p0"] == cfg.p0
        assert point["n_trials"] == 10
        assert len(point["outage"]) == 1
        assert point["outage"][0]["r_th"] == cfg.R_th
        assert 0.0 <= point["outage"][0]["real"] <= 1.0
        assert 0.0 <= point["outage"][0]["ideal"] <= 1.0


def test_sweep_single_trial_degenerate_stats():
    cfg = small_config(trials=1, rho_T_grid=(10.0,))
    point = run_sweep(cfg)[0]["points"][0]
    assert point["se_hm_real_stderr"] == 0.0
    assert point["gap_stderr"] == 0.0
    assert point["outage"][0]["real"] in (0.0, 1.0)


def test_sweep_outage_threshold_is_strict():
    # At one trial the outage is 0 at exactly the trial's Real rate and
    # 1 just above it.
    cfg = small_config(trials=1, rho_T_grid=(10.0,))
    rate = run_trial(cfg, 10.0, derive_trial_seed(cfg.master_seed, 0, 0))[REAL]
    point = run_sweep(cfg, thresholds=(rate, math.nextafter(rate, math.inf)))[0]["points"][0]
    assert [o["real"] for o in point["outage"]] == [0.0, 1.0]


def test_sweep_outage_counts_rates_below_threshold():
    # With a threshold at each sorted rate, exactly the k smaller trials
    # are in outage at the k-th.
    cfg = small_config(trials=8, rho_T_grid=(10.0,))
    rows = _point_rows((cfg, 10.0, 0, 0, 8))
    for member, column in (("real", REAL), ("ideal", IDEAL)):
        point = run_sweep(cfg, thresholds=np.sort(rows[:, column]))[0]["points"][0]
        assert [o[member] for o in point["outage"]] == [k / 8 for k in range(8)]


def test_sweep_custom_thresholds():
    cfg = small_config(trials=8, rho_T_grid=(10.0,))
    point = run_sweep(cfg, thresholds=(0.3, 0.6))[0]["points"][0]
    assert [o["r_th"] for o in point["outage"]] == [0.3, 0.6]
    assert point["outage"][1]["real"] >= point["outage"][0]["real"]


def test_outage_monotone_in_threshold():
    # Raising the threshold never lowers the outage of either member.
    cfg = small_config(trials=20, rho_T_grid=(10.0,))
    thresholds = np.linspace(0.0, 1.2, 25)
    point = run_sweep(cfg, thresholds=thresholds)[0]["points"][0]
    for member in ("real", "ideal"):
        fractions = [o[member] for o in point["outage"]]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0 and fractions[-1] == 1.0


def test_sweep_mode_real_drops_ideal_columns():
    cfg = small_config(trials=6, mode="real", rho_T_grid=(10.0,))
    point = run_sweep(cfg)[0]["points"][0]
    assert point["se_hm_real_mean"] is not None
    assert point["se_hm_ideal_mean"] is None
    assert point["gap_mean"] is None
    assert point["outage"][0]["ideal"] is None
    assert point["se_lm_mean"] > 0.0


def test_aggregate_keeps_a_real_nan():
    # Absence follows cfg.mode; a NaN rate stays NaN instead of turning
    # into an absent (None) statistic.
    cfg = small_config(trials=3, rho_T_grid=(10.0,))
    rows = _point_rows((cfg, 10.0, 0, 0, 3))
    rows[1, REAL] = np.nan
    point = simkit._aggregate(cfg, rows[None], (0.5,))[0]
    assert math.isnan(point["se_hm_real_mean"]) and math.isnan(point["gap_mean"])
    assert point["se_hm_ideal_mean"] == rows[:, IDEAL].mean()


def test_sweep_worker_counts_agree_bitwise():
    cfg = small_config(trials=30)
    serial = run_sweep(cfg, workers=1, thresholds=(0.3, 0.6))
    pooled = run_sweep(cfg, workers=3, thresholds=(0.3, 0.6))
    assert serial == pooled


def test_point_rows_independent_of_chunking():
    cfg = small_config()
    whole = _point_rows((cfg, 10.0, 1, 0, 13))
    for cuts in ((0, 13), (0, 1, 13), (0, 5, 6, 13), tuple(range(14))):
        parts = [_point_rows((cfg, 10.0, 1, a, b)) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.vstack(parts), whole)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_pool_size_capped_by_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(simkit.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    cfg = small_config(trials=2)
    serial = run_sweep(cfg)
    assert RecordingPool.sizes == []
    # 2 points x 2 one-trial chunks: four tasks, however many workers.
    assert run_sweep(cfg, workers=500) == serial
    # Every share's tasks join the one list: eight tasks, one pool.
    assert len(run_sweep(cfg, workers=500, shares=(0.5, 0.8))) == 2
    # The affinity mask, not the host's CPU count, bounds the pool.
    monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: {0, 5, 9})
    assert run_sweep(cfg.replace(trials=40), workers=500)[0]["points"][0]["n_trials"] == 40
    # Without an affinity call the host's CPU count does.
    monkeypatch.delattr(simkit.os, "sched_getaffinity")
    monkeypatch.setattr(simkit.os, "cpu_count", lambda: 2)
    assert run_sweep(cfg.replace(trials=40), workers=500)[0]["points"][0]["n_trials"] == 40
    assert RecordingPool.sizes == [4, 8, 3, 2]


@pytest.mark.parametrize("command", ["hm-sweep", "lm-sweep"])
def test_two_share_command_starts_one_pool(tmp_path, monkeypatch, command):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(simkit.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 8, "M": 8, "N_p": 3, "U": 4, "trials": 4}))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--workers", "2"]
    assert cli.main(argv) == 0
    assert RecordingPool.sizes == [2]


def test_sweep_over_shares_equals_one_sweep_per_share():
    cfg = small_config(trials=7)
    shares = (0.5, 0.8, 1.0)
    expected = [run_sweep(cfg.replace(p0=p0), thresholds=(0.3, 0.6))[0] for p0 in shares]
    assert [s["p0"] for s in expected] == list(shares)
    assert run_sweep(cfg, thresholds=(0.3, 0.6), shares=shares) == expected
    assert run_sweep(cfg, workers=2, thresholds=(0.3, 0.6), shares=shares) == expected


def test_sweep_rejects_bad_workers():
    with pytest.raises(ValueError, match="workers"):
        run_sweep(small_config(), workers=0)


def test_sweep_without_trials_rejected():
    # An outage or mean over zero trials is undefined; the config
    # refuses such a sweep before it starts.
    with pytest.raises(ValidationError, match="trials"):
        small_config(trials=0)


def test_chunk_bounds_partition():
    for n_trials in (1, 7, 40, 101):
        for workers in (1, 2, 3, 8):
            bounds = _chunk_bounds(n_trials, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n_trials
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert all(stop > start for start, stop in bounds)
