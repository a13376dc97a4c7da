"""Deterministic Monte Carlo engine: paired trials, sweeps, outage.

Every trial owns a seed derived as a pure 64-bit mix of
(master_seed, sweep-point index, trial index), so results are bitwise
independent of execution order and worker count.  The Real and Ideal
members of a trial share all channel draws; only the fractional Doppler
offsets differ (forced to zero for Ideal), which pairs the comparison
trial by trial.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    hm_eigen_spectra,
    lm_eigen_spectrum,
    lm_subchannel_gains,
    sample_hm_channel,
    sample_lm_channel,
    without_fractional_doppler,
)
from .config import SystemConfig, db_to_linear
from .equalizer import (
    LinkSnrs,
    detection_power_terms,
    hm_at_lm_snr,
    hm_detection_snr,
    lm_detection_snr,
    mmse_spectrum,
)
from .noma import UserRates, allocate_power, assemble_rates

_MASK64 = (1 << 64) - 1


# === seeding =========================================================


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Pure 64-bit mix of the run seed and the trial coordinates.

    splitmix64 absorbs each coordinate in turn.  The function is frozen:
    changing it silently would break bitwise reproducibility of recorded
    runs, so it is pinned by a golden-value test.
    """
    acc = 0x243F6A8885A308D3
    for value in (master_seed, point_index, trial_index):
        acc = _splitmix64(acc ^ (value & _MASK64))
    return acc


# === single trial ====================================================


@dataclass(frozen=True)
class TrialResult:
    """Paired outcome of one trial.

    Both members derive from identical channel draws and differ only in
    the fractional Doppler offsets; a member not requested by cfg.mode
    is None.
    """

    rates_real: UserRates | None
    rates_ideal: UserRates | None
    trial_index: int
    seed: int

    def __post_init__(self):
        if self.rates_real is None and self.rates_ideal is None:
            raise ValueError("at least one trial member must be present")


def _hm_rate(cfg: SystemConfig, ch, rho_t: float) -> float:
    spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
    delta = mmse_spectrum(spectra.lambda_main, cfg.rho)
    terms = detection_power_terms(delta, spectra.lambda_main, spectra.lambda_idi)
    return hm_detection_snr(terms, cfg.p0, rho_t)


def run_trial(cfg: SystemConfig, rho_t_db: float, trial_seed: int, trial_index: int = 0) -> TrialResult:
    """Simulate one paired trial at one transmit-SNR point.

    Draw order is fixed (HM channel, then LM users 1..U) so a seed fully
    determines the realization.  The LM-side stages carry no fractional
    Doppler, hence they are identical in both members.
    """
    rng = np.random.default_rng(trial_seed)
    rho_t = db_to_linear(rho_t_db)

    hm = sample_hm_channel(cfg, rng)
    lm_channels = [sample_lm_channel(cfg, user, rng) for user in range(1, cfg.U + 1)]

    gains = np.array([lm_subchannel_gains(lm, lm.user - 1, cfg.M) for lm in lm_channels])
    allocation = allocate_power(cfg.p0, gains)

    hm_at_lm = np.empty(cfg.U)
    lm = np.empty(cfg.U)
    for j, lm_ch in enumerate(lm_channels):
        lam_u = lm_eigen_spectrum(lm_ch, cfg.N, cfg.M)
        delta_u = mmse_spectrum(lam_u, cfg.rho)
        hm_at_lm[j] = hm_at_lm_snr(delta_u, lam_u, cfg.p0, rho_t)
        lm[j] = lm_detection_snr(allocation.shares[j + 1], rho_t, gains[j])

    rates_real = None
    rates_ideal = None
    if cfg.mode in ("real", "both"):
        snr_real = _hm_rate(cfg, hm, rho_t)
        rates_real = assemble_rates(
            LinkSnrs(snr_real, hm_at_lm, lm), cfg.lm_min_includes_hm_stage
        )
    if cfg.mode in ("ideal", "both"):
        snr_ideal = _hm_rate(cfg, without_fractional_doppler(hm), rho_t)
        rates_ideal = assemble_rates(
            LinkSnrs(snr_ideal, hm_at_lm, lm), cfg.lm_min_includes_hm_stage
        )
    return TrialResult(rates_real, rates_ideal, trial_index, trial_seed)


# === outage ==========================================================


def outage_probability(samples: np.ndarray, r_th: float) -> float:
    """Fraction of rate samples strictly below the threshold."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("outage requires at least one sample")
    return float(np.mean(arr < r_th))


# === sweeps ==========================================================

# Per-trial record layout used by the sweep accumulator.
_COL_SE_REAL = 0
_COL_SE_IDEAL = 1
_COL_HM_AT_LM_MEAN = 2
_COL_HM_AT_LM_MIN = 3
_COL_LM_MEAN = 4
_COL_LM_MIN = 5
_COL_LM_WORST_STAGE = 6
_N_COLS = 7


@dataclass(frozen=True)
class OutageEstimate:
    r_th: float
    real: float | None
    real_stderr: float | None
    ideal: float | None
    ideal_stderr: float | None


@dataclass(frozen=True)
class SweepPoint:
    """Aggregates of one (rho_T, p0) sweep point.

    gap_mean/gap_stderr describe the per-trial Ideal - Real difference
    of the HM rate (present only in mode "both").  The LM statistics are
    mode-independent because the LM side carries no fractional Doppler.
    """

    rho_t_db: float
    p0: float
    n_trials: int
    se_hm_real_mean: float | None
    se_hm_real_stderr: float | None
    se_hm_ideal_mean: float | None
    se_hm_ideal_stderr: float | None
    gap_mean: float | None
    gap_stderr: float | None
    se_hm_at_lm_mean: float
    se_hm_at_lm_mean_stderr: float
    se_hm_at_lm_min: float
    se_hm_at_lm_min_stderr: float
    se_lm_mean: float
    se_lm_mean_stderr: float
    se_lm_min: float
    se_lm_min_stderr: float
    se_lm_worst_stage: float
    se_lm_worst_stage_stderr: float
    outage: tuple[OutageEstimate, ...]


@dataclass(frozen=True)
class SweepSummary:
    config: SystemConfig
    thresholds: tuple[float, ...]
    points: tuple[SweepPoint, ...]


def _trial_record(result: TrialResult) -> np.ndarray:
    rates = result.rates_real if result.rates_real is not None else result.rates_ideal
    row = np.empty(_N_COLS)
    row[_COL_SE_REAL] = np.nan if result.rates_real is None else result.rates_real.se_hm
    row[_COL_SE_IDEAL] = np.nan if result.rates_ideal is None else result.rates_ideal.se_hm
    row[_COL_HM_AT_LM_MEAN] = rates.se_hm_at_lm.mean()
    row[_COL_HM_AT_LM_MIN] = rates.se_hm_at_lm.min()
    row[_COL_LM_MEAN] = rates.se_lm.mean()
    row[_COL_LM_MIN] = rates.se_lm.min()
    row[_COL_LM_WORST_STAGE] = rates.se_lm_min
    return row


def _point_rows(args) -> np.ndarray:
    cfg, rho_t_db, point_index, start, stop = args
    rows = np.empty((stop - start, _N_COLS))
    for offset, trial in enumerate(range(start, stop)):
        seed = derive_trial_seed(cfg.master_seed, point_index, trial)
        rows[offset] = _trial_record(run_trial(cfg, rho_t_db, seed, trial))
    return rows


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size > 1:
        stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    else:
        stderr = 0.0
    return mean, stderr


def _outage_estimate(values: np.ndarray | None, r_th: float) -> tuple[float | None, float | None]:
    if values is None:
        return None, None
    frac = outage_probability(values, r_th)
    stderr = float(np.sqrt(frac * (1.0 - frac) / values.size))
    return frac, stderr


def _aggregate_point(
    cfg: SystemConfig, rho_t_db: float, rows: np.ndarray, thresholds: tuple[float, ...]
) -> SweepPoint:
    real = rows[:, _COL_SE_REAL] if cfg.mode in ("real", "both") else None
    ideal = rows[:, _COL_SE_IDEAL] if cfg.mode in ("ideal", "both") else None

    real_mean = real_stderr = ideal_mean = ideal_stderr = None
    gap_mean = gap_stderr = None
    if real is not None:
        real_mean, real_stderr = _mean_stderr(real)
    if ideal is not None:
        ideal_mean, ideal_stderr = _mean_stderr(ideal)
    if real is not None and ideal is not None:
        gap_mean, gap_stderr = _mean_stderr(ideal - real)

    outage = tuple(
        OutageEstimate(
            r_th,
            *_outage_estimate(real, r_th),
            *_outage_estimate(ideal, r_th),
        )
        for r_th in thresholds
    )
    hm_at_lm_mean = _mean_stderr(rows[:, _COL_HM_AT_LM_MEAN])
    hm_at_lm_min = _mean_stderr(rows[:, _COL_HM_AT_LM_MIN])
    lm_mean = _mean_stderr(rows[:, _COL_LM_MEAN])
    lm_min = _mean_stderr(rows[:, _COL_LM_MIN])
    lm_worst = _mean_stderr(rows[:, _COL_LM_WORST_STAGE])
    return SweepPoint(
        rho_t_db=float(rho_t_db),
        p0=float(cfg.p0),
        n_trials=rows.shape[0],
        se_hm_real_mean=real_mean,
        se_hm_real_stderr=real_stderr,
        se_hm_ideal_mean=ideal_mean,
        se_hm_ideal_stderr=ideal_stderr,
        gap_mean=gap_mean,
        gap_stderr=gap_stderr,
        se_hm_at_lm_mean=hm_at_lm_mean[0],
        se_hm_at_lm_mean_stderr=hm_at_lm_mean[1],
        se_hm_at_lm_min=hm_at_lm_min[0],
        se_hm_at_lm_min_stderr=hm_at_lm_min[1],
        se_lm_mean=lm_mean[0],
        se_lm_mean_stderr=lm_mean[1],
        se_lm_min=lm_min[0],
        se_lm_min_stderr=lm_min[1],
        se_lm_worst_stage=lm_worst[0],
        se_lm_worst_stage_stderr=lm_worst[1],
        outage=outage,
    )


def _chunk_bounds(n_trials: int, workers: int) -> list[tuple[int, int]]:
    # A few chunks per worker evens out the load; chunking never affects
    # values because each trial is seeded independently.
    n_chunks = min(n_trials, max(1, workers * 4))
    edges = np.linspace(0, n_trials, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def run_sweep(
    cfg: SystemConfig,
    workers: int = 1,
    thresholds=None,
) -> SweepSummary:
    """Run cfg.trials paired trials at every grid point.

    Outage is evaluated at the given thresholds (default: cfg.R_th
    only).  With workers > 1 the trials are distributed over processes;
    aggregation always reduces the per-trial records in trial order, so
    the result is bitwise identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    thresholds = (cfg.R_th,) if thresholds is None else tuple(float(t) for t in thresholds)
    points = []
    if workers == 1:
        for index, rho_t_db in enumerate(cfg.rho_T_grid):
            rows = _point_rows((cfg, rho_t_db, index, 0, cfg.trials))
            points.append(_aggregate_point(cfg, rho_t_db, rows, thresholds))
        return SweepSummary(cfg, thresholds, tuple(points))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, rho_t_db in enumerate(cfg.rho_T_grid):
            tasks = [
                (cfg, rho_t_db, index, start, stop)
                for start, stop in _chunk_bounds(cfg.trials, workers)
            ]
            rows = np.vstack(list(pool.map(_point_rows, tasks)))
            points.append(_aggregate_point(cfg, rho_t_db, rows, thresholds))
    return SweepSummary(cfg, thresholds, tuple(points))
