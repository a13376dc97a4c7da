"""Deterministic Monte Carlo engine: paired trials, sweeps, outage.

Every trial owns a seed derived as a pure 64-bit mix of
(master_seed, sweep-point index, trial index), so results are bitwise
independent of execution order and worker count.  The Real and Ideal
members of a trial share all channel draws; only the fractional Doppler
offsets differ (forced to zero for Ideal), which pairs the comparison
trial by trial.

A trial is one array path from the draws to its record row: the LM
stages of all U users are evaluated at once on the M delay bins and
shared by both members.  A sweep maps one task list over every
(point, chunk) pair, in process or on a pool, and splits the rows back
per point.
"""

import os
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
    detection_power_terms,
    hm_at_lm_snr,
    hm_detection_snr,
    lm_detection_snr,
    mmse_spectrum,
)
from .noma import allocate_power, assemble_rates

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

# Per-trial record layout used by the sweep accumulator; columns 2..6
# are the LM summaries in the order noma.assemble_rates returns them.
_COL_SE_REAL = 0
_COL_SE_IDEAL = 1
_COL_HM_AT_LM_MEAN = 2
_COL_HM_AT_LM_MIN = 3
_COL_LM_MEAN = 4
_COL_LM_MIN = 5
_COL_LM_WORST_STAGE = 6
_N_COLS = 7


def _hm_rate(cfg: SystemConfig, ch, rho_t: float) -> float:
    spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
    delta = mmse_spectrum(spectra.lambda_main, cfg.rho)
    terms = detection_power_terms(delta, spectra.lambda_main, spectra.lambda_idi)
    return np.log2(1.0 + hm_detection_snr(terms, cfg.p0, rho_t))


def run_trial(cfg: SystemConfig, rho_t_db: float, trial_seed: int) -> np.ndarray:
    """Simulate one paired trial at one transmit-SNR point.

    Returns the (_N_COLS,) record row of spectral efficiencies in b/s/Hz:
    the HM rate of the Real and the Ideal member, the mean and minimum
    over users of both LM-side stages, and the worst user's limiting
    rate (the weaker stage per user, or the LM stage alone when
    cfg.lm_min_includes_hm_stage is False).  A member not requested by
    cfg.mode is NaN.  Draw order is fixed (HM channel, then LM users
    1..U) so a seed fully determines the realization.  The LM-side
    stages carry no fractional Doppler, hence one evaluation serves
    both members.
    """
    rng = np.random.default_rng(trial_seed)
    rho_t = db_to_linear(rho_t_db)

    hm = sample_hm_channel(cfg, rng)
    lm = sample_lm_channel(cfg, rng)

    gains = lm_subchannel_gains(lm, cfg.M)
    shares = allocate_power(cfg.p0, gains)
    lam = lm_eigen_spectrum(lm, cfg.M)
    snr_hm_at_lm = hm_at_lm_snr(mmse_spectrum(lam, cfg.rho), lam, cfg.p0, rho_t)
    snr_lm = lm_detection_snr(shares[1:], rho_t, gains)

    row = np.full(_N_COLS, np.nan)
    if cfg.mode in ("real", "both"):
        row[_COL_SE_REAL] = _hm_rate(cfg, hm, rho_t)
    if cfg.mode in ("ideal", "both"):
        row[_COL_SE_IDEAL] = _hm_rate(cfg, without_fractional_doppler(hm), rho_t)
    row[_COL_HM_AT_LM_MEAN:] = assemble_rates(snr_hm_at_lm, snr_lm, cfg.lm_min_includes_hm_stage)
    return row


# === outage ==========================================================


def outage_probability(samples: np.ndarray, r_th: float) -> float:
    """Fraction of rate samples strictly below the threshold."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("outage requires at least one sample")
    return float(np.mean(arr < r_th))


# === sweeps ==========================================================


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


def _point_rows(task) -> np.ndarray:
    """Record rows of trials start..stop-1 of one sweep point."""
    cfg, rho_t_db, point_index, start, stop = task
    rows = np.empty((stop - start, _N_COLS))
    for offset, trial in enumerate(range(start, stop)):
        seed = derive_trial_seed(cfg.master_seed, point_index, trial)
        rows[offset] = run_trial(cfg, rho_t_db, seed)
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


def _usable_cpus() -> int:
    # The CPUs this process may run on: the affinity mask where the
    # platform has one, which taskset and CPU-pinned containers narrow.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    cfg: SystemConfig,
    workers: int = 1,
    thresholds=None,
) -> SweepSummary:
    """Run cfg.trials paired trials at every grid point.

    Outage is evaluated at the given thresholds (default: cfg.R_th
    only).  The trials of all points form one task list of chunks, run
    in this process at one worker and otherwise on a pool of
    min(workers, tasks, CPUs) processes; aggregation always reduces the
    per-trial records in trial order, so the result is bitwise
    identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    thresholds = (cfg.R_th,) if thresholds is None else tuple(float(t) for t in thresholds)
    processes = min(workers, _usable_cpus())
    bounds = _chunk_bounds(cfg.trials, processes)
    tasks = [
        (cfg, rho_t_db, index, start, stop)
        for index, rho_t_db in enumerate(cfg.rho_T_grid)
        for start, stop in bounds
    ]
    processes = min(processes, len(tasks))
    if processes == 1:
        chunks = list(map(_point_rows, tasks))
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_point_rows, tasks))
    n = len(bounds)
    points = tuple(
        _aggregate_point(cfg, rho_t_db, np.vstack(chunks[i * n : (i + 1) * n]), thresholds)
        for i, rho_t_db in enumerate(cfg.rho_T_grid)
    )
    return SweepSummary(cfg, thresholds, points)
