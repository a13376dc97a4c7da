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
(share, point, chunk) triple, in process or on one pool, and reduces
the rows of all points of a share at once.
"""

import os

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

# The statistics of a sweep point in summary order, as (mean field,
# stderr field): the HM rate of the Real and the Ideal member, their
# paired gap (Ideal - Real), then the five LM summaries in the order
# noma.assemble_rates returns them.  A trial's record row holds every
# column but the gap, which aggregation derives from the two members.
STATS = (
    ("se_hm_real_mean", "se_hm_real_stderr"),
    ("se_hm_ideal_mean", "se_hm_ideal_stderr"),
    ("gap_mean", "gap_stderr"),
    ("se_hm_at_lm_mean", "se_hm_at_lm_mean_stderr"),
    ("se_hm_at_lm_min", "se_hm_at_lm_min_stderr"),
    ("se_lm_mean", "se_lm_mean_stderr"),
    ("se_lm_min", "se_lm_min_stderr"),
    ("se_lm_worst_stage", "se_lm_worst_stage_stderr"),
)
# Fields of an outage estimate: the fraction and its stderr per member.
OUTAGE_STATS = (("real", "real_stderr"), ("ideal", "ideal_stderr"))
_N_COLS = len(STATS) - 1


def _members(cfg: SystemConfig) -> tuple[bool, bool]:
    """Whether cfg.mode simulates the Real and the Ideal member."""
    return cfg.mode != "ideal", cfg.mode != "real"


def hm_sinr(cfg: SystemConfig, ch, rho_t: float) -> float:
    """Closed-form HM detection SINR of one realization at share cfg.p0,
    as the sweeps and `validate`'s empirical-sinr check both use it."""
    lam_main, lam_idi = hm_eigen_spectra(ch, cfg.N, cfg.M)
    delta = mmse_spectrum(lam_main, cfg.rho)
    terms = detection_power_terms(delta, lam_main, lam_idi)
    return hm_detection_snr(terms, cfg.p0, rho_t)


def run_trial(cfg: SystemConfig, rho_t_db: float, trial_seed: int) -> np.ndarray:
    """Simulate one paired trial at one transmit-SNR point.

    Returns the record row of spectral efficiencies in b/s/Hz, the
    columns of STATS without the gap: the HM rate of the Real and the
    Ideal member, the mean and minimum over users of both LM-side
    stages, and the worst user's limiting rate (the weaker stage per
    user, or the LM stage alone when cfg.lm_min_includes_hm_stage is
    False).  A member not requested by cfg.mode is NaN.  Draw order is
    fixed (HM channel, then LM users 1..U) so a seed fully determines
    the realization.  The LM-side stages carry no fractional Doppler,
    hence one evaluation serves both members.
    """
    rng = np.random.default_rng(trial_seed)
    rho_t = db_to_linear(rho_t_db)

    hm = sample_hm_channel(cfg, rng)
    lm = sample_lm_channel(cfg, rng)

    lam = lm_eigen_spectrum(lm, cfg.M)
    gains = lm_subchannel_gains(lam)
    shares = allocate_power(cfg.p0, gains)
    snr_hm_at_lm = hm_at_lm_snr(mmse_spectrum(lam, cfg.rho), lam, cfg.p0, rho_t)
    snr_lm = lm_detection_snr(shares[1:], rho_t, gains)

    real, ideal = _members(cfg)
    row = np.full(_N_COLS, np.nan)
    if real:
        row[0] = np.log2(1.0 + hm_sinr(cfg, hm, rho_t))
    if ideal:
        row[1] = np.log2(1.0 + hm_sinr(cfg, without_fractional_doppler(hm), rho_t))
    row[2:] = assemble_rates(snr_hm_at_lm, snr_lm, cfg.lm_min_includes_hm_stage)
    return row


# === sweeps ==========================================================


def _point_rows(task) -> np.ndarray:
    """Record rows of trials start..stop-1 of one sweep point."""
    cfg, rho_t_db, point_index, start, stop = task
    rows = np.empty((stop - start, _N_COLS))
    for offset, trial in enumerate(range(start, stop)):
        seed = derive_trial_seed(cfg.master_seed, point_index, trial)
        rows[offset] = run_trial(cfg, rho_t_db, seed)
    return rows


def _fields(table, present, values, stderrs) -> dict:
    """Each row of table as {mean field: value, stderr field: stderr},
    both None where the statistic is absent."""
    out = {}
    for (key, stderr_key), keep, value, stderr in zip(table, present, values, stderrs):
        out[key], out[stderr_key] = (value, stderr) if keep else (None, None)
    return out


def _aggregate(cfg: SystemConfig, rows: np.ndarray, thresholds: tuple) -> list[dict]:
    """Summary points of the (points, trials, _N_COLS) records, in STATS order.

    Every reduction runs along a contiguous last axis, where numpy sums
    pairwise exactly as it does for one column alone.
    """
    n = rows.shape[1]
    real, ideal = _members(cfg)
    present = (real, ideal, real and ideal) + (True,) * (len(STATS) - 3)
    columns = np.insert(rows, 2, rows[..., 1] - rows[..., 0], axis=2)
    columns = np.ascontiguousarray(columns.transpose(0, 2, 1))
    means = columns.mean(axis=-1)
    stderrs = columns.std(axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(means)
    # Outage counts only rates strictly below the threshold.
    below = columns[:, None, :2] < np.asarray(thresholds)[:, None, None]
    frac = below.mean(axis=-1)
    frac_stderr = np.sqrt(frac * (1.0 - frac) / n)
    means, stderrs, frac, frac_stderr = (a.tolist() for a in (means, stderrs, frac, frac_stderr))
    return [
        {
            "rho_t_db": float(rho_t_db),
            "p0": float(cfg.p0),
            "n_trials": n,
            **_fields(STATS, present, means[i], stderrs[i]),
            "outage": [
                {"r_th": r_th, **_fields(OUTAGE_STATS, present, frac[i][k], frac_stderr[i][k])}
                for k, r_th in enumerate(thresholds)
            ],
        }
        for i, rho_t_db in enumerate(cfg.rho_T_grid)
    ]


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


def run_sweep(cfg: SystemConfig, workers: int = 1, thresholds=None, shares=None) -> list[dict]:
    """Run cfg.trials paired trials at every grid point of every share.

    Returns the summary's sweeps list: one entry {"p0", "thresholds",
    "points"} per HM power share in shares (default: cfg.p0 alone), with
    one plain dict per grid point holding the STATS fields (None where
    cfg.mode lacks a member) and the outage estimates at the given
    thresholds (default: cfg.R_th only).  The trials of every (share,
    point) pair form one task list of chunks, run in this process at one
    worker and otherwise on one pool of min(workers, tasks, CPUs)
    processes; aggregation reduces the records in trial order, so the
    result is bitwise identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    thresholds = (cfg.R_th,) if thresholds is None else tuple(float(t) for t in thresholds)
    configs = [cfg] if shares is None else [cfg.replace(p0=p0) for p0 in shares]
    processes = min(workers, _usable_cpus())
    bounds = _chunk_bounds(cfg.trials, processes)
    tasks = [
        (share, rho_t_db, index, start, stop)
        for share in configs
        for index, rho_t_db in enumerate(cfg.rho_T_grid)
        for start, stop in bounds
    ]
    processes = min(processes, len(tasks))
    if processes == 1:
        chunks = list(map(_point_rows, tasks))
    else:
        # Imported here, so that an in-process run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_point_rows, tasks))
    rows = np.vstack(chunks).reshape(len(configs), len(cfg.rho_T_grid), cfg.trials, _N_COLS)
    return [
        {"p0": share.p0, "thresholds": list(thresholds), "points": _aggregate(share, r, thresholds)}
        for share, r in zip(configs, rows)
    ]
