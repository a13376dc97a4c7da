"""Reference model of the sweep outputs, written apart from the program.

It redraws trials from the frozen seed derivation and the documented
draw order, and recomputes every rate by a different route than the
package takes:

* the Doppler leakage of a path is the inverse DFT of its Doppler
  phasor exp(2j*pi*kappa*n/N) over the N time slots, not the package's
  closed-form geometric-series ratio;
* the eigen spectra are the 2-D FFT of the beamformed delay-Doppler
  impulse response, truncated at |q| <= N_p, not a sum of phase-table
  rows;
* the equalizer and every power term are evaluated bin by bin.

The Real member is accepted in either of two forms: the package's
current closed form, which drops the desired x leakage cross term, or
the exact form whose residual power also carries 2(1-p0)*rho_T*X with
X = mean(|delta|^2 * Re(c_main * conj(c_idi))).  The Ideal member has
no leakage, so both forms coincide there, and the LM side carries no
fractional Doppler; those columns must match in the one form.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
SPEED_OF_LIGHT = 3.0e8
LM_PATHS = (1, 4)
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, point: int, trial: int) -> int:
    """Frozen per-trial seed: splitmix64 absorbing each coordinate."""
    acc = 0x243F6A8885A308D3
    for value in (master_seed, point, trial):
        acc = _splitmix64(acc ^ (value & MASK64))
    return acc


@dataclass(frozen=True)
class Draw:
    """One trial's channel draw, as plain arrays."""

    doppler: np.ndarray  # (L_0,) integer Doppler taps
    kappa: np.ndarray  # (L_0,) fractional offsets in (-1/2, 1/2]
    delay: np.ndarray  # (L_0,) delay taps
    gains: np.ndarray  # (L_0, A)
    lm: tuple  # per LM user: (delays (P,), gains (P, A))


def _delays(n_paths: int, l_max: int, rng) -> np.ndarray:
    taps = np.zeros(n_paths, dtype=np.int64)
    if n_paths > 1:
        taps[1:] = rng.choice(l_max + 1, size=n_paths - 1, replace=l_max + 1 <= n_paths - 1)
    return taps


def _complex_normal(rng, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(0.5 * variance)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def doppler_span(cfg: dict) -> int:
    nu = cfg["nu_max"]
    if nu is None:
        nu = cfg["v_max"] / 3.6 * cfg["f_c"] / SPEED_OF_LIGHT
    return int(math.floor(nu * cfg["N"] / cfg["delta_f"]))


def draw(cfg: dict, seed: int) -> Draw:
    """Documented draw order: HM Doppler taps, offsets, delays, gains;
    then for each LM user 1..U its path count, delays, gains."""
    rng = np.random.default_rng(seed)
    L, A = cfg["L_0"], cfg["A"]
    k_max = doppler_span(cfg)
    doppler = rng.integers(-k_max, k_max + 1, size=L)
    kappa = 0.5 - rng.random(L)
    delay = _delays(L, cfg["l_max"], rng)
    gains = _complex_normal(rng, (L, A), 1.0 / L)
    lm = []
    for _ in range(cfg["U"]):
        n_paths = int(rng.integers(LM_PATHS[0], LM_PATHS[1] + 1))
        lm_delay = _delays(n_paths, cfg["l_max"], rng)
        lm.append((lm_delay, _complex_normal(rng, (n_paths, A), 1.0 / n_paths)))
    return Draw(doppler, kappa, delay, gains, tuple(lm))


def leakage(kappa: float, n_doppler: int) -> np.ndarray:
    """Leakage of one path onto Doppler offset q, indexed q mod N: the
    inverse DFT of the path's fractional Doppler phasor."""
    return np.fft.ifft(np.exp(2j * np.pi * kappa * np.arange(n_doppler) / n_doppler))


def hm_spectra(cfg: dict, d: Draw, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beamformed (main, leakage) spectra by 2-D FFT of the DD response."""
    N, M, Np = cfg["N"], cfg["M"], cfg["N_p"]
    w = np.full(cfg["A"], 1.0 / math.sqrt(cfg["A"]))
    h_main = np.zeros((N, M), dtype=complex)
    h_idi = np.zeros((N, M), dtype=complex)
    for p in range(len(d.doppler)):
        k, l, kap = int(d.doppler[p]), int(d.delay[p]), float(kappa[p])
        amp = (d.gains[p] @ w) * np.exp(-2j * np.pi * (k + kap) * l / (N * M))
        leak = leakage(kap, N)
        for q in range(-Np, Np + 1):
            target = h_main if q == 0 else h_idi
            target[(k - q) % N, l % M] += amp * leak[q % N]
    return np.fft.fft2(h_main), np.fft.fft2(h_idi)


def _mmse(c: np.ndarray, rho: float) -> np.ndarray:
    return np.conj(c) / (np.abs(c) ** 2 + rho)


def hm_rates(cfg: dict, p0: float, rho_t: float, c_main, c_idi) -> tuple[float, float]:
    """HM rate without and with the desired x leakage cross term."""
    delta = _mmse(c_main, cfg["rho"])
    desired = np.mean(np.abs(delta * c_main) ** 2)
    leak = np.mean(np.abs(delta * c_idi) ** 2)
    noise = np.mean(np.abs(delta) ** 2)
    cross = np.mean(np.abs(delta) ** 2 * np.real(c_main * np.conj(c_idi)))
    base = (1.0 - p0) * rho_t * desired + rho_t * leak + noise
    signal = p0 * rho_t * desired
    return (
        math.log2(1.0 + signal / base),
        math.log2(1.0 + signal / (base + 2.0 * (1.0 - p0) * rho_t * cross)),
    )


def lm_rates(cfg: dict, p0: float, rho_t: float, d: Draw) -> dict:
    """Per-trial LM statistics: both detection stages of every user."""
    N, M = cfg["N"], cfg["M"]
    w = np.full(cfg["A"], 1.0 / math.sqrt(cfg["A"]))
    at_lm = np.empty(cfg["U"])
    gain = np.empty(cfg["U"], dtype=complex)
    for j, (delays, gains) in enumerate(d.lm):
        h = np.zeros((N, M), dtype=complex)
        for l, g in zip(delays, gains):
            h[0, int(l) % M] += g @ w
        c = np.fft.fft2(h)
        delta = _mmse(c, cfg["rho"])
        forward = np.mean(np.abs(delta) ** 2 * np.abs(c) ** 2)
        noise = np.mean(np.abs(delta) ** 2)
        at_lm[j] = p0 * rho_t * forward / ((1.0 - p0) * rho_t * forward + noise)
        # The package takes an LM user's subcarrier response with the
        # exp(+2j*pi*l*m/M) kernel, i.e. M times the inverse DFT over delay.
        gain[j] = M * np.fft.ifft(h[0])[j]
    inverse = 1.0 / np.abs(gain)
    shares = (1.0 - p0) * inverse / inverse.sum()
    own = shares * rho_t * np.abs(gain) ** 2
    se_at_lm = np.log2(1.0 + at_lm)
    se_lm = np.log2(1.0 + own)
    worst = np.minimum(se_at_lm, se_lm) if cfg["lm_min_includes_hm_stage"] else se_lm
    return {
        "se_hm_at_lm_mean": se_at_lm.mean(),
        "se_hm_at_lm_min": se_at_lm.min(),
        "se_lm_mean": se_lm.mean(),
        "se_lm_min": se_lm.min(),
        "se_lm_worst_stage": worst.min(),
    }


def trial_record(cfg: dict, p0: float, rho_t_db: float, point: int, trial: int) -> dict:
    """Every per-trial value the sweep CSVs aggregate."""
    rho_t = 10.0 ** (rho_t_db / 10.0)
    d = draw(cfg, trial_seed(cfg["master_seed"], point, trial))
    rec = lm_rates(cfg, p0, rho_t, d)
    real = hm_rates(cfg, p0, rho_t, *hm_spectra(cfg, d, d.kappa))
    ideal = hm_rates(cfg, p0, rho_t, *hm_spectra(cfg, d, np.zeros_like(d.kappa)))
    rec["real"] = real  # (without cross term, with cross term)
    rec["ideal"] = ideal[0]
    return rec


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), stderr


def _outage(values, r_th: float) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    frac = float(np.mean(arr < r_th))
    return frac, math.sqrt(frac * (1.0 - frac) / arr.size)


def expected_rows(command: str, cfg: dict, p0_values, thresholds=()) -> tuple[list, list]:
    """Reference CSV rows of one sweep command, once with the Real member
    in the form without the cross term and once in the exact form."""
    by_form = ([], [])
    for p0 in p0_values:
        for point, rho_t_db in enumerate(cfg["rho_T_grid"]):
            recs = [trial_record(cfg, p0, rho_t_db, point, t) for t in range(cfg["trials"])]
            ideal = [r["ideal"] for r in recs]
            head = (float(rho_t_db), float(p0))
            for form, rows in enumerate(by_form):
                real = [r["real"][form] for r in recs]
                if command == "hm-sweep":
                    gap = float(np.mean(np.asarray(ideal) - np.asarray(real)))
                    rows.append(head + _mean_stderr(real) + _mean_stderr(ideal) + (gap,))
                elif command == "lm-sweep":
                    row = head
                    for key in ("se_hm_at_lm_mean", "se_hm_at_lm_min", "se_lm_mean",
                                "se_lm_min", "se_lm_worst_stage"):
                        row += _mean_stderr([r[key] for r in recs])
                    rows.append(row)
                elif command == "outage":
                    for r_th in thresholds:
                        rows.append(
                            head + (float(r_th),) + _outage(real, r_th) + _outage(ideal, r_th)
                        )
                else:
                    raise ValueError(f"no reference for command {command!r}")
    return by_form


def read_csv(path) -> list[tuple]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [tuple(float(x) for x in row) for row in list(csv.reader(fh))[1:]]


def _rows_match(got: list[tuple], want: list[tuple], columns) -> str:
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w):
            return f"row {i} has {len(g)} columns, reference has {len(w)}"
        for c in columns:
            if not math.isclose(g[c], w[c], rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"row {i} column {c}: {g[c]!r} vs reference {w[c]!r}"
    return ""


# CSV columns that depend on the Real member, per command; every other
# column must match the single (cross-term-free) form.
_REAL_COLUMNS = {
    "hm-sweep": (2, 3, 6),
    "lm-sweep": (),
    "outage": (3, 4),
}


def compare_csv(path, command: str, cfg: dict, p0_values, thresholds=()) -> str:
    """Empty string when the CSV matches the reference, else the first
    mismatch.  The Real columns may follow either closed form."""
    got = read_csv(path)
    without_cross, exact = expected_rows(command, cfg, p0_values, thresholds)
    width = len(without_cross[0]) if without_cross else 0
    real_cols = _REAL_COLUMNS[command]
    problem = _rows_match(got, without_cross, [c for c in range(width) if c not in real_cols])
    if problem:
        return problem
    problem = _rows_match(got, without_cross, real_cols)
    if problem and _rows_match(got, exact, real_cols):
        return f"Real member matches neither closed form: {problem}"
    return ""
