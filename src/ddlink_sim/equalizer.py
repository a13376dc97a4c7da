"""MMSE detection spectra and closed-form link SNRs.

The HM receiver equalizes in the spectral domain: the beamformed desired
channel diagonalizes to one complex eigenvalue per spectral bin, the
regularized inverse of that diagonal (the array `delta`) is the whole
equalizer, and every average power the SNR formulas need reduces to a
mean over the bins.  The LM-side stages take all U users at once: the
HM-at-LM SNR reduces over the last (delay-bin) axis of a (U, M)
spectrum, and the LM SNR is element-wise over the users.
`empirical_hm_sinr` is the independent cross-check:
it runs actual symbols through the dense channel matrices and a dense
least-squares equalizer and measures the same ratio from the samples.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (
    EigenSpectra,
    HMChannelRealization,
    LMChannels,
    hm_channel_matrices,
    lm_subchannel_gains,
)
from .config import SystemConfig


class DegenerateSpectrum(ValueError):
    """Raised when every equalizer coefficient is zero (dead channel)."""


@dataclass(frozen=True)
class DetectionPowerTerms:
    """Per-symbol power factors at the HM equalizer output.

    desired: energy of the equalized main-tap channel (scales both the
    useful signal and the co-scheduled users' superposed power).
    leakage: energy of the equalized Doppler-leakage channel.
    noise: equalizer output noise energy per unit noise variance.
    """

    desired: float
    leakage: float
    noise: float


@dataclass(frozen=True)
class EmpiricalSinr:
    value: float
    stderr: float
    n_frames: int


def mmse_spectrum(eigenvalues: np.ndarray, regularizer: float) -> np.ndarray:
    """Regularized inverse of the per-bin eigenvalue.

    delta_i = conj(c_i) / (|c_i|^2 + rho).  Bins with c_i = 0 get
    delta_i = 0.
    """
    if regularizer <= 0:
        raise ValueError(f"regularizer must be > 0, got {regularizer!r}")
    return np.conj(eigenvalues) / (np.abs(eigenvalues) ** 2 + regularizer)


def detection_power_terms(
    delta: np.ndarray, lambda_main: np.ndarray, lambda_idi: np.ndarray
) -> DetectionPowerTerms:
    """Average the equalized channel energies over the spectral grid."""
    desired = float(np.mean(np.abs(delta * lambda_main) ** 2))
    leakage = float(np.mean(np.abs(delta * lambda_idi) ** 2))
    noise = float(np.mean(np.abs(delta) ** 2))
    return DetectionPowerTerms(desired, leakage, noise)


def hm_detection_snr(terms: DetectionPowerTerms, p0: float, rho_t: float) -> float:
    """HM own-signal SNR after equalization.

    The useful share p0 rides the desired energy; the other users'
    share (1 - p0) rides it too, the leakage energy carries the full
    unit transmit power, and the noise term is SNR-free because the
    transmit power is normalized to one.
    """
    if terms.noise == 0.0:
        raise DegenerateSpectrum("all equalizer coefficients are zero")
    signal = p0 * rho_t * terms.desired
    return signal / ((1.0 - p0) * rho_t * terms.desired + rho_t * terms.leakage + terms.noise)


def hm_at_lm_snr(delta: np.ndarray, eigenvalues: np.ndarray, p0: float, rho_t: float):
    """SNR of the HM signal detected (for cancellation) at LM users.

    The energies are means over the last axis, so a (U, M) spectrum
    gives one SNR per user.  The forward energy is that of the equalized
    channel; the remaining users' aggregate share 1 - p0 is the
    interference.
    """
    noise_gain = np.abs(delta) ** 2
    forward = np.mean(noise_gain * np.abs(eigenvalues) ** 2, axis=-1)
    noise = np.mean(noise_gain, axis=-1)
    if np.any(noise == 0.0):
        raise DegenerateSpectrum("all equalizer coefficients are zero")
    return p0 * rho_t * forward / ((1.0 - p0) * rho_t * forward + noise)


def lm_detection_snr(power_share, rho_t: float, subchannel_gain):
    """SNR of each LM user's own signal on its dedicated subcarrier,
    element-wise over the shares and gains."""
    if np.any(np.asarray(power_share) < 0):
        raise ValueError(f"power_share must be >= 0, got {power_share!r}")
    return power_share * rho_t * np.abs(subchannel_gain) ** 2


def spectral_decomposition_residual(
    delta: np.ndarray, spectra: EigenSpectra, lambda_full: np.ndarray
) -> float:
    """Relative error of the equalized full spectrum against its split.

    Compares delta * lambda_full per bin with the sum of the equalized
    main and leakage images; exact up to rounding when the spectra come
    from the same realization.
    """
    total = delta * lambda_full
    parts = delta * spectra.lambda_main + delta * spectra.lambda_idi
    num = float(np.abs(total - parts).max())
    if num == 0.0:
        return 0.0
    den = float(np.abs(total).max())
    return num / den if den > 0.0 else float("inf")


# === signal-level oracle =============================================

# Frames the oracle transmits per block: one normal draw and three
# matrix-matrix products each.  Larger blocks are no faster and raise
# the peak memory.
_FRAME_BLOCK = 16


def empirical_hm_sinr(
    ch: HMChannelRealization,
    lm_channels: LMChannels,
    cfg: SystemConfig,
    rho_t: float,
    rng: np.random.Generator,
    n_symbols: int = 100_000,
) -> EmpiricalSinr:
    """Measure the HM detection SINR from transmitted symbols.

    Independent of the spectral fast path: builds the dense channel
    matrices, solves the regularized normal equations for the equalizer,
    transmits white unit-power symbol vectors for all U + 1 users with
    the configured power split, adds noise of variance 1/rho_t, and
    compares the known equalized signal component against the residual.
    The frames go through in blocks of `_FRAME_BLOCK`; the estimate is
    over per-frame powers, with a delta-method standard error.  The
    closed-form `hm_detection_snr` should agree with the returned value
    up to the cross terms it neglects plus Monte Carlo noise.
    """
    from .noma import allocate_power  # local import, noma depends on this module

    n, m = cfg.N, cfg.M
    nm = n * m
    h_main, _, h_full = hm_channel_matrices(ch, n, m)

    gram = h_main.conj().T @ h_main + cfg.rho * np.eye(nm)
    equalizer = np.linalg.solve(gram, h_main.conj().T)
    signal_map = equalizer @ h_main

    shares = allocate_power(cfg.p0, lm_subchannel_gains(lm_channels, m))
    amp = np.sqrt(shares)

    sigma = np.sqrt(1.0 / rho_t)
    n_frames = max(1, int(np.ceil(n_symbols / nm)))
    n_users = len(shares)
    sig_power = np.empty(n_frames)
    res_power = np.empty(n_frames)
    root_half = np.sqrt(0.5)
    for start in range(0, n_frames, _FRAME_BLOCK):
        n_block = min(_FRAME_BLOCK, n_frames - start)
        # One row per frame, in the per-frame draw order: every user's
        # real parts, their imaginary parts, then the noise's real and
        # imaginary parts.  The normals are sequential, so this is the
        # same stream as drawing them frame by frame.
        draws = rng.standard_normal((n_block, 2 * n_users + 2, nm))
        re, im = draws[:, :n_users], draws[:, n_users : 2 * n_users]
        superposed = root_half * (amp @ re + 1j * (amp @ im))
        noise = sigma * root_half * (draws[:, -2] + 1j * draws[:, -1])
        equalized = equalizer @ (h_full @ superposed.T + noise.T)
        own = root_half * (re[:, 0] + 1j * im[:, 0])
        signal = amp[0] * (signal_map @ own.T)
        residual = equalized - signal
        sig_power[start : start + n_block] = np.sum(np.abs(signal) ** 2, axis=0)
        res_power[start : start + n_block] = np.sum(np.abs(residual) ** 2, axis=0)

    s_mean = sig_power.mean()
    r_mean = res_power.mean()
    value = float(s_mean / r_mean)
    if s_mean == 0.0:
        return EmpiricalSinr(0.0, 0.0, n_frames)
    if n_frames > 1:
        # Delta method for the ratio of two correlated means.
        s_var = sig_power.var(ddof=1) / n_frames
        r_var = res_power.var(ddof=1) / n_frames
        covar = np.cov(sig_power, res_power, ddof=1)[0, 1] / n_frames
        rel_var = s_var / s_mean**2 + r_var / r_mean**2 - 2.0 * covar / (s_mean * r_mean)
        stderr = float(value * np.sqrt(max(rel_var, 0.0)))
    else:
        stderr = float("nan")
    return EmpiricalSinr(value, stderr, n_frames)
