"""MMSE detection spectra and closed-form link SNRs.

The HM receiver equalizes in the spectral domain: the beamformed desired
channel diagonalizes to one complex eigenvalue per spectral bin, the
regularized inverse of that diagonal (the array `delta`) is the whole
equalizer, and every average power the SNR formulas need reduces to a
mean over the bins.  One SINR formula serves the HM members and every
LM user's detection of the HM signal (a delay-only channel, so zero
leakage, reduced over the last axis of a (U, M) spectrum); the LM SNR
is element-wise over the users.  The closed forms are checked against
the signal-level oracle `validation.empirical_hm_sinr`.
"""

import numpy as np


class DegenerateSpectrum(ValueError):
    """Raised when every equalizer coefficient is zero (dead channel)."""


def mmse_spectrum(eigenvalues: np.ndarray, regularizer: float) -> np.ndarray:
    """Regularized inverse of the per-bin eigenvalue.

    delta_i = conj(c_i) / (|c_i|^2 + rho).  Bins with c_i = 0 get
    delta_i = 0.
    """
    if regularizer <= 0:
        raise ValueError(f"regularizer must be > 0, got {regularizer!r}")
    return np.conj(eigenvalues) / (np.abs(eigenvalues) ** 2 + regularizer)


def detection_power_terms(delta: np.ndarray, lambda_main: np.ndarray, lambda_idi: np.ndarray):
    """Per-symbol power factors (desired, leakage, noise) at the HM
    equalizer output, each a mean over the last (spectral) axis: the
    energy of the equalized main-tap channel (it scales both the useful
    signal and the co-scheduled users' superposed power), that of the
    equalized Doppler-leakage channel, and the output noise energy per
    unit noise variance."""
    desired = _mean(np.abs(delta * lambda_main) ** 2)
    leakage = _mean(np.abs(delta * lambda_idi) ** 2)
    noise = _mean(np.abs(delta) ** 2)
    return desired, leakage, noise


def _mean(x: np.ndarray):
    # What np.mean computes over the last axis, without its wrapper.
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def hm_detection_snr(terms: tuple, p0: float, rho_t: float):
    """HM signal SINR after equalization, element-wise over the terms.

    The useful share p0 rides the desired energy; the other users'
    share (1 - p0) rides it too, the leakage energy carries the full
    unit transmit power, and the noise term is SNR-free because the
    transmit power is normalized to one.
    """
    desired, leakage, noise = terms
    if not np.asarray(noise).all():
        raise DegenerateSpectrum("all equalizer coefficients are zero")
    return p0 * rho_t * desired / ((1.0 - p0) * rho_t * desired + rho_t * leakage + noise)


def hm_at_lm_snr(delta: np.ndarray, eigenvalues: np.ndarray, p0: float, rho_t: float):
    """SNR of the HM signal detected (for cancellation) at LM users:
    `hm_detection_snr` at zero leakage, since the channel is delay-only.
    The energies are means over the last axis, so a (U, M) spectrum
    gives one SNR per user."""
    noise_gain = np.abs(delta) ** 2
    forward = _mean(noise_gain * np.abs(eigenvalues) ** 2)
    noise = _mean(noise_gain)
    return hm_detection_snr((forward, 0.0, noise), p0, rho_t)


def lm_detection_snr(power_share, rho_t: float, subchannel_gain):
    """SNR of each LM user's own signal on its dedicated subcarrier,
    element-wise over the shares and gains."""
    if np.any(np.asarray(power_share) < 0):
        raise ValueError(f"power_share must be >= 0, got {power_share!r}")
    return power_share * rho_t * np.abs(subchannel_gain) ** 2
