"""MMSE detection spectra and closed-form link SNRs.

The HM receiver equalizes in the spectral domain: the beamformed desired
channel diagonalizes to one complex eigenvalue per spectral bin, the
regularized inverse of that diagonal (the array `delta`) is the whole
equalizer, and every average power the SNR formulas need reduces to a
mean over the bins.  The LM-side stages take all U users at once: the
HM-at-LM SNR reduces over the last (delay-bin) axis of a (U, M)
spectrum, and the LM SNR is element-wise over the users.  The
signal-level oracle these closed forms are checked against is
`validation.empirical_hm_sinr`.
"""

from dataclasses import dataclass

import numpy as np


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
