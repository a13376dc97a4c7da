"""MMSE detection spectra and closed-form link SNRs.

The HM receiver equalizes in the spectral domain: the beamformed desired
channel diagonalizes to one complex eigenvalue per spectral bin, and the
regularized inverse of that diagonal (the array `delta`) is the whole
equalizer.  Every average power the SNR formulas need is a mean over
the bins of a product with |delta|^2, which depends only on the bin's
channel energy, so the trial path never forms delta.  One SINR formula
serves the HM members and every LM user's detection of the HM signal (a
delay-only channel, so zero leakage, reduced over the last axis of a
(U, M) energy array); the LM SNR is element-wise over the users.  The
closed forms are checked against the signal-level oracle
`validation.empirical_hm_sinr`.
"""

import numpy as np


class DegenerateSpectrum(ValueError):
    """Raised when every equalizer coefficient is zero (dead channel)."""


def _check_regularizer(regularizer: float) -> None:
    if regularizer <= 0:
        raise ValueError(f"regularizer must be > 0, got {regularizer!r}")


def mmse_spectrum(eigenvalues: np.ndarray, regularizer: float) -> np.ndarray:
    """Regularized inverse of the per-bin eigenvalue.

    delta_i = conj(c_i) / (|c_i|^2 + rho).  Bins with c_i = 0 get
    delta_i = 0.
    """
    _check_regularizer(regularizer)
    return np.conj(eigenvalues) / (np.abs(eigenvalues) ** 2 + regularizer)


def bin_energy(spectrum: np.ndarray) -> np.ndarray:
    """|c_i|^2 of every bin, as re^2 + im^2."""
    energy = np.square(spectrum.real)
    energy += np.square(spectrum.imag)
    return energy


def detection_power_terms(energy, regularizer: float):
    """Per-symbol power factors (desired, leakage, noise) at the HM
    equalizer output from the per-bin energies energy = (a, b) of the
    main and leakage spectra (b may be a scalar), each a mean over the
    last (spectral) axis: the energy of the equalized main-tap channel
    mean(a*w) (it scales both the useful signal and the co-scheduled
    users' superposed power), that of the equalized Doppler-leakage
    channel mean(b*w), and the output noise energy per unit noise
    variance mean(w), with w = |delta|^2 = a/(a + rho)^2.  w takes two
    divisions, so that a dead bin gives 0 where (a + rho)^2 underflows.
    """
    _check_regularizer(regularizer)
    main, idi = energy
    shifted = main + regularizer
    noise_gain = main / shifted
    noise_gain /= shifted
    return _mean(main * noise_gain), _mean(idi * noise_gain), _mean(noise_gain)


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


def hm_at_lm_snr(energy: np.ndarray, regularizer: float, p0: float, rho_t: float):
    """SNR of the HM signal detected (for cancellation) at LM users:
    `hm_detection_snr` at zero leakage, since the channel is delay-only.
    The terms are means over the last axis, so the (U, M) energies of
    the LM spectra give one SNR per user."""
    return hm_detection_snr(detection_power_terms((energy, 0.0), regularizer), p0, rho_t)


def lm_detection_snr(power_share, rho_t: float, subchannel_gain):
    """SNR of each LM user's own signal on its dedicated subcarrier,
    element-wise over the shares and gains."""
    if np.any(np.asarray(power_share) < 0):
        raise ValueError(f"power_share must be >= 0, got {power_share!r}")
    return power_share * rho_t * np.abs(subchannel_gain) ** 2
