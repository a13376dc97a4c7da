"""Power-domain user multiplexing: power allocation and rates."""

import numpy as np

from dataclasses import dataclass

from .equalizer import LinkSnrs


class ZeroGain(ValueError):
    """Raised when a user's subchannel gain is exactly zero."""


@dataclass(frozen=True)
class PowerAllocation:
    """Power shares, entry 0 for the HM user, entries 1..U for LM users."""

    shares: np.ndarray

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        if shares.ndim != 1 or shares.size < 1:
            raise ValueError("shares must be a non-empty 1-D array")
        if np.any(shares < 0.0) or np.any(shares > 1.0):
            raise ValueError("power shares must lie in [0, 1]")
        if abs(shares.sum() - 1.0) > 1e-12:
            raise ValueError(f"power shares must sum to 1, got {shares.sum()!r}")
        object.__setattr__(self, "shares", shares)


@dataclass(frozen=True)
class UserRates:
    """Spectral efficiencies of one trial in b/s/Hz.

    se_hm is the HM user's own-detection rate; se_hm_at_lm and se_lm hold
    the two LM-side stages per user; se_lm_min is the worst-user summary
    under the configured stage convention.
    """

    se_hm: float
    se_hm_at_lm: np.ndarray
    se_lm: np.ndarray
    se_lm_min: float


def allocate_power(hm_share: float, subchannel_gains: np.ndarray) -> PowerAllocation:
    """Split the unit transmit power: p0 to the HM user, the rest
    inversely weighted by LM subchannel magnitude so weaker users get
    more power.

    Scaling every gain by a common factor leaves the shares unchanged.
    """
    if not 0.0 <= hm_share <= 1.0:
        raise ValueError(f"hm_share must lie in [0, 1], got {hm_share!r}")
    magnitudes = np.abs(np.asarray(subchannel_gains, dtype=complex))
    if magnitudes.size == 0:
        raise ValueError("at least one subchannel gain is required")
    if np.any(magnitudes == 0.0):
        raise ZeroGain("inverse-magnitude weighting undefined for a zero subchannel gain")
    inverse = 1.0 / magnitudes
    lm_shares = (1.0 - hm_share) * inverse / inverse.sum()
    return PowerAllocation(np.concatenate(([hm_share], lm_shares)))


def spectral_efficiency(snr: float) -> float:
    """Shannon rate log2(1 + snr) in b/s/Hz."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    return float(np.log2(1.0 + snr))


def assemble_rates(snrs: LinkSnrs, include_hm_stage: bool = True) -> UserRates:
    """Map the trial's SNRs to spectral efficiencies.

    The worst-user summary takes, per user, the weaker of the two LM-side
    stages (or the LM stage alone when include_hm_stage is False), then
    the minimum across users.
    """
    se_hm = spectral_efficiency(snrs.hm)
    se_hm_at_lm = np.log2(1.0 + np.asarray(snrs.hm_at_lm, dtype=float))
    se_lm = np.log2(1.0 + np.asarray(snrs.lm, dtype=float))
    per_user = np.minimum(se_hm_at_lm, se_lm) if include_hm_stage else se_lm
    return UserRates(se_hm, se_hm_at_lm, se_lm, float(per_user.min()))
