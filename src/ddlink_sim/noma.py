"""Power-domain user multiplexing: the split of the unit transmit power
and the LM-side rates.

The HM user gets the share p0 on the full grid; the LM users share the
rest on their dedicated subcarriers.  The split is one share vector,
entry 0 for the HM user and entries 1..U for LM users 1..U.  The rates
of all U users are reduced at once to the trial's LM summaries.
"""

import numpy as np


class ZeroGain(ValueError):
    """Raised when a user's subchannel gain is exactly zero."""


def allocate_power(hm_share: float, subchannel_gains: np.ndarray) -> np.ndarray:
    """Split the unit transmit power: p0 to the HM user, the rest
    inversely weighted by LM subchannel magnitude so weaker users get
    more power.

    Returns the (U + 1,) share vector, which sums to one.  Scaling every
    gain by a common factor leaves the shares unchanged.
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
    return np.concatenate(([hm_share], lm_shares))


def assemble_rates(hm_at_lm: np.ndarray, lm: np.ndarray, include_hm_stage: bool = True) -> np.ndarray:
    """Map the per-user SNRs of the two LM-side stages to the trial's
    LM summaries in b/s/Hz.

    Returns (mean, min) over users of the HM-at-LM stage rate, (mean,
    min) of the LM stage rate, and the worst user's limiting rate: per
    user the weaker of the two stages (or the LM stage alone when
    include_hm_stage is False), then the minimum across users.
    """
    se = np.log2(1.0 + np.array((hm_at_lm, lm), dtype=float))  # (stage, user)
    means, mins = np.add.reduce(se, axis=-1) / se.shape[-1], se.min(axis=-1)
    per_user = se.min(axis=0) if include_hm_stage else se[1]
    return np.array([means[0], mins[0], means[1], mins[1], per_user.min()])
