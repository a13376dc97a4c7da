"""Link-level simulator for a delay-Doppler downlink with power-domain
multiple access: one high-mobility user occupies the full delay-Doppler
grid while several low-mobility users ride dedicated subcarriers, and
fractional Doppler leaks energy between Doppler bins of the mobile
user's channel.  The package quantifies that leakage's cost in spectral
efficiency and outage probability with paired Monte Carlo trials.
"""

__version__ = "0.5.0"

from .channel import (
    EigenSpectra,
    HMChannelRealization,
    LMChannels,
    hm_channel_matrices,
    hm_eigen_spectra,
    lm_eigen_spectrum,
    lm_subchannel_gains,
    sample_hm_channel,
    sample_lm_channel,
    subpath_ratio,
    uniform_weights,
    without_fractional_doppler,
)
from .config import (
    ConfigError,
    ParseError,
    SystemConfig,
    ValidationError,
    config_from_dict,
    db_to_linear,
    load_config,
)
from .equalizer import (
    DegenerateSpectrum,
    detection_power_terms,
    empirical_hm_sinr,
    hm_at_lm_snr,
    hm_detection_snr,
    lm_detection_snr,
    mmse_spectrum,
)
from .grids import (
    NotBlockCirculant,
    SpectralBasis,
    build_basis,
    diagonalize_bccb,
)
from .noma import ZeroGain, allocate_power, assemble_rates
from .simkit import derive_trial_seed, run_sweep, run_trial
from .validation import CheckResult, run_validation

__all__ = [
    "__version__",
    "CheckResult",
    "ConfigError",
    "DegenerateSpectrum",
    "EigenSpectra",
    "HMChannelRealization",
    "LMChannels",
    "NotBlockCirculant",
    "ParseError",
    "SpectralBasis",
    "SystemConfig",
    "ValidationError",
    "ZeroGain",
    "allocate_power",
    "assemble_rates",
    "build_basis",
    "config_from_dict",
    "db_to_linear",
    "derive_trial_seed",
    "detection_power_terms",
    "diagonalize_bccb",
    "empirical_hm_sinr",
    "hm_at_lm_snr",
    "hm_channel_matrices",
    "hm_detection_snr",
    "hm_eigen_spectra",
    "lm_detection_snr",
    "lm_eigen_spectrum",
    "lm_subchannel_gains",
    "load_config",
    "mmse_spectrum",
    "run_sweep",
    "run_trial",
    "sample_hm_channel",
    "sample_lm_channel",
    "subpath_ratio",
    "uniform_weights",
    "without_fractional_doppler",
]
