"""Link-level simulator for a delay-Doppler downlink with power-domain
multiple access: one high-mobility user occupies the full delay-Doppler
grid while several low-mobility users ride dedicated subcarriers, and
fractional Doppler leaks energy between Doppler bins of the mobile
user's channel.  The package quantifies that leakage's cost in spectral
efficiency and outage probability with paired Monte Carlo trials.

The root exports the entry points only.  The stages a trial composes
are imported from `channel`, `equalizer`, `noma` and `simkit`, and the
dense reference they are checked against from `validation`.
"""

__version__ = "0.15.0"

from .config import ConfigError, SystemConfig, config_from_dict, load_config
from .simkit import run_sweep
from .validation import run_validation

__all__ = [
    "__version__",
    "ConfigError",
    "SystemConfig",
    "config_from_dict",
    "load_config",
    "run_sweep",
    "run_validation",
]
