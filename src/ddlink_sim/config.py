"""Scenario configuration: validated parameters with simulation defaults."""

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

SPEED_OF_LIGHT = 3.0e8  # m/s

_MODES = ("real", "ideal", "both")
_UINT64_MAX = 2**64 - 1


def db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


class ConfigError(ValueError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """The config file could not be read or is not valid JSON."""


class ValidationError(ConfigError):
    """The config parsed but violates a field or cross-field constraint."""


# One admission rule per field annotation, whatever builds the config:
# a file, a manifest, `replace` or a direct call.  A rule returns the
# value to store.


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _grid(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValidationError(f"{name} must be a non-empty list of numbers")
    return tuple(_number(f"{name} entry", x) for x in value)


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a boolean")
    return value


_TYPE_RULES = {
    int: _integer,
    float: _number,
    float | None: lambda name, value: None if value is None else _number(name, value),
    tuple[float, ...]: _grid,
    str: _string,
    bool: _flag,
}


@dataclass(frozen=True)
class SystemConfig:
    """All scenario and run parameters.

    Attributes
    ----------
    A, N, M, U : int
        Antenna count, Doppler bins, delay bins, low-mobility user count.
    L_0 : int
        Path count of the high-mobility channel.
    l_max : int
        Largest delay tap index.
    N_p : int
        Subpath truncation half-width: Doppler leakage is kept for
        offsets q in [-N_p, N_p].
    delta_f : float
        Subcarrier spacing in Hz.
    f_c : float
        Carrier frequency in Hz.
    v_max : float
        Mobile speed in km/h, used to derive the maximum Doppler shift
        when nu_max is not given.
    nu_max : float | None
        Direct maximum Doppler shift override in Hz.
    rho : float
        MMSE regularizer.
    p0 : float
        Power share of the high-mobility user; the remaining 1 - p0 is
        split across the low-mobility users.
    rho_T_grid : tuple of float
        Transmit SNR sweep points in dB (total transmit power is
        normalized to one, so the noise variance at each point is
        1 / rho_T).
    R_th : float
        Outage rate threshold in b/s/Hz.
    trials : int
        Monte Carlo trials per sweep point.
    master_seed : int
        Root of the deterministic per-trial seed derivation.
    mode : str
        Which paired members to simulate: "real", "ideal" or "both".
    lm_min_includes_hm_stage : bool
        Whether the worst-user LM statistic takes the minimum over both
        detection stages or over the LM stage only.
    """

    A: int = 4
    N: int = 16
    M: int = 16
    U: int = 8
    L_0: int = 5
    l_max: int = 4
    N_p: int = 5
    delta_f: float = 15e3
    f_c: float = 5e9
    v_max: float = 500.0
    nu_max: float | None = None
    rho: float = 1.0
    p0: float = 0.5
    rho_T_grid: tuple[float, ...] = tuple(float(db) for db in range(0, 21, 2))
    R_th: float = 0.5
    trials: int = 10_000
    master_seed: int = 715517
    mode: str = "both"
    lm_min_includes_hm_stage: bool = True

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = _TYPE_RULES[field.type](field.name, getattr(self, field.name))
            object.__setattr__(self, field.name, value)
        self._validate()

    def _validate(self) -> None:
        for key in ("A", "N", "M", "U", "L_0", "trials"):
            value = getattr(self, key)
            if value < 1:
                raise ValidationError(f"{key} must be an integer >= 1, got {value!r}")
        for key in ("l_max", "N_p"):
            value = getattr(self, key)
            if value < 0:
                raise ValidationError(f"{key} must be an integer >= 0, got {value!r}")
        # Delay taps are drawn as int64 over [0, l_max].
        if self.l_max + 1 >= 2**63:
            raise ValidationError(f"l_max + 1 must be below 2^63, got l_max = {self.l_max!r}")
        if self.U > self.M:
            raise ValidationError(f"U <= M violated (U={self.U}, M={self.M})")
        if not 2 * self.N_p < self.N:
            raise ValidationError(f"N_p < N/2 violated (N_p={self.N_p}, N={self.N})")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValidationError(f"p0 must lie in [0, 1], got {self.p0!r}")
        for key in ("delta_f", "f_c", "v_max", "rho"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{key} must be finite and > 0, got {value!r}")
        if self.nu_max is not None and not self.nu_max >= 0.0:
            raise ValidationError(f"nu_max must be >= 0, got {self.nu_max!r}")
        # Past this the equalizer's noise gain, about 1/rho^2, underflows to zero.
        if not math.isfinite(self.rho * self.rho):
            raise ValidationError(f"rho must have a finite square, got {self.rho!r}")
        # Doppler taps are drawn as int64 over [-span, span].
        span = self.doppler_span
        if not (math.isfinite(span) and span < 2**63):
            raise ValidationError(
                f"Doppler tap span nu_max * N / delta_f must be below 2^63, got {span!r}"
            )
        if not (math.isfinite(self.R_th) and self.R_th >= 0.0):
            raise ValidationError(f"R_th must be finite and >= 0, got {self.R_th!r}")
        if not all(math.isfinite(x) for x in self.rho_T_grid):
            raise ValidationError("rho_T_grid entries must be finite")
        for db in self.rho_T_grid:
            try:
                db_to_linear(db)
            except OverflowError:
                raise ValidationError(
                    f"rho_T_grid entry {db!r} dB overflows as a linear SNR"
                ) from None
        if not 0 <= self.master_seed <= _UINT64_MAX:
            raise ValidationError(
                f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}"
            )
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def doppler_span(self) -> float:
        """Doppler tap span nu_max * N / delta_f, in Doppler bins; nu_max
        is derived from v_max and f_c unless given."""
        nu_max = self.v_max / 3.6 * self.f_c / SPEED_OF_LIGHT if self.nu_max is None else self.nu_max
        return nu_max * self.N / self.delta_f

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields changed (revalidated)."""
        return dataclasses.replace(self, **changes)


def config_from_dict(raw: dict) -> SystemConfig:
    """Build a config from a plain dict, rejecting unknown keys.

    Missing keys fall back to the defaults; an empty dict yields the
    full default configuration.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"config document must be a JSON object, got {type(raw).__name__}")
    _reject_unknown_keys(raw)
    return SystemConfig(**raw)


def _reject_unknown_keys(keys) -> None:
    unknown = sorted(set(keys) - {field.name for field in dataclasses.fields(SystemConfig)})
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")


def load_config(path: str | Path | None = None) -> SystemConfig:
    """Load a JSON config file (defaults when path is None).

    Accepts either a plain config document or a run manifest (a JSON
    object with "command" and "config" keys); in the latter case the
    embedded resolved config is used, which makes re-running from a
    manifest a one-liner.
    """
    if path is None:
        return SystemConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "command" in raw:
        raw = raw["config"]
    return config_from_dict(raw)
