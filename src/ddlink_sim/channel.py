"""Multipath channels on the delay-Doppler grid.

The high-mobility (HM) channel carries L_0 paths, each with an integer
delay tap, an integer Doppler tap and a fractional Doppler offset.  The
offset smears the path across neighbouring Doppler bins: the q = 0
subpath carries the desired signal while the q != 0 subpaths act as
inter-Doppler interference (IDI).  Low-mobility (LM) channels are
delay-only, and one container holds those of all U users.

A realization holds its paths as arrays.  The per-antenna gains are
combined with the uniform transmit weights as soon as they are drawn:
every spectrum is linear in the path gains, so beamforming commutes with
the diagonalization and only the beamformed gain w @ alpha_p is kept.

All channel matrices are block circulant under the k + N*l vector
layout, so their eigenvalues can be evaluated directly on the spectral
grid (`hm_eigen_spectra`, `lm_eigen_spectrum`) without forming the dense
matrices; the dense builders they are checked against live in
`validation`.  A delay-only spectrum is constant along the Doppler
axis, so the LM spectra are evaluated on the M delay bins only.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SystemConfig

# LM users see between 1 and 4 paths, drawn uniformly per user; every
# user's row is padded to the largest count.
LM_PATH_RANGE = (1, 4)


# === realizations ====================================================


def _path_arrays(gain, *taps, ndim: int = 1) -> tuple:
    """Validated (gain, *taps) arrays of one path set, paths on the last axis."""
    gain = np.asarray(gain, dtype=complex)
    if gain.ndim != ndim or gain.size == 0:
        raise ValueError("a channel realization needs at least one path")
    if not np.isfinite(gain).all():
        raise ValueError("gains must be finite")
    arrays = tuple(np.asarray(t) for t in taps)
    if any(a.shape != gain.shape for a in arrays):
        raise ValueError("every path array needs one entry per path")
    return (gain, *arrays)


@dataclass(frozen=True)
class HMChannelRealization:
    """One HM channel draw, one array entry per path.

    doppler and delay are the integer taps, kappa the fractional Doppler
    offsets in (-1/2, 1/2] between the true shifts and the nearest grid
    bins, and gain the beamformed complex path gains.
    """

    doppler: np.ndarray
    delay: np.ndarray
    kappa: np.ndarray
    gain: np.ndarray
    subpath_halfwidth: int

    def __post_init__(self):
        gain, doppler, delay, kappa = _path_arrays(self.gain, self.doppler, self.delay, self.kappa)
        kappa = kappa.astype(float)
        if not np.all((kappa > -0.5) & (kappa <= 0.5)):
            raise ValueError(f"kappa must lie in (-1/2, 1/2], got {kappa!r}")
        if self.subpath_halfwidth < 0:
            raise ValueError("subpath_halfwidth must be >= 0")
        object.__setattr__(self, "doppler", doppler)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "gain", gain)


@dataclass(frozen=True)
class LMChannels:
    """Delay-only channels of LM users 1..U, row u - 1 for user u.

    delay and gain have shape (U, P).  A user with fewer than P paths is
    padded with zero-gain taps at delay 0, which add exactly nothing.
    """

    delay: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        gain, delay = _path_arrays(self.gain, self.delay, ndim=2)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "gain", gain)


# === subpath leakage =================================================


def subpath_ratios(qs, kappa, n_doppler: int) -> np.ndarray:
    """Leakage ratio of each Doppler offset q, broadcast against kappa.

    Ratio of the subpath amplitude at offset q to the full path
    amplitude.  Offsets where q + kappa is an exact multiple of N take
    the analytic limit 1; other integer offsets are exactly 0, which
    keeps the zero-offset (kappa = 0) case free of rounding dust.
    """
    qs, kappa = np.asarray(qs), np.asarray(kappa)
    t = qs + kappa
    exact = t == np.floor(t)
    # A Real member has no exact offset and an Ideal one (kappa = 0)
    # only exact ones; neither needs the masked scatter.
    if exact.all():
        return np.where(np.mod(t.astype(np.int64), n_doppler) == 0, 1.0, 0.0).astype(complex)
    if exact.any():
        qs, kappa = np.broadcast_arrays(qs, kappa)
        out = np.empty(t.shape, dtype=complex)
        for part in (exact, ~exact):
            out[part] = subpath_ratios(qs[part], kappa[part], n_doppler)
        return out
    theta = -qs - kappa
    num = np.exp(-2j * np.pi * theta) - 1.0
    den = n_doppler * np.exp(-1j * (2.0 * np.pi / n_doppler) * theta) - n_doppler
    return np.asarray(num / den)


def _tap_phase(doppler_tap, kappa, delay_tap, n_doppler: int, n_delay: int):
    # Doppler-delay product phase; the physical scales cancel, leaving
    # only grid units: nu*tau = (k + kappa)*l / (N*M).
    return np.exp(-2j * np.pi * (doppler_tap + kappa) * delay_tap / (n_doppler * n_delay))


# === sampling ========================================================


@lru_cache(maxsize=8)
def uniform_weights(n_antennas: int) -> np.ndarray:
    """Unit-power transmit weights, identical on every antenna; read-only."""
    weights = np.full(n_antennas, 1.0 / np.sqrt(n_antennas), dtype=complex)
    weights.setflags(write=False)
    return weights


def _draw_paths(cfg: SystemConfig, rng: np.random.Generator, delay: np.ndarray, gain: np.ndarray):
    """Draw n = len(gain) paths into delay and gain: the delay taps after a
    zero first tap, spread over [0, l_max] without replacement whenever
    the range is large enough, then per-antenna gains, i.i.d. complex
    normal with variance 1/n, combined at once with the uniform weights."""
    n = len(gain)
    delay[0] = 0
    if n > 1:
        delay[1:] = rng.choice(cfg.l_max + 1, size=n - 1, replace=cfg.l_max + 1 <= n - 1)
    # One draw of both parts: normals come off the stream in order, so
    # the real parts are the first n*A of them.
    scaled = np.sqrt(0.5 / n) * rng.standard_normal((2, n, cfg.A))
    per_antenna = np.empty((n, cfg.A), dtype=complex)
    per_antenna.real, per_antenna.imag = scaled
    gain[:] = per_antenna @ uniform_weights(cfg.A)


def sample_hm_channel(cfg: SystemConfig, rng: np.random.Generator) -> HMChannelRealization:
    """Draw one HM realization.

    Doppler taps are uniform over [-k_max, k_max], k_max the floor of
    the configured Doppler span, fractional offsets uniform over
    (-1/2, 1/2], then delay taps and gains per `_draw_paths`, with
    variance 1/L_0 so the average path powers sum to one.  Draw order is
    fixed: Doppler taps, offsets, delays, then gains.
    """
    k_max = int(np.floor(cfg.doppler_span))
    doppler = rng.integers(-k_max, k_max + 1, size=cfg.L_0)
    kappa = 0.5 - rng.random(cfg.L_0)  # maps [0, 1) onto (-1/2, 1/2]
    delay = np.empty(cfg.L_0, dtype=np.int64)
    gain = np.empty(cfg.L_0, dtype=complex)
    _draw_paths(cfg, rng, delay, gain)
    return HMChannelRealization(doppler, delay, kappa, gain, cfg.N_p)


def sample_lm_channel(cfg: SystemConfig, rng: np.random.Generator) -> LMChannels:
    """Draw the delay-only channels of LM users 1..U, in user order.

    Per user, the path count L_u is uniform over LM_PATH_RANGE, delays
    follow the same policy as the HM channel, and gains are complex
    normal with variance 1/L_u.  Draw order per user: path count,
    delays, gains.  Rows are padded to LM_PATH_RANGE[1] paths.
    """
    shape = (cfg.U, LM_PATH_RANGE[1])
    delay = np.zeros(shape, dtype=np.int64)
    gain = np.zeros(shape, dtype=complex)
    for row in range(cfg.U):
        n_paths = int(rng.integers(LM_PATH_RANGE[0], LM_PATH_RANGE[1] + 1))
        _draw_paths(cfg, rng, delay[row, :n_paths], gain[row, :n_paths])
    return LMChannels(delay, gain)


def without_fractional_doppler(ch: HMChannelRealization) -> HMChannelRealization:
    """Paired copy with every fractional offset forced to zero.

    Same taps and gains; only the offsets change, so comparing against
    the original isolates the cost of fractional Doppler.
    """
    zero = np.zeros_like(ch.kappa)
    return HMChannelRealization(ch.doppler, ch.delay, zero, ch.gain, ch.subpath_halfwidth)


# === fast eigen spectra ==============================================


@lru_cache(maxsize=8)
def _dft_phase_table(n: int) -> np.ndarray:
    # w[m, s] = exp(-2j*pi*m*s/n); read-only lookup for shift eigenvalues.
    idx = np.arange(n)
    table = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _subpath_phase_table(n: int, halfwidth: int) -> np.ndarray:
    # t[m, j] = w[m, -q] for q = j - halfwidth: the Doppler response of
    # a shift by -q, which factors out of every subpath response as
    # w[m, k - q] = w[m, k] * w[m, -q]; read-only.
    table = _dft_phase_table(n)[:, -np.arange(-halfwidth, halfwidth + 1) % n]
    table.setflags(write=False)
    return table


def _doppler_image(ch: HMChannelRealization, ratios: np.ndarray, n_doppler: int, out=None):
    """Doppler responses (N, L_0) of the paths' subpaths q = -N_p..N_p
    summed with the weights ratios (L_0, Q): each path's shift w[:, k]
    times the subpath sum, so no (N, L_0, Q) response is formed."""
    shift = _dft_phase_table(n_doppler)[:, ch.doppler % n_doppler]
    sums = _subpath_phase_table(n_doppler, ch.subpath_halfwidth) @ ratios.T
    return np.multiply(shift, sums, out=out)


def _path_sum(ch: HMChannelRealization, dopp: np.ndarray, n_delay: int) -> np.ndarray:
    """Spectra of the paths given stacks of their Doppler responses
    dopp (..., N, L_0), shape (..., N*M).

    A cyclic shift by (dk, dl) has eigenvalue
    exp(-2j*pi*(m_del*dl/M + m_dopp*dk/N)) at spectral index
    i = m_del*N + m_dopp, so the spectrum is a small sum of phase-table
    rows weighted by the path gains.
    """
    n_doppler = dopp.shape[-2]
    weight = ch.gain * _tap_phase(ch.doppler, ch.kappa, ch.delay, n_doppler, n_delay)
    delay_resp = _dft_phase_table(n_delay)[:, ch.delay % n_delay]  # (M, L_0)
    spectra = (delay_resp * weight) @ dopp.swapaxes(-1, -2)  # (..., M, N)
    return spectra.reshape(*dopp.shape[:-2], n_delay * n_doppler)


def hm_eigen_spectra(ch: HMChannelRealization, n_doppler: int, n_delay: int) -> np.ndarray:
    """Eigenvalue spectra of the main and idi matrices, shape (2, N*M) in
    spectral order i = m_del*N + m_dopp; no dense matrix is formed.

    Row 0 is the q = 0 subpath image, row 1 the truncated q != 0 leakage.
    """
    qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
    ratios = subpath_ratios(qs, ch.kappa[:, None], n_doppler)
    q0 = ch.subpath_halfwidth
    # Both images in one array, for one path-sum product: their path
    # weights are the same.
    images = np.empty((2, n_doppler, len(ratios)), dtype=complex)
    shift = _dft_phase_table(n_doppler)[:, ch.doppler % n_doppler]
    np.multiply(shift, ratios[:, q0], out=images[0])
    ratios[:, q0] = 0.0
    _doppler_image(ch, ratios, n_doppler, out=images[1])
    return _path_sum(ch, images, n_delay)


def lm_eigen_spectrum(lm: LMChannels, n_delay: int) -> np.ndarray:
    """Eigenvalue spectra of the LM channels on the delay bins, shape (U, M).

    A delay-only channel's spectrum is constant along the Doppler axis,
    so row u - 1 repeated N times is user u's full (N*M,) spectrum.
    """
    phases = _dft_phase_table(n_delay)[:, lm.delay % n_delay]  # (M, U, P)
    return np.einsum("mup,up->um", phases, lm.gain)


def lm_subchannel_gains(lam: np.ndarray) -> np.ndarray:
    """Beamformed response of each LM user at its own subcarrier, shape
    (U,): user u's spectrum lam[u - 1] at subcarrier u - 1, which is
    delay bin -(u - 1) mod M."""
    users = np.arange(lam.shape[0])
    return lam[users, -users % lam.shape[1]]
