"""The dense reference and the self-check suite that ties the fast
spectral path to it.

The fast path never forms a matrix: the spectra, the MMSE power terms
and the SINR formulas are closed forms on the spectral grid.  This
module holds everything that checks them against explicit linear
algebra, and nothing on the trial path imports it:

  build_basis, diagonalize_bccb   Kronecker DFT factors, dense diagonalizer
  hm_channel_matrices,            dense channel matrices, each one scatter
  lm_channel_matrix               of scaled cyclic shifts, one per subpath or tap
  empirical_hm_sinr               signal-level oracle: symbols through the
                                  dense channel and equalizer, LM as one stream

Six checks, each reduced to a single observed number against a bound:

  dense-vs-fast    eigen spectra against dense matrix diagonalization
  spectral-split   equalized full spectrum equals desired + leakage
  ratio-identities full-period subpath-ratio sum and energy identities
  truncation       retained subpath energy at the worst fractional offset
  empirical-sinr   the sweeps' closed-form SINR against transmitted symbols
  worked-example   hand-checked flat-channel detection powers

The suite is what the CLI `validate` subcommand runs; the library entry
point is run_validation.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .channel import (
    HMChannelRealization,
    LMChannels,
    _doppler_image,
    _path_sum,
    _tap_phase,
    hm_eigen_spectra,
    sample_hm_channel,
    subpath_ratios,
)
from .config import SystemConfig, db_to_linear, load_config
from .equalizer import bin_energy, detection_power_terms, mmse_spectrum
from .simkit import derive_trial_seed, hm_sinr

# Reserved seed-point indices, far above any sweep-grid index, so the
# validation draws never collide with simulation draws.
_SEED_BASE = 1 << 20

# Off-diagonal mass above this fraction of the diagonal peak means the
# matrix is not block circulant under the layout.
BCCB_RTOL = 1e-9

# Frames the oracle transmits per block: one normal draw and three
# matrix-matrix products each.  Larger blocks are no faster and raise
# the peak memory.
_FRAME_BLOCK = 16

# Check sizes: realizations per check, kappa offsets per grid size in
# ratio-identities, and symbols per realization in empirical-sinr.
_DENSE_REALIZATIONS = 50
_SPLIT_REALIZATIONS = 50
_RATIO_OFFSETS = 100
_SINR_REALIZATIONS = 20
_SINR_SYMBOLS = 100_000


class NotBlockCirculant(ValueError):
    """Raised when a matrix fails the block-circulant diagonalization test."""


# === block-circulant diagonalization =================================
#
# A frame of symbols on the delay-Doppler grid (N Doppler rows, M delay
# columns) is stacked column by column, so entry k + N*l holds cell
# (k, l) and each delay column is one contiguous block.  Under that
# layout every twisted-convolution channel matrix is block circulant.


def _unitary_dft(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def build_basis(n_doppler: int, n_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors (F_M, F_N) of the unitary (N*M, N*M) basis
    psi = kron(F_M, F_N) that diagonalizes block-circulant matrices.

    The delay-domain DFT factor sits outermost so that column j = k + N*l
    of the basis sees the N-point Doppler factor inside each length-N
    delay block, matching the k + N*l layout.  Spectral index
    i = m_del*N + m_dopp pairs delay frequency m_del with Doppler
    frequency m_dopp.
    """
    return _unitary_dft(n_delay), _unitary_dft(n_doppler)


def _apply_basis(f_delay: np.ndarray, f_doppler: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kron(f_delay, f_doppler) @ x, one factor per axis of x's (M, N) rows."""
    m, n, cols = len(f_delay), len(f_doppler), x.shape[1]
    y = (f_delay @ x.reshape(m, n * cols)).reshape(m, n, cols)
    return (f_doppler @ y).reshape(m * n, cols)


def diagonalize_bccb(h: np.ndarray, basis: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Return the eigenvalues of a block-circulant matrix.

    Computes psi @ h @ psi^H for psi = kron(*basis) without forming psi;
    psi is symmetric, so h @ psi^H is the conjugate factors' left action
    on h^T, transposed.  Checks that every off-diagonal entry is below
    BCCB_RTOL relative to the largest diagonal entry; raises
    NotBlockCirculant otherwise.  The eigenvalues come in spectral index
    order i = m_del*N + m_dopp.
    """
    h = np.asarray(h, dtype=complex)
    f_delay, f_doppler = basis
    nm = len(f_delay) * len(f_doppler)
    if h.shape != (nm, nm):
        raise ValueError(f"matrix shape {h.shape} does not match basis size {nm}")
    left = _apply_basis(f_delay, f_doppler, h)
    transformed = _apply_basis(f_delay.conj(), f_doppler.conj(), left.T).T
    diag = np.diagonal(transformed).copy()
    np.fill_diagonal(transformed, 0.0)
    residual = float(np.abs(transformed).max())
    scale = float(np.abs(diag).max())
    if residual > BCCB_RTOL * scale:
        raise NotBlockCirculant(
            f"off-diagonal residual {residual:.3e} exceeds "
            f"{BCCB_RTOL:.1e} * diagonal peak {scale:.3e}"
        )
    return diag


# === dense matrices ==================================================


def _shift_sum(
    coeff: np.ndarray, doppler_shift: np.ndarray, delay_shift: np.ndarray, n_doppler: int, n_delay: int
) -> np.ndarray:
    """Dense (N*M, N*M) sum of the cyclic delay-Doppler shifts, shift s
    scaled by coeff[s]; shifts that hit the same entry accumulate in
    order."""
    i = np.arange(n_doppler * n_delay)
    k, l = i % n_doppler, i // n_doppler
    cols = (k - np.ravel(doppler_shift)[:, None]) % n_doppler + n_doppler * (
        (l - np.ravel(delay_shift)[:, None]) % n_delay
    )  # (S, N*M)
    h = np.zeros((i.size, i.size), dtype=complex)
    np.add.at(h, (i, cols), np.ravel(coeff)[:, None])
    return h


def hm_channel_matrices(
    ch: HMChannelRealization, n_doppler: int, n_delay: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (main, idi, full) channel matrices.

    Each subpath contributes a scaled cyclic shift: Doppler by
    k_p - q, delay by l_p.  The full matrix is the exact sum of the
    other two by construction.
    """
    qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
    bases = ch.gain * _tap_phase(ch.doppler, ch.kappa, ch.delay, n_doppler, n_delay)
    coeff = bases[:, None] * subpath_ratios(qs, ch.kappa[:, None], n_doppler)  # (L_0, Q)
    doppler = ch.doppler[:, None] - qs
    delay = np.broadcast_to(ch.delay[:, None], coeff.shape)
    q0 = qs == 0
    main = _shift_sum(coeff[:, q0], doppler[:, q0], delay[:, q0], n_doppler, n_delay)
    idi = _shift_sum(coeff[:, ~q0], doppler[:, ~q0], delay[:, ~q0], n_doppler, n_delay)
    return main, idi, main + idi


def lm_channel_matrix(lm: LMChannels, user: int, n_doppler: int, n_delay: int) -> np.ndarray:
    """Dense delay-only channel matrix of LM user `user` (1-based)."""
    row = user - 1
    return _shift_sum(lm.gain[row], np.zeros_like(lm.delay[row]), lm.delay[row], n_doppler, n_delay)


def spectral_decomposition_residual(
    delta: np.ndarray, spectra: np.ndarray, lambda_full: np.ndarray
) -> float:
    """Relative error of the equalized full spectrum against its split.

    Compares delta * lambda_full per bin with the sum of the equalized
    main and leakage images, the two rows of `hm_eigen_spectra`; exact
    up to rounding when the spectra come from the same realization.
    """
    total = delta * lambda_full
    parts = delta * spectra[0] + delta * spectra[1]
    num = float(np.abs(total - parts).max())
    if num == 0.0:
        return 0.0
    den = float(np.abs(total).max())
    return num / den if den > 0.0 else float("inf")


# === signal-level oracle =============================================


@dataclass(frozen=True)
class EmpiricalSinr:
    value: float
    stderr: float
    n_frames: int


def empirical_hm_sinr(
    ch: HMChannelRealization,
    cfg: SystemConfig,
    rho_t: float,
    rng: np.random.Generator,
    n_symbols: int = _SINR_SYMBOLS,
) -> EmpiricalSinr:
    """Measure the HM detection SINR from transmitted symbols.

    Independent of the spectral fast path: builds the dense channel
    matrices, solves the regularized normal equations for the equalizer,
    transmits white unit-power symbols at share p0 for the HM user and
    1 - p0 for the LM users, adds noise of variance 1/rho_t, and compares
    the known equalized signal component against the residual.  The LM
    users' independent white streams at shares summing to 1 - p0 add up
    to exactly one CN(0, 1 - p0) stream, so one stream stands for them.
    The frames go through in blocks of `_FRAME_BLOCK`.  The closed form
    `simkit.hm_sinr` should agree with the returned `_ratio_estimate`
    up to the cross terms it neglects plus Monte Carlo noise.
    """
    nm = cfg.N * cfg.M
    h_main, h_full = hm_channel_matrices(ch, cfg.N, cfg.M)[::2]  # idi is not kept

    adjoint = h_main.conj().T
    gram = adjoint @ h_main
    gram.flat[:: nm + 1] += cfg.rho
    equalizer = np.linalg.solve(gram, adjoint)
    del gram, adjoint  # freed before the frame loop
    signal_map = equalizer @ h_main

    own_amp, lm_amp = np.sqrt(cfg.p0), np.sqrt(1.0 - cfg.p0)
    sigma = np.sqrt(1.0 / rho_t)
    n_frames = max(1, int(np.ceil(n_symbols / nm)))
    sig_power = np.empty(n_frames)
    res_power = np.empty(n_frames)
    root_half = np.sqrt(0.5)
    for start in range(0, n_frames, _FRAME_BLOCK):
        n_block = min(_FRAME_BLOCK, n_frames - start)
        # Six rows per frame, in the per-frame draw order: the HM
        # user's real and imaginary parts, the LM stream's, then the
        # noise's.  The normals are sequential, so this is the same
        # stream as drawing them frame by frame.
        draws = rng.standard_normal((n_block, 6, nm))
        own = root_half * (draws[:, 0] + 1j * draws[:, 1])
        lm = root_half * (draws[:, 2] + 1j * draws[:, 3])
        superposed = own_amp * own + lm_amp * lm
        noise = sigma * root_half * (draws[:, 4] + 1j * draws[:, 5])
        equalized = equalizer @ (h_full @ superposed.T + noise.T)
        signal = own_amp * (signal_map @ own.T)
        residual = equalized - signal
        sig_power[start : start + n_block] = np.sum(np.abs(signal) ** 2, axis=0)
        res_power[start : start + n_block] = np.sum(np.abs(residual) ** 2, axis=0)

    return _ratio_estimate(sig_power, res_power)


def _ratio_estimate(sig_power: np.ndarray, res_power: np.ndarray) -> EmpiricalSinr:
    """Ratio of the mean per-frame powers, with the delta-method stderr
    value * sqrt(var(s/s_mean - r/r_mean) / n): no mean is squared, so it
    is free of the powers' scale.  Zero signal gives (0, 0, n) before any
    division; one frame gives a NaN stderr."""
    n_frames = len(sig_power)
    s_mean, r_mean = sig_power.mean(), res_power.mean()
    if s_mean == 0.0:
        return EmpiricalSinr(0.0, 0.0, n_frames)
    value = float(s_mean / r_mean)
    if n_frames == 1:
        return EmpiricalSinr(value, float("nan"), n_frames)
    rel_var = np.var(sig_power / s_mean - res_power / r_mean, ddof=1) / n_frames
    return EmpiricalSinr(value, float(value * np.sqrt(rel_var)), n_frames)


# === check results ===================================================


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check.

    op is the comparison that defines success: observed op bound.
    """

    name: str
    passed: bool
    observed: float
    bound: float
    op: str
    detail: str = ""


def _result(name: str, observed: float, bound: float, op: str, detail: str) -> CheckResult:
    passed = {"<=": operator.le, ">=": operator.ge}[op](observed, bound)
    # Comparisons against numpy scalars yield numpy bools, which the
    # JSON report writer rejects; store plain Python types throughout.
    return CheckResult(name, bool(passed), float(observed), float(bound), op, detail)


def format_check(check: CheckResult) -> str:
    status = "ok  " if check.passed else "FAIL"
    return (
        f"[{status}] {check.name}: observed {check.observed:.6g} "
        f"(required {check.op} {check.bound:g}); {check.detail}"
    )


# === individual checks ===============================================


def _sized_config(cfg: SystemConfig, n: int) -> SystemConfig:
    return cfg.replace(
        N=n, M=n, N_p=min(cfg.N_p, (n - 1) // 2), l_max=min(cfg.l_max, n - 1), U=min(cfg.U, n)
    )


def full_spectrum(ch: HMChannelRealization, n_doppler: int, n_delay: int) -> np.ndarray:
    """Spectrum of the whole truncated channel, every subpath summed at
    once rather than split into its main and leakage parts."""
    qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
    ratios = subpath_ratios(qs, ch.kappa[:, None], n_doppler)
    return _path_sum(ch, _doppler_image(ch, ratios, n_doppler), n_delay)


def check_dense_vs_fast(cfg: SystemConfig) -> CheckResult:
    """Fast spectral path against dense construction plus diagonalization."""
    sizes = (4, 8, 16)
    bases = {n: build_basis(n, n) for n in sizes}
    worst = 0.0
    detail = f"max relative deviation over {_DENSE_REALIZATIONS} realizations, sizes {sizes}"
    try:
        for r in range(_DENSE_REALIZATIONS):
            n = sizes[r % len(sizes)]
            sub = _sized_config(cfg, n)
            rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 0, r))
            ch = sample_hm_channel(sub, rng)
            fast_parts = (*hm_eigen_spectra(ch, n, n), full_spectrum(ch, n, n))
            for dense, fast in zip(hm_channel_matrices(ch, n, n), fast_parts):
                lam = diagonalize_bccb(dense, bases[n])
                scale = max(np.abs(fast).max(), np.abs(lam).max(), 1e-30)
                worst = max(worst, np.abs(lam - fast).max() / scale)
    except NotBlockCirculant as exc:
        worst, detail = float("inf"), str(exc)
    return _result("dense-vs-fast", worst, 1e-9, "<=", detail)


def check_spectral_split(cfg: SystemConfig) -> CheckResult:
    """Equalized full spectrum against the desired + leakage split."""
    worst = 0.0
    for r in range(_SPLIT_REALIZATIONS):
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 1, r))
        ch = sample_hm_channel(cfg, rng)
        spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
        delta = mmse_spectrum(spectra[0], cfg.rho)
        lambda_full = full_spectrum(ch, cfg.N, cfg.M)
        worst = max(worst, spectral_decomposition_residual(delta, spectra, lambda_full))
    detail = f"max relative residual over {_SPLIT_REALIZATIONS} realizations"
    return _result("spectral-split", worst, 1e-12, "<=", detail)


def check_ratio_identities(cfg: SystemConfig) -> CheckResult:
    """Sum and energy of the subpath ratios over one full period."""
    worst = 0.0
    for size_index, n in enumerate((8, 16, 32)):
        rng = np.random.default_rng(
            derive_trial_seed(cfg.master_seed, _SEED_BASE + 2, size_index)
        )
        kappas = 0.5 - rng.random(_RATIO_OFFSETS)
        ratios = subpath_ratios(np.arange(n), kappas[:, None], n)  # (offsets, n)
        worst = max(worst, float(np.abs(ratios.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs((np.abs(ratios) ** 2).sum(axis=1) - 1.0).max()))
    detail = (
        f"max identity error, {_RATIO_OFFSETS} offsets per grid size in (8, 16, 32); "
        "an identity: the configured N and N_p do not enter"
    )
    return _result("ratio-identities", worst, 1e-12, "<=", detail)


def check_truncation_energy(cfg: SystemConfig) -> CheckResult:
    """Energy kept by the configured q in [-N_p, N_p] window at the
    worst offset 0.5."""
    window = np.arange(-cfg.N_p, cfg.N_p + 1)
    energy = sum(abs(complex(r)) ** 2 for r in subpath_ratios(window, 0.5, cfg.N))
    detail = f"window |q| <= {cfg.N_p}, kappa 0.5, N {cfg.N}"
    return _result("truncation", energy, 0.95, ">=", detail)


def check_empirical_sinr(cfg: SystemConfig) -> CheckResult:
    """Closed-form detection SNR against the signal-level measurement."""
    sub = cfg.replace(p0=0.5)
    rho_t = db_to_linear(10.0)
    worst = 0.0
    for r in range(_SINR_REALIZATIONS):
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 3, r))
        hm = sample_hm_channel(sub, rng)
        analytic = hm_sinr(sub, hm, rho_t)
        measured = empirical_hm_sinr(hm, sub, rho_t, rng)
        worst = max(worst, abs(measured.value - analytic) / analytic)
    detail = (
        f"max relative gap over {_SINR_REALIZATIONS} realizations, "
        f"{_SINR_SYMBOLS} symbols each, 10 dB, p0 0.5"
    )
    return _result("empirical-sinr", worst, 0.05, "<=", detail)


def check_worked_example() -> CheckResult:
    """Flat channel worked by hand.

    Four unit-gain antennas at uniform weight combine to the eigenvalue
    2 on every bin, so delta = 2/5, desired energy (4/5)^2 = 0.64 and
    noise energy (2/5)^2 = 0.16.  The complex equalizer and the energy
    kernel of the sweeps are both checked.
    """
    bins = 256
    spectra = np.zeros((2, bins), dtype=complex)
    spectra[0] = 2.0
    delta = mmse_spectrum(spectra[0], 1.0)
    desired, leakage, noise = detection_power_terms(bin_energy(spectra), 1.0)
    worst = max(
        float(np.abs(delta - 0.4).max()),
        abs(desired - 0.64),
        abs(leakage),
        abs(noise - 0.16),
    )
    detail = "flat channel, eigenvalue 2, rho 1; an identity: takes no config"
    return _result("worked-example", worst, 1e-12, "<=", detail)


# === suite ===========================================================


def run_validation(cfg: SystemConfig | None = None, report=None) -> list[CheckResult]:
    """Run every check; report, when given, is called with each line."""
    if cfg is None:
        cfg = load_config(None)
    results = []
    for check in (
        lambda: check_dense_vs_fast(cfg),
        lambda: check_spectral_split(cfg),
        lambda: check_ratio_identities(cfg),
        lambda: check_truncation_energy(cfg),
        lambda: check_empirical_sinr(cfg),
        check_worked_example,
    ):
        result = check()
        results.append(result)
        if report is not None:
            report(format_check(result))
    return results
