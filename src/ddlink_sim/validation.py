"""Self-check suite tying the fast spectral path to dense linear algebra.

Six checks, each reduced to a single observed number against a bound:

  dense-vs-fast    eigen spectra against dense matrix diagonalization
  spectral-split   equalized full spectrum equals desired + leakage
  ratio-identities full-period subpath-ratio sum and energy identities
  truncation       retained subpath energy at the worst fractional offset
  empirical-sinr   closed-form detection SNR against transmitted symbols
  worked-example   hand-checked flat-channel detection powers

The suite is what the CLI `validate` subcommand runs; the library entry
point is run_validation.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (
    HMChannelRealization,
    _doppler_responses,
    _path_sum,
    _subpath_ratios,
    hm_channel_matrices,
    hm_eigen_spectra,
    sample_hm_channel,
    sample_lm_channel,
    subpath_ratio,
)
from .config import SystemConfig, db_to_linear, load_config
from .equalizer import (
    detection_power_terms,
    empirical_hm_sinr,
    hm_detection_snr,
    mmse_spectrum,
    spectral_decomposition_residual,
)
from .grids import NotBlockCirculant, build_basis, diagonalize_bccb
from .simkit import derive_trial_seed

# Reserved seed-point indices, far above any sweep-grid index, so the
# validation draws never collide with simulation draws.
_SEED_BASE = 1 << 20


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
    if op == "<=":
        passed = observed <= bound
    elif op == ">=":
        passed = observed >= bound
    else:
        raise ValueError(f"unknown comparison {op!r}")
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
        N=n,
        M=n,
        N_p=min(cfg.N_p, (n - 1) // 2),
        l_max=min(cfg.l_max, n - 1),
        U=min(cfg.U, n),
    )


def full_spectrum(ch: HMChannelRealization, n_doppler: int, n_delay: int) -> np.ndarray:
    """Spectrum of the whole truncated channel, every subpath summed at
    once rather than split into its main and leakage parts."""
    resp, ratios = _doppler_responses(ch, n_doppler)
    return _path_sum(ch, np.einsum("nlq,lq->nl", resp, ratios), n_delay)


def check_dense_vs_fast(cfg: SystemConfig, n_realizations: int = 50) -> CheckResult:
    """Fast spectral path against dense construction plus diagonalization."""
    sizes = (4, 8, 16)
    bases = {n: build_basis(n, n) for n in sizes}
    worst = 0.0
    for r in range(n_realizations):
        n = sizes[r % len(sizes)]
        sub = _sized_config(cfg, n)
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 0, r))
        ch = sample_hm_channel(sub, rng)
        spectra = hm_eigen_spectra(ch, n, n)
        fast_parts = (spectra.lambda_main, spectra.lambda_idi, full_spectrum(ch, n, n))
        for dense, fast in zip(hm_channel_matrices(ch, n, n), fast_parts):
            try:
                lam = diagonalize_bccb(dense, bases[n])
            except NotBlockCirculant as exc:
                return CheckResult("dense-vs-fast", False, float("inf"), 1e-9, "<=", str(exc))
            scale = max(np.abs(fast).max(), np.abs(lam).max(), 1e-30)
            worst = max(worst, np.abs(lam - fast).max() / scale)
    detail = f"max relative deviation over {n_realizations} realizations, sizes {sizes}"
    return _result("dense-vs-fast", worst, 1e-9, "<=", detail)


def check_spectral_split(cfg: SystemConfig, n_realizations: int = 50) -> CheckResult:
    """Equalized full spectrum against the desired + leakage split."""
    worst = 0.0
    for r in range(n_realizations):
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 1, r))
        ch = sample_hm_channel(cfg, rng)
        spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
        delta = mmse_spectrum(spectra.lambda_main, cfg.rho)
        lambda_full = full_spectrum(ch, cfg.N, cfg.M)
        worst = max(worst, spectral_decomposition_residual(delta, spectra, lambda_full))
    detail = f"max relative residual over {n_realizations} realizations"
    return _result("spectral-split", worst, 1e-12, "<=", detail)


def check_ratio_identities(cfg: SystemConfig, n_offsets: int = 100) -> CheckResult:
    """Sum and energy of the subpath ratios over one full period."""
    worst = 0.0
    for size_index, n in enumerate((8, 16, 32)):
        rng = np.random.default_rng(
            derive_trial_seed(cfg.master_seed, _SEED_BASE + 2, size_index)
        )
        kappas = 0.5 - rng.random(n_offsets)
        ratios = _subpath_ratios(np.arange(n), kappas[:, None], n)  # (offsets, n)
        worst = max(worst, float(np.abs(ratios.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs((np.abs(ratios) ** 2).sum(axis=1) - 1.0).max()))
    detail = f"max identity error, {n_offsets} offsets per grid size in (8, 16, 32)"
    return _result("ratio-identities", worst, 1e-12, "<=", detail)


def check_truncation_energy() -> CheckResult:
    """Energy kept by the q in [-5, 5] window at the worst offset 0.5."""
    energy = sum(abs(subpath_ratio(q, 0.5, 16)) ** 2 for q in range(-5, 6))
    return _result("truncation", energy, 0.95, ">=", "window |q| <= 5, kappa 0.5, N 16")


def check_empirical_sinr(
    cfg: SystemConfig, n_realizations: int = 20, n_symbols: int = 100_000
) -> CheckResult:
    """Closed-form detection SNR against the signal-level measurement."""
    sub = cfg.replace(p0=0.5)
    rho_t = db_to_linear(10.0)
    worst = 0.0
    for r in range(n_realizations):
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, _SEED_BASE + 3, r))
        hm = sample_hm_channel(sub, rng)
        lm_channels = sample_lm_channel(sub, rng)
        spectra = hm_eigen_spectra(hm, sub.N, sub.M)
        delta = mmse_spectrum(spectra.lambda_main, sub.rho)
        terms = detection_power_terms(delta, spectra.lambda_main, spectra.lambda_idi)
        analytic = hm_detection_snr(terms, sub.p0, rho_t)
        measured = empirical_hm_sinr(hm, lm_channels, sub, rho_t, rng, n_symbols=n_symbols)
        worst = max(worst, abs(measured.value - analytic) / analytic)
    detail = (
        f"max relative gap over {n_realizations} realizations, "
        f"{n_symbols} symbols each, 10 dB, p0 0.5"
    )
    return _result("empirical-sinr", worst, 0.05, "<=", detail)


def check_worked_example() -> CheckResult:
    """Flat channel worked by hand.

    Four unit-gain antennas at uniform weight combine to the eigenvalue
    2 on every bin, so delta = 2/5, desired energy (4/5)^2 = 0.64 and
    noise energy (2/5)^2 = 0.16.
    """
    bins = 256
    lam_main = np.full(bins, 2.0, dtype=complex)
    lam_idi = np.zeros(bins, dtype=complex)
    delta = mmse_spectrum(lam_main, 1.0)
    terms = detection_power_terms(delta, lam_main, lam_idi)
    worst = max(
        float(np.abs(delta - 0.4).max()),
        abs(terms.desired - 0.64),
        abs(terms.leakage),
        abs(terms.noise - 0.16),
    )
    return _result("worked-example", worst, 1e-12, "<=", "flat channel, eigenvalue 2, rho 1")


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
        check_truncation_energy,
        lambda: check_empirical_sinr(cfg),
        check_worked_example,
    ):
        result = check()
        results.append(result)
        if report is not None:
            report(format_check(result))
    return results
