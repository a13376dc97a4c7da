"""Spectral MMSE coefficients, closed-form link SNRs, and the symbol-level cross-check."""

import numpy as np
import pytest

from ddlink_sim.channel import (
    HMChannelRealization,
    hm_eigen_spectra,
    lm_eigen_spectrum,
    lm_subchannel_gains,
    sample_hm_channel,
    sample_lm_channel,
    uniform_weights,
)
from ddlink_sim.config import SystemConfig
from ddlink_sim.equalizer import (
    DegenerateSpectrum,
    DetectionPowerTerms,
    detection_power_terms,
    hm_at_lm_snr,
    hm_detection_snr,
    lm_detection_snr,
    mmse_spectrum,
)
from ddlink_sim.noma import allocate_power
from ddlink_sim.simkit import hm_sinr
from ddlink_sim.validation import (
    EmpiricalSinr,
    _ratio_estimate,
    empirical_hm_sinr,
    full_spectrum,
    hm_channel_matrices,
    spectral_decomposition_residual,
)


def small_config(**changes):
    base = dict(N=8, M=8, N_p=3, l_max=4, L_0=4, U=4)
    base.update(changes)
    return SystemConfig(**base)


def flat_setup(n_bins=64, level=2.0, rho=1.0):
    """Flat spectra: `level` on every bin, no leakage.

    The default level 2 is what four unit-gain antennas combine to at
    uniform weight.
    """
    lam_main = np.full(n_bins, level, dtype=complex)
    lam_idi = np.zeros(n_bins, dtype=complex)
    delta = mmse_spectrum(lam_main, rho)
    terms = detection_power_terms(delta, lam_main, lam_idi)
    return delta, terms


# === mmse spectrum ===================================================


def test_mmse_unit_channel_halves():
    delta = mmse_spectrum(np.ones(16, dtype=complex), 1.0)
    assert np.allclose(delta, 0.5)


def test_mmse_dead_bins_get_zero():
    delta = mmse_spectrum(np.zeros(8, dtype=complex), 1.0)
    assert np.all(delta == 0.0)


def test_mmse_small_regularizer_inverts():
    rng = np.random.default_rng(11)
    lam = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) + 3.0
    delta = mmse_spectrum(lam, 1e-12)
    assert np.allclose(delta * lam, 1.0, atol=1e-6)


def test_mmse_rejects_bad_regularizer():
    lam = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="regularizer"):
        mmse_spectrum(lam, 0.0)
    with pytest.raises(ValueError, match="regularizer"):
        mmse_spectrum(lam, -1.0)


def test_uniform_weights_unit_power():
    for a in (1, 2, 4, 7):
        w = uniform_weights(a)
        assert w.shape == (a,)
        assert np.vdot(w, w).real == pytest.approx(1.0, abs=1e-15)


# === worked flat-channel values ======================================


def test_flat_channel_delta_and_powers():
    # Four antennas at uniform weight on a unit flat channel combine to
    # c = 2 per bin; with rho = 1 the coefficient is 2/(4+1) = 0.4.
    delta, terms = flat_setup()
    assert np.abs(delta - 0.4).max() < 1e-12
    assert terms.desired == pytest.approx(0.64, abs=1e-12)
    assert terms.leakage == pytest.approx(0.0, abs=1e-12)
    assert terms.noise == pytest.approx(0.16, abs=1e-12)


def test_flat_channel_snr_values():
    _, terms = flat_setup()
    assert hm_detection_snr(terms, 1.0, 10.0) == pytest.approx(40.0, rel=1e-12)
    expected = 3.2 / 3.36
    assert hm_detection_snr(terms, 0.5, 10.0) == pytest.approx(expected, rel=1e-12)


def test_snr_saturates_at_power_ratio():
    # With nonzero leakage-free interference the SNR cannot exceed
    # p0 / (1 - p0) no matter how large the transmit SNR gets.
    _, terms = flat_setup()
    assert hm_detection_snr(terms, 0.5, 1e9) == pytest.approx(1.0, abs=1e-8)
    assert hm_detection_snr(terms, 0.5, 1e9) < 1.0


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrum):
        hm_detection_snr(DetectionPowerTerms(0.0, 0.0, 0.0), 0.5, 10.0)
    lam = np.ones((3, 8), dtype=complex)
    lam[1] = 0.0
    with pytest.raises(DegenerateSpectrum):
        hm_at_lm_snr(mmse_spectrum(lam, 1.0), lam, 0.5, 10.0)


# === closed-form monotonicity ========================================


def random_terms(rng):
    return DetectionPowerTerms(
        float(rng.uniform(0.05, 2.0)),
        float(rng.uniform(0.0, 1.0)),
        float(rng.uniform(0.01, 1.0)),
    )


def test_snr_monotone_in_p0_and_rho_t():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        terms = random_terms(rng)
        p0 = rng.uniform(0.05, 0.9)
        rho_t = rng.uniform(0.1, 100.0)
        base = hm_detection_snr(terms, p0, rho_t)
        assert hm_detection_snr(terms, p0 + 0.05, rho_t) > base
        assert hm_detection_snr(terms, p0, rho_t * 1.5) > base


def test_snr_decreases_with_leakage():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        terms = random_terms(rng)
        p0 = rng.uniform(0.05, 0.95)
        rho_t = rng.uniform(0.1, 100.0)
        clean = DetectionPowerTerms(terms.desired, 0.0, terms.noise)
        with_leak = DetectionPowerTerms(terms.desired, terms.leakage + 0.01, terms.noise)
        assert hm_detection_snr(clean, p0, rho_t) > hm_detection_snr(with_leak, p0, rho_t)
        assert hm_detection_snr(clean, p0, rho_t) >= hm_detection_snr(terms, p0, rho_t)


# === detection of the strong signal at an interfered user ============


def test_hm_at_lm_flat_values():
    # Forward energy 0.64 and noise energy 0.16 on the flat channel, so
    # at p0 = 1 the SNR is rho_t * 0.64 / 0.16 and at p0 = 0.5 it is
    # 3.2 / (3.2 + 0.16).
    delta, _ = flat_setup()
    lam = np.full(64, 2.0, dtype=complex)
    assert hm_at_lm_snr(delta, lam, 1.0, 10.0) == pytest.approx(10.0 * 0.64 / 0.16, rel=1e-12)
    assert hm_at_lm_snr(delta, lam, 0.5, 10.0) == pytest.approx(3.2 / 3.36, rel=1e-12)


def test_hm_at_lm_full_power_has_no_interference_term():
    # One SNR per user: the energies are means over each row's bins.
    rng = np.random.default_rng(31)
    lam = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
    delta = mmse_spectrum(lam, 1.0)
    got = hm_at_lm_snr(delta, lam, 1.0, 7.0)
    assert got.shape == (3,)
    for user in range(3):
        forward = float(np.mean(np.abs(delta[user]) ** 2 * np.abs(lam[user]) ** 2))
        noise = float(np.mean(np.abs(delta[user]) ** 2))
        assert got[user] == pytest.approx(7.0 * forward / noise, rel=1e-12)


def test_reductions_equal_np_mean_bitwise():
    # The power terms and the HM-at-LM energies are plain sums over the
    # last axis divided by its length, which is what np.mean computes.
    rng = np.random.default_rng(33)
    for shape in ((256,), (8, 16), (16, 64)):
        lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        idi = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        delta = mmse_spectrum(lam, 1.0)
        noise_gain = np.abs(delta) ** 2
        forward = np.mean(noise_gain * np.abs(lam) ** 2, axis=-1)
        want = 0.5 * 3.0 * forward / (0.5 * 3.0 * forward + np.mean(noise_gain, axis=-1))
        assert np.array_equal(hm_at_lm_snr(delta, lam, 0.5, 3.0), want)
        if len(shape) == 1:
            terms = detection_power_terms(delta, lam, idi)
            assert terms == DetectionPowerTerms(
                float(np.mean(np.abs(delta * lam) ** 2)),
                float(np.mean(np.abs(delta * idi) ** 2)),
                float(np.mean(noise_gain)),
            )


def test_hm_at_lm_monotone_in_p0():
    rng = np.random.default_rng(32)
    for _ in range(100):
        lam = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        delta = mmse_spectrum(lam, 1.0)
        rho_t = rng.uniform(0.5, 50.0)
        lo = hm_at_lm_snr(delta, lam, 0.4, rho_t)
        hi = hm_at_lm_snr(delta, lam, 0.6, rho_t)
        assert hi > lo


# === single-tap subchannel detection =================================


def test_lm_snr_direct_product():
    assert lm_detection_snr(0.25, 4.0, 3.0j) == pytest.approx(9.0, rel=1e-12)
    assert lm_detection_snr(0.0, 100.0, 1.0) == 0.0


def test_lm_snr_scales_with_gain_power():
    base = lm_detection_snr(0.1, 10.0, 1.0 + 1.0j)
    got = lm_detection_snr(np.array([0.1, 0.1]), 10.0, np.array([2.0 + 2.0j, 1.0 - 1.0j]))
    assert got == pytest.approx([4.0 * base, base], rel=1e-12)


def test_lm_snr_rejects_negative_share():
    with pytest.raises(ValueError, match="power_share"):
        lm_detection_snr(-0.1, 10.0, 1.0)


# === decomposition residual ==========================================


def test_decomposition_residual_on_sampled_channels():
    cfg = small_config()
    rng = np.random.default_rng(41)
    for _ in range(20):
        ch = sample_hm_channel(cfg, rng)
        spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
        delta = mmse_spectrum(spectra[0], cfg.rho)
        lambda_full = full_spectrum(ch, cfg.N, cfg.M)
        assert spectral_decomposition_residual(delta, spectra, lambda_full) <= 1e-12


def test_decomposition_residual_detects_mismatch():
    cfg = small_config()
    rng = np.random.default_rng(42)
    ch = sample_hm_channel(cfg, rng)
    spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
    delta = mmse_spectrum(spectra[0], cfg.rho)
    broken = spectra.copy()
    broken[1] += 1e-6
    lambda_full = full_spectrum(ch, cfg.N, cfg.M)
    assert spectral_decomposition_residual(delta, broken, lambda_full) > 1e-8


# === symbol-level cross-check ========================================


def clean_single_path(cfg, gain=1.0):
    # Every antenna at `gain`, beamformed with the uniform weights.
    beamformed = np.full(cfg.A, gain, dtype=complex) @ uniform_weights(cfg.A)
    return HMChannelRealization([0], [0], [0.0], np.array([beamformed]), cfg.N_p)


def test_empirical_noise_free_identity_channel():
    cfg = small_config(mode="real", p0=1.0)
    rng = np.random.default_rng(51)
    ch = clean_single_path(cfg)
    got = empirical_hm_sinr(ch, cfg, 1e12, rng, n_symbols=4000)
    # Full power on the strong user over an identity-like channel with
    # essentially no noise: the measured ratio is limited only by the
    # regularizer bias, far above 1e6.
    assert got.value > 1e6


def test_empirical_zero_power_is_zero():
    cfg = small_config(mode="real", p0=0.0)
    rng = np.random.default_rng(52)
    ch = clean_single_path(cfg)
    got = empirical_hm_sinr(ch, cfg, 10.0, rng, n_symbols=2000)
    assert got.value == 0.0
    assert got.stderr == 0.0


def test_empirical_zero_gain_is_zero():
    # A dead channel: the equalizer, the signal and the residual are all
    # zero, and the estimate returns before dividing by either power.
    cfg = small_config(mode="real")
    rng = np.random.default_rng(54)
    got = empirical_hm_sinr(clean_single_path(cfg, gain=0.0), cfg, 10.0, rng, n_symbols=1000)
    assert got == EmpiricalSinr(0.0, 0.0, int(np.ceil(1000 / (cfg.N * cfg.M))))


@pytest.mark.parametrize("rho", [1e100, 1e150])
def test_empirical_stderr_finite_at_huge_regularizer(rho):
    # The per-frame powers scale as 1/rho^2, so the squares of their
    # means underflow here; the estimate never forms them.
    cfg = small_config(mode="real", rho=rho)
    rng = np.random.default_rng(55)
    ch = sample_hm_channel(cfg, rng)
    got = empirical_hm_sinr(ch, cfg, 10.0, rng, n_symbols=2000)
    assert np.isfinite(got.value) and got.value > 0.0
    assert np.isfinite(got.stderr) and got.stderr > 0.0


def correlated_powers(seed, n_frames=40):
    """Positive per-frame powers of ordinary scale with a shared part."""
    rng = np.random.default_rng(seed)
    shared = rng.gamma(64.0, 1.0, n_frames)
    return shared + rng.gamma(16.0, 1.0, n_frames), 0.3 * shared + rng.gamma(32.0, 1.0, n_frames)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_ratio_estimate_matches_textbook_delta_method(seed):
    sig_power, res_power = correlated_powers(seed)
    n = len(sig_power)
    s_mean, r_mean = sig_power.mean(), res_power.mean()
    s_var = sig_power.var(ddof=1) / n
    r_var = res_power.var(ddof=1) / n
    covar = np.cov(sig_power, res_power, ddof=1)[0, 1] / n
    rel_var = s_var / s_mean**2 + r_var / r_mean**2 - 2.0 * covar / (s_mean * r_mean)
    got = _ratio_estimate(sig_power, res_power)
    assert got.n_frames == n
    assert got.value == pytest.approx(s_mean / r_mean, rel=1e-12)
    assert got.stderr == pytest.approx(s_mean / r_mean * np.sqrt(rel_var), rel=1e-12)


def test_ratio_estimate_relative_stderr_is_scale_free():
    sig_power, res_power = correlated_powers(104)
    plain = _ratio_estimate(sig_power, res_power)
    tiny = _ratio_estimate(1e-200 * sig_power, 1e-200 * res_power)
    assert tiny.value == pytest.approx(plain.value, rel=1e-12)
    assert tiny.stderr / tiny.value == pytest.approx(plain.stderr / plain.value, rel=1e-12)


def test_empirical_frame_accounting():
    cfg = small_config(mode="real")
    rng = np.random.default_rng(53)
    ch = sample_hm_channel(cfg, rng)
    got = empirical_hm_sinr(ch, cfg, 10.0, rng, n_symbols=1000)
    assert got.n_frames == int(np.ceil(1000 / (cfg.N * cfg.M)))
    assert 0.0 < got.stderr < got.value


def per_bin_power_model(cfg, ch, rho_t):
    """Direct per-bin power accounting for the measured ratio.

    Keeps the interference cross term between the equalized desired
    and leakage branches that the closed form drops, so it tracks the
    symbol-level measurement for any realization.
    """
    lam_main, lam_idi = hm_eigen_spectra(ch, cfg.N, cfg.M)
    delta = mmse_spectrum(lam_main, cfg.rho)
    terms = detection_power_terms(delta, lam_main, lam_idi)
    delta_e = delta * lam_main
    delta_f = delta * lam_idi
    cross = 2.0 * float(np.mean((delta_e * np.conj(delta_f)).real))
    denom = (
        (1.0 - cfg.p0) * rho_t * (terms.desired + terms.leakage + cross)
        + cfg.p0 * rho_t * terms.leakage
        + terms.noise
    )
    return cfg.p0 * rho_t * terms.desired / denom


def test_empirical_matches_per_bin_power_model():
    cfg = small_config(mode="real")
    rho_t = 10.0
    for seed in (61, 62, 63):
        rng = np.random.default_rng(seed)
        ch = sample_hm_channel(cfg, rng)
        model = per_bin_power_model(cfg, ch, rho_t)
        got = empirical_hm_sinr(ch, cfg, rho_t, rng, n_symbols=50_000)
        assert got.value == pytest.approx(model, rel=0.03)


def dense_equalizer(ch, cfg):
    nm = cfg.N * cfg.M
    h_main, _, h_full = hm_channel_matrices(ch, cfg.N, cfg.M)
    gram = h_main.conj().T @ h_main + cfg.rho * np.eye(nm)
    equalizer = np.linalg.solve(gram, h_main.conj().T)
    return equalizer, equalizer @ h_main, h_full


def per_frame_oracle(ch, cfg, rho_t, rng, n_symbols):
    """`empirical_hm_sinr` one frame at a time, with six draws per frame
    (real and imaginary parts of the HM stream, the aggregate LM stream
    and the noise): the reference for the blocked oracle."""
    nm = cfg.N * cfg.M
    equalizer, signal_map, h_full = dense_equalizer(ch, cfg)
    own_amp, lm_amp = np.sqrt(cfg.p0), np.sqrt(1.0 - cfg.p0)
    sigma = np.sqrt(1.0 / rho_t)
    n_frames = max(1, int(np.ceil(n_symbols / nm)))
    sig_power = np.empty(n_frames)
    res_power = np.empty(n_frames)
    root_half = np.sqrt(0.5)
    for frame in range(n_frames):
        own_re, own_im, lm_re, lm_im, noise_re, noise_im = (
            rng.standard_normal(nm) for _ in range(6)
        )
        own = root_half * (own_re + 1j * own_im)
        lm = root_half * (lm_re + 1j * lm_im)
        noise = sigma * root_half * (noise_re + 1j * noise_im)
        equalized = equalizer @ (h_full @ (own_amp * own + lm_amp * lm) + noise)
        signal = own_amp * (signal_map @ own)
        residual = equalized - signal
        sig_power[frame] = np.vdot(signal, signal).real
        res_power[frame] = np.vdot(residual, residual).real
    return _ratio_estimate(sig_power, res_power)


def per_user_oracle(ch, lm_channels, cfg, rho_t, rng, n_symbols):
    """The oracle one frame at a time with a stream per user at its
    inverse-magnitude share: the reference form that the aggregate LM
    stream stands in for."""
    nm = cfg.N * cfg.M
    equalizer, signal_map, h_full = dense_equalizer(ch, cfg)
    gains = lm_subchannel_gains(lm_eigen_spectrum(lm_channels, cfg.M))
    amp = np.sqrt(allocate_power(cfg.p0, gains))
    sigma = np.sqrt(1.0 / rho_t)
    n_frames = max(1, int(np.ceil(n_symbols / nm)))
    sig_power = np.empty(n_frames)
    res_power = np.empty(n_frames)
    root_half = np.sqrt(0.5)
    for frame in range(n_frames):
        streams = root_half * (
            rng.standard_normal((len(amp), nm)) + 1j * rng.standard_normal((len(amp), nm))
        )
        noise = sigma * root_half * (rng.standard_normal(nm) + 1j * rng.standard_normal(nm))
        equalized = equalizer @ (h_full @ (amp @ streams) + noise)
        signal = amp[0] * (signal_map @ streams[0])
        residual = equalized - signal
        sig_power[frame] = np.vdot(signal, signal).real
        res_power[frame] = np.vdot(residual, residual).real
    return _ratio_estimate(sig_power, res_power)


@pytest.mark.parametrize("n_frames", [1, 16, 37])
def test_blocked_oracle_matches_per_frame_loop(n_frames):
    # 37 frames are two full blocks and a partial one.
    cfg = small_config(mode="real")
    n_symbols = n_frames * cfg.N * cfg.M
    rng = np.random.default_rng(81)
    ch = sample_hm_channel(cfg, rng)
    rng_blocked, rng_loop = np.random.default_rng(82), np.random.default_rng(82)
    got = empirical_hm_sinr(ch, cfg, 10.0, rng_blocked, n_symbols=n_symbols)
    want = per_frame_oracle(ch, cfg, 10.0, rng_loop, n_symbols)
    assert got.n_frames == want.n_frames == n_frames
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-12, nan_ok=True)
    # Same draws consumed: the generators continue identically.
    assert rng_blocked.standard_normal() == rng_loop.standard_normal()


@pytest.mark.parametrize("seed", [91, 92, 93, 94, 95])
def test_aggregate_lm_stream_matches_per_user_streams(seed):
    # The LM users' superposition of independent CN(0, 1) streams at
    # shares summing to 1 - p0 is one CN(0, 1 - p0) stream, so both
    # forms estimate the same SINR; their draws are independent.
    cfg = small_config(mode="real")
    rng = np.random.default_rng(seed)
    ch = sample_hm_channel(cfg, rng)
    lm_channels = sample_lm_channel(cfg, rng)
    new = empirical_hm_sinr(ch, cfg, 10.0, np.random.default_rng([seed, 1]), n_symbols=20_000)
    old = per_user_oracle(ch, lm_channels, cfg, 10.0, np.random.default_rng([seed, 2]), 20_000)
    assert abs(new.value - old.value) <= 4.0 * np.hypot(new.stderr, old.stderr)


def test_empirical_near_closed_form_on_average():
    # The closed form drops the desired/leakage cross term, so any one
    # realization can sit several percent off; sanity-check it stays
    # within a generous band rather than asserting the tight contract.
    cfg = small_config(mode="real")
    rho_t = 10.0
    rng = np.random.default_rng(71)
    ch = sample_hm_channel(cfg, rng)
    analytic = hm_sinr(cfg, ch, rho_t)
    got = empirical_hm_sinr(ch, cfg, rho_t, rng, n_symbols=50_000)
    assert got.value == pytest.approx(analytic, rel=0.25)
