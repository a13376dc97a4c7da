"""Channel sampling, subpath ratios, and eigen-spectrum construction."""

import numpy as np
import pytest

from ddlink_sim.channel import (
    HMChannelRealization,
    LMChannels,
    hm_eigen_spectra,
    lm_eigen_spectrum,
    lm_subchannel_gains,
    sample_hm_channel,
    sample_lm_channel,
    subpath_ratios,
    without_fractional_doppler,
)
from ddlink_sim.config import SystemConfig
from ddlink_sim.validation import (
    build_basis,
    diagonalize_bccb,
    full_spectrum,
    hm_channel_matrices,
    lm_channel_matrix,
)


def small_config(**changes):
    base = dict(N=8, M=8, N_p=3, l_max=4, L_0=4, U=4)
    base.update(changes)
    return SystemConfig(**base)


# === subpath ratio ===================================================


def test_ratio_integer_doppler_is_exact():
    assert subpath_ratios(np.array([0]), 0.0, 16)[0] == 1.0
    qs = np.array([1, -1, 2, -2, 5, -5])
    assert np.all(subpath_ratios(qs, 0.0, 16) == 0.0)


def test_ratio_period_wraps():
    qs = np.arange(-6, 7)
    a = subpath_ratios(qs, 0.3, 16)
    b = subpath_ratios(qs + 16, 0.3, 16)
    assert np.all(np.abs(a - b) < 1e-13)


def test_ratio_full_period_sum_is_one():
    for kappa in (0.1, 0.25, 0.5):
        total = subpath_ratios(np.arange(16), kappa, 16).sum()
        assert abs(total - 1.0) < 1e-12


def test_ratio_full_period_energy_is_one():
    rng = np.random.default_rng(101)
    for n in (8, 16, 32):
        for kappa in 0.5 - rng.random(100):
            ratios = subpath_ratios(np.arange(n), kappa, n)
            assert abs(ratios.sum() - 1.0) < 1e-12
            assert abs((np.abs(ratios) ** 2).sum() - 1.0) < 1e-12


def test_ratio_array_equals_scalar_bitwise():
    # The validation suite evaluates every (offset, q) pair in one call;
    # it must observe exactly what a call per pair gives.
    rng = np.random.default_rng(102)
    for n in (8, 16, 32):
        kappas = np.concatenate([[0.0, 0.5, -0.25], 0.5 - rng.random(20)])
        qs = np.arange(-n, 2 * n)
        table = subpath_ratios(qs, kappas[:, None], n)
        for row, kappa in zip(table, kappas):
            singles = [complex(subpath_ratios(np.array([q]), kappa, n)[0]) for q in qs]
            assert [complex(v) for v in row] == singles


def test_ratio_truncation_keeps_most_energy():
    energy = sum(abs(complex(r)) ** 2 for r in subpath_ratios(np.arange(-5, 6), 0.5, 16))
    assert energy >= 0.95


# === sampling ========================================================


def test_default_doppler_span_is_two():
    assert int(np.floor(SystemConfig().doppler_span)) == 2


def test_hm_sampling_shapes_and_ranges():
    cfg = SystemConfig()
    rng = np.random.default_rng(17)
    seen_taps = set()
    for _ in range(300):
        ch = sample_hm_channel(cfg, rng)
        for arr in (ch.doppler, ch.delay, ch.kappa, ch.gain):
            assert arr.shape == (cfg.L_0,)
        assert ch.subpath_halfwidth == cfg.N_p
        assert ch.delay[0] == 0
        assert np.all((-2 <= ch.doppler) & (ch.doppler <= 2))
        assert np.all((0 <= ch.delay) & (ch.delay <= cfg.l_max))
        assert np.all((-0.5 < ch.kappa) & (ch.kappa <= 0.5))
        seen_taps.update(int(k) for k in ch.doppler)
    assert seen_taps == {-2, -1, 0, 1, 2}


def test_hm_sampling_is_deterministic():
    cfg = SystemConfig()
    a = sample_hm_channel(cfg, np.random.default_rng(99))
    b = sample_hm_channel(cfg, np.random.default_rng(99))
    for field in ("doppler", "delay", "kappa", "gain"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_hm_gain_variance_matches_path_count():
    cfg = SystemConfig()
    rng = np.random.default_rng(23)
    powers = []
    for _ in range(5000):
        ch = sample_hm_channel(cfg, rng)
        powers.extend(np.abs(ch.gain) ** 2)
    mean_power = float(np.mean(powers))
    assert abs(mean_power - 1.0 / cfg.L_0) < 0.02 / cfg.L_0


def test_lm_sampling_path_count_range():
    cfg = SystemConfig()
    rng = np.random.default_rng(31)
    counts = set()
    for _ in range(1250):
        lm = sample_lm_channel(cfg, rng)
        assert lm.delay.shape == lm.gain.shape == (cfg.U, 4)
        live = lm.gain != 0
        # Paths fill each row from the front; the padding is delay 0.
        assert np.all(live[:, 0]) and np.all(live[:, :-1] >= live[:, 1:])
        assert np.all(lm.delay[~live] == 0)
        counts.update(live.sum(axis=1).tolist())
    assert counts == {1, 2, 3, 4}


def test_lm_subchannel_power_is_normalized():
    # 1/L_u gain variance makes E|H[m]|^2 = 1 regardless of path count.
    cfg = SystemConfig()
    rng = np.random.default_rng(37)
    acc = 0.0
    draws = 25_000 // cfg.U
    for _ in range(draws):
        lm = sample_lm_channel(cfg, rng)
        acc += float(np.sum(np.abs(lm_subchannel_gains(lm, cfg.M)) ** 2))
    mean_power = acc / (draws * cfg.U)
    assert 0.97 <= mean_power <= 1.03


def hm_channel(kappa=(0.0, 0.1), gain=(1.0, 1.0), halfwidth=3):
    return HMChannelRealization([0, 1], [0, 2], list(kappa), np.array(gain, dtype=complex), halfwidth)


def test_path_validation():
    hm_channel()
    with pytest.raises(ValueError):
        hm_channel(kappa=(0.0, 0.75))
    with pytest.raises(ValueError):
        hm_channel(kappa=(-0.5, 0.1))
    with pytest.raises(ValueError):
        hm_channel(gain=(np.nan, 1.0))
    with pytest.raises(ValueError):
        hm_channel(halfwidth=-1)
    with pytest.raises(ValueError):
        HMChannelRealization([], [], [], np.array([], dtype=complex), 3)
    with pytest.raises(ValueError):
        hm_channel(kappa=(0.0,))
    LMChannels([[0, 2]], np.ones((1, 2), dtype=complex))
    with pytest.raises(ValueError):
        LMChannels([0], np.ones(1, dtype=complex))
    with pytest.raises(ValueError):
        LMChannels(np.zeros((0, 4)), np.zeros((0, 4), dtype=complex))
    with pytest.raises(ValueError):
        LMChannels([[0, 0]], np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        LMChannels([[0]], np.ones((1, 2), dtype=complex))


def test_ideal_copy_zeroes_only_kappa():
    cfg = small_config()
    ch = sample_hm_channel(cfg, np.random.default_rng(53))
    ideal = without_fractional_doppler(ch)
    assert np.all(ideal.kappa == 0.0)
    assert np.any(ch.kappa != 0.0)
    for field in ("doppler", "delay", "gain"):
        assert np.array_equal(getattr(ideal, field), getattr(ch, field))


# === dense matrices and spectra ======================================


def test_single_clean_path_gives_identity():
    ch = HMChannelRealization([0], [0], [0.0], np.array([1.0 + 0j]), 3)
    main, idi, full = hm_channel_matrices(ch, 8, 8)
    assert np.array_equal(main, np.eye(64, dtype=complex))
    assert np.abs(idi).max() == 0.0
    assert np.array_equal(full, main)
    spectra = hm_eigen_spectra(ch, 8, 8)
    assert np.abs(spectra.lambda_main - 1.0).max() < 1e-12
    assert np.abs(spectra.lambda_idi).max() == 0.0


def test_full_matrix_is_exact_sum_of_parts():
    cfg = small_config()
    ch = sample_hm_channel(cfg, np.random.default_rng(59))
    main, idi, full = hm_channel_matrices(ch, cfg.N, cfg.M)
    assert np.array_equal(full, main + idi)


def test_ideal_spectra_have_zero_leakage():
    cfg = small_config()
    ch = without_fractional_doppler(sample_hm_channel(cfg, np.random.default_rng(61)))
    spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
    assert np.abs(spectra.lambda_idi).max() == 0.0


def test_fast_spectra_match_dense_diagonalization():
    for seed, n in ((67, 4), (71, 8)):
        cfg = small_config(N=n, M=n, N_p=(n - 1) // 2, l_max=n - 1, U=min(4, n))
        ch = sample_hm_channel(cfg, np.random.default_rng(seed))
        spectra = hm_eigen_spectra(ch, n, n)
        basis = build_basis(n, n)
        dense = hm_channel_matrices(ch, n, n)
        fast = (spectra.lambda_main, spectra.lambda_idi, full_spectrum(ch, n, n))
        for h, lam in zip(dense, fast):
            oracle = diagonalize_bccb(h, basis)
            scale = max(np.abs(oracle).max(), 1e-30)
            assert np.abs(oracle - lam).max() / scale < 1e-9


def test_spectral_split_identity():
    cfg = small_config()
    for seed in range(5):
        ch = sample_hm_channel(cfg, np.random.default_rng(400 + seed))
        spectra = hm_eigen_spectra(ch, cfg.N, cfg.M)
        lambda_full = full_spectrum(ch, cfg.N, cfg.M)
        residual = np.abs(lambda_full - spectra.lambda_main - spectra.lambda_idi).max()
        assert residual <= 1e-10 * max(np.abs(lambda_full).max(), 1.0)


def test_lm_spectrum_is_constant_along_doppler():
    # A delay-only channel diagonalizes to one value per delay bin, which
    # is why lm_eigen_spectrum keeps only the M delay bins.
    cfg = small_config()
    lm = sample_lm_channel(cfg, np.random.default_rng(79))
    basis = build_basis(cfg.N, cfg.M)
    for user in (1, cfg.U):
        dense = lm_channel_matrix(lm, user, cfg.N, cfg.M)
        lam = diagonalize_bccb(dense, basis).reshape(cfg.M, cfg.N)
        assert np.abs(lam - lam[:, :1]).max() < 1e-12


def test_lm_spectrum_matches_dense_matrix():
    # Every user's dense delay-only matrix diagonalizes to its delay-bin
    # spectrum repeated along the Doppler axis.
    cfg = small_config(U=8)
    lm = sample_lm_channel(cfg, np.random.default_rng(73))
    lam = lm_eigen_spectrum(lm, cfg.M)
    assert lam.shape == (cfg.U, cfg.M)
    basis = build_basis(cfg.N, cfg.M)
    for user in range(1, cfg.U + 1):
        oracle = diagonalize_bccb(lm_channel_matrix(lm, user, cfg.N, cfg.M), basis)
        fast = np.repeat(lam[user - 1], cfg.N)
        assert np.abs(oracle - fast).max() < 1e-9 * max(np.abs(oracle).max(), 1.0)


# === LM subchannel gains =============================================


def same_channel_users(n_users, delay, gain):
    gain = np.asarray(gain, dtype=complex)
    return LMChannels(np.tile(delay, (n_users, 1)), np.tile(gain, (n_users, 1)))


def test_lm_gain_single_path_is_flat():
    gains = lm_subchannel_gains(same_channel_users(8, [0], [1.0]), 8)
    assert np.abs(gains - 1.0).max() < 1e-12


def test_lm_gain_two_path_comb():
    gains = lm_subchannel_gains(same_channel_users(16, [0, 8], [1.0, 1.0]), 16)
    for m in range(16):
        expected = 2.0 if m % 2 == 0 else 0.0
        assert abs(gains[m] - expected) < 1e-12


def test_lm_gain_periodic_in_subcarrier():
    cfg = small_config()
    lm = sample_lm_channel(cfg, np.random.default_rng(83))
    row = 2
    gains = lm_subchannel_gains(same_channel_users(2 * cfg.M, lm.delay[row], lm.gain[row]), cfg.M)
    assert np.abs(gains[: cfg.M] - gains[cfg.M :]).max() < 1e-12
