"""Channel sampling, subpath ratios, and eigen-spectrum construction."""

import numpy as np
import pytest

from ddlink_sim.channel import (
    HMChannelRealization,
    LMChannels,
    _dft_phase_table,
    _doppler_image,
    _draw_paths,
    _tap_phase,
    hm_eigen_spectra,
    lm_eigen_spectrum,
    lm_subchannel_gains,
    sample_hm_channel,
    sample_lm_channel,
    subpath_ratios,
    uniform_weights,
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


def reference_path_set(cfg, rng, n):
    """(delay, gain) of one path set, drawn in the documented order."""
    delay = np.zeros(n, dtype=np.int64)
    if n > 1:
        delay[1:] = rng.choice(cfg.l_max + 1, size=n - 1, replace=cfg.l_max + 1 <= n - 1)
    parts = np.sqrt(0.5 / n) * rng.standard_normal((2, n, cfg.A))
    return delay, (parts[0] + 1j * parts[1]) @ uniform_weights(cfg.A)


@pytest.mark.parametrize(
    "changes",
    [{}, {"U": 16, "M": 16}, {"l_max": 1}, {"A": 1}],
    ids=["defaults", "U16-M16", "l_max1", "A1"],
)
def test_samplers_follow_documented_draw_order(changes):
    # l_max = 1 draws with replacement for path sets of 3 or more paths.
    cfg = SystemConfig(**changes)
    k_max = int(np.floor(cfg.doppler_span))
    for seed in range(20):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        hm = sample_hm_channel(cfg, rng)
        assert np.array_equal(hm.doppler, rng_ref.integers(-k_max, k_max + 1, size=cfg.L_0))
        assert np.array_equal(hm.kappa, 0.5 - rng_ref.random(cfg.L_0))
        delay, gain = reference_path_set(cfg, rng_ref, cfg.L_0)
        assert np.array_equal(hm.delay, delay) and np.array_equal(hm.gain, gain)

        lm = sample_lm_channel(cfg, rng)
        for row in range(cfg.U):
            n = int(rng_ref.integers(1, 5))
            delay, gain = reference_path_set(cfg, rng_ref, n)
            assert np.array_equal(lm.delay[row, :n], delay)
            assert np.array_equal(lm.gain[row, :n], gain)
            assert not lm.delay[row, n:].any() and not lm.gain[row, n:].any()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_lm_subchannel_power_is_normalized():
    # 1/L_u gain variance makes E|H[m]|^2 = 1 regardless of path count.
    cfg = SystemConfig()
    rng = np.random.default_rng(37)
    acc = 0.0
    draws = 25_000 // cfg.U
    for _ in range(draws):
        lm = sample_lm_channel(cfg, rng)
        acc += float(np.sum(np.abs(lm_subchannel_gains(lm_eigen_spectrum(lm, cfg.M))) ** 2))
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
    lam_main, lam_idi = hm_eigen_spectra(ch, 8, 8)
    assert np.abs(lam_main - 1.0).max() < 1e-12
    assert np.abs(lam_idi).max() == 0.0


def test_full_matrix_is_exact_sum_of_parts():
    cfg = small_config()
    ch = sample_hm_channel(cfg, np.random.default_rng(59))
    main, idi, full = hm_channel_matrices(ch, cfg.N, cfg.M)
    assert np.array_equal(full, main + idi)


def test_ideal_spectra_have_zero_leakage():
    cfg = small_config()
    ch = without_fractional_doppler(sample_hm_channel(cfg, np.random.default_rng(61)))
    assert np.abs(hm_eigen_spectra(ch, cfg.N, cfg.M)[1]).max() == 0.0


def test_fast_spectra_match_dense_diagonalization():
    for seed, n in ((67, 4), (71, 8)):
        cfg = small_config(N=n, M=n, N_p=(n - 1) // 2, l_max=n - 1, U=min(4, n))
        ch = sample_hm_channel(cfg, np.random.default_rng(seed))
        basis = build_basis(n, n)
        dense = hm_channel_matrices(ch, n, n)
        fast = (*hm_eigen_spectra(ch, n, n), full_spectrum(ch, n, n))
        for h, lam in zip(dense, fast):
            oracle = diagonalize_bccb(h, basis)
            scale = max(np.abs(oracle).max(), 1e-30)
            assert np.abs(oracle - lam).max() / scale < 1e-9


def test_spectral_split_identity():
    cfg = small_config()
    for seed in range(5):
        ch = sample_hm_channel(cfg, np.random.default_rng(400 + seed))
        lam_main, lam_idi = hm_eigen_spectra(ch, cfg.N, cfg.M)
        lambda_full = full_spectrum(ch, cfg.N, cfg.M)
        residual = np.abs(lambda_full - lam_main - lam_idi).max()
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


def same_channel_gains(n_users, delay, gain, n_delay):
    """Own-subcarrier gains of n_users users that share one channel."""
    gain = np.asarray(gain, dtype=complex)
    lm = LMChannels(np.tile(delay, (n_users, 1)), np.tile(gain, (n_users, 1)))
    return lm_subchannel_gains(lm_eigen_spectrum(lm, n_delay))


def test_lm_gain_single_path_is_flat():
    gains = same_channel_gains(8, [0], [1.0], 8)
    assert np.abs(gains - 1.0).max() < 1e-12


def test_lm_gain_two_path_comb():
    gains = same_channel_gains(16, [0, 8], [1.0, 1.0], 16)
    for m in range(16):
        expected = 2.0 if m % 2 == 0 else 0.0
        assert abs(gains[m] - expected) < 1e-12


def test_lm_gain_periodic_in_subcarrier():
    cfg = small_config()
    lm = sample_lm_channel(cfg, np.random.default_rng(83))
    row = 2
    gains = same_channel_gains(2 * cfg.M, lm.delay[row], lm.gain[row], cfg.M)
    assert np.abs(gains[: cfg.M] - gains[cfg.M :]).max() < 1e-12


@pytest.mark.parametrize("changes", [{}, {"U": 16, "M": 16}], ids=["defaults", "U16-M16"])
def test_lm_gain_is_spectrum_at_own_subcarrier(changes):
    # The gains read off the spectrum equal user u's frequency response
    # at subcarrier u - 1, evaluated here with its own kernel.
    cfg = SystemConfig(**changes)
    rng = np.random.default_rng(350)
    subcarrier = np.arange(cfg.U)[:, None]
    for _ in range(200):
        lm = sample_lm_channel(cfg, rng)
        gains = lm_subchannel_gains(lm_eigen_spectrum(lm, cfg.M))
        kernel = np.exp(2j * np.pi * lm.delay * subcarrier / cfg.M)
        reference = (kernel * lm.gain).sum(axis=1)
        assert np.all(np.abs(gains - reference) <= 1e-12 * np.maximum(np.abs(reference), 1.0))


# === kernels against the forms they replaced =========================
# Each kernel on the trial path was rewritten for speed with its
# outputs unchanged bit for bit; the earlier forms are kept here as the
# references.


def masked_ratios(qs, kappa, n_doppler):
    """`subpath_ratios` as a broadcast and a masked scatter."""
    qs, kappa = np.broadcast_arrays(qs, kappa)
    t = qs + kappa
    out = np.empty(t.shape, dtype=complex)
    exact = t == np.floor(t)
    if np.any(exact):
        out[exact] = np.where(np.mod(t[exact].astype(np.int64), n_doppler) == 0, 1.0, 0.0)
    rest = ~exact
    if np.any(rest):
        theta = -qs[rest] - kappa[rest]
        num = np.exp(-2j * np.pi * theta) - 1.0
        den = n_doppler * np.exp(-1j * (2.0 * np.pi / n_doppler) * theta) - n_doppler
        out[rest] = num / den
    return out


def per_image_spectra(ch, n_doppler, n_delay):
    """`hm_eigen_spectra` with one path-sum product per image; each
    path's Doppler shift is factored out of its subpath responses."""

    def path_sum(dopp):
        weight = ch.gain * _tap_phase(ch.doppler, ch.kappa, ch.delay, n_doppler, n_delay)
        delay_resp = _dft_phase_table(n_delay)[:, ch.delay % n_delay]
        return ((delay_resp * weight) @ dopp.T).reshape(n_delay * n_doppler)

    qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
    ratios = subpath_ratios(qs, ch.kappa[:, None], n_doppler)
    q0 = ch.subpath_halfwidth
    leak = ratios.copy()
    leak[:, q0] = 0.0
    table = _dft_phase_table(n_doppler)
    shift = table[:, ch.doppler % n_doppler]
    main = shift * ratios[:, q0]
    idi = shift * (table[:, -qs % n_doppler] @ leak.T)
    return path_sum(main), path_sum(idi)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_factored_doppler_image_matches_gathered_responses(n):
    # w[:, k - q] = w[:, k] * w[:, -q]: the factored image equals the sum
    # of the gathered (N, L_0, Q) subpath responses up to rounding.
    cfg = SystemConfig(N=n, M=n, N_p=min(5, (n - 1) // 2), l_max=min(4, n - 1), U=min(8, n))
    rng = np.random.default_rng(320 + n)
    for _ in range(20):
        ch = sample_hm_channel(cfg, rng)
        qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
        ratios = subpath_ratios(qs, ch.kappa[:, None], n)
        resp = _dft_phase_table(n)[:, (ch.doppler[:, None] - qs) % n]
        gathered = np.einsum("nlq,lq->nl", resp, ratios)
        assert np.abs(_doppler_image(ch, ratios, n) - gathered).max() <= 1e-14 * n


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_spectra_equal_per_image_products_bitwise(n):
    cfg = SystemConfig(N=n, M=n, N_p=min(5, (n - 1) // 2), l_max=min(4, n - 1), U=min(8, n))
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        real = sample_hm_channel(cfg, rng)
        for ch in (real, without_fractional_doppler(real)):
            got = hm_eigen_spectra(ch, n, n)
            assert got.shape == (2, n * n)
            assert np.array_equal(got, per_image_spectra(ch, n, n))


@pytest.mark.parametrize(
    "kappa",
    [0.5 - np.random.default_rng(310).random(6), np.zeros(6), np.array([0.0, 0.5, 0.3])],
    ids=["none-exact", "all-exact", "mixed"],
)
def test_ratios_equal_masked_form_bitwise(kappa):
    for n in (8, 16):
        qs = np.arange(-n, 2 * n)
        got = subpath_ratios(qs, kappa[:, None], n)
        assert got.dtype == complex
        assert np.array_equal(got, masked_ratios(qs, kappa[:, None], n))


@pytest.mark.parametrize("q, kappa", [(3, 0.3), (0, 0.0), (2, 0.0), (16, 0.0)])
def test_ratio_of_scalars_is_zero_dimensional(q, kappa):
    got = subpath_ratios(q, kappa, 16)
    assert got.shape == () and got.dtype == complex
    assert np.array_equal(got, masked_ratios(q, kappa, 16))


@pytest.mark.parametrize("n_paths, n_antennas", [(1, 1), (3, 4), (10, 4)])
def test_gains_equal_two_draw_form_bitwise(n_paths, n_antennas):
    cfg = SystemConfig(A=n_antennas)
    rng, rng_ref = np.random.default_rng(320), np.random.default_rng(320)
    for _ in range(10):
        delay = np.empty(n_paths, dtype=np.int64)
        got = np.empty(n_paths, dtype=complex)
        _draw_paths(cfg, rng, delay, got)
        taps = np.zeros(n_paths, dtype=np.int64)
        if n_paths > 1:
            replace = cfg.l_max + 1 <= n_paths - 1
            taps[1:] = rng_ref.choice(cfg.l_max + 1, size=n_paths - 1, replace=replace)
        assert np.array_equal(delay, taps)
        scale = np.sqrt(0.5 / n_paths)
        shape = (n_paths, n_antennas)
        per_antenna = scale * (rng_ref.standard_normal(shape) + 1j * rng_ref.standard_normal(shape))
        assert np.array_equal(got, per_antenna @ uniform_weights(n_antennas))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_uniform_weights_cached_and_read_only():
    w = uniform_weights(4)
    assert uniform_weights(4) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


# === dense builders against the loops they replaced ==================
# Until 0.10.0 the dense builders scattered one cyclic shift per subpath
# or tap in a Python loop; those loops are kept here as the references.


def shift_columns(n_doppler, n_delay, doppler_shift, delay_shift):
    """Column index hit by each row for one cyclic delay-Doppler shift."""
    i = np.arange(n_doppler * n_delay)
    k, ell = i % n_doppler, i // n_doppler
    return (k - doppler_shift) % n_doppler + n_doppler * ((ell - delay_shift) % n_delay)


def loop_channel_matrices(ch, n_doppler, n_delay):
    """`hm_channel_matrices` as one scatter per subpath, in path order."""
    nm = n_doppler * n_delay
    main = np.zeros((nm, nm), dtype=complex)
    idi = np.zeros((nm, nm), dtype=complex)
    rows = np.arange(nm)
    bases = ch.gain * _tap_phase(ch.doppler, ch.kappa, ch.delay, n_doppler, n_delay)
    qs = np.arange(-ch.subpath_halfwidth, ch.subpath_halfwidth + 1)
    ratios = subpath_ratios(qs, ch.kappa[:, None], n_doppler)
    for doppler, delay, base, path_ratios in zip(ch.doppler, ch.delay, bases, ratios):
        for q, ratio in zip(qs, path_ratios):
            coeff = base * ratio
            if coeff == 0:
                continue
            cols = shift_columns(n_doppler, n_delay, doppler - q, delay)
            target = main if q == 0 else idi
            target[rows, cols] += coeff
    return main, idi, main + idi


def loop_lm_matrix(lm, user, n_doppler, n_delay):
    """`lm_channel_matrix` as one scatter per tap, in tap order."""
    nm = n_doppler * n_delay
    h = np.zeros((nm, nm), dtype=complex)
    for delay, gain in zip(lm.delay[user - 1], lm.gain[user - 1]):
        h[np.arange(nm), shift_columns(n_doppler, n_delay, 0, delay)] += gain
    return h


def assert_builders_agree(ch, n):
    # The builder scales the subpaths in one array product, the loop one
    # scalar product at a time; the two round apart by about one ulp.
    for got, want in zip(hm_channel_matrices(ch, n, n), loop_channel_matrices(ch, n, n)):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_dense_builder_matches_per_subpath_loop(n):
    cfg = SystemConfig(N=n, M=n, N_p=min(5, (n - 1) // 2), l_max=min(4, n - 1), U=min(8, n))
    rng = np.random.default_rng(330 + n)
    for _ in range(20):
        real = sample_hm_channel(cfg, rng)
        for ch in (real, without_fractional_doppler(real)):
            assert_builders_agree(ch, n)


def test_dense_builder_sums_coinciding_shifts():
    # Two paths on the same Doppler and delay taps: their q = 0 shifts,
    # and every leakage shift, land on the same entries.
    gain = np.array([0.6 + 0.2j, -0.3 + 0.5j])
    ch = HMChannelRealization([1, 1], [2, 2], [0.2, -0.3], gain, 2)
    assert_builders_agree(ch, 8)
    main = hm_channel_matrices(ch, 8, 8)[0]
    assert np.count_nonzero(main[0]) == 1


def test_lm_matrix_matches_per_tap_loop():
    # User 1's padding taps share delay 0 with its first tap.
    lm = LMChannels([[0, 3, 0, 0], [0, 1, 2, 5]], [[0.8 - 0.1j, 0.3j, 0, 0], [0.5, -0.5, 0.5j, 1]])
    sampled = sample_lm_channel(small_config(U=8), np.random.default_rng(340))
    for channels in (lm, sampled):
        for user in range(1, channels.gain.shape[0] + 1):
            got = lm_channel_matrix(channels, user, 8, 8)
            assert np.array_equal(got, loop_lm_matrix(channels, user, 8, 8))
