"""Power allocation between the HM user and the LM users, and the
per-user limiting rate of the two LM-side stages."""

import numpy as np
import pytest

from ddlink_sim.config import SystemConfig
from ddlink_sim.noma import ZeroGain, allocate_power, assemble_rates
from ddlink_sim.simkit import draw_trial, run_trial


# === power allocation ================================================


def test_equal_gains_split_evenly():
    shares = allocate_power(0.5, np.array([1.0, 1.0]))
    assert np.allclose(shares, [0.5, 0.25, 0.25], atol=1e-15)


def test_weaker_user_gets_more_power():
    shares = allocate_power(0.5, np.array([1.0, 2.0]))
    assert shares[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert shares[2] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_shares_sum_to_one():
    rng = np.random.default_rng(101)
    for _ in range(200):
        gains = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gains[np.abs(gains) < 1e-3] += 1.0
        shares = allocate_power(float(rng.uniform(0.0, 1.0)), gains)
        assert abs(shares.sum() - 1.0) <= 1e-12
        assert np.all(shares >= 0.0) and np.all(shares <= 1.0)


def test_allocation_scale_invariant():
    rng = np.random.default_rng(102)
    gains = rng.standard_normal(5) + 1j * rng.standard_normal(5) + 2.0
    a = allocate_power(0.6, gains)
    b = allocate_power(0.6, 7.3 * gains)
    assert np.allclose(a, b, atol=1e-12)


def test_largest_gain_gets_smallest_share():
    shares = allocate_power(0.4, np.array([0.5, 1.5, 3.0]))
    lm = shares[1:]
    assert lm[2] < lm[1] < lm[0]


def test_zero_gain_rejected():
    with pytest.raises(ZeroGain):
        allocate_power(0.5, np.array([1.0, 0.0]))


def test_allocation_type_invariants():
    shares = allocate_power(0.3, np.array([1.0, 2.0j, -0.5]))
    assert isinstance(shares, np.ndarray) and shares.dtype == np.float64
    assert shares.shape == (4,)
    assert shares[0] == 0.3
    assert np.all(allocate_power(1.0, np.array([1.0, 2.0]))[1:] == 0.0)
    assert allocate_power(0.0, np.array([1.0, 2.0]))[1:].sum() == pytest.approx(1.0, abs=1e-15)


def test_share_out_of_range_rejected():
    with pytest.raises(ValueError, match="hm_share"):
        allocate_power(1.5, np.array([1.0]))
    with pytest.raises(ValueError, match="hm_share"):
        allocate_power(-0.1, np.array([1.0]))


# === rate assembly ===================================================
# Each LM user's limiting rate is the weaker of its two stages (the
# HM-at-LM detection and its own detection).


def test_assemble_zero_snrs():
    assert np.all(assemble_rates(np.zeros(3), np.zeros(3)) == 0.0)


def test_assemble_without_hm_stage_ignores_it():
    rates = assemble_rates(np.array([0.1, 0.2]), np.array([3.0, 7.0]), include_hm_stage=False)
    assert rates[4] == pytest.approx(2.0, abs=1e-15)
    assert rates[3] == pytest.approx(2.0, abs=1e-15)
    assert rates[2] == pytest.approx(2.5, abs=1e-15)
    assert assemble_rates(np.array([0.1, 0.2]), np.array([3.0, 7.0]))[4] == rates[1]


def test_assemble_equals_per_stage_form_bitwise():
    # One log2 over both stages and plain means give the bits of the
    # per-stage form.
    rng = np.random.default_rng(34)
    for n_users in (1, 3, 8, 16):
        hm_at_lm, lm = rng.exponential(10.0, (2, n_users))
        se_hm_at_lm, se_lm = np.log2(1.0 + hm_at_lm), np.log2(1.0 + lm)
        for include in (True, False):
            per_user = np.minimum(se_hm_at_lm, se_lm) if include else se_lm
            want = [se_hm_at_lm.mean(), se_hm_at_lm.min(), se_lm.mean(), se_lm.min()]
            assert np.array_equal(assemble_rates(hm_at_lm, lm, include), [*want, per_user.min()])


def small_config(**changes):
    base = dict(N=8, M=8, N_p=3, l_max=4, L_0=4, U=4)
    base.update(changes)
    return SystemConfig(**base)


def test_assemble_single_user_takes_weaker_stage():
    cfg = small_config(U=1, p0=0.8)
    weaker = set()
    for seed in range(40):
        row = run_trial(cfg, 10.0, draw_trial(cfg, seed))
        _, _, hm_at_lm_mean, hm_at_lm_min, lm_mean, lm_min, worst = row
        assert hm_at_lm_mean == hm_at_lm_min
        assert lm_mean == lm_min
        assert worst == min(hm_at_lm_min, lm_min)
        weaker.add(bool(hm_at_lm_min < lm_min))
    # Both stages are the weaker one in some draw, so each branch is hit.
    assert weaker == {True, False}


def test_assemble_min_bounds_every_stage():
    # The worst user's limiting rate is the weaker stage per user, so
    # its minimum over users is the smaller of the two stage minima.
    for u, seed in ((4, 4), (8, 5)):
        for rho_t_db in (0.0, 10.0, 30.0):
            cfg = small_config(U=u)
            _, _, _, hm_at_lm_min, _, lm_min, worst = run_trial(cfg, rho_t_db, draw_trial(cfg, seed))
            assert worst <= hm_at_lm_min
            assert worst <= lm_min
            assert worst == min(hm_at_lm_min, lm_min)
