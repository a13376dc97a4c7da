"""Power allocation and rate assembly."""

import numpy as np
import pytest

from ddlink_sim.equalizer import LinkSnrs
from ddlink_sim.noma import (
    PowerAllocation,
    UserRates,
    ZeroGain,
    allocate_power,
    assemble_rates,
    spectral_efficiency,
)


# === power allocation ================================================


def test_equal_gains_split_evenly():
    alloc = allocate_power(0.5, np.array([1.0, 1.0]))
    assert np.allclose(alloc.shares, [0.5, 0.25, 0.25], atol=1e-15)


def test_weaker_user_gets_more_power():
    alloc = allocate_power(0.5, np.array([1.0, 2.0]))
    assert alloc.shares[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert alloc.shares[2] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_shares_sum_to_one():
    rng = np.random.default_rng(101)
    for _ in range(200):
        gains = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gains[np.abs(gains) < 1e-3] += 1.0
        alloc = allocate_power(float(rng.uniform(0.0, 1.0)), gains)
        assert abs(alloc.shares.sum() - 1.0) <= 1e-12
        assert np.all(alloc.shares >= 0.0) and np.all(alloc.shares <= 1.0)


def test_allocation_scale_invariant():
    rng = np.random.default_rng(102)
    gains = rng.standard_normal(5) + 1j * rng.standard_normal(5) + 2.0
    a = allocate_power(0.6, gains)
    b = allocate_power(0.6, 7.3 * gains)
    assert np.allclose(a.shares, b.shares, atol=1e-12)


def test_largest_gain_gets_smallest_share():
    alloc = allocate_power(0.4, np.array([0.5, 1.5, 3.0]))
    lm = alloc.shares[1:]
    assert lm[2] < lm[1] < lm[0]


def test_zero_gain_rejected():
    with pytest.raises(ZeroGain):
        allocate_power(0.5, np.array([1.0, 0.0]))


def test_share_out_of_range_rejected():
    with pytest.raises(ValueError, match="hm_share"):
        allocate_power(1.5, np.array([1.0]))
    with pytest.raises(ValueError, match="hm_share"):
        allocate_power(-0.1, np.array([1.0]))


def test_allocation_type_invariants():
    with pytest.raises(ValueError):
        PowerAllocation(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        PowerAllocation(np.array([1.2, -0.2]))


# === spectral efficiency =============================================


def test_spectral_efficiency_values():
    assert spectral_efficiency(0.0) == 0.0
    assert spectral_efficiency(1.0) == pytest.approx(1.0, abs=1e-15)
    assert spectral_efficiency(3.0) == pytest.approx(2.0, abs=1e-15)


def test_spectral_efficiency_rejects_negative():
    with pytest.raises(ValueError, match="snr"):
        spectral_efficiency(-0.5)


def test_spectral_efficiency_monotone_concave():
    grid = np.linspace(0.0, 30.0, 301)
    se = np.array([spectral_efficiency(g) for g in grid])
    diffs = np.diff(se)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) < 0.0)


# === rate assembly ===================================================


def test_assemble_zero_snrs():
    snrs = LinkSnrs(0.0, np.zeros(3), np.zeros(3))
    rates = assemble_rates(snrs)
    assert rates.se_hm == 0.0
    assert np.all(rates.se_hm_at_lm == 0.0)
    assert np.all(rates.se_lm == 0.0)
    assert rates.se_lm_min == 0.0


def test_assemble_single_user_takes_weaker_stage():
    snrs = LinkSnrs(1.0, np.array([3.0]), np.array([1.0]))
    rates = assemble_rates(snrs)
    assert rates.se_lm_min == pytest.approx(1.0, abs=1e-15)
    snrs = LinkSnrs(1.0, np.array([0.5]), np.array([7.0]))
    rates = assemble_rates(snrs)
    assert rates.se_lm_min == pytest.approx(spectral_efficiency(0.5), abs=1e-15)


def test_assemble_min_bounds_every_stage():
    rng = np.random.default_rng(131)
    for _ in range(100):
        snrs = LinkSnrs(
            float(rng.uniform(0, 10)),
            rng.uniform(0, 10, size=4),
            rng.uniform(0, 10, size=4),
        )
        rates = assemble_rates(snrs)
        assert isinstance(rates, UserRates)
        for j in range(4):
            assert rates.se_lm_min <= rates.se_hm_at_lm[j] + 1e-15
            assert rates.se_lm_min <= rates.se_lm[j] + 1e-15


def test_assemble_without_hm_stage_ignores_it():
    snrs = LinkSnrs(1.0, np.array([0.1, 0.2]), np.array([3.0, 7.0]))
    rates = assemble_rates(snrs, include_hm_stage=False)
    assert rates.se_lm_min == pytest.approx(2.0, abs=1e-15)
