"""Spectral basis and block-circulant diagonalization."""

import numpy as np
import pytest

from ddlink_sim.validation import NotBlockCirculant, build_basis, diagonalize_bccb


def shift_matrix(n, m, doppler_shift, delay_shift):
    """Dense cyclic-shift operator under the k + N*l vector layout."""
    nm = n * m
    h = np.zeros((nm, nm))
    for k in range(n):
        for ell in range(m):
            src = k + n * ell
            dst = (k + doppler_shift) % n + n * ((ell + delay_shift) % m)
            h[dst, src] = 1.0
    return h


# === spectral basis ==================================================


def random_shift_sum(rng, n, m):
    """Five cyclic shifts with complex Gaussian weights."""
    h = np.zeros((n * m, n * m), dtype=complex)
    for _ in range(5):
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        h += coeff * shift_matrix(n, m, int(rng.integers(0, n)), int(rng.integers(0, m)))
    return h


def dense_diagonal(h, basis):
    """The dense sandwich psi @ h @ psi^H on the Kronecker product."""
    psi = np.kron(*basis)
    return np.diagonal(psi @ h @ psi.conj().T)


def test_basis_trivial_size():
    basis = np.kron(*build_basis(1, 1))
    assert basis.shape == (1, 1)
    assert abs(basis[0, 0] - 1.0) < 1e-15


def test_basis_is_unitary():
    for n, m in ((2, 2), (4, 3), (8, 8), (16, 16)):
        basis = np.kron(*build_basis(n, m))
        gram = basis @ basis.conj().T
        assert np.abs(gram - np.eye(n * m)).max() < 1e-10


@pytest.mark.parametrize("n, m", [(4, 3), (8, 4), (16, 16)])
def test_factored_diagonalizer_matches_dense_sandwich(n, m):
    rng = np.random.default_rng(47 + n + m)
    basis = build_basis(n, m)
    for _ in range(3):
        h = random_shift_sum(rng, n, m)
        want = dense_diagonal(h, basis)
        got = diagonalize_bccb(h, basis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, m", [(4, 3), (8, 4)])
def test_diagonalize_rejects_one_perturbed_entry(n, m):
    rng = np.random.default_rng(53 + n + m)
    basis = build_basis(n, m)
    h = random_shift_sum(rng, n, m)
    diagonalize_bccb(h, basis)
    row, col = np.argwhere(h == 0)[0]
    h[row, col] = 1e-6 * np.abs(h).max()
    with pytest.raises(NotBlockCirculant):
        diagonalize_bccb(h, basis)


def test_doppler_shift_diagonalizes_to_roots_of_unity():
    n, m = 4, 3
    basis = build_basis(n, m)
    h = shift_matrix(n, m, 1, 0)
    lam = diagonalize_bccb(h, basis)
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-10
    fourth_roots = np.exp(-2j * np.pi * np.arange(4) / 4)
    for value in lam:
        assert np.abs(fourth_roots - value).min() < 1e-10


def test_shift_eigenvalues_match_analytic_form():
    # Eigenvalue of the (doppler_shift, delay_shift) cyclic operator at
    # spectral index i = m_delay * N + m_doppler.
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.choice((2, 4, 8)))
        m = int(rng.choice((2, 3, 8)))
        dk = int(rng.integers(0, n))
        dl = int(rng.integers(0, m))
        basis = build_basis(n, m)
        lam = diagonalize_bccb(shift_matrix(n, m, dk, dl), basis)
        m_delay, m_doppler = np.divmod(np.arange(n * m), n)
        expected = np.exp(-2j * np.pi * (m_delay * dl / m + m_doppler * dk / n))
        assert np.abs(lam - expected).max() < 1e-10


def test_diagonalize_identity_and_zero():
    basis = build_basis(4, 4)
    assert np.abs(diagonalize_bccb(np.eye(16, dtype=complex), basis) - 1.0).max() < 1e-12
    assert np.abs(diagonalize_bccb(np.zeros((16, 16), dtype=complex), basis)).max() == 0.0


def test_diagonalize_rejects_non_block_circulant():
    rng = np.random.default_rng(41)
    basis = build_basis(4, 4)
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    with pytest.raises(NotBlockCirculant):
        diagonalize_bccb(h, basis)


def test_random_shift_combination_is_block_circulant():
    rng = np.random.default_rng(43)
    n, m = 8, 4
    basis = build_basis(n, m)
    h = random_shift_sum(rng, n, m)
    lam = diagonalize_bccb(h, basis)
    assert lam.shape == (n * m,)

