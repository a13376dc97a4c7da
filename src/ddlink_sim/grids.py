"""Kronecker DFT basis of the delay-Doppler vector layout.

A frame of symbols on the delay-Doppler grid (N Doppler rows, M delay
columns) is stacked column by column, so entry k + N*l holds cell
(k, l) and each delay column is one contiguous block.  Under that layout
every twisted-convolution channel matrix is block circulant and is
diagonalized by the basis returned by `build_basis`; `diagonalize_bccb`
is the dense reference the fast spectra are checked against.
"""

from dataclasses import dataclass

import numpy as np

# Off-diagonal mass above this fraction of the diagonal peak means the
# matrix is not block circulant under the layout.
BCCB_RTOL = 1e-9


class NotBlockCirculant(ValueError):
    """Raised when a matrix fails the block-circulant diagonalization test."""


@dataclass(frozen=True)
class SpectralBasis:
    """Unitary Kronecker DFT basis for the k + N*l vector layout."""

    n_doppler: int
    n_delay: int
    psi: np.ndarray


# === block-circulant diagonalization =================================


def _unitary_dft(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def build_basis(n_doppler: int, n_delay: int) -> SpectralBasis:
    """Build the unitary basis that diagonalizes block-circulant matrices.

    The delay-domain DFT factor sits outermost so that column j = k + N*l
    of the basis sees the N-point Doppler factor inside each length-N
    delay block, matching the k + N*l layout.  Spectral index
    i = m_del*N + m_dopp pairs delay frequency m_del with Doppler
    frequency m_dopp.
    """
    psi = np.kron(_unitary_dft(n_delay), _unitary_dft(n_doppler))
    return SpectralBasis(n_doppler, n_delay, psi)


def diagonalize_bccb(h: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Return the eigenvalues of a block-circulant matrix.

    Computes psi @ h @ psi^H and checks that the off-diagonal residual is
    below BCCB_RTOL relative to the largest diagonal entry; raises
    NotBlockCirculant otherwise.  The returned eigenvalue order follows
    the spectral index i = m_del*N + m_dopp.
    """
    h = np.asarray(h, dtype=complex)
    nm = basis.n_doppler * basis.n_delay
    if h.shape != (nm, nm):
        raise ValueError(f"matrix shape {h.shape} does not match basis size {nm}")
    transformed = basis.psi @ h @ basis.psi.conj().T
    diag = np.diagonal(transformed).copy()
    off = transformed - np.diag(diag)
    residual = float(np.abs(off).max())
    scale = float(np.abs(diag).max())
    if residual > BCCB_RTOL * scale:
        raise NotBlockCirculant(
            f"off-diagonal residual {residual:.3e} exceeds "
            f"{BCCB_RTOL:.1e} * diagonal peak {scale:.3e}"
        )
    return diag
