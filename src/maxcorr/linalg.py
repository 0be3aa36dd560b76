"""Dense linear algebra helpers for bipartite operators.

All matrices are numpy complex128 arrays in C (row-major) order. A bipartite
operator on dimensions (d_a, d_b) is a (d_a*d_b) x (d_a*d_b) matrix whose
composite index packs the A index first: row i*d_b + j corresponds to the
basis vector |i>_A |j>_B. The bipartite helpers also take a (k, n, n) stack.

support_cut alone decides which eigenvalues span a support, and psd_floor alone
which lie below zero beyond rounding, each on a spectrum in either sort order.
from_eig(pinv_sqrt_weights(w), v) is the pseudo-inverse square root of a checked
matrix (psd_pinv_sqrt, and correlation's per-state path). It sums in numpy's
ascending eigenvalue order, so the search's kernels, pinv_sqrt_stack and mu_stack,
keep eigh's order and skip the checks with the same bits: pinv_sqrt_stack equals
psd_pinv_sqrt, and mu_stack equals correlation.mu_schmidt, to the last bit.
partial_trace, realign and psd_pinv_sqrt stay as the checked references that the
tests pin those kernels to.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .defaults import HERMITICITY_TOL, PSD_TOL, RANK_TOL
from .errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
)


def _check_bipartite(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if d_a < 1 or d_b < 1:
        raise DimensionMismatchError(f"dimensions must be positive, got ({d_a}, {d_b})")
    if m.shape[-1] != d_a * d_b:
        raise DimensionMismatchError(
            f"matrix of size {m.shape[-1]} does not factor as {d_a} x {d_b}"
        )
    return m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))


@lru_cache(maxsize=16)
def eye(d: int) -> np.ndarray:
    """The d x d identity, built once per d and read-only so that callers share it."""
    out = np.eye(d)
    out.flags.writeable = False
    return out


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of one matrix or of each matrix in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def hermitian_eig(m: np.ndarray):
    """Eigendecomposition of a hermitian matrix.

    Returns (w, v): eigenvalues descending and eigenvectors in the matching columns,
    reversed views of eigh's output. Deviations from the adjoint beyond HERMITICITY_TOL
    raise NotHermitianError. Below it the input is symmetrized; an exactly hermitian one
    is passed as is, since eigh reads no imaginary part off the diagonal.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    adj = m.conj().T
    dev = np.abs(m - adj).max() if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix deviates from its adjoint by {dev:.3e}")
    w, v = np.linalg.eigh(m if dev == 0.0 else (m + adj) / 2.0)
    return w[::-1], v[:, ::-1]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, descending."""
    return np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)


def psd_floor(w: np.ndarray) -> float:
    """-PSD_TOL * max(1, largest) of a spectrum sorted either way; -PSD_TOL if that is inf, so that inf fails."""
    top = max(float(w[0]), float(w[-1]), 1.0)
    return -PSD_TOL * top if top < np.inf else -PSD_TOL


def check_psd(w: np.ndarray, traced_out: int = 1) -> None:
    """Reject a descending spectrum below traced_out * psd_floor(w) < 0; a marginal sums traced_out compressions."""
    if w.size and w[-1] < 0.0 and w[-1] < traced_out * psd_floor(w):
        raise NegativeEigenvalueError(f"eigenvalue {w[-1]:.3e} below zero")


def support_cut(w: np.ndarray) -> np.ndarray:
    """Eigenvalues above this bound span the support: RANK_TOL times the largest.

    w is sorted along its last axis, either way; the bound has shape (..., 1), one per
    spectrum, and is empty for an empty spectrum.
    """
    return RANK_TOL * np.maximum(w[..., :1], w[..., -1:])


def sqrt_from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian square root from an eigendecomposition (w, v) given by hermitian_eig."""
    return hermitian_part((v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T)


def pinv_sqrt_weights(w: np.ndarray) -> np.ndarray:
    """1/sqrt(w) above support_cut, 0 below: nonzero exactly on the support, so its count is the rank."""
    return np.where(w > support_cut(w), 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)


def from_eig(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i f_i v_i v_i^dag for hermitian_eig's descending eigenvectors v (or a stack of them).

    The terms are summed in ascending eigenvalue order, as numpy's eigh returns
    them, and the sum is not symmetrized, so the search's hot loop
    (pinv_sqrt_stack) pays for neither and every caller gets the same bits.
    """
    v = v[..., ::-1]
    return (v * f[..., None, ::-1]) @ v.conj().swapaxes(-1, -2)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix."""
    w, v = hermitian_eig(m)
    check_psd(w)
    return sqrt_from_eig(w, v)


def psd_pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a positive semidefinite matrix (see pinv_sqrt_weights).

    The checked one-matrix reference that pinv_sqrt_stack is tested against.
    """
    w, v = hermitian_eig(m)
    check_psd(w)
    return from_eig(pinv_sqrt_weights(w), v)


def _trace_out(m4: np.ndarray, side: str) -> np.ndarray:
    """partial_trace on an unchecked (..., d_a, d_b, d_a, d_b) view."""
    if side == "A":
        return np.einsum("...ijik->...jk", m4)
    if side == "B":
        return np.einsum("...ijkj->...ik", m4)
    raise DimensionMismatchError(f"side must be 'A' or 'B', got {side!r}")


def partial_trace(m: np.ndarray, d_a: int, d_b: int, side: str) -> np.ndarray:
    """Trace out the named subsystem, returning the other side's operator (per matrix of a stack)."""
    return _trace_out(_check_bipartite(m, d_a, d_b), side)


def partial_transpose(m: np.ndarray, d_a: int, d_b: int, side: str) -> np.ndarray:
    """Transpose the named subsystem, leaving the other untouched (per matrix of a stack)."""
    m4 = _check_bipartite(m, d_a, d_b)
    if side not in ("A", "B"):
        raise DimensionMismatchError(f"side must be 'A' or 'B', got {side!r}")
    out = m4.swapaxes(-4, -2) if side == "A" else m4.swapaxes(-3, -1)
    return out.reshape(m4.shape[:-4] + (d_a * d_b, d_a * d_b)).copy()


def realign(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Realign a bipartite operator so operator Schmidt structure becomes an SVD.

    The output R has shape (d_a^2, d_b^2) with
    R[i*d_a + i', j*d_b + j'] = m[i*d_b + j, i'*d_b + j'], so a product term
    A (x) B realigns to the rank-one outer product vec(A) vec(B)^T and the
    singular values of R are the operator Schmidt coefficients of m under the
    Hilbert-Schmidt inner product. A (k, n, n) stack realigns matrix by matrix.
    """
    m4 = _check_bipartite(m, d_a, d_b)
    return m4.swapaxes(-3, -2).reshape(m4.shape[:-4] + (d_a * d_a, d_b * d_b)).copy()


def normalized_form(rho: np.ndarray, inv_a: np.ndarray, inv_b: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """(1 (x) inv_b) rho (inv_a (x) 1) for an (n, n) rho or a (k, n, n) stack, Kronecker factors by broadcasting."""
    left = eye(d_a)[:, None, :, None] * inv_b[..., None, :, None, :]
    right = inv_a[..., :, None, :, None] * eye(d_b)[:, None, :]
    return left.reshape(rho.shape) @ rho @ right.reshape(rho.shape)


def pinv_sqrt_stack(ms: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square roots of a (k, n, n) stack in one batched eigh.

    psd_pinv_sqrt's arithmetic per matrix in eigh's ascending order, unchecked
    (the inputs must be hermitian positive semidefinite by construction): the
    weights are pinv_sqrt_weights' and the sum is from_eig's. Each result equals
    psd_pinv_sqrt's bit for bit.
    """
    w, v = np.linalg.eigh(hermitian_part(ms))
    return (v * pinv_sqrt_weights(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def mu_stack(rhos: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Maximal correlation of every state in a (k, n, n) stack, n = d_a * d_b.

    Each value is the second singular value of the realigned normalized form
    (1 (x) rho_B^{-1/2}) rho (rho_A^{-1/2} (x) 1), or 0 if there is only one.
    Both marginals come off one checked (k, d_a, d_b, d_a, d_b) view, and the
    normalized form is mu_schmidt's own, realigned by reshape, so each value
    equals mu_schmidt's bit for bit. One batched eigh per marginal stack (one
    for both when d_a == d_b) and one batched SVD; the states are not validated.
    """
    r4 = _check_bipartite(rhos, d_a, d_b)
    k, n = len(r4), d_a * d_b
    ma, mb = _trace_out(r4, "B"), _trace_out(r4, "A")
    if d_a == d_b:
        both = pinv_sqrt_stack(np.concatenate([ma, mb]))
        pa, pb = both[:k], both[k:]
    else:
        pa, pb = pinv_sqrt_stack(ma), pinv_sqrt_stack(mb)
    tilde = normalized_form(r4.reshape(k, n, n), pa, pb, d_a, d_b)
    realigned = tilde.reshape(k, d_a, d_b, d_a, d_b).swapaxes(2, 3).reshape(k, d_a * d_a, d_b * d_b)
    s = np.linalg.svd(realigned, compute_uv=False)
    return s[:, 1] if s.shape[1] > 1 else np.zeros(k)
