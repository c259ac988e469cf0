"""Haar-measure sampling for the unitary and orthogonal groups.

Samples are produced by QR-factoring a Ginibre matrix and rescaling the
columns by the phases (signs, in the real case) of the R diagonal.  The
rescaling matters: the raw QR of a Gaussian matrix is *not* Haar
distributed, because LAPACK's sign conventions bias the factor Q.

:func:`lie_basis` gives an orthonormal basis of the Lie algebra u(d) or
o(d), the one the commutant projection's Casimir sums over and its tests
check Brauer's identities on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _shape(d):
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    return d, d


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary matrix."""
    shape = _shape(d)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def haar_orthogonal(d: int, rng) -> np.ndarray:
    """Haar-random d x d real orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal(_shape(d)))
    return q * np.where(np.diagonal(r) >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class CompactGroupHandle:
    """Handle for U(d) or O(d); elements are the matrices themselves."""

    kind: str  # "unitary" | "orthogonal"
    dim: int

    def __post_init__(self):
        if self.kind not in ("unitary", "orthogonal"):
            raise ValueError(f"unknown compact group kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def sample(self, rng) -> np.ndarray:
        if self.kind == "unitary":
            return haar_unitary(self.dim, rng)
        return haar_orthogonal(self.dim, rng)

    def __repr__(self):
        return f"CompactGroupHandle({self.kind!r}, dim={self.dim})"


def lie_basis(handle: CompactGroupHandle) -> np.ndarray:
    """Frobenius-orthonormal basis of u(d) or o(d), as a (k, d, d) stack.

    The anti-Hermitian matrices (E_ab - E_ba)/sqrt(2) for a < b span o(d),
    k = d(d-1)/2; u(d) adds i(E_ab + E_ba)/sqrt(2) for a < b and i E_aa,
    k = d^2.
    """
    d = handle.dim
    a, b = np.triu_indices(d, 1)
    pairs = np.arange(len(a))
    real = handle.kind == "orthogonal"
    basis = np.zeros((len(a) if real else d * d, d, d), dtype=np.float64 if real else complex)
    basis[pairs, a, b] = 1 / math.sqrt(2.0)
    basis[pairs, b, a] = -1 / math.sqrt(2.0)
    if not real:
        basis[len(a) + pairs, a, b] = basis[len(a) + pairs, b, a] = 1j / math.sqrt(2.0)
        basis[2 * len(a) + np.arange(d), np.arange(d), np.arange(d)] = 1j
    return basis


def unitary_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("unitary", d)


def orthogonal_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("orthogonal", d)
