"""Haar-measure sampling for the unitary and orthogonal groups.

Samples are produced by QR-factoring a Ginibre matrix and rescaling the
columns by the phases (signs, in the real case) of the R diagonal.  The
rescaling matters: the raw QR of a Gaussian matrix is *not* Haar
distributed, because LAPACK's sign conventions bias the factor Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _shape(d, size):
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    return (d, d) if size is None else (size, d, d)


def haar_unitary(d: int, rng, size=None) -> np.ndarray:
    """Haar-random d x d unitary matrix, or a stack of ``size`` of them.

    A stack is QR-factored in one batched call.  It reads the random
    stream in another order than ``size`` separate draws, so its values
    differ from theirs, but not its distribution.
    """
    shape = _shape(d, size)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def haar_orthogonal(d: int, rng, size=None) -> np.ndarray:
    """Haar-random d x d real orthogonal matrix, or a stack of ``size`` of them."""
    shape = _shape(d, size)
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag >= 0, 1.0, -1.0)[..., None, :]


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


def unitary_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("unitary", d)


def orthogonal_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("orthogonal", d)
