"""Haar-measure sampling for the unitary and orthogonal groups.

Samples are produced by QR-factoring a Ginibre matrix and rescaling the
columns by the phases (signs, in the real case) of the R diagonal.  The
rescaling matters: the raw QR of a Gaussian matrix is *not* Haar
distributed, because LAPACK's sign conventions bias the factor Q.

Samples serve ``repblock sample-group``.  :func:`lie_generators` gives a
few elements that generate the Lie algebra u(d) or o(d): verification
checks their derived images.
"""

from __future__ import annotations

import itertools
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


def lie_generators(handle: CompactGroupHandle) -> list:
    """Elements that generate u(d) or o(d) as a real Lie algebra L.

    u(d): H = i diag(h), h_a = 2pa + (a^2 mod p) + 1 (a < d, p the least
    prime >= max(d, 2)), and X = i (J - I), J all ones.  The h_a - 1 lie in
    the Erdos-Turan Sidon set, so the h_a - h_b, a != b, are distinct, and
    tr H > 0.  ad_H^k X = i sum_{a != b} (i (h_a - h_b))^k E_ab, so by
    Vandermonde every E_ab, a != b, lies in L + iL, and so do
    [E_ab, E_ba] = E_aa - E_bb and H: L + iL = gl(d, C), so L = u(d).
    o(d): the adjacent rotations L_{a,a+1}, L_ab = E_ab - E_ba, since
    [L_ab, L_bc] = L_ac (Hall, *Lie Groups, Lie Algebras, and
    Representations*, 2015, ch. 3).
    """
    d = handle.dim
    eye = np.eye(d)
    if handle.kind == "orthogonal":
        return [np.outer(eye[a], eye[a + 1]) - np.outer(eye[a + 1], eye[a]) for a in range(d - 1)]
    p = next(q for q in itertools.count(max(d, 2))
             if all(q % k for k in range(2, math.isqrt(q) + 1)))
    a = np.arange(d)
    return [1j * np.diag(2.0 * p * a + a * a % p + 1), 1j * (1 - eye)]


def unitary_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("unitary", d)


def orthogonal_group(d: int) -> CompactGroupHandle:
    return CompactGroupHandle("orthogonal", d)
