"""Block-diagonalization of invariant semidefinite program data.

An invariant matrix X conjugated into the decomposition basis is
block-diagonal per isotypic component, and each component block is a
small multiplicity-sized matrix repeated along the irrep dimension.  The
functions here extract those small blocks from C and the constraint
matrices A_i of a problem (min <C, X> s.t. <A_i, X> = b_i, X >= 0), and
rebuild full matrices from blocks.  Positive semidefiniteness and the
weighted trace identity <A, X> = sum_i D_i <A_block_i, X_block_i> carry
the problem to the reduced form.

Real-field caveat: a symmetric invariant matrix restricted to a component
of complex or quaternionic type with multiplicity >= 2 is *not* of the
repeated-block form (the off-diagonal couplings carry an antisymmetric
part), and extraction reports it as residual.  Exploiting that finer
structure is deliberately out of scope; such data fails loudly instead of
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import ProjectionConfig, _check_tol, project_commutant
from .decompose import IrrepDecomposition
from .reps import Representation

_HERMITIAN_TOL = 1e-10
DEFAULT_INVARIANCE_TOL = 1e-6


class NotInvariantError(ValueError):
    """Input data does not commute with the representation (to tolerance)."""


def _check_hermitian(m, what):
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} has a non-finite entry")
    if np.array_equal(m, m.conj().T):  # bitwise Hermitian: the residual is 0
        return
    resid = np.linalg.norm(m - m.conj().T)
    scale = max(1.0, np.linalg.norm(m))
    if not resid <= _HERMITIAN_TOL * scale:  # NaN fails too
        raise ValueError(f"{what} is not Hermitian (residual {resid:.3e})")


@dataclass
class SdpProblem:
    """Data (C, {A_i}, b) of a semidefinite program in primal form."""

    c: np.ndarray
    a: list
    b: np.ndarray
    field: str = "complex"

    def __post_init__(self):
        self.c = np.asarray(self.c)
        self.a = [np.asarray(ai) for ai in self.a]
        self.b = np.asarray(self.b, dtype=float)
        if self.field not in ("real", "complex"):
            raise ValueError(f"unknown field {self.field!r}")
        n = self.c.shape[0]
        if self.c.shape != (n, n):
            raise ValueError("C must be square")
        _check_hermitian(self.c, "C")
        for i, ai in enumerate(self.a):
            if ai.shape != (n, n):
                raise ValueError(f"A_{i + 1} has shape {ai.shape}, expected {(n, n)}")
            _check_hermitian(ai, f"A_{i + 1}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b has a non-finite entry")
        if len(self.a) != len(self.b):
            raise ValueError(f"{len(self.a)} constraint matrices but {len(self.b)} b entries")

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return len(self.a)


@dataclass
class SdpBlockComponent:
    """Reduced data of one isotypic component: M x M blocks, weight D."""

    dimension: int
    multiplicity: int
    c_block: np.ndarray
    a_blocks: list
    residual: float = 0.0


@dataclass
class BlockDiagonalizedSdp:
    components: list
    b: np.ndarray
    basis: IrrepDecomposition
    field: str
    residual: float

    @property
    def block_sizes(self):
        return [c.multiplicity for c in self.components]


def symmetrize_matrix(rep: Representation, x, config: ProjectionConfig = None,
                      rng=None) -> np.ndarray:
    """Group average of a Hermitian matrix; a fixed point iff already invariant."""
    x = np.asarray(x)
    _check_hermitian(x, "matrix to symmetrize")
    return project_commutant(rep, x, config, rng).matrix


def _extract_blocks(decomp, x):
    """Blocks, per-component pattern residuals, and the total residual."""
    x = np.asarray(x)
    u = decomp.U
    xhat = u @ x @ u.conj().T
    scale = max(np.linalg.norm(x), np.finfo(float).tiny)

    blocks = []
    per_component = []
    fit = np.zeros_like(xhat)
    offset = 0
    for comp in decomp.components:
        d, m = comp.dimension, comp.multiplicity
        size = d * m
        sub = xhat[offset:offset + size, offset:offset + size]
        copies = sub.reshape(m, d, m, d)
        xi = np.trace(copies, axis1=1, axis2=3) / d
        xi = (xi + xi.conj().T) / 2
        blocks.append(xi)
        pattern = np.kron(xi, np.eye(d))
        fit[offset:offset + size, offset:offset + size] = pattern
        per_component.append(float(np.linalg.norm(sub - pattern)) / scale)
        offset += size

    total = float(np.linalg.norm(xhat - fit)) / scale
    return blocks, per_component, total


def block_diagonalize_matrix(decomp: IrrepDecomposition, x,
                             tol: float = DEFAULT_INVARIANCE_TOL):
    """Extract the per-component multiplicity blocks of an invariant matrix.

    Conjugates x into the decomposition basis and reads each block entry
    as the average over the irrep-dimension diagonal copies, which cancels
    independent numerical noise; the copy spread and everything outside the
    claimed pattern add up to the returned residual.

    Returns ``(blocks, residual)`` with the residual relative to ``|x|``;
    raises :class:`NotInvariantError` when the residual exceeds ``tol``.
    """
    _check_tol(tol, "tol")
    blocks, _, residual = _extract_blocks(decomp, x)
    if not residual <= tol:
        raise NotInvariantError(
            f"matrix does not fit the invariant block pattern: residual {residual:.3e} "
            f"above tolerance {tol:.1e}")
    return blocks, residual


def reconstruct(decomp: IrrepDecomposition, blocks) -> np.ndarray:
    """Rebuild the full invariant matrix from its multiplicity blocks."""
    if len(blocks) != len(decomp.components):
        raise ValueError(f"{len(blocks)} blocks for {len(decomp.components)} components")
    n = decomp.U.shape[0]
    xhat = np.zeros((n, n), dtype=decomp.U.dtype)
    offset = 0
    for comp, xi in zip(decomp.components, blocks):
        d, m = comp.dimension, comp.multiplicity
        xi = np.asarray(xi)
        if xi.shape != (m, m):
            raise ValueError(f"block shape {xi.shape} does not match multiplicity {m}")
        xhat[offset:offset + d * m, offset:offset + d * m] = np.kron(xi, np.eye(d))
        offset += d * m
    u = decomp.U
    out = u.conj().T @ xhat @ u
    return (out + out.conj().T) / 2


def block_diagonalize_sdp(decomp: IrrepDecomposition, prob: SdpProblem,
                          symmetrize_first: bool = False,
                          tol: float = DEFAULT_INVARIANCE_TOL,
                          config: ProjectionConfig = None, rng=None,
                          threads: int = 1) -> BlockDiagonalizedSdp:
    """Rewrite an invariant SDP into per-component multiplicity blocks.

    With ``symmetrize_first`` the data is group-averaged before
    extraction, so nearly-invariant input is repaired instead of rejected.
    ``threads`` accepts only 1: extraction is serial.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (extraction is serial), got {threads!r}")
    _check_tol(tol, "tol")
    if prob.n != decomp.U.shape[0]:
        raise ValueError(f"problem size {prob.n} does not match basis size {decomp.U.shape[0]}")
    mats = [prob.c] + list(prob.a)
    if symmetrize_first:
        if decomp.rep is None:
            raise ValueError("symmetrize_first needs a decomposition that kept its representation")
        mats = [symmetrize_matrix(decomp.rep, m, config, rng) for m in mats]
    results = [_extract_blocks(decomp, m) for m in mats]
    totals = [total for _, _, total in results]
    worst = float(np.max(totals))  # NaN propagates, where max() would drop it
    if not worst <= tol:
        bad = ["C"] + [f"A_{i + 1}" for i in range(prob.m)]
        which = bad[int(np.argmax(totals))]
        raise NotInvariantError(
            f"{which} does not fit the invariant block pattern: residual {worst:.3e} "
            f"above tolerance {tol:.1e}")

    c_blocks = results[0][0]
    a_blocks = [res[0] for res in results[1:]]
    components = []
    for ci, comp in enumerate(decomp.components):
        comp_resid = max(res[1][ci] for res in results)
        components.append(SdpBlockComponent(
            dimension=comp.dimension, multiplicity=comp.multiplicity,
            c_block=c_blocks[ci], a_blocks=[ab[ci] for ab in a_blocks],
            residual=comp_resid))
    return BlockDiagonalizedSdp(components=components, b=prob.b.copy(),
                                basis=decomp, field=prob.field, residual=worst)
