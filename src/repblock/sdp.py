"""Block-diagonalization of invariant semidefinite program data.

An invariant matrix conjugated into the decomposition basis is
block-diagonal per isotypic component, and each component block is a
small multiplicity-sized matrix repeated along the irrep dimension.  The
functions here extract those small blocks from C and the constraint
matrices A_i of a problem (min <C, X> s.t. <A_i, X> = b_i, X >= 0), and
rebuild full matrices from blocks.  Positive semidefiniteness and the
weighted trace identity <A, X> = sum_i D_i <A_block_i, X_block_i> carry
the problem to the reduced form.

Two extractions give the same blocks.  When the representation permutes
its basis (it has an index action) and the components' M_i^2 add up to
the number r of orbitals, an invariant matrix is X = sum_c x_c A_c over
the 0/1 orbital indicators A_c, and its blocks are linear in the orbital
means x.  If also r <= n, so that the block map T (r x sum M_i^2 = r x r)
is no larger than one data matrix, :func:`block_diagonalize_sdp` reads
each data matrix once, by one bincount, and multiplies its means by T,
built once from one representative pair per orbital.  Two gates check
this path:

* invariance: without ``symmetrize_first`` each matrix must lie within
  ``tol`` of its orbital means, |X - x[ids]| <= tol |X|; with it, the
  means are the group average and are used as they are (the blocks are
  made Hermitian, which is the same as making the average Hermitian);
* one dense check: the combination z = sum_k g_k x_k / |X_k| of the data,
  with Gaussian weights g from a fixed seed, goes through the dense
  conjugation below, and must fit the block pattern and agree with the
  blocks T gives, both to ``tol`` relative to min(|z|, 1).  This catches
  a basis that does not block the data and checks T against the basis.
  The expected square of z's pattern residual is the sum of the squared
  per-matrix ones, and for a single matrix the gate is at least as strict
  as the dense one; a defect confined to matrix k is caught once it
  exceeds tol / |g_k|.

Everything else (compact groups, matrix images, complex or quaternionic
components over R, where sum M_i^2 < r, and more orbitals than points,
as for small or intransitive groups) conjugates each matrix by the basis,
U X U^dag, after group-averaging it when asked.

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

from .commutant import ProjectionConfig, _check_tol, orbital_means, project_commutant
from .decompose import IrrepDecomposition
from .reps import Representation

_HERMITIAN_TOL = 1e-10
DEFAULT_INVARIANCE_TOL = 1e-6
#: Seed of the orbital path's dense check, fixed so that the output does not
#: depend on the caller's random stream.
_CHECK_SEED = 20_191_109


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
    extraction: str = ""  # which extraction ran, and over how many orbitals or products

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


def _orbital_path_applies(decomp) -> bool:
    """Whether the blocks are linear in the orbital means (sum M_i^2 = r)
    and the block map T, r x r, is no larger than one data matrix (r <= n)."""
    rep = decomp.rep
    if rep is None or rep.index_action is None:
        return False
    r = len(rep.index_action.orbitals()[1])
    return r <= rep.dim and sum(c.multiplicity ** 2 for c in decomp.components) == r


def _block_map(decomp, k, l, counts):
    """T (r x sum M_i^2): the blocks of X = sum_c x_c A_c are x @ T.

    T[c, (i, p, q)] = |c| / D_i sum_d U[(i,p,d), k_c] conj(U[(i,q,d), l_c])
    for the representative pair (k_c, l_c) of orbital c.  The sum over d is
    one entry of U_{i,q}^dag U_{i,p}, which commutes with the representation
    and is therefore constant on every orbital, so one pair stands for all
    |c| of them.
    """
    u = decomp.U
    n = u.shape[0]
    cols = []
    offset = 0
    for comp in decomp.components:
        d, m = comp.dimension, comp.multiplicity
        rows = u[offset:offset + d * m].reshape(m, d, n)
        pairs = rows[:, :, k].transpose(2, 0, 1) @ rows[:, :, l].conj().transpose(2, 1, 0)
        cols.append(pairs.reshape(len(counts), m * m) * (counts / d)[:, None])
        offset += d * m
    return np.hstack(cols)


def _split_blocks(decomp, flat):
    """Hermitian M x M blocks from the rows of coords @ T."""
    blocks = []
    offset = 0
    for comp in decomp.components:
        m = comp.multiplicity
        xi = flat[..., offset:offset + m * m].reshape(flat.shape[:-1] + (m, m))
        blocks.append((xi + np.swapaxes(xi, -1, -2).conj()) / 2)
        offset += m * m
    return blocks


def _gate_residuals(residuals, names, tol):
    worst = float(np.max(residuals))  # NaN propagates, where max() would drop it
    if not worst <= tol:
        raise NotInvariantError(
            f"{names[int(np.argmax(residuals))]} does not fit the invariant block pattern: "
            f"residual {worst:.3e} above tolerance {tol:.1e}")
    return worst


def _orbital_blocks(decomp, mats, names, symmetrize_first, tol):
    """Blocks of every matrix from its orbital means; see the module docstring."""
    ids, counts = decomp.rep.index_action.orbitals()
    n = decomp.U.shape[0]
    # orbitals are numbered in order of their first pair, so the running
    # maximum of the labels first reaches c at the first pair of orbital c
    k, l = np.divmod(np.searchsorted(np.maximum.accumulate(ids), np.arange(len(counts))), n)
    coords, norms, invariance = [], [], []
    for x in mats:
        flat = np.asarray(x).reshape(-1)
        means = orbital_means(decomp.rep, flat)
        if not symmetrize_first:
            invariance.append(float(np.linalg.norm(flat - means[ids])))
        coords.append(means)
        norms.append(float(np.linalg.norm(flat)))
    coords = np.array(coords)
    norms = np.where(np.array(norms) > 0, norms, 1.0)  # a zero matrix: zero means, zero residual
    worst = 0.0
    if symmetrize_first:
        bad = ~np.all(np.isfinite(coords), axis=1)  # a non-finite entry spoils its mean
        if bad.any():
            raise ValueError(f"{names[int(np.argmax(bad))]} has a non-finite entry")
    else:
        worst = _gate_residuals(np.array(invariance) / norms, names, tol)

    t = _block_map(decomp, k, l, counts)
    # one seeded combination z of the data through the dense conjugation
    g = np.random.default_rng(_CHECK_SEED).standard_normal(len(mats))
    z = g @ (coords / norms[:, None])
    zmat = z[ids].reshape(n, n)
    dense, per_component, pattern = _extract_blocks(decomp, zmat)
    # z's residuals are taken relative to min(|z|, 1): absolute once |z| >= 1,
    # where the expected square of its pattern residual is the sum of the
    # squared per-matrix ones, and relative below, as for a single matrix
    z_norm = max(float(np.linalg.norm(zmat)), np.finfo(float).tiny)  # _extract_blocks' scale
    unit = min(z_norm, 1.0)  # NaN stays NaN
    pattern *= z_norm / unit
    per_component = [res * z_norm / unit for res in per_component]
    mismatch = float(np.sqrt(sum(
        comp.dimension * np.linalg.norm(a - b) ** 2
        for comp, a, b in zip(decomp.components, dense, _split_blocks(decomp, z @ t))))) / unit
    if not pattern <= tol:  # NaN fails too
        raise NotInvariantError(
            f"the data do not fit the basis's block pattern: residual {pattern:.3e} "
            f"of a seeded combination above tolerance {tol:.1e}")
    if not mismatch <= tol:
        raise NotInvariantError(
            f"the orbital block map disagrees with the basis by {mismatch:.3e}, "
            f"above tolerance {tol:.1e}")
    per_matrix = _split_blocks(decomp, coords @ t)
    blocks = [[b[j] for b in per_matrix] for j in range(len(mats))]
    return blocks, per_component, max(worst, pattern, mismatch)


def _dense_blocks(decomp, mats, names, tol):
    results = [_extract_blocks(decomp, m) for m in mats]
    worst = _gate_residuals([total for _, _, total in results], names, tol)
    per_component = [max(res[1][ci] for res in results)
                     for ci in range(len(decomp.components))]
    return [res[0] for res in results], per_component, worst


def block_diagonalize_sdp(decomp: IrrepDecomposition, prob: SdpProblem,
                          symmetrize_first: bool = False,
                          tol: float = DEFAULT_INVARIANCE_TOL,
                          config: ProjectionConfig = None, rng=None,
                          threads: int = 1) -> BlockDiagonalizedSdp:
    """Rewrite an invariant SDP into per-component multiplicity blocks.

    With ``symmetrize_first`` the data is group-averaged before
    extraction, so nearly-invariant input is repaired instead of rejected.
    The module docstring describes the two extractions and when each runs;
    ``config`` and ``rng`` serve only the dense one's group average.
    ``threads`` accepts only 1: extraction is serial.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (extraction is serial), got {threads!r}")
    _check_tol(tol, "tol")
    if prob.n != decomp.U.shape[0]:
        raise ValueError(f"problem size {prob.n} does not match basis size {decomp.U.shape[0]}")
    if symmetrize_first and decomp.rep is None:
        raise ValueError("symmetrize_first needs a decomposition that kept its representation")
    mats = [prob.c] + list(prob.a)
    names = ["C"] + [f"A_{i + 1}" for i in range(prob.m)]
    if _orbital_path_applies(decomp):
        blocks, per_component, worst = _orbital_blocks(decomp, mats, names,
                                                        symmetrize_first, tol)
        extraction = f"orbital coordinates, {len(decomp.rep.index_action.orbitals()[1])} orbitals"
    else:
        if symmetrize_first:
            mats = [symmetrize_matrix(decomp.rep, m, config, rng) for m in mats]
        blocks, per_component, worst = _dense_blocks(decomp, mats, names, tol)
        extraction = f"dense conjugation, {len(mats)} products"

    components = [
        SdpBlockComponent(dimension=comp.dimension, multiplicity=comp.multiplicity,
                          c_block=blocks[0][ci], a_blocks=[ab[ci] for ab in blocks[1:]],
                          residual=per_component[ci])
        for ci, comp in enumerate(decomp.components)]
    return BlockDiagonalizedSdp(components=components, b=prob.b.copy(), basis=decomp,
                                field=prob.field, residual=worst,
                                extraction=extraction)
