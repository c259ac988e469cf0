"""Block-diagonalization of invariant semidefinite program data.

An invariant matrix conjugated into the decomposition basis is
block-diagonal per isotypic component, and each component block is a
small multiplicity-sized matrix repeated along the irrep dimension.  The
functions here extract those small blocks from C and the constraint
matrices A_i of a problem (min <C, X> s.t. <A_i, X> = b_i, X >= 0), and
rebuild full matrices from blocks.  Positive semidefiniteness and the
weighted trace identity <A, X> = sum_i D_i <A_block_i, X_block_i> carry
the problem to the reduced form.

:class:`SdpProblem` holds the data as upper-triangle entries (k, i, j, v);
its ``c``, ``a`` and :meth:`SdpProblem.matrix` accessors build O(n^2)
dense arrays, which only the dense extraction below uses, one matrix at
a time.

Two extractions give the same blocks.  When the representation permutes
its basis (it has an index action) and the components' M_i^2 add up to
the number r of orbitals, an invariant matrix is X = sum_c x_c A_c over
the 0/1 orbital indicators A_c, and its blocks are linear in the orbital
means x.  If also r <= n, so that the block map T (r x sum M_i^2 = r x r)
is no larger than one data matrix, :func:`block_diagonalize_sdp` sums the
orbital means of all matrices from their entries, and each entry's mirror
(j, i, conj v), by bincounts over the entries, and multiplies them by T, built once
from one representative pair per orbital.  No dense data matrix is
formed.  Two gates check this path:

* invariance: without ``symmetrize_first`` each matrix must lie within
  ``tol`` of its orbital means, |X - x[ids]| <= tol |X|, where
  |X - x[ids]|^2 is summed from the entries as a sum of non-negative
  terms, sum |v - x_c|^2 over the listed entries plus (|c| - listed_c)
  |x_c|^2 over the orbitals, each matrix scaled by its largest entry;
  with it, the means are the group average and are used as they are (the
  blocks are made Hermitian, which is the same as making the average
  Hermitian);
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
as for small or intransitive groups) forms each matrix from its entries
and conjugates it by the basis, U X U^dag, after group-averaging it when
asked.  A U with no nonzero imaginary part (float64, or the complex128 of
the real route) conjugates in real arithmetic, U Re X U^T + i U Im X U^T,
the second product skipped when Im X is zero, and the orbital path sums
entries with no nonzero imaginary part as real numbers; the blocks keep the
dtype of U X U^dag, and can differ from the complex product in their last
digits and signed zeros.

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

from .commutant import ProjectionConfig, _check_tol, _pow2_scale, project_commutant
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
    # |m - m^dag| <= tol max(1, |m|), read on m / s for s = _pow2_scale(m)
    # so that no square overflows: |u - u^dag| <= tol |u| or
    # s |u - u^dag| <= tol, where the product may overflow to inf and fail
    s = _pow2_scale(m)
    u = m / s
    resid = float(np.linalg.norm(u - u.conj().T))
    if not (resid <= _HERMITIAN_TOL * float(np.linalg.norm(u))
            or resid * s <= _HERMITIAN_TOL):
        raise ValueError(f"{what} is not Hermitian (residual {resid * s:.3e})")


class SdpProblem:
    """Data (C, {A_i}, b) of a semidefinite program in primal form.

    The matrices are held as the upper-triangle entries the text format
    carries: arrays ``k`` (0 for C, i for A_i), ``i <= j`` and values ``v``
    (float64 over R, complex128 over C), sorted by (k, i, j).  Entry (i, j)
    stands for X[i, j] = v and, off the diagonal, X[j, i] = conj(v), so the
    matrices are Hermitian by construction; unlisted entries are zero.

    ``SdpProblem(c=..., a=..., b=..., field=...)`` takes dense matrices,
    checks each one (square, finite, Hermitian to 1e-10 relative, and real
    over R) and keeps the nonzero entries of its upper triangle.
    ``parse_sdp`` hands over its checked entries directly.  :meth:`matrix`,
    ``c`` and ``a`` build dense n x n arrays, O(n^2) memory each; the block
    extraction of an index action reads the entries alone.
    """

    def __init__(self, c, a, b, field: str = "complex"):
        if field not in ("real", "complex"):
            raise ValueError(f"unknown field {field!r}")
        c = np.asarray(c)
        n = c.shape[0]
        if c.shape != (n, n):
            raise ValueError("C must be square")
        mats = [c] + [np.asarray(x) for x in a]
        names = ["C"] + [f"A_{k}" for k in range(1, len(mats))]
        stack = np.array(mats) if all(x.shape == (n, n) for x in mats) else None
        if stack is None or not (np.isfinite(stack).all()
                                 and np.array_equal(stack, stack.conj().swapaxes(1, 2))):
            for x, what in zip(mats, names):  # within tolerance, or the first failure
                if x.shape != (n, n):
                    raise ValueError(f"{what} has shape {x.shape}, expected {(n, n)}")
                _check_hermitian(x, what)
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("b has a non-finite entry")
        if len(mats) - 1 != len(b):
            raise ValueError(f"{len(mats) - 1} constraint matrices but {len(b)} b entries")
        rows, cols = np.triu_indices(n)
        upper = stack[:, rows, cols]  # (m + 1) x n(n+1)/2
        if field == "real":
            bad = np.any(upper.imag != 0, axis=1)
            if bad.any():
                raise ValueError(f"{names[int(np.argmax(bad))]} has an entry with a nonzero "
                                 f"imaginary part, but the field is real")
            upper = upper.real
        upper = upper.astype(np.complex128 if field == "complex" else np.float64)
        k, t = np.nonzero(upper)  # in (k, i, j) order
        self._set(n, k, rows[t], cols[t], upper[k, t], b, field)

    def _set(self, n, k, i, j, v, b, field):
        self.n, self.k, self.i, self.j, self.v, self.b, self.field = n, k, i, j, v, b, field

    @classmethod
    def _from_entries(cls, n, k, i, j, v, b, field):
        """A problem from entries already checked and sorted, as ``parse_sdp`` makes them."""
        prob = cls.__new__(cls)
        prob._set(n, k, i, j, v, b, field)
        return prob

    @property
    def m(self) -> int:
        return len(self.b)

    def matrix(self, k: int) -> np.ndarray:
        """Matrix k (0 for C, i for A_i) as a dense n x n array."""
        lo, hi = np.searchsorted(self.k, [k, k + 1])
        i, j, v = self.i[lo:hi], self.j[lo:hi], self.v[lo:hi]
        out = np.zeros((self.n, self.n), dtype=self.v.dtype)
        off = i != j
        out[j[off], i[off]] = v[off].conj()
        out[i, j] = v
        return out

    @property
    def c(self) -> np.ndarray:
        return self.matrix(0)

    @property
    def a(self) -> list:
        return [self.matrix(k) for k in range(1, self.m + 1)]


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


def _real_valued(a):
    """A real copy of a when a has no nonzero imaginary part (a NaN counts as
    one), else a; a copy, as the strided view ``a.real`` would miss BLAS."""
    return a.real.copy() if np.iscomplexobj(a) and not a.imag.any() else a


# a non-finite U or X gives NaN (inf * 0), which the gates refuse, not a warning
@np.errstate(invalid="ignore", over="ignore")
def _conjugate(u, x):
    """U X U^dag; for a real-valued U in real arithmetic, U Re X U^T + i U Im X U^T,
    the second product skipped (and the result real) when Im X is zero."""
    u = _real_valued(u)
    if np.iscomplexobj(u):
        return u @ x @ u.conj().T
    x = _real_valued(x)
    if not np.iscomplexobj(x):
        return u @ x @ u.T
    return (u @ np.ascontiguousarray(x.real) @ u.T
            + 1j * (u @ np.ascontiguousarray(x.imag) @ u.T))


def _extract_blocks(decomp, x):
    """Blocks, per-component pattern residuals, and the total residual."""
    x = np.asarray(x)
    xhat = _conjugate(decomp.U, x)
    s = _pow2_scale(x)  # norms are read on ./s, so no square overflows or underflows
    scale = max(np.linalg.norm(x / s), np.finfo(float).tiny)

    blocks = []
    per_component = []
    fit = np.zeros_like(xhat)
    offsets = decomp.offsets
    for comp, lo, hi in zip(decomp.components, offsets, offsets[1:]):
        d, m = comp.dimension, comp.multiplicity
        sub = xhat[lo:hi, lo:hi]
        copies = sub.reshape(m, d, m, d)
        xi = np.trace(copies, axis1=1, axis2=3) / d
        xi = (xi + xi.conj().T) / 2
        blocks.append(xi.astype(np.result_type(decomp.U, x), copy=False))
        pattern = np.kron(xi, np.eye(d))
        fit[lo:hi, lo:hi] = pattern
        per_component.append(float(np.linalg.norm((sub - pattern) / s)) / scale)

    total = float(np.linalg.norm((xhat - fit) / s)) / scale
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
    xhat = np.zeros((n, n), dtype=np.result_type(decomp.U, *map(np.asarray, blocks)))
    offsets = decomp.offsets
    for comp, xi, lo, hi in zip(decomp.components, blocks, offsets, offsets[1:]):
        d, m = comp.dimension, comp.multiplicity
        xi = np.asarray(xi)
        if xi.shape != (m, m):
            raise ValueError(f"block shape {xi.shape} does not match multiplicity {m}")
        xhat[lo:hi, lo:hi] = np.kron(xi, np.eye(d))
    out = _conjugate(decomp.U.conj().T, xhat).astype(xhat.dtype, copy=False)
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
    cols = []
    for comp in decomp.components:
        d, m = comp.dimension, comp.multiplicity
        rows = _real_valued(comp.basis).reshape(m, d, -1)
        pairs = rows[:, :, k].transpose(2, 0, 1) @ rows[:, :, l].conj().transpose(2, 1, 0)
        cols.append(pairs.reshape(len(counts), m * m) * (counts / d)[:, None])
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


def _abs2(x):
    """|x|^2 entrywise, without the hypot that abs takes for complex x."""
    return x.real ** 2 + x.imag ** 2


def _orbital_blocks(decomp, prob, names, symmetrize_first, tol):
    """Blocks of every matrix from its orbital means; see the module docstring."""
    ids, counts = decomp.rep.index_action.orbitals()
    n, r, count = prob.n, len(counts), prob.m + 1
    k, l = decomp.rep.index_action.representatives()
    # every listed entry v of matrix q at (i, j) and, off the diagonal, its
    # mirror conj(v) at (j, i), keyed by matrix and orbital; each matrix is
    # divided by its largest real or imaginary part (1 for none), part by
    # part, so that no square overflows or underflows
    scale = np.zeros(count)
    with np.errstate(invalid="ignore"):  # a NaN propagates, and fails the gates
        np.maximum.at(scale, prob.k, np.maximum(abs(prob.v.real), abs(prob.v.imag)))
    scale[scale == 0] = 1.0
    w = _real_valued(prob.v).copy()
    w.view(np.float64).reshape(len(w), w.itemsize // 8)[...] /= scale[prob.k, None]
    off = prob.i != prob.j
    keys = prob.k * r + ids[prob.i * n + prob.j]
    mirror_keys = prob.k[off] * r + ids[prob.j[off] * n + prob.i[off]]
    w_off = w[off]
    size = count * r
    sums = (np.bincount(keys, weights=w.real, minlength=size)
            + np.bincount(mirror_keys, weights=w_off.real, minlength=size))
    if np.iscomplexobj(w):
        sums = sums + 1j * (np.bincount(keys, weights=w.imag, minlength=size)
                            - np.bincount(mirror_keys, weights=w_off.imag, minlength=size))
    means = sums.reshape(count, r) / counts  # of the scaled matrices
    norms = np.sqrt(np.bincount(prob.k, weights=_abs2(w) * (1 + off), minlength=count))
    norms[norms == 0] = 1.0  # a zero matrix: zero means, zero residual
    worst = 0.0
    if symmetrize_first:
        bad = ~np.all(np.isfinite(means), axis=1)  # a non-finite entry spoils its mean
        if bad.any():
            raise ValueError(f"{names[int(np.argmax(bad))]} has a non-finite entry")
    else:
        # |X - x[ids]|^2 as a sum of non-negative terms: the listed entries'
        # misfit, and |x_c|^2 for every unlisted (zero) entry of orbital c
        flat = means.reshape(-1)
        listed = (np.bincount(keys, minlength=size)
                  + np.bincount(mirror_keys, minlength=size)).reshape(count, r)
        misfit = (np.bincount(prob.k, weights=_abs2(w - flat[keys]), minlength=count)
                  + np.bincount(prob.k[off], weights=_abs2(w_off.conj() - flat[mirror_keys]),
                                minlength=count))
        unlisted = ((counts - listed) * _abs2(means)).sum(axis=1)
        worst = _gate_residuals(np.sqrt(misfit + unlisted) / norms, names, tol)

    t = _block_map(decomp, k, l, counts)
    # one seeded combination z of the data through the dense conjugation
    g = np.random.default_rng(_CHECK_SEED).standard_normal(count)
    z = _real_valued(g @ (means / norms[:, None]))
    zmat = z[ids].reshape(n, n)
    dense, per_component, pattern = _extract_blocks(decomp, zmat)
    # z's residuals are taken relative to min(|z|, 1): absolute once |z| >= 1,
    # where the expected square of its pattern residual is the sum of the
    # squared per-matrix ones, and relative below, as for a single matrix
    z_norm = max(float(np.linalg.norm(zmat)), np.finfo(float).tiny)
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
    coords = (means * scale[:, None]) @ t  # real means and T: cast as the dense path's blocks
    per_matrix = _split_blocks(decomp, coords.astype(np.result_type(coords, decomp.U)))
    blocks = [[b[q] for b in per_matrix] for q in range(count)]
    return blocks, per_component, max(worst, pattern, mismatch)


def _dense_blocks(decomp, prob, names, symmetrize_first, tol, config, rng):
    """Each matrix formed on its own, group-averaged if asked, conjugated by U."""
    results = []
    for q in range(prob.m + 1):
        x = prob.matrix(q)
        if symmetrize_first:
            x = symmetrize_matrix(decomp.rep, x, config, rng)
        results.append(_extract_blocks(decomp, x))
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
    names = ["C"] + [f"A_{i + 1}" for i in range(prob.m)]
    if _orbital_path_applies(decomp):
        blocks, per_component, worst = _orbital_blocks(decomp, prob, names,
                                                        symmetrize_first, tol)
        extraction = f"orbital coordinates, {len(decomp.rep.index_action.orbitals()[1])} orbitals"
    else:
        blocks, per_component, worst = _dense_blocks(decomp, prob, names, symmetrize_first,
                                                     tol, config, rng)
        extraction = f"dense conjugation, {prob.m + 1} products"

    components = [
        SdpBlockComponent(dimension=comp.dimension, multiplicity=comp.multiplicity,
                          c_block=blocks[0][ci], a_blocks=[ab[ci] for ab in blocks[1:]],
                          residual=per_component[ci])
        for ci, comp in enumerate(decomp.components)]
    return BlockDiagonalizedSdp(components=components, b=prob.b.copy(), basis=decomp,
                                field=prob.field, residual=worst,
                                extraction=extraction)
