"""Sampling generic elements of the commutant algebra of a representation.

A commutant sample is the Hermitian part of an i.i.d. Gaussian matrix
projected onto the commutant by group averaging, so the projection of a
GUE (GOE over the reals) matrix.  For finite groups
the average is exact: a representation that permutes its basis vectors
(one with an index action) is averaged within each orbital, the orbit of
the group on index pairs, at O(n^2) cost, and sampled with one Gaussian
per orbital and no seed; any other is averaged through the stabilizer-chain
transversal sets.

A compact-group representation, the tree of combinators that built it from
the defining representation, is projected exactly.  Its commutant is
the kernel of the Casimir Omega(X) = -sum_j [A_j, [A_j, X]] = 2 K(X) - CX - XC,
A_j = d rho(L_j) over the orthonormal basis L_j of the Lie algebra,
K(X) = sum_j A_j X A_j and C = K(I).  K is read from the tree of combinators
that built the representation, pair by pair of its leaves, through Brauer's
identities (Ann. of Math. 38, 1937; :func:`_pair`).  Omega is self-adjoint and
positive semidefinite, so conjugate gradients on Omega Y = Omega X, started
at 0, stay in its range and X - Y is the orthogonal projection PX onto the
kernel, after as many iterations as Omega has distinct nonzero eigenvalues
on X.  O(d) is not connected: one more average with the image of a
reflection projects from the commutant of SO(d) onto that of O(d).

The gate reads Omega's spectral gap.  On a constituent of End(V) of highest
weight lambda, Omega is the Casimir value c(lambda) (Fulton and Harris,
*Representation Theory*, Lecture 25), and c(lambda) >= lambda_1 for
lambda != 0, with lambda_1 = d on U(d) and (d - 1)/2 on O(d).  On U(d),
c = sum_i lambda_i^2 + sum_{i<j} (lambda_i - lambda_j), no term negative: a
constant lambda = m gives d m^2; otherwise some lambda_k > lambda_{k+1}, so
each of the k(d - k) >= d - 1 pairs i <= k < j adds at least 1, and
sum_i lambda_i^2 >= 1.  On SO(d), c = sum_{i <= d/2} (lambda_i^2 + lambda_i
(d - 2i)) / 2, lambda_1 >= ... >= |lambda_{d/2}|, no term negative, and
|lambda_1| >= 1 (lambda_1 < 0 only when d = 2), so c >= (1 + d - 2) / 2.
With r the largest number of leaves on one tensor path, ||A_j||_2 <= r and
||[A_j, X]|| = ||[A_j, X - PX]|| <= 2 r ||X - PX|| <= 2 r ||Omega X|| / lambda_1.

Every path returns the plain linear average P.  Its conjugation inverse is
the conjugate transpose, exact for unitary representations, so P commutes
with taking adjoints, and a Hermitian sample is P's Hermitian part, taken once.
Each path names itself where it runs, with its count, in the sample's
:attr:`CommutantSample.path`; nothing re-derives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .reps import ProjectionError, Representation

#: Commutation tolerance for the exact finite-group projection; anything
#: above this indicates a broken representation rather than roundoff.
FINITE_COMMUTATION_TOL = 1e-10

#: CG on the Casimir stops once its residual is this small relative to
#: Omega X.  Not a stagnation rule: CG residuals are not monotone, and
#: stopping at the first one that fails to halve can leave a residual of
#: order one.
_CG_RTOL = 1e-14


@dataclass(frozen=True)
class ProjectionConfig:
    """Gate of the compact-group projection: its commutation residual must
    be within ``commutation_tol``.

    The residual bounds the largest relative commutator with a d rho(L_j)
    through the Casimir's spectral gap (and the reflection of O(d)).
    """

    commutation_tol: float = 1e-8

    def __post_init__(self):
        _check_tol(self.commutation_tol, "commutation_tol")


def _check_tol(tol, name):
    if not (0 < tol < math.inf):  # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {tol}")


def _pow2_scale(x):
    """A power of two s near max |re|, |im| of x (1 when x is zero or not
    finite).  s and 1/s are normal, so x / s is exact on ordinary data: a norm
    ratio read on it is bit for bit that of x, and no square overflows."""
    top = max(float(np.max(np.abs(x.real), initial=0.0)),
              float(np.max(np.abs(x.imag), initial=0.0)))
    e = math.frexp(top)[1] - 1 if 0 < top < math.inf else 0
    return math.ldexp(1.0, min(max(e, -1022), 1022))


@dataclass(frozen=True)
class CommutantSample:
    """A generic Hermitian commutant element and its measured residual.
    Over R, ``whole`` is the projected seed, whose symmetric part is
    ``matrix`` and whose antisymmetric part gives the real types; None over
    C, where that part is i times a Hermitian commutant element.  ``path``
    names the averaging that ran and its count, as the average recorded it."""

    matrix: np.ndarray
    residual: float
    whole: np.ndarray | None = None
    path: str = ""


def _gaussian(n, field, rng):
    """An n x n matrix of i.i.d. standard (complex) normals."""
    if field not in ("real", "complex"):
        raise ValueError(f"unknown field {field!r}")
    a = rng.standard_normal((n, n))
    return a if field == "real" else (a + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def sample_gue(n: int, field="complex", rng=None) -> np.ndarray:
    """Hermitian matrix from the GUE (GOE for the real field), whose law is
    invariant under unitary (orthogonal) conjugation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = _gaussian(n, field, rng if rng is not None else np.random.default_rng())
    return (a + a.conj().T) / 2


def commutation_residual(x, images) -> float:
    """max_u ||x u - u x||_F / ||x||_F over the given images u."""
    x = x / _pow2_scale(x)
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    worst = 0.0
    for u in images:
        worst = float(np.maximum(worst, np.linalg.norm(x @ u - u @ x) / nx))  # keeps NaN
    return worst


def chain_average(rep: Representation, x) -> np.ndarray:
    """Exact group average of x through the transversal-set factorization.

    Costs one conjugation per transversal element instead of one per group
    element; for the symmetric group on D points that is quadratic in D
    rather than factorial.  Used for generator images that are not
    permutation matrices, and as the reference for :func:`orbital_average`.
    """
    if not rep.is_finite:
        raise TypeError("finite projection requires a permutation-group representation")
    out = np.array(x)
    dtype = np.result_type(out, np.complex128 if rep.field == "complex" else np.float64)
    for t in rep.group.transversal_sets():
        acc = np.zeros(out.shape, dtype)
        for g in t:
            u = rep.image(g)
            acc += u @ out @ u.conj().T
        out = acc / len(t)
    return out


def orbital_average(rep: Representation, x) -> np.ndarray:
    """Exact group average of x for a representation with an index action.

    Conjugation by a permutation image moves entry (i, j) within its
    orbital, so the group average replaces every entry by the mean of its
    orbital.  O(n^2) once the orbitals are known.
    """
    ids, counts = rep.index_action.orbitals()
    flat = np.asarray(x).reshape(-1)
    means = np.bincount(ids, weights=flat.real, minlength=len(counts)) / counts
    if np.iscomplexobj(flat):
        means = means + 1j * (np.bincount(ids, weights=flat.imag,
                                          minlength=len(counts)) / counts)
    return means[ids].reshape(rep.dim, rep.dim)


def orbital_sample(rep: Representation, rng) -> np.ndarray:
    """The orbital average of an i.i.d. Gaussian matrix as r normals and a
    gather: an orbital c's mean of i.i.d. standard entries is N(0, 1/|c|).
    Of the trivial group, the matrix itself."""
    ids, counts = rep.index_action.orbitals()
    g = rng.standard_normal(len(counts))
    if rep.field == "complex":
        g = (g + 1j * rng.standard_normal(len(counts))) / math.sqrt(2.0)
    return (g / np.sqrt(counts))[ids].reshape(rep.dim, rep.dim)


def _orbital_path(rep):
    return f"orbital averaging, {len(rep.index_action.orbitals()[1])} orbitals"


def _reflects(rep):
    return rep.group.kind == "orthogonal"


def _pair(a, b, x, out, axes, unitary):
    """Add sum_j d rho_a(L_j) X d rho_b(L_j) to ``out``, for the trees ``a``
    and ``b`` (:class:`~repblock.reps.Derived`) on the row axis ``axes[0]``
    and the column axis ``axes[1]`` of x.  A tensor node sums over its parts,
    each on its axis split into (before, dim, after), and a sum node acts
    blockwise, so ``out`` stays a view.  Two leaves give -tr(X) I over the
    pair of axes on u(d) (sum_j L_j (x) L_j = -SWAP), the pair's transpose
    T(X) when one is conjugated (conj L_j = -L_j^T), and (T(X) - tr(X) I) / 2
    on o(d) (sum_j L_j (x) L_j = (sum_ab E_ab (x) E_ab - SWAP) / 2); two
    one-dimensional trees give -charge_a charge_b X on u(1), 0 on o(1).
    """
    if not (a.leaves and b.leaves):
        return
    if a.dim == b.dim == 1:
        if unitary:
            out -= a.charge * b.charge * x
        return
    if a.kind == b.kind == "leaf":
        if unitary and a.conj != b.conj:
            out += x.swapaxes(*axes)
            return
        diagonal = [slice(None)] * x.ndim
        diagonal[axes[0]] = diagonal[axes[1]] = np.arange(a.dim)
        trace = x.trace(axis1=axes[0], axis2=axes[1])
        if not unitary:
            out += x.swapaxes(*axes) / 2
            trace = trace / 2
        # an axis always lies between the two, so the diagonal's axis leads
        out[tuple(diagonal)] -= trace
        return
    side = 0 if a.kind != "leaf" and a.dim > 1 else 1
    node, axis = (a, b)[side], axes[side]
    lo, before = 0, 1
    for p in node.parts:
        pair = (p, b) if side == 0 else (a, p)
        if node.kind == "sum":
            block = (slice(None),) * axis + (slice(lo, lo + p.dim),)
            _pair(*pair, x[block], out[block], axes, unitary)
        elif p.leaves:
            shape = x.shape[:axis] + (before, p.dim, -1) + x.shape[axis + 1:]
            split = (axis + 1, axes[1] + 2) if side == 0 else (axes[0], axis + 1)
            _pair(*pair, x.reshape(shape), out.reshape(shape), split, unitary)
        lo, before = lo + p.dim, before * p.dim


def lie_contraction(rep: Representation, x) -> np.ndarray:
    """K(X) = sum_j A_j X A_j, A_j = d rho(L_j), read from ``rep.derived``
    by one pair contraction of the tree with itself, O(r^2 n^2) for r leaves."""
    n = rep.dim
    x = np.asarray(x)
    out = np.zeros(x.shape, np.result_type(x, float))
    _pair(rep.derived, rep.derived, x.reshape(1, n, 1, 1, n, 1), out.reshape(1, n, 1, 1, n, 1),
          (1, 4), rep.group.kind == "unitary")
    return out


def _casimir(rep):
    """Omega(X) = 2 K(X) - C X - X C, C = K(I)."""
    c = lie_contraction(rep, np.eye(rep.dim))
    return lambda x: 2 * lie_contraction(rep, x) - c @ x - x @ c


def _casimir_solve(omega, x, cap, gap):
    """Y solving Omega Y = Omega x by CG from 0, and the iterations run.

    A direction p in Omega's range has curvature <p, Omega p> >= gap |p|^2.
    Below half that, roundoff has left p mostly in the kernel (x commutes
    already), and a step would move x there: CG stops, as NaN stops it.
    """
    r = omega(x)
    y = np.zeros_like(r)
    p = r.copy()
    rr = np.vdot(r, r).real
    stop = (_CG_RTOL * np.sqrt(rr)) ** 2
    iters = 0
    while iters < cap and rr > stop:  # NaN stops too
        w = omega(p)
        curvature = np.vdot(p, w).real
        if not curvature > gap / 2 * np.vdot(p, p).real:
            break
        alpha = rr / curvature
        y += alpha * p
        r -= alpha * w
        rr, last = np.vdot(r, r).real, rr
        p = r + (rr / last) * p
        iters += 1
    return y, iters


def _charges(node):
    """The charges q of a tree of U(1), d rho(i) = i diag(q): +1 or -1 on a
    leaf, 0 on the trivial one, concatenated by a sum, and added row-major,
    as the Kronecker product orders indices, by a tensor."""
    if node.kind == "zero":
        return np.zeros(node.dim)
    if node.dim == 1:  # a leaf, or a power built in log k steps
        return np.array([float(node.charge)])
    parts = [_charges(p) for p in node.parts]
    if node.kind == "sum":
        return np.concatenate(parts)
    return reduce(lambda a, b: np.add.outer(a, b).ravel(), parts)


def _casimir_projection(rep, x, config):
    """Exact commutant projection through the Casimir kernel, gated, and its path.

    CG runs at most n^2 iterations, the dimension of the matrix space,
    within which it ends in exact arithmetic.  The residual is the bound
    2 r ||Omega X|| / (lambda_1 ||X||) on max_j ||[A_j, X]|| / ||X|| (0 on
    o(1) = 0), or the relative commutator with the reflection's image.  On
    u(1), X - X * [q_a != q_b] (charges q) projects without CG, whose roundoff
    grows with q^2, NaN where X is not finite; the gate reads (q_a - q_b) X_ab.
    """
    x, d, reflects = np.asarray(x), rep.group.dim, _reflects(rep)
    # the gap, and the Lie generators: d^2 on u(d), d(d - 1)/2 on o(d)
    gap, k = (d, d * d) if rep.group.kind == "unitary" else ((d - 1) / 2, d * (d - 1) // 2)
    q = _charges(rep.derived) if rep.group.kind == "unitary" and d == 1 else None
    omega = None if q is not None else _casimir(rep)  # u(1) needs no Casimir
    y, iters = (x * (q[:, None] != q), 0) if q is not None else _casimir_solve(
        omega, x, rep.dim ** 2, gap)
    out = x - y
    if reflects:
        u = rep.image(np.diag([-1.0] + [1.0] * (rep.group.dim - 1)))  # a reflection
        out = (out + u @ out @ u.conj().T) / 2
    nx = np.linalg.norm(out)
    if q is not None:
        resid = float(np.linalg.norm((q[:, None] - q) * out)) / nx if nx else 0.0
    else:
        scale = 2 * rep.derived.leaves / gap if gap else 0.0
        resid = scale * float(np.linalg.norm(omega(out))) / nx if nx else 0.0
    if reflects:
        resid = float(np.maximum(resid, commutation_residual(out, [u])))
    if not resid <= config.commutation_tol:  # NaN fails too
        raise ProjectionError(
            f"Casimir kernel projection left commutation residual {resid:.3e} above "
            f"{config.commutation_tol:.1e} after {iters} conjugate-gradient iterations")
    path = f"Casimir kernel, {k} Lie generators, {iters} conjugate-gradient iterations"
    return out, resid, path + (", one reflection average" if reflects else "")


@np.errstate(invalid="ignore", over="ignore")  # non-finite results fail the gate
def _project(rep, x, config):
    """Group average of x, its commutation residual, gated, and its path.

    Exact on every path.  Every path averages x / s, s = :func:`_pow2_scale`
    (x), and scales back: no norm it reads overflows or underflows, and
    P(2^k x) = 2^k P(x) bit for bit.
    """
    x = np.asarray(x)
    s = _pow2_scale(x)
    out, resid, path = _average(rep, x / s, config)
    out = out * s
    if not np.isfinite(out).all():  # the residual was read on x / s, which held
        raise ProjectionError(f"the group average of data scaled by {s:.3e} overflows")
    return out, resid, path


def _average(rep, x, config):
    if rep.is_finite:
        if rep.index_action is not None:
            # the labels were checked against every generator when built, so
            # the average commutes exactly unless the input is not finite
            out = orbital_average(rep, x)
            resid = 0.0 if np.isfinite(out).all() else math.nan
            path = _orbital_path(rep)
        else:
            out = chain_average(rep, x)
            # commuting with the generators' images means commuting with the group
            resid = commutation_residual(out, [rep.image(g) for g in rep.group.generators])
            path = f"stabilizer chain, {sum(map(len, rep.group.transversals))} transversal elements"
        if not resid <= FINITE_COMMUTATION_TOL:  # NaN fails too
            raise ProjectionError(
                f"finite projection left commutation residual {resid:.3e}; the input is "
                "not finite or the representation is probably not a homomorphism")
        return out, resid, path
    return _casimir_projection(rep, x, config or ProjectionConfig())


def project_commutant(rep: Representation, x, config: ProjectionConfig = None) -> CommutantSample:
    """Hermitian part of :func:`project_linear`, with the average's residual and path.

    Raises :class:`ProjectionError` when the average does not commute with
    the representation to tolerance.
    """
    out, resid, path = _project(rep, x, config)
    return CommutantSample((out + out.conj().T) / 2, resid, path=path)


def project_linear(rep: Representation, x, config: ProjectionConfig = None) -> np.ndarray:
    """Group average of an arbitrary (not necessarily Hermitian) matrix onto
    the commutant, gated on its commutation residual."""
    return _project(rep, x, config)[0]


def sample_commutant(rep: Representation, config: ProjectionConfig = None,
                     rng=None) -> CommutantSample:
    """Generic Hermitian commutant sample: the Hermitian part of a Gaussian
    seed's projection P, gated as :func:`project_linear` gates it; for an
    index action P(seed) is drawn by :func:`orbital_sample`, exactly.  P
    commutes with the adjoint, so the sample is P of a GUE/GOE matrix."""
    if rng is None:
        rng = np.random.default_rng()
    if rep.index_action is not None:
        whole, resid, path = orbital_sample(rep, rng), 0.0, _orbital_path(rep)
    else:
        whole, resid, path = _project(rep, _gaussian(rep.dim, rep.field, rng), config)
    return CommutantSample((whole + whole.conj().T) / 2, resid,
                           whole if rep.field == "real" else None, path)
