"""Sampling generic elements of the commutant algebra of a representation.

A commutant sample is obtained by drawing a Hermitian matrix from the
Gaussian unitary ensemble (orthogonal ensemble over the reals) and
projecting it onto the commutant by group averaging.  For finite groups
the average is exact: a representation that permutes its basis vectors
(one with an index action) is averaged within each orbital, the orbit of
the group on index pairs, at O(n^2) cost; any other is averaged through
the stabilizer-chain transversal sets.

A compact-group representation with a derived action d rho (every one built
from the defining representation) is projected exactly.  Its commutant is
the kernel of the Casimir Omega(X) = -sum_j [A_j, [A_j, X]], A_j = d rho(L_j)
over an orthonormal basis L_j of the Lie algebra: Omega is self-adjoint and
positive semidefinite, so conjugate gradients on Omega Y = Omega X, started
at 0, stay in its range and X - Y is the orthogonal projection onto the
kernel.  CG stops after as many iterations as Omega has distinct nonzero
eigenvalues on X.  The generators are acted on in chunks, so memory does
not grow with their number.  O(d) is not connected: one more average with
the image of a reflection projects from the commutant of SO(d) onto that
of O(d).

Any other compact-group representation, one given by its images alone, is
averaged iteratively over small random Haar sample sets; each round
shrinks the part of the matrix outside the commutant, so the residual
falls geometrically until it reaches roundoff, and the iteration stops
there.

The conjugation inverse is realized as the conjugate transpose, which is
exact for unitary representations and keeps Hermitian input Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compact import lie_basis
from .reps import Representation

#: Commutation tolerance for the exact finite-group projection; anything
#: above this indicates a broken representation rather than roundoff.
FINITE_COMMUTATION_TOL = 1e-10

_RESIDUAL_PROBES = 20
#: CG on the Casimir stops once its residual is this small relative to
#: Omega X.  Not a stagnation rule: CG residuals are not monotone, and
#: stopping at the first one that fails to halve can leave a residual of
#: order one.
_CG_RTOL = 1e-14
#: Averaging rounds between two residual checks of the Haar loop, the most
#: rounds it runs, and the Haar samples averaged over in each round.
_CHECK_EVERY = 10
_MAX_ROUNDS = 1000
_SET_SIZE = 3
#: Entries of one stack d rho(L_j) y over a chunk of the Lie generators.
#: The Casimir path holds a few such stacks at once, so its memory is a
#: small multiple of max(n^2, this), whatever the number of generators.
_STACK_ENTRIES = 2 ** 18


class ProjectionError(RuntimeError):
    """Raised when a projected matrix fails its commutation tolerance."""


@dataclass(frozen=True)
class ProjectionConfig:
    """Gate of the compact-group projection: its commutation residual must
    be within ``commutation_tol``.

    On the Casimir path the residual is measured against the derived action
    (and the reflection of O(d)).  A representation without a derived
    action is averaged over Haar samples, 3 fresh ones per round; every 10
    rounds the residual is measured on 20 Haar probes drawn once, and
    averaging stops at the first check that does not halve the previous
    one, when the residual has reached roundoff, or after 1000 rounds.
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
    """A generic Hermitian commutant element and its measured residual."""

    matrix: np.ndarray
    residual: float


def sample_gue(n: int, field="complex", rng=None) -> np.ndarray:
    """Hermitian matrix from the GUE (GOE for the real field).

    The distribution is invariant under unitary (orthogonal) conjugation,
    which is what makes the projected sample generic in the commutant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    if field == "complex":
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    elif field == "real":
        a = rng.standard_normal((n, n))
    else:
        raise ValueError(f"unknown field {field!r}")
    return (a + a.conj().T) / 2


def _conjugation_average(rep, elements, x, hermitize):
    x = np.asarray(x)
    field_dtype = np.complex128 if rep.field == "complex" else np.float64
    acc = np.zeros(x.shape, dtype=np.result_type(x.dtype, field_dtype))
    for g in elements:
        acc += rep.conjugate_by(g, x)
    acc /= len(elements)
    if hermitize:
        acc = (acc + acc.conj().T) / 2
    return acc


def commutation_residual(rep: Representation, x, elements, images=None) -> float:
    """max_g ||x rho_g - rho_g x||_F / ||x||_F over the given elements.

    ``images``, when given, are the images of ``elements``, built once by a
    caller that measures the same elements repeatedly.
    """
    x = x / _pow2_scale(x)
    nx = np.linalg.norm(x)
    if nx == 0 or len(elements) == 0:
        return 0.0
    worst = 0.0
    for k, g in enumerate(elements):
        if rep.index_action is None:
            u = rep.image(g) if images is None else images[k]
            diff = x @ u - u @ x
        else:  # a gather, and ||u x u^dag - x|| = ||x u - u x|| for unitary u
            diff = rep.conjugate_by(g, x) - x
        worst = float(np.maximum(worst, np.linalg.norm(diff) / nx))  # keeps NaN
    return worst


def chain_average(rep: Representation, x, hermitize=True) -> np.ndarray:
    """Exact group average of x through the transversal-set factorization.

    Costs one conjugation per transversal element instead of one per group
    element; for the symmetric group on D points that is quadratic in D
    rather than factorial.  Used for generator images that are not
    permutation matrices, and as the reference for :func:`orbital_average`.
    """
    if not rep.is_finite:
        raise TypeError("finite projection requires a permutation-group representation")
    out = np.array(x)
    for t in rep.group.transversal_sets():
        out = _conjugation_average(rep, t, out, hermitize)
    return out


def orbital_average(rep: Representation, x, hermitize=True) -> np.ndarray:
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
    out = means[ids].reshape(rep.dim, rep.dim)
    if hermitize:
        out = (out + out.conj().T) / 2
    return out


def projection_path(rep: Representation) -> str:
    """How the commutant projection of ``rep`` averages, and over how much."""
    if rep.derived is not None:
        path = f"Casimir kernel, {len(lie_basis(rep.group))} Lie generators"
        return path + (", one reflection average" if _reflects(rep) else "")
    if not rep.is_finite:
        return "Haar averaging"
    if rep.index_action is not None:
        return f"orbital averaging, {len(rep.index_action.orbitals()[1])} orbitals"
    total = sum(len(t) for t in rep.group.transversals)
    return f"stabilizer chain, {total} transversal elements"


def _reflects(rep):
    return rep.group.kind == "orthogonal"


def _chunks(rep):
    """Slices of the Lie generators, each at most _STACK_ENTRIES / n^2 long."""
    k, step = len(lie_basis(rep.group)), max(1, _STACK_ENTRIES // rep.dim ** 2)
    return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _commutators(derived, y, sign, gens):
    """The stack [A_j, y_i] (y_0 for a stack of one), A_j = d rho(L_j) for the
    i-th j of ``gens``, for Hermitian (``sign`` 1) or anti-Hermitian
    (``sign`` -1) matrices y_i.

    A_j is anti-Hermitian, so y A_j = -sign (A_j y)^dag: one left action
    gives both products, and [A_j, y] keeps the symmetry of y.
    """
    ay = derived(y[:, None], gens)[:, 0]
    return ay + sign * ay.conj().swapaxes(1, 2)


def _parts(x):
    """The Hermitian and the anti-Hermitian part of x, with their signs."""
    xh = x.conj().T
    return [((x + xh) / 2, 1), ((x - xh) / 2, -1)]


def _casimir_solve(derived, chunks, x, sign, cap):
    """Y solving Omega Y = Omega x by CG from 0, the iterations run, and
    whether CG met a direction p of curvature <p, Omega p> <= 0.

    Omega = -sum_j ad(A_j)^2 keeps the symmetry ``sign`` of x, so CG runs
    in the Hermitian or the anti-Hermitian matrices.  It is summed over the
    ``chunks`` of generators.  Its curvature sum_j ||[A_j, p]||^2 is
    positive for p in its range; one that is not stops CG at once, as does
    NaN.  A curvature <= 0 comes from an Omega that is not semidefinite.
    """
    def omega(z):
        # sum_j [A_j, b_j] = s + sign s^dag with s = sum_j A_j b_j, as in
        # _commutators, summed before the adjoint is taken
        s = np.zeros_like(z)
        for gens in chunks:
            b = _commutators(derived, z[None], sign, gens)
            s = s + derived(b[:, None], gens)[:, 0].sum(axis=0)
        return -(s + sign * s.conj().T)

    r = omega(x)
    y = np.zeros_like(r)
    p = r.copy()
    rr = np.vdot(r, r).real
    stop = (_CG_RTOL * np.sqrt(rr)) ** 2
    iters = 0
    while iters < cap and rr > stop:  # NaN stops too
        w = omega(p)
        curvature = np.vdot(p, w).real
        if not curvature > 0:
            return y, iters, curvature <= 0
        alpha = rr / curvature
        y += alpha * p
        r -= alpha * w
        rr, last = np.vdot(r, r).real, rr
        p = r + (rr / last) * p
        iters += 1
    return y, iters, False


@np.errstate(invalid="ignore")  # non-finite input fails the gate, which says so
def _casimir_projection(rep, x, config, hermitize):
    """Exact commutant projection through the Casimir kernel, gated.

    The Hermitian and the anti-Hermitian part of x are projected apart (the
    first alone when ``hermitize``).  CG runs at most n^2 iterations on
    each, the dimension of the matrix space, within which it ends in exact
    arithmetic.  The residual is the largest relative commutator with an
    A_j, or with the reflection's image.
    """
    derived, chunks = rep.derived, _chunks(rep)
    out, iters, indefinite = 0, 0, False
    for part, sign in _parts(np.asarray(x))[:1 if hermitize else 2]:
        y, its, bent = _casimir_solve(derived, chunks, part, sign, rep.dim ** 2)
        out, iters, indefinite = out + (part - y), iters + its, indefinite or bent
    if _reflects(rep):
        reflection = np.diag([-1.0] + [1.0] * (rep.group.dim - 1))
        u = rep.image(reflection)
        out = (out + u @ out @ u.conj().T) / 2
        if hermitize:
            out = (out + out.conj().T) / 2
    nx, comm = np.linalg.norm(out), 0.0
    for gens in chunks:
        c = sum(_commutators(derived, part[None], sign, gens) for part, sign in _parts(out))
        comm = np.maximum(comm, np.max(np.linalg.norm(c, axis=(1, 2))))  # keeps NaN
    resid = float(comm) / nx if nx else 0.0
    if _reflects(rep):
        resid = float(np.maximum(resid, commutation_residual(rep, out, [reflection], [u])))
    if not resid <= config.commutation_tol:  # NaN fails too
        raise ProjectionError(
            f"Casimir kernel projection left commutation residual {resid:.3e} above "
            f"{config.commutation_tol:.1e} after {iters} conjugate-gradient iterations"
            + ("; CG stopped at a direction of non-positive curvature, so the derived "
               "action is probably not anti-Hermitian" if indefinite else ""))
    return out, resid


def _project(rep, x, config, rng, hermitize):
    """Group average of x and its commutation residual, gated.

    Exact for finite groups and for compact groups with a derived action;
    otherwise averaging stops as :class:`ProjectionConfig` describes.
    """
    if rep.is_finite:
        if rep.index_action is not None:
            out = orbital_average(rep, x, hermitize)
        else:
            out = chain_average(rep, x, hermitize)
        # commuting with the generators' images means commuting with the group
        resid = commutation_residual(rep, out, rep.group.generators)
        if not resid <= FINITE_COMMUTATION_TOL:  # NaN fails too
            raise ProjectionError(
                f"finite projection left commutation residual {resid:.3e}; "
                "the representation is probably not a homomorphism")
        return out, resid
    config = config or ProjectionConfig()
    if rep.derived is not None:
        return _casimir_projection(rep, x, config, hermitize)
    rng = rng or np.random.default_rng()
    handle = rep.group
    probes = [handle.sample(rng) for _ in range(_RESIDUAL_PROBES)]
    probe_images = [rep.image(g) for g in probes]
    out = np.array(x)
    rounds, resid = 0, math.inf
    while rounds < _MAX_ROUNDS:
        for _ in range(min(_CHECK_EVERY, _MAX_ROUNDS - rounds)):
            t = [handle.sample(rng) for _ in range(_SET_SIZE)]
            out = _conjugation_average(rep, t, out, hermitize)
            rounds += 1
        last, resid = resid, commutation_residual(rep, out, probes, probe_images)
        if not resid < last / 2:  # roundoff reached; NaN stops too
            break
    if not resid <= config.commutation_tol:
        raise ProjectionError(
            f"commutation residual {resid:.3e} above {config.commutation_tol:.1e} "
            f"after {rounds} rounds")
    return out, resid


def project_commutant(rep: Representation, x, config: ProjectionConfig = None,
                      rng=None) -> CommutantSample:
    """Group-appropriate projection of a Hermitian matrix onto the commutant.

    Raises :class:`ProjectionError` when the result does not commute with
    the representation to tolerance.
    """
    return CommutantSample(*_project(rep, x, config, rng, hermitize=True))


def project_linear(rep: Representation, x, config: ProjectionConfig = None,
                   rng=None) -> np.ndarray:
    """Projection of an arbitrary (not necessarily Hermitian) matrix.

    Same averaging and residual gate as :func:`project_commutant`, without
    Hermitian symmetrization; used to probe the full commutant algebra,
    e.g. when measuring its dimension.
    """
    return _project(rep, x, config, rng, hermitize=False)[0]


def sample_commutant(rep: Representation, config: ProjectionConfig = None,
                     rng=None) -> CommutantSample:
    """Generic Hermitian commutant sample: GUE/GOE seed, then projection."""
    if rng is None:
        rng = np.random.default_rng()
    seed = sample_gue(rep.dim, rep.field, rng)
    return project_commutant(rep, seed, config, rng)
