"""Sampling generic elements of the commutant algebra of a representation.

A commutant sample is obtained by drawing a Hermitian matrix from the
Gaussian unitary ensemble (orthogonal ensemble over the reals) and
projecting it onto the commutant by group averaging.  For finite groups
the average is exact: a representation that permutes its basis vectors
(one with an index action) is averaged within each orbital, the orbit of
the group on index pairs, at O(n^2) cost; any other is averaged through
the stabilizer-chain transversal sets.  For compact groups the average is
iterated over small random sample sets; each round shrinks the part of the
matrix outside the commutant, so the residual falls geometrically until it
reaches roundoff, and the iteration stops there.

The conjugation inverse is realized as the conjugate transpose, which is
exact for unitary representations and keeps Hermitian input Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reps import Representation

#: Commutation tolerance for the exact finite-group projection; anything
#: above this indicates a broken representation rather than roundoff.
FINITE_COMMUTATION_TOL = 1e-10

_RESIDUAL_PROBES = 20
#: Averaging rounds between two residual checks of the compact projection.
_CHECK_EVERY = 10


class ProjectionError(RuntimeError):
    """Raised when a projected matrix fails its commutation tolerance."""


@dataclass(frozen=True)
class ProjectionConfig:
    """Knobs of the compact-group iterated projection.

    Each round averages over a fresh Haar sample set of size ``set_size``.
    Every 10 rounds the commutation residual is measured on 20 Haar probes
    drawn once; averaging stops at the first check that does not halve the
    previous one, when the residual has reached roundoff, or after ``nu``
    rounds, a cap.  The result must then be within ``commutation_tol``.
    """

    nu: int = 1000
    set_size: int = 3
    commutation_tol: float = 1e-8

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")
        if self.set_size < 2:
            raise ValueError("set_size must be >= 2")
        _check_tol(self.commutation_tol, "commutation_tol")


def _check_tol(tol, name):
    if not (0 < tol < math.inf):  # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {tol}")


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


def partial_average(rep: Representation, elements, x) -> np.ndarray:
    """Average of u x u^dag over the given group elements.

    The accumulator is re-symmetrized so Hermitian input stays Hermitian
    bit-for-bit despite floating-point non-commutativity.
    """
    if len(elements) == 0:
        raise ValueError("partial_average needs a nonempty element set")
    return _conjugation_average(rep, elements, x, hermitize=True)


def commutation_residual(rep: Representation, x, elements, images=None) -> float:
    """max_g ||x rho_g - rho_g x||_F / ||x||_F over the given elements.

    ``images``, when given, are the images of ``elements``, built once by a
    caller that measures the same elements repeatedly.
    """
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
    if not rep.is_finite:
        return "Haar averaging"
    if rep.index_action is not None:
        return f"orbital averaging, {len(rep.index_action.orbitals()[1])} orbitals"
    total = sum(len(t) for t in rep.group.transversals)
    return f"stabilizer chain, {total} transversal elements"


def _project(rep, x, config, rng, hermitize):
    """Group average of x and its commutation residual, gated.

    Exact for finite groups; for compact groups averaging stops as
    :class:`ProjectionConfig` describes.
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
    rng = rng or np.random.default_rng()
    handle = rep.group
    probes = [handle.sample(rng) for _ in range(_RESIDUAL_PROBES)]
    probe_images = [rep.image(g) for g in probes]
    out = np.array(x)
    rounds, resid = 0, math.inf
    while rounds < config.nu:
        for _ in range(min(_CHECK_EVERY, config.nu - rounds)):
            t = [handle.sample(rng) for _ in range(config.set_size)]
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
