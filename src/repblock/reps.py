"""Representations as image oracles.

A :class:`Representation` pairs a group (a :class:`~repblock.perm.PermutationGroup`
or a :class:`~repblock.compact.CompactGroupHandle`) with a function mapping
group elements to unitary matrices over ``"real"`` or ``"complex"``.

Finite-group representations are built either from the permutation action
itself (:func:`natural_perm_rep`) or from one unitary matrix per generator
(:func:`rep_from_generator_images`); the image of an arbitrary element is
then assembled by sifting it through the stabilizer chain and multiplying
precomputed transversal images.  Compact-group representations start from
the defining representation (the sample *is* the matrix) and are combined
with :func:`tensor`, :func:`direct_sum`, :func:`conjugate` and
:func:`tensor_power`.
"""

from __future__ import annotations

import numpy as np

from .compact import CompactGroupHandle
from .perm import Permutation, PermutationGroup

_FIELDS = ("real", "complex")
_UNITARY_TOL = 1e-8
_HOM_CHECK_PAIRS = 20
_HOM_CHECK_SEED = 0x5EED  # only used to validate user-supplied generator images


def _dtype(field):
    return np.complex128 if field == "complex" else np.float64


def _check_field(field):
    if field not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {field!r}")


class Representation:
    """A unitary representation, exposed as an image oracle.

    Parameters
    ----------
    group : PermutationGroup or CompactGroupHandle
    dim : int
        Matrix size n of the images.
    field : {"real", "complex"}
    image_fn : callable
        Maps a group element (Permutation, or sampled matrix for compact
        groups) to its n x n image.
    """

    def __init__(self, group, dim, field, image_fn, name="rep"):
        _check_field(field)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.group = group
        self.dim = int(dim)
        self.field = field
        self._image_fn = image_fn
        self.name = name

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, PermutationGroup)

    def image(self, g) -> np.ndarray:
        return self._image_fn(g)

    def random_element(self, rng):
        """Uniform (finite) or Haar (compact) random group element."""
        return self.group.sample(rng)

    def __repr__(self):
        return f"Representation({self.name}, dim={self.dim}, field={self.field})"


def _frozen(mat):
    mat.flags.writeable = False
    return mat


class _ChainImages:
    """Evaluate generator-image representations through the chain.

    Every transversal representative carries a word over the original
    generators; its matrix image is the product of the generator images
    along that word, built once and cached.  The image of a group element
    is the product of its transversal images; it is not cached, and a
    transversal element's image is its cached level image itself.
    """

    def __init__(self, group: PermutationGroup, gen_images, dim, field):
        self.group = group
        self.dim = dim
        self.field = field
        self._gen = [np.asarray(m, dtype=_dtype(field)) for m in gen_images]
        self._level = [dict() for _ in group.transversals]

    def _word_image(self, word):
        out = np.eye(self.dim, dtype=_dtype(self.field))
        for letter in word:
            m = self._gen[abs(letter) - 1]
            out = out @ (m if letter > 0 else m.conj().T)
        return out

    def _transversal_image(self, level, point):
        cache = self._level[level]
        hit = cache.get(point)
        if hit is None:
            word = self.group.transversal_words[level][point]
            hit = cache[point] = _frozen(self._word_image(word))
        return hit

    def __call__(self, g: Permutation) -> np.ndarray:
        out = None
        for level, point in self.group.factorize(g):
            if point != self.group.base[level]:  # identity factor otherwise
                t = self._transversal_image(level, point)
                out = t if out is None else out @ t
        if out is None:
            return np.eye(self.dim, dtype=_dtype(self.field))
        return out


def _require_unitary(mat, what):
    n = mat.shape[0]
    resid = np.linalg.norm(mat.conj().T @ mat - np.eye(n))
    if resid > _UNITARY_TOL:
        raise ValueError(f"{what} is not unitary (residual {resid:.3e})")


def rep_from_generator_images(group: PermutationGroup, images, field="complex") -> Representation:
    """Representation of a finite group given by one unitary image per generator.

    The images are spot-checked for consistency: on random pairs (g, h),
    image(g) @ image(h) must match image(g*h).  This probabilistic check is
    all that is required; no presentation of the group is needed.
    """
    _check_field(field)
    if len(images) != len(group.generators):
        raise ValueError(
            f"got {len(images)} images for {len(group.generators)} generators")
    mats = [np.asarray(m) for m in images]
    if not mats:
        raise ValueError("cannot infer dimension from an empty image list; "
                         "use trivial_rep or natural_perm_rep for the trivial group")
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"image {i} has shape {m.shape}, expected {(n, n)}")
        if field == "real" and np.iscomplexobj(m) and np.abs(m.imag).max() > 0:
            raise ValueError(f"image {i} has complex entries but field is real")
        _require_unitary(m.astype(_dtype(field)), f"generator image {i}")

    rep = Representation(group, n, field, _ChainImages(group, mats, n, field),
                         name="generator-images")

    rng = np.random.default_rng(_HOM_CHECK_SEED)
    tol = 1e-8 * n
    for _ in range(_HOM_CHECK_PAIRS):
        g, h = group.sample(rng), group.sample(rng)
        err = np.linalg.norm(rep.image(g) @ rep.image(h) - rep.image(g * h))
        if err > tol:
            raise ValueError(
                f"generator images are inconsistent: homomorphism error {err:.3e} "
                f"on a random pair (tolerance {tol:.1e})")
    return rep


def natural_perm_rep(group: PermutationGroup, field="complex") -> Representation:
    """Permutation matrices acting on coordinates: entry (g(k), k) = 1."""
    _check_field(field)
    n = group.degree
    dt = _dtype(field)

    def image(g: Permutation) -> np.ndarray:
        m = np.zeros((n, n), dtype=dt)
        for k in range(n):
            m[g(k), k] = 1
        return m

    return Representation(group, n, field, image, name="natural")


def trivial_rep(group, field="complex") -> Representation:
    """One-dimensional representation sending everything to [[1]]."""
    _check_field(field)
    one = np.ones((1, 1), dtype=_dtype(field))
    return Representation(group, 1, field, lambda g: one.copy(), name="trivial")


def defining_rep(handle: CompactGroupHandle) -> Representation:
    """The defining representation of U(d) or O(d): the sample is the image."""
    field = "complex" if handle.kind == "unitary" else "real"
    dt = _dtype(field)

    def image(u) -> np.ndarray:
        return np.asarray(u, dtype=dt)

    return Representation(handle, handle.dim, field, image, name="defining")


def _require_compatible(r1: Representation, r2: Representation, what):
    if not (r1.group is r2.group or r1.group == r2.group):
        raise ValueError(f"{what} requires representations of the same group")
    if r1.field != r2.field:
        raise ValueError(f"{what} requires matching fields, got {r1.field} and {r2.field}")


def tensor(r1: Representation, r2: Representation) -> Representation:
    """Tensor (Kronecker) product; indices pair row-major as numpy's kron."""
    _require_compatible(r1, r2, "tensor")

    def image(g):
        return np.kron(r1.image(g), r2.image(g))

    return Representation(r1.group, r1.dim * r2.dim, r1.field, image,
                          name=f"({r1.name} (x) {r2.name})")


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum of two representations."""
    _require_compatible(r1, r2, "direct_sum")
    n1, n2 = r1.dim, r2.dim
    dt = _dtype(r1.field)

    def image(g):
        m = np.zeros((n1 + n2, n1 + n2), dtype=dt)
        m[:n1, :n1] = r1.image(g)
        m[n1:, n1:] = r2.image(g)
        return m

    return Representation(r1.group, n1 + n2, r1.field, image,
                          name=f"({r1.name} (+) {r2.name})")


def conjugate(r: Representation) -> Representation:
    """Entrywise complex conjugate; defined for complex representations."""
    if r.field != "complex":
        raise ValueError("conjugate requires a complex representation")

    def image(g):
        return np.conj(r.image(g))

    return Representation(r.group, r.dim, r.field, image, name=f"conj({r.name})")


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor power, folded left to right."""
    if k < 1:
        raise ValueError("tensor power exponent must be >= 1")
    out = r
    for _ in range(k - 1):
        out = tensor(out, r)
    return out
