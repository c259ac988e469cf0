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

A representation whose images permute the basis vectors carries an
:class:`IndexAction`: one integer array per element instead of a matrix.
Its images, products and conjugations are then integer gathers, and the
combinators carry the action along.
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


class IndexAction:
    """A permutation action on basis indices: rho(g) e_k = e_{sigma_g(k)}.

    ``generators`` holds sigma for each group generator, ``element`` maps
    any group element to its sigma; both are integer arrays of length
    ``dim``.
    """

    def __init__(self, dim, generators, element):
        self.dim = dim
        self.generators = tuple(generators)
        self.element = element
        self._orbitals = None

    def orbitals(self):
        """Orbital label of every index pair and the size of every orbital.

        The orbitals are the orbits of the group on pairs (i, j); their
        0/1 indicator matrices span the commutant.  Returns ``(ids,
        counts)``: ``ids[i * n + j]`` numbers the orbital of (i, j) from 0,
        in order of its smallest pair.  Computed on first use by label
        propagation over the generators, then kept.
        """
        if self._orbitals is None:
            n = self.dim
            lab = np.arange(n * n)
            moves = [(s[:, None] * n + s).ravel() for s in self.generators]
            while True:
                done = True
                for move in moves:
                    ends = lab[move]
                    if np.array_equal(ends, lab):
                        continue
                    done = False
                    # every label is a root (its own label); hook the roots
                    # of both ends of each edge (p, move[p]) to the smaller
                    # one, then let every label jump to its new root.  One
                    # end would do, as every edge lies on a cycle of the
                    # move, but labels then travel long cycles several times
                    # slower.
                    low = np.minimum(lab, ends)
                    hooked = lab.copy()
                    np.minimum.at(hooked, lab, low)
                    np.minimum.at(hooked, ends, low)
                    lab = hooked[hooked]
                    while not np.array_equal(lab, hooked):
                        hooked, lab = lab, lab[lab]
                if done:
                    break
            _, ids, counts = np.unique(lab, return_inverse=True, return_counts=True)
            self._orbitals = (ids, counts)
        return self._orbitals


def _perm_matrix(sigma, dtype):
    n = len(sigma)
    m = np.zeros((n, n), dtype=dtype)
    m[sigma, np.arange(n)] = 1
    return m


class Representation:
    """A unitary representation, exposed as an image oracle.

    Parameters
    ----------
    group : PermutationGroup or CompactGroupHandle
    dim : int
        Matrix size n of the images.
    field : {"real", "complex"}
    image_fn : callable or None
        Maps a group element (Permutation, or sampled matrix for compact
        groups) to its n x n image.  None builds the images from
        ``index_action``.
    index_action : IndexAction or None
        Set when every image permutes the basis vectors.
    """

    def __init__(self, group, dim, field, image_fn, name="rep", index_action=None):
        _check_field(field)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if image_fn is None and index_action is None:
            raise ValueError("a representation needs image_fn or index_action")
        self.group = group
        self.dim = int(dim)
        self.field = field
        self._image_fn = image_fn
        self.index_action = index_action
        self.name = name

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, PermutationGroup)

    def image(self, g) -> np.ndarray:
        if self._image_fn is None:
            return _perm_matrix(self.index_action.element(g), _dtype(self.field))
        return self._image_fn(g)

    def conjugate_by(self, g, x) -> np.ndarray:
        """rho(g) x rho(g)^dag; a row and column gather for an index action."""
        if self.index_action is None:
            u = self.image(g)
            return u @ x @ u.conj().T
        inv = np.argsort(self.index_action.element(g))
        return x[np.ix_(inv, inv)]

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

    Every transversal representative is a node of the chain's shared
    product DAG over the original generators.  On first use all of them
    are evaluated together, with one product or inverse per reachable node
    (:meth:`PermutationGroup.transversal_images`), and kept per level.  The
    image of a group element is the product of its transversal images; it
    is not cached, and a transversal element's image is its cached level
    image itself.  The images are matrices, or index arrays of an
    :class:`IndexAction`, according to the product ``mul``, the inverse
    ``inv`` and the identity ``one`` given.
    """

    def __init__(self, group: PermutationGroup, gen_images, one, mul, inv):
        self.group = group
        self._one, self._mul, self._inv = one, mul, inv
        self._gen = list(gen_images)
        self._level = None

    def _transversal_image(self, level, point):
        if self._level is None:
            self._level = [{b: _frozen(m) for b, m in images.items()} for images in
                           self.group.transversal_images(self._gen, self._one,
                                                         self._mul, self._inv)]
        return self._level[level][point]

    def __call__(self, g: Permutation) -> np.ndarray:
        out = None
        for level, point in self.group.factorize(g):
            if point != self.group.base[level]:  # identity factor otherwise
                t = self._transversal_image(level, point)
                out = t if out is None else self._mul(out, t)
        if out is None:
            return self._one()
        return out


def _require_unitary(mat, what):
    n = mat.shape[0]
    resid = np.linalg.norm(mat.conj().T @ mat - np.eye(n))
    if not resid <= _UNITARY_TOL:  # NaN fails too
        raise ValueError(f"{what} is not unitary (residual {resid:.3e})")


def _permutation_indices(mats):
    """sigma per matrix when every one is exactly a permutation matrix, else None."""
    out = []
    for m in mats:
        ones = m == 1
        if not (np.all(ones | (m == 0)) and np.all(ones.sum(axis=0) == 1)
                and np.all(ones.sum(axis=1) == 1)):
            return None
        out.append(np.argmax(ones, axis=0))
    return out


def rep_from_generator_images(group: PermutationGroup, images, field="complex") -> Representation:
    """Representation of a finite group given by one unitary image per generator.

    The images are spot-checked for consistency: on random pairs (g, h),
    image(g) @ image(h) must match image(g*h).  This probabilistic check is
    all that is required; no presentation of the group is needed.  When
    every image is exactly a permutation matrix, the representation gets
    an :class:`IndexAction` and the check compares index arrays exactly.
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

    rng = np.random.default_rng(_HOM_CHECK_SEED)
    pairs = [(g, h, g * h) for g, h in
             ((group.sample(rng), group.sample(rng)) for _ in range(_HOM_CHECK_PAIRS))]
    sigmas = _permutation_indices(mats)
    if sigmas is not None:
        # index arrays compose like their matrices: sigma_{gh} = sigma_g[sigma_h]
        chain = _ChainImages(group, sigmas, lambda: np.arange(n),
                             lambda a, b: a[b], np.argsort)
        action = IndexAction(n, sigmas, chain)
        for g, h, gh in pairs:
            if not np.array_equal(chain(g)[chain(h)], chain(gh)):
                raise ValueError("generator images are inconsistent: the permutations "
                                 "of a random pair do not compose")
        return Representation(group, n, field, None, name="generator-images",
                               index_action=action)

    dt = _dtype(field)
    chain = _ChainImages(group, [m.astype(dt) for m in mats],
                         lambda: np.eye(n, dtype=dt), np.matmul, lambda m: m.conj().T)
    rep = Representation(group, n, field, chain, name="generator-images")
    tol = 1e-8 * n
    for g, h, gh in pairs:
        err = np.linalg.norm(rep.image(g) @ rep.image(h) - rep.image(gh))
        if not err <= tol:
            raise ValueError(
                f"generator images are inconsistent: homomorphism error {err:.3e} "
                f"on a random pair (tolerance {tol:.1e})")
    return rep


def natural_perm_rep(group: PermutationGroup, field="complex") -> Representation:
    """Permutation matrices acting on coordinates: entry (g(k), k) = 1."""
    _check_field(field)

    def sigma(g: Permutation) -> np.ndarray:
        return np.array(g.images)

    action = IndexAction(group.degree, [sigma(g) for g in group.generators], sigma)
    return Representation(group, group.degree, field, None, name="natural",
                          index_action=action)


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


def _combined_action(r1, r2, dim, combine):
    """Index action of a combination of two representations, if both have one."""
    a1, a2 = r1.index_action, r2.index_action
    if a1 is None or a2 is None:
        return None
    return IndexAction(dim, map(combine, a1.generators, a2.generators),
                       lambda g: combine(a1.element(g), a2.element(g)))


def tensor(r1: Representation, r2: Representation) -> Representation:
    """Tensor (Kronecker) product; indices pair row-major as numpy's kron."""
    _require_compatible(r1, r2, "tensor")
    n2 = r2.dim
    action = _combined_action(r1, r2, r1.dim * n2,
                              lambda s1, s2: (s1[:, None] * n2 + s2).ravel())

    def image(g):
        return np.kron(r1.image(g), r2.image(g))

    return Representation(r1.group, r1.dim * n2, r1.field,
                          image if action is None else None,
                          name=f"({r1.name} (x) {r2.name})", index_action=action)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum of two representations."""
    _require_compatible(r1, r2, "direct_sum")
    n1, n2 = r1.dim, r2.dim
    dt = _dtype(r1.field)
    action = _combined_action(r1, r2, n1 + n2,
                              lambda s1, s2: np.concatenate([s1, s2 + n1]))

    def image(g):
        m = np.zeros((n1 + n2, n1 + n2), dtype=dt)
        m[:n1, :n1] = r1.image(g)
        m[n1:, n1:] = r2.image(g)
        return m

    return Representation(r1.group, n1 + n2, r1.field,
                          image if action is None else None,
                          name=f"({r1.name} (+) {r2.name})", index_action=action)


def conjugate(r: Representation) -> Representation:
    """Entrywise complex conjugate; defined for complex representations."""
    if r.field != "complex":
        raise ValueError("conjugate requires a complex representation")

    def image(g):
        return np.conj(r.image(g))

    return Representation(r.group, r.dim, r.field,
                          image if r.index_action is None else None,
                          name=f"conj({r.name})", index_action=r.index_action)


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor power, folded left to right."""
    if k < 1:
        raise ValueError("tensor power exponent must be >= 1")
    out = r
    for _ in range(k - 1):
        out = tensor(out, r)
    return out
