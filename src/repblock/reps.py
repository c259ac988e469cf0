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
combinators carry the action along.  A compact-group representation built
from the defining one carries its derived representation d rho on a basis
of the Lie algebra the same way, and the commutant projection uses it in
place of Haar samples.
"""

from __future__ import annotations

import math
import os
from functools import reduce
from itertools import accumulate

import numpy as np

from .compact import CompactGroupHandle, lie_basis
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
    derived : callable or None
        The derived representation d rho of a compact-group representation,
        when it is known, on the orthonormal basis L_1..L_k of the Lie
        algebra that :func:`~repblock.compact.lie_basis` gives.  Called as
        ``derived(y, gens)`` with a slice ``gens`` of the m generators
        L_j to act by and a stack y of shape (K, P, n, Q), K = 1 or m, it
        returns the (m, P, n, Q) stack whose i-th entry is
        (I_P (x) d rho(L_j) (x) I_Q) y_i for the i-th j of ``gens`` (y_0
        when K = 1).  No d rho(L_j) is formed: the combinators reshape and
        slice y for their parts.  It must agree with the images;
        verification against Haar samples catches one that does not.
    """

    def __init__(self, group, dim, field, image_fn, name="rep", index_action=None,
                 derived=None):
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
        self.derived = derived
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

    sigmas = _permutation_indices(mats)
    if sigmas is not None:
        # index arrays compose like their matrices, sigma_{gh} = sigma_g[sigma_h],
        # and are compared exactly
        mul, tol = (lambda a, b: a[b]), 0
        chain = _ChainImages(group, sigmas, lambda: np.arange(n), mul, np.argsort)
    else:
        dt = _dtype(field)
        mul, tol = np.matmul, 1e-8 * n
        chain = _ChainImages(group, [m.astype(dt) for m in mats],
                             lambda: np.eye(n, dtype=dt), mul, lambda m: m.conj().T)
    rng = np.random.default_rng(_HOM_CHECK_SEED)
    for g, h in ((group.sample(rng), group.sample(rng)) for _ in range(_HOM_CHECK_PAIRS)):
        err = np.linalg.norm(mul(chain(g), chain(h)) - chain(g * h))
        if not err <= tol:  # NaN fails too
            raise ValueError(
                f"generator images are inconsistent: homomorphism error {err:.3e} "
                f"on a random pair (tolerance {tol:.1e})")
    if sigmas is None:
        return Representation(group, n, field, chain, name="generator-images")
    return Representation(group, n, field, None, name="generator-images",
                          index_action=IndexAction(n, sigmas, chain))


def natural_perm_rep(group: PermutationGroup, field="complex") -> Representation:
    """Permutation matrices acting on coordinates: entry (g(k), k) = 1."""
    _check_dim(group.degree, field)

    def sigma(g: Permutation) -> np.ndarray:
        return np.array(g.images)

    action = IndexAction(group.degree, [sigma(g) for g in group.generators], sigma)
    return Representation(group, group.degree, field, None, name="natural",
                          index_action=action)


def trivial_rep(group, field="complex") -> Representation:
    """One-dimensional representation sending everything to [[1]].

    Of a compact group it carries the derived action 0.
    """
    one = np.ones((1, 1), dtype=_dtype(field))
    derived = None
    if isinstance(group, CompactGroupHandle):
        basis = lie_basis(group)

        def derived(y, gens):
            count = len(range(len(basis))[gens])
            return np.zeros((count, *y.shape[1:]), dtype=np.result_type(y, basis))

    return Representation(group, 1, field, lambda g: one.copy(), name="trivial",
                          derived=derived)


def defining_rep(handle: CompactGroupHandle, field=None) -> Representation:
    """The defining representation of U(d) or O(d): the sample is the image.

    ``field`` defaults to the group's own, complex for U(d) and real for
    O(d); O(d) may also act on C^d.
    """
    own = "complex" if handle.kind == "unitary" else "real"
    field = field or own
    if own == "complex" and field == "real":
        raise ValueError(f"the defining representation of a {handle.kind} group is "
                         "complex, not real")
    dt = _dtype(field)
    basis = lie_basis(handle)[:, None]

    def image(u) -> np.ndarray:
        return np.asarray(u, dtype=dt)

    return Representation(handle, handle.dim, field, image, name="defining",
                          derived=lambda y, gens: basis[gens] @ y)


def _require_compatible(reps, what):
    first = reps[0]
    for r in reps[1:]:
        if not (r.group is first.group or r.group == first.group):
            raise ValueError(f"{what} requires representations of the same group")
        if r.field != first.field:
            raise ValueError(f"{what} requires matching fields, got {first.field} and {r.field}")


def _check_dim(dim, field):
    """Refuse a dimension whose one n x n matrix exceeds physical memory."""
    need = dim * dim * np.dtype(_dtype(field)).itemsize
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"dimension {dim} is too large: one {dim} x {dim} {field} matrix "
                         f"needs {need / 2**30:.3g} GiB, physical memory is "
                         f"{have / 2**30:.3g} GiB")


def _combined_action(reps, dim, combine):
    """Index action of a combination of representations, if every one has one."""
    actions = [r.index_action for r in reps]
    if any(a is None for a in actions):
        return None
    return IndexAction(dim, map(combine, *(a.generators for a in actions)),
                       lambda g: combine(*(a.element(g) for a in actions)))


def _combined_derived(reps, act):
    """Derived representation ``act`` of a combination, if every part has one."""
    return None if any(r.derived is None for r in reps) else act


def tensor(r1: Representation, *rest: Representation) -> Representation:
    """Tensor (Kronecker) product of the factors; indices pair row-major as
    numpy's kron, folded left to right."""
    reps = (r1, *rest)
    _require_compatible(reps, "tensor")
    dim = math.prod(r.dim for r in reps)
    _check_dim(dim, r1.field)

    def kron_indices(*sigmas):
        out = sigmas[0]
        for r, s in zip(rest, sigmas[1:]):
            out = (out[:, None] * r.dim + s).ravel()
        return out

    # each distinct factor is evaluated once per element, and the 1 x 1
    # factors multiply as one scalar instead of entering the kron fold
    distinct = list({id(r): r for r in reps}.values())
    slot = {id(r): i for i, r in enumerate(distinct)}
    blocks = [slot[id(r)] for r in reps if r.dim > 1]
    scalars = [slot[id(r)] for r in reps if r.dim == 1]
    dt = _dtype(r1.field)

    def image(g):
        imgs = [r.image(g) for r in distinct]
        out = reduce(np.kron, [imgs[i] for i in blocks]) if blocks else np.ones((1, 1), dt)
        if scalars:
            out = out * math.prod(imgs[i][0, 0] for i in scalars)
        return out

    def act(y, gens):
        # d rho = sum over the factors of I (x) d rho_f (x) I: factor f acts on
        # the middle axis of y's n axis split as (before, dim_f, after)
        out, before = 0, 1
        for r in reps:
            after = dim // (before * r.dim)
            kk, p, _, q = y.shape
            part = r.derived(y.reshape(kk, p * before, r.dim, after * q), gens)
            out = out + part.reshape(-1, p, dim, q)
            before *= r.dim
        return out

    action = _combined_action(reps, dim, kron_indices)
    return Representation(r1.group, dim, r1.field, image if action is None else None,
                          name="(" + " (x) ".join(r.name for r in reps) + ")",
                          index_action=action, derived=_combined_derived(reps, act))


def direct_sum(r1: Representation, *rest: Representation) -> Representation:
    """Block-diagonal sum of the terms, in order."""
    reps = (r1, *rest)
    _require_compatible(reps, "direct_sum")
    offsets = list(accumulate((r.dim for r in reps), initial=0))
    dim = offsets[-1]
    _check_dim(dim, r1.field)
    dt = _dtype(r1.field)

    def image(g):
        m = np.zeros((dim, dim), dtype=dt)
        for r, lo in zip(reps, offsets):
            m[lo:lo + r.dim, lo:lo + r.dim] = r.image(g)
        return m

    def act(y, gens):
        return np.concatenate([r.derived(y[:, :, lo:lo + r.dim], gens)
                               for r, lo in zip(reps, offsets)], axis=2)

    action = _combined_action(reps, dim, lambda *sigmas: np.concatenate(
        [s + lo for s, lo in zip(sigmas, offsets)]))
    return Representation(r1.group, dim, r1.field, image if action is None else None,
                          name="(" + " (+) ".join(r.name for r in reps) + ")",
                          index_action=action, derived=_combined_derived(reps, act))


def conjugate(r: Representation) -> Representation:
    """Entrywise complex conjugate; defined for complex representations."""
    if r.field != "complex":
        raise ValueError("conjugate requires a complex representation")

    def image(g):
        return np.conj(r.image(g))

    return Representation(r.group, r.dim, r.field,
                          image if r.index_action is None else None,
                          name=f"conj({r.name})", index_action=r.index_action,
                          derived=_combined_derived(
                              [r], lambda y, gens: np.conj(r.derived(np.conj(y), gens))))


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor power: :func:`tensor` of k copies of ``r``."""
    if k < 1:
        raise ValueError("tensor power exponent must be >= 1")
    return tensor(*[r] * k)
