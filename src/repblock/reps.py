"""Representations as image oracles.

A :class:`Representation` pairs a group (a :class:`~repblock.perm.PermutationGroup`
or a :class:`~repblock.compact.CompactGroupHandle`) with a function mapping
group elements to unitary matrices over ``"real"`` or ``"complex"``.

Finite-group representations are built either from the permutation action
itself (:func:`natural_perm_rep`) or from one unitary matrix per generator
(:func:`rep_from_generator_images`); the image of an arbitrary element is
then assembled by sifting it through the stabilizer chain and multiplying
precomputed transversal images.  Generator images are accepted exactly when
that evaluation is a homomorphism extending them, which the chain's
Schreier relators decide.  A compact-group representation is the tree of
combinators (:func:`tensor`, :func:`direct_sum`, :func:`conjugate`,
:func:`tensor_power`) that built it from :func:`defining_rep` and
:func:`trivial_rep` (:class:`Derived`); its images, its derived
representation d rho and the commutant projection's Casimir are read from it.

A representation whose images permute the basis vectors carries an
:class:`IndexAction`: one integer array per element instead of a matrix.
Its images and products are then integer gathers, and the combinators
carry the action along.
"""

from __future__ import annotations

import math
import os
from functools import reduce
from itertools import accumulate

import numpy as np

from .compact import CompactGroupHandle
from .perm import Permutation, PermutationGroup

_FIELDS = ("real", "complex")
_UNITARY_TOL = 1e-8
_HOM_CHECK_SEED = 0x5EED  # draws the probe block that checks generator images


def _dtype(field):
    return np.complex128 if field == "complex" else np.float64


def _check_field(field):
    if field not in _FIELDS:
        raise ValueError(f"field must be one of {_FIELDS}, got {field!r}")


class ProjectionError(RuntimeError):
    """Raised when a commutant projection fails its gate."""


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
        self._orbitals = self._representatives = None

    def orbitals(self):
        """Orbital label of every index pair and the size of every orbital.

        The orbitals are the orbits of the group on pairs (i, j); their
        0/1 indicator matrices span the commutant.  Returns ``(ids,
        counts)``: ``ids[i * n + j]`` numbers the orbital of (i, j) from 0,
        in order of its smallest pair.  Computed on first use by label
        propagation over the generators, checked exactly (each generator's
        move of the pairs must keep every label, or :class:`ProjectionError`
        is raised), then kept.
        """
        if self._orbitals is None:
            n = self.dim
            moves = [(s[:, None] * n + s).ravel() for s in self.generators]
            lab = _propagate_labels(np.arange(n * n), moves)
            sizes = np.bincount(lab)  # np.unique's ids and counts, without its sort
            ids, counts = np.cumsum(sizes > 0)[lab] - 1, sizes[sizes > 0]
            if not all(np.array_equal(ids[move], ids) for move in moves):
                raise ProjectionError("orbital labels are not invariant under the generators")
            self._orbitals = (ids, counts)
        return self._orbitals

    def representatives(self):
        """The first pair (k_c, l_c) of every orbital c, as two index arrays,
        kept after first use.  Orbitals are numbered in order of their first
        pair, so the running maximum of the labels first reaches c there."""
        if self._representatives is None:
            ids, counts = self.orbitals()
            first = np.searchsorted(np.maximum.accumulate(ids), np.arange(len(counts)))
            self._representatives = np.divmod(first, self.dim)
        return self._representatives


def _propagate_labels(lab, moves):
    """Merge the labels ``lab`` along every move until each move keeps
    every label; a label ends as the smallest of its orbit."""
    while True:
        done = True
        for move in moves:
            ends = lab[move]
            if np.array_equal(ends, lab):
                continue
            done = False
            # every label is a root (its own label); hook the roots of both
            # ends of each edge (p, move[p]) to the smaller one, then let
            # every label jump to its new root.  One end would do, as every
            # edge lies on a cycle of the move, but labels then travel long
            # cycles several times slower.
            low = np.minimum(lab, ends)
            hooked = lab.copy()
            np.minimum.at(hooked, lab, low)
            np.minimum.at(hooked, ends, low)
            lab = hooked[hooked]
            while not np.array_equal(lab, hooked):
                hooked, lab = lab, lab[lab]
        if done:
            return lab


def _perm_matrix(sigma, dtype):
    n = len(sigma)
    m = np.zeros((n, n), dtype=dtype)
    m[sigma, np.arange(n)] = 1
    return m


class Derived:
    """The derived representation d rho of a compact-group representation,
    as the tree of combinators that built it from the defining one.

    ``kind`` is ``"leaf"``, the defining representation of U(d) or O(d),
    entrywise conjugated when ``conj``; ``"zero"``, the trivial one, whose
    d rho is 0; or ``"tensor"`` or ``"sum"`` of ``parts``, in order.
    ``leaves`` is the largest number of leaves on one tensor path, so
    ||d rho(L)||_2 <= leaves ||L||_2.  ``charge`` counts the leaves, -1 for
    a conjugated one: a one-dimensional tree of U(1) has d rho(i) = i charge.
    """

    def __init__(self, kind, dim, parts=(), conj=False):
        self.kind, self.dim, self.parts, self.conj = kind, dim, tuple(parts), conj
        counts = [p.leaves for p in self.parts]
        self.leaves = (1 if kind == "leaf" else sum(counts) if kind == "tensor"
                       else max(counts, default=0))
        self.charge = (-1 if conj else 1) if kind == "leaf" else sum(p.charge for p in self.parts)

    def conjugate(self) -> Derived:
        """The tree of the entrywise conjugate: every leaf's flag flipped.
        A part shared by several slots, as in a tensor power, is walked once."""
        if self.kind == "leaf":
            return Derived("leaf", self.dim, conj=not self.conj)
        flipped = {key: p.conjugate() for key, p in {id(p): p for p in self.parts}.items()}
        return Derived(self.kind, self.dim, [flipped[id(p)] for p in self.parts])


def _evaluate(tree, x, dtype, lie):
    """rho(x) of a group element x, or with ``lie`` d rho(x) of a Lie-algebra
    element x, read from ``tree``.  A leaf gives x, conjugated when flagged;
    a zero gives 1, or 0 for d rho; a sum is block-diagonal; a tensor is the
    Kronecker product, or A (x) I + I (x) B for d rho, folded left to right.
    A part shared by several slots, as in a tensor power, is evaluated once."""
    done = {}

    def walk(node):
        if id(node) not in done:
            if node.kind == "leaf":
                out = np.asarray(np.conj(x) if node.conj else x, dtype=dtype)
            elif node.kind == "zero":
                out = np.full((1, 1), 0 if lie else 1, dtype=dtype)
            elif node.kind == "sum":
                out = np.zeros((node.dim, node.dim), dtype=dtype)
                for p, lo in zip(node.parts, accumulate((p.dim for p in node.parts), initial=0)):
                    out[lo:lo + p.dim, lo:lo + p.dim] = walk(p)
            elif lie:
                out = reduce(lambda a, b: np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b),
                             map(walk, node.parts))
            else:
                out = reduce(np.kron, map(walk, node.parts))
            done[id(node)] = out
        return done[id(node)]

    return walk(tree)


class Representation:
    """A unitary representation, exposed as an image oracle.

    Parameters
    ----------
    group : PermutationGroup or CompactGroupHandle
    dim : int
        Matrix size n of the images.
    field : {"real", "complex"}
    image_fn : callable or None
        Maps a Permutation to its n x n image.  None builds the images from
        ``index_action`` or ``derived``.
    index_action : IndexAction or None
        Set when every image permutes the basis vectors.
    derived : Derived or None
        Required for a compact group, and then the only description: the
        tree of combinators that built the representation from the defining
        one, which gives its images and its derived representation d rho.
    """

    def __init__(self, group, dim, field, image_fn, name="rep", index_action=None,
                 derived=None):
        _check_field(field)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if isinstance(group, CompactGroupHandle) and (derived is None or image_fn is not None):
            raise ValueError("a compact-group representation " + (
                "needs derived, the tree of combinators that built it" if derived is None
                else "takes no image_fn: its images are read from derived"))
        if image_fn is None and index_action is None and derived is None:
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
        if self.derived is not None:
            return _evaluate(self.derived, g, _dtype(self.field), lie=False)
        if self._image_fn is None:
            return _perm_matrix(self.index_action.element(g), _dtype(self.field))
        return self._image_fn(g)

    def lie_image(self, z) -> np.ndarray:
        """d rho(Z) of an element Z of a compact group's Lie algebra, dense."""
        return _evaluate(self.derived, z, _dtype(self.field), lie=True)

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

    def apply(self, points, x):
        """Row r of the stack ``x`` times the image of the member whose chain
        points (:func:`_chain_points`) are row r of ``points``, for every r;
        one product per level and orbit point serves all rows that share it."""
        for level in reversed(range(points.shape[1])):
            column = points[:, level]
            for b in np.flatnonzero(np.bincount(column)):  # np.unique imports numpy.ma
                if b != self.group.base[level]:
                    rows = column == b
                    x[rows] = self._mul(self._transversal_image(level, int(b)), x[rows])
        return x


def _chain_points(group: PermutationGroup, perms):
    """The points :meth:`PermutationGroup.factorize` gives for every member
    in the rows of the integer array ``perms``, one column per level."""
    d = group.degree
    points = np.empty((len(perms), len(group.base)), dtype=np.intp)
    for level, (point, transversal) in enumerate(zip(group.base, group.transversals)):
        inverses = np.zeros((d, d), dtype=np.intp)
        for b, u in transversal.items():
            inverses[b, u.images] = np.arange(d)
        points[:, level] = perms[:, point]
        perms = np.take_along_axis(inverses[points[:, level]], perms, axis=1)
    return points


@np.errstate(invalid="ignore", over="ignore")  # a non-finite residual fails the gate
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


def _check_relators(group, chain, probe, tol):
    """Raise ValueError unless conditions 1 and 2 of :func:`rep_from_generator_images`
    hold: one row per check, rho_hat(x) P against x's image times P (the
    identity applied to it), then rho_hat(s) T_l(a) P against rho_hat(s u_a) P."""
    mul = chain._mul
    relators = [(level, j, s, a, u) for level, (strong, orbit) in
                enumerate(zip(group.strong_generators, group.transversals))
                for j, s in enumerate(strong) for a, u in orbit.items()]
    blocks = {(level, a): mul(chain._transversal_image(level, a), probe)
              for level, orbit in enumerate(group.transversals) for a in orbit}
    xs = np.array([x.images for x in group.generators])
    ss, us = (np.array([r[k].images for r in relators], dtype=np.intp).reshape(-1, group.degree)
              for k in (2, 4))
    left, right = np.split(_chain_points(group, np.concatenate([
        xs, ss, np.broadcast_to(np.arange(group.degree), xs.shape),
        np.take_along_axis(ss, us, axis=1)])), 2)
    lhs = chain.apply(left, np.stack([probe] * len(xs) + [blocks[r[0], r[3]] for r in relators]))
    rhs = chain.apply(right, np.stack([mul(m, probe) for m in chain._gen] + [probe] * len(relators)))
    err = np.linalg.norm((lhs - rhs).reshape(len(lhs), -1), axis=1)
    for r in np.flatnonzero(~(err <= tol))[:1]:  # NaN fails too
        if r < len(xs):
            what = f"the chain evaluates generator {r} off its image"
        else:
            level, j, _, a, _ = relators[r - len(xs)]
            what = (f"the relator of strong generator {j} of level {level} at orbit "
                    f"point {a} is off")
        raise ValueError(f"generator images are inconsistent: {what} by {err[r]:.3e} "
                         f"(tolerance {tol:.1e})")


def rep_from_generator_images(group: PermutationGroup, images, field="complex") -> Representation:
    """Representation of a finite group given by one unitary image per generator.

    The image of g is rho_hat(g) = T_0(a_0) ... T_{k-1}(a_{k-1}), the product of
    the transversal images of g's normal form g = u_{a_0} ... u_{a_{k-1}}, each
    T_l(a) the value of u_a's word over the generators.  The images are
    accepted if and only if rho_hat is a homomorphism that extends them, which
    holds exactly when

    1. rho_hat(x) equals the given image for every generator x, identities
       included, and
    2. rho_hat(s) T_l(a) = rho_hat(s u_a) for every level l, every strong
       generator s of that level and every orbit point a of it (the chain's
       Schreier relators; Sims' presentation, see Seress, *Permutation Group
       Algorithms*, 2003, and Holt, Eick and O'Brien, *Handbook of
       Computational Group Theory*, 2005).

    Both hold for a homomorphism extending the images: rho_hat(u_a) = T_l(a),
    as u_a's normal form is itself.  Conversely, let G_l be the group of level
    l's strong generators, so G_l = union of u_a G_{l+1}, and suppose rho_hat
    is a homomorphism on G_{l+1} (true for the deepest, trivial level).  The
    normal form gives rho_hat(u_a h) = T_l(a) rho_hat(h) for h in G_{l+1}, so
    rho_hat(x h) = rho_hat(x) rho_hat(h) for any x in G_l.  With 2, for
    g = u_a h, rho_hat(s g) = rho_hat(s u_a) rho_hat(h) = rho_hat(s) rho_hat(g).
    Every element of the finite group G_l is a product of its strong
    generators, and rho_hat(1) = I, so rho_hat is a homomorphism on G_l; at
    l = 0 on the group, and by 1 it extends the images.  No other
    homomorphism does: any one maps u_a to T_l(a).

    When every image is exactly a permutation matrix, and so orthogonal, the
    representation gets an :class:`IndexAction`, and both sides are index
    arrays compared exactly.  Otherwise each image must pass the unitarity
    check m^dag m = I, and both sides are applied, right to left, to one fixed
    n x 4 Gaussian block P, so no n x n product is formed; a difference D that
    is not 0 leaves D P = 0 with probability zero, and E|D P|_F^2 = 4 |D|_F^2,
    so the tolerance 2e-8 n on |D P|_F reads as 1e-8 n on |D|_F.
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
        if field == "real" and np.iscomplexobj(m) and np.any(m.imag != 0):  # NaN too
            raise ValueError(f"image {i} has complex entries but field is real")

    sigmas = _permutation_indices(mats)
    if sigmas is not None:
        # index arrays compose like their matrices, sigma_{gh} = sigma_g[sigma_h]
        probe, tol = np.arange(n), 0
        chain = _ChainImages(group, sigmas, lambda: np.arange(n), lambda a, b: a[b], np.argsort)
    else:
        dt = _dtype(field)
        mats = [(m.real if field == "real" else m).astype(dt) for m in mats]
        for i, m in enumerate(mats):
            _require_unitary(m, f"generator image {i}")
        probe = np.random.default_rng(_HOM_CHECK_SEED).standard_normal((n, 4)).astype(dt)
        tol = 2e-8 * n
        chain = _ChainImages(group, mats, lambda: np.eye(n, dtype=dt), np.matmul,
                             lambda m: m.conj().T)
    _check_relators(group, chain, probe, tol)
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

    Of a compact group it is the tree ``zero``, whose d rho is 0.
    """
    if isinstance(group, CompactGroupHandle):
        return Representation(group, 1, field, None, name="trivial", derived=Derived("zero", 1))
    one = np.ones((1, 1), dtype=_dtype(field))
    return Representation(group, 1, field, lambda g: one.copy(), name="trivial")


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
    _check_dim(handle.dim, field)
    return Representation(handle, handle.dim, field, None, name="defining",
                          derived=Derived("leaf", handle.dim))


def _require_compatible(reps, what):
    first = reps[0]
    for r in reps[1:]:
        if not (r.group is first.group or r.group == first.group):
            raise ValueError(f"{what} requires representations of the same group")
        if r.field != first.field:
            raise ValueError(f"{what} requires matching fields, got {first.field} and {r.field}")


def _check_dim(dim, field):
    """Refuse a dimension whose one n x n matrix exceeds physical memory."""
    if dim.bit_length() > 64:  # beyond any memory, and its square may be too long to print
        _check_dim_bits(f"of {dim.bit_length()} bits", dim.bit_length() - 1, field)
    _check_memory(dim * dim * np.dtype(_dtype(field)).itemsize,
                  f"dimension {dim} is too large: one {dim} x {dim} {field} matrix")


def _check_memory(need, what):
    """Refuse ``what``, which needs ``need`` bytes, when that exceeds physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs {need:,} bytes, physical memory is {have:,} bytes")


def _check_dim_bits(name, bits, field):
    """Refuse the dimension ``name``, known to be at least 2^bits, when 2^bits
    alone breaks the :func:`_check_dim` rule: before the dimension, which may
    have more digits than Python prints, is formed."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if bits >= math.isqrt(have // np.dtype(_dtype(field)).itemsize).bit_length():
        raise ValueError(f"dimension {name} is too large: one {field} matrix of 2^{bits} x "
                         f"2^{bits} or more exceeds physical memory, {have:,} bytes")


def _combined_action(reps, dim, combine):
    """Index action of a combination of representations, if every one has one."""
    actions = [r.index_action for r in reps]
    if any(a is None for a in actions):
        return None
    return IndexAction(dim, map(combine, *(a.generators for a in actions)),
                       lambda g: combine(*(a.element(g) for a in actions)))


def _combined_derived(reps, kind, dim):
    """The tree of a combination of compact-group representations, else None."""
    return None if reps[0].is_finite else Derived(kind, dim, [r.derived for r in reps])


def tensor(r1: Representation, *rest: Representation) -> Representation:
    """Tensor (Kronecker) product of the factors; indices pair row-major as
    numpy's kron, folded left to right."""
    reps = (r1, *rest)
    _require_compatible(reps, "tensor")
    _check_dim_bits(f"of a product of {len(reps)} factors",
                    sum(r.dim.bit_length() - 1 for r in reps), r1.field)
    dim = math.prod(r.dim for r in reps)
    _check_dim(dim, r1.field)

    def kron_indices(*sigmas):
        out = sigmas[0]
        for r, s in zip(rest, sigmas[1:]):
            out = (out[:, None] * r.dim + s).ravel()
        return out

    distinct = {id(r): r for r in reps}

    def image(g):  # each distinct factor evaluated once per element
        imgs = {key: r.image(g) for key, r in distinct.items()}
        return reduce(np.kron, [imgs[id(r)] for r in reps])

    action = _combined_action(reps, dim, kron_indices)
    derived = _combined_derived(reps, "tensor", dim)
    return Representation(r1.group, dim, r1.field, None if action or derived else image,
                          name="(" + " (x) ".join(r.name for r in reps) + ")",
                          index_action=action, derived=derived)


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

    action = _combined_action(reps, dim, lambda *sigmas: np.concatenate(
        [s + lo for s, lo in zip(sigmas, offsets)]))
    derived = _combined_derived(reps, "sum", dim)
    return Representation(r1.group, dim, r1.field, None if action or derived else image,
                          name="(" + " (+) ".join(r.name for r in reps) + ")",
                          index_action=action, derived=derived)


def conjugate(r: Representation) -> Representation:
    """Entrywise complex conjugate; defined for complex representations."""
    if r.field != "complex":
        raise ValueError("conjugate requires a complex representation")

    def image(g):
        return np.conj(r.image(g))

    return Representation(r.group, r.dim, r.field,
                          None if r.index_action or r.derived else image,
                          name=f"conj({r.name})", index_action=r.index_action,
                          derived=r.derived and r.derived.conjugate())


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor power: :func:`tensor` of k copies of ``r``.  Of a
    one-dimensional ``r``, in O(log k): its image to the k-th power by
    squaring, its index action, and its derived tree squared likewise."""
    if k < 1:
        raise ValueError("tensor power exponent must be >= 1")
    if r.dim == 1:
        def image(g):
            return np.linalg.matrix_power(r.image(g), k)

        return Representation(r.group, 1, r.field, None if r.index_action or r.derived else image,
                              name=f"{r.name}^{k}", index_action=r.index_action,
                              derived=r.derived and _derived_power(r.derived, k))
    _check_dim_bits(f"{r.dim}^{k}", k * (r.dim.bit_length() - 1), r.field)
    return tensor(*[r] * k)


def _derived_power(tree, k):
    """The one-dimensional ``tree`` tensored k times, as O(log k) nodes that
    share their parts: charge k charge and leaves k leaves."""
    if k == 1:
        return tree
    half = _derived_power(tree, k // 2)
    return Derived("tensor", 1, [half, half] + [tree] * (k % 2))
