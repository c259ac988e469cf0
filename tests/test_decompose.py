import copy
import importlib
import inspect
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repblock import (CommutantSample, DecomposeConfig, DecompositionError,
                      IsotypicComponent, Permutation, PermutationGroup, Representation,
                      ResampleNeeded,
                      classify_real_type, conjugate, decompose,
                      defining_rep, direct_sum, eigsplit, equivalence_test,
                      group_from_generators, harmonize, natural_perm_rep,
                      orthogonal_group, rep_from_generator_images,
                      sample_commutant, tensor, tensor_power, unitary_group,
                      verify_decomposition)

from repblock.reps import IndexAction

from conftest import (closure, closure_with_images, cyclic, equivalence_pass_order, group_of,
                      perm_matrix, quaternion8, reference_verify, regular_rep, symmetric)
from test_reps import _derived_cases, s3_standard_images


def character_multiplicities_natural(group):
    """Multiplicity of the trivial irrep and the character self-inner-product
    for a natural permutation representation, by brute-force enumeration."""
    elems = list(group.elements())
    chi = [sum(1 for k in range(group.degree) if p(k) == k) for p in elems]
    triv = sum(chi) / len(elems)
    norm2 = sum(c * c for c in chi) / len(elems)
    return round(triv), round(norm2)


# ---------------------------------------------------------------------------
# eigsplit
# ---------------------------------------------------------------------------

def test_eigsplit_identity():
    got = eigsplit(CommutantSample(np.eye(5, dtype=complex), 0.0))
    assert len(got) == 1 and got[0].dim == 5
    assert np.linalg.norm(got[0].rows @ got[0].rows.conj().T - np.eye(5)) <= 1e-12


def test_eigsplit_s3_sample(rng):
    rep = natural_perm_rep(symmetric(3))
    xbar = sample_commutant(rep, rng=rng)
    bases = eigsplit(xbar)
    assert sorted(b.dim for b in bases) == [1, 2]
    # cross-check against a direct eigendecomposition
    evals = np.linalg.eigvalsh(xbar.matrix)
    for b in bases:
        assert min(abs(b.eigenvalue - ev) for ev in evals) <= 1e-10


def test_eigsplit_constructed_gap():
    x = np.diag([1.0, 1.0 + 1e-13, 5.0])
    bases = eigsplit(CommutantSample(x, 0.0))
    assert sorted(b.dim for b in bases) == [1, 2]
    assert bases[0].eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_eigsplit_genericity_guard():
    x = np.diag([0.0, 5e-7, 1.0])
    with pytest.raises(ResampleNeeded):
        eigsplit(CommutantSample(x, 0.0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_eigsplit_bases_are_eighs_eigenvectors(field, rng):
    # S4 on pairs: clusters of dimension 1 to 3, some repeated
    xbar = sample_commutant(tensor_power(natural_perm_rep(symmetric(4), field), 2), rng=rng)
    bases = eigsplit(xbar)
    assert max(b.dim for b in bases) > 1
    evecs = np.linalg.eigh(xbar.matrix)[1]
    lo = 0
    for b in bases:
        cols = evecs[:, lo:lo + b.dim]
        lo += b.dim
        assert b.rows.tobytes() == cols.conj().T.tobytes()
        assert np.linalg.norm(b.rows @ b.rows.conj().T - np.eye(b.dim)) <= 1e-14
        # a QR of orthonormal columns only flips signs: its R is diagonal
        q = np.linalg.qr(cols)[0].conj().T
        signs = np.sign(np.sum(q * b.rows.conj(), axis=1).real)
        assert np.abs(signs).min() == 1
        assert np.abs(q - signs[:, None] * b.rows).max() <= 1e-14
    assert lo == xbar.matrix.shape[0]


def test_eigsplit_ascending_order(rng):
    rep = natural_perm_rep(symmetric(4))
    bases = eigsplit(sample_commutant(rep, rng=rng))
    evs = [b.eigenvalue for b in bases]
    assert evs == sorted(evs)


# ---------------------------------------------------------------------------
# equivalence testing and harmonization
# ---------------------------------------------------------------------------

def _s3_double_standard(rng):
    """S3 standard irrep twice, its eigenbasis pair, and a fresh sample."""
    g = symmetric(3)
    std = rep_from_generator_images(g, s3_standard_images(), "real")
    rep = direct_sum(std, std)
    xbar = sample_commutant(rep, rng=rng)
    bases = eigsplit(xbar)
    xprime = sample_commutant(rep, rng=rng)
    return rep, bases, xprime


def _y_strip(xprime, b2):
    """The (Y b2^dag, |Y|) arguments equivalence_test takes for sample Y."""
    y = xprime.matrix
    return y @ b2.rows.conj().T, np.linalg.norm(y)


def test_equivalence_self(rng):
    rep = natural_perm_rep(symmetric(3))
    xbar = sample_commutant(rep, rng=rng)
    bases = eigsplit(xbar)
    xprime = sample_commutant(rep, rng=rng)
    b2 = [b for b in bases if b.dim == 2][0]
    w = equivalence_test(b2, b2, *_y_strip(xprime, b2))
    assert w is not None
    a = w.F / w.alpha
    assert np.linalg.norm(a.conj().T @ a - np.eye(2)) <= 1e-8


def test_equivalence_dimension_mismatch(rng):
    rep = natural_perm_rep(symmetric(3))
    bases = eigsplit(sample_commutant(rep, rng=rng))
    xprime = sample_commutant(rep, rng=rng)
    b1 = [b for b in bases if b.dim == 1][0]
    b2 = [b for b in bases if b.dim == 2][0]
    assert equivalence_test(b1, b2, *_y_strip(xprime, b2)) is None


def test_equivalence_inequivalent_characters(rng):
    # C4 over C: four mutually inequivalent 1-dim characters
    rep = natural_perm_rep(cyclic(4), "complex")
    bases = eigsplit(sample_commutant(rep, rng=rng))
    assert len(bases) == 4
    xprime = sample_commutant(rep, rng=rng)
    for i in range(4):
        for j in range(i):
            assert equivalence_test(bases[j], bases[i], *_y_strip(xprime, bases[i])) is None


def test_equivalence_multiplicity_two_and_harmonize(rng):
    rep, bases, xprime = _s3_double_standard(rng)
    assert sorted(b.dim for b in bases) == [2, 2]
    w = equivalence_test(bases[0], bases[1], *_y_strip(xprime, bases[1]))
    assert w is not None

    aligned = harmonize(bases[1], w)
    # rows stay orthonormal
    assert np.linalg.norm(aligned.rows @ aligned.rows.conj().T - np.eye(2)) <= 1e-12
    # transported images now agree entrywise with the first block
    for _ in range(10):
        p = rep.group.sample(rng)
        u = rep.image(p)
        s1 = bases[0].rows @ u @ bases[0].rows.conj().T
        s2 = aligned.rows @ u @ aligned.rows.conj().T
        assert np.linalg.norm(s1 - s2) <= 1e-8


def test_harmonize_identity_witness(rng):
    rep, bases, xprime = _s3_double_standard(rng)
    from repblock import EquivalenceWitness

    w = EquivalenceWitness(F=np.eye(2))
    out = harmonize(bases[0], w)
    assert np.allclose(out.rows, bases[0].rows)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_witness_reads_alpha_and_residual_from_one_svd(k, rng):
    # a scaled near-unitary F: its SVD gives the spectral norm and the
    # residual the product formula ||A^dag A - I|| / max(1, sqrt k) gives
    from repblock import EquivalenceWitness

    q = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    f = 3.7 * q + 1e-6 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    w = EquivalenceWitness(F=f)
    assert abs(w.alpha - np.linalg.norm(f, 2)) <= 1e-14 * np.linalg.norm(f, 2)
    a = f / np.linalg.norm(f, 2)
    want = np.linalg.norm(a.conj().T @ a - np.eye(k)) / max(1.0, np.sqrt(k))
    assert abs(w.unit_residual - want) <= 1e-13
    assert np.linalg.norm(w.transform @ w.transform.conj().T - np.eye(k)) <= 1e-13


def test_harmonize_idempotent(rng):
    rep, bases, xprime = _s3_double_standard(rng)
    w = equivalence_test(bases[0], bases[1], *_y_strip(xprime, bases[1]))
    aligned = harmonize(bases[1], w)
    # a fresh witness against the already-aligned basis is the identity,
    # so harmonizing again moves nothing
    w2 = equivalence_test(bases[0], aligned, *_y_strip(xprime, aligned))
    again = harmonize(aligned, w2)
    assert np.linalg.norm(again.rows - aligned.rows) <= 1e-10


# ---------------------------------------------------------------------------
# full decomposition
# ---------------------------------------------------------------------------

def test_decompose_s3_natural(rng):
    g = symmetric(3)
    triv, norm2 = character_multiplicities_natural(g)
    assert (triv, norm2) == (1, 2)  # trivial once, one other irrep once
    rep = natural_perm_rep(g, "complex")
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(1, 1), (2, 1)]
    assert d.components[0].dimension == 2  # canonical order: big D first


def test_decompose_s3_trivial_component_span(rng):
    # the multiplicity-1 trivial component must span the constant vector
    d = decompose(natural_perm_rep(symmetric(3), "complex"), rng=rng)
    triv = [c for c in d.components if c.dimension == 1][0]
    overlap = abs(triv.basis[0] @ (np.ones(3) / np.sqrt(3)))
    assert abs(overlap - 1.0) <= 1e-10


def test_decompose_s5_natural(rng):
    g = symmetric(5)
    assert character_multiplicities_natural(g) == (1, 2)
    d = decompose(natural_perm_rep(g, "complex"), rng=rng)
    assert d.dm_multiset() == [(1, 1), (4, 1)]


def test_decompose_s3_regular(rng):
    from conftest import regular_rep

    d = decompose(regular_rep(symmetric(3), "complex"), rng=rng)
    assert d.dm_multiset() == [(1, 1), (1, 1), (2, 2)]
    assert sum(c.size for c in d.components) == 6


def test_decompose_double_standard_multiplicity(rng):
    g = symmetric(3)
    std = rep_from_generator_images(g, s3_standard_images(), "real")
    d = decompose(direct_sum(std, std), rng=rng)
    assert d.dm_multiset() == [(2, 2)]
    assert max(d.diagnostics.component_residuals) <= 1e-8


def test_decompose_u3_tensor_square(rng):
    u3 = defining_rep(unitary_group(3))
    rep = tensor(u3, u3)
    # oracle: symmetric/antisymmetric projector ranks of SWAP on C^9
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[j * 3 + i, i * 3 + j] = 1
    sym_rank = round(np.trace((np.eye(9) + swap) / 2))
    anti_rank = round(np.trace((np.eye(9) - swap) / 2))
    assert (sym_rank, anti_rank) == (6, 3)

    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(3, 1), (6, 1)]
    assert d.diagnostics.max_off_component <= 1e-6


def test_decompose_u2_adjoint(rng):
    u2 = defining_rep(unitary_group(2))
    rep = tensor(u2, conjugate(u2))
    # oracle: the invariant subspace is spanned by vec(I), a rank-1 projector
    vec_id = np.eye(2).reshape(-1) / np.sqrt(2)
    proj = np.outer(vec_id, vec_id)
    assert round(np.trace(proj)) == 1

    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(1, 1), (3, 1)]
    assert d.diagnostics.max_off_component <= 1e-6
    report = verify_decomposition(rep, d)
    assert report.passed and report.max_off_component <= 1e-6


def test_decompose_s4_tensor_square(rng):
    # natural (x) natural of S4, 16-dim: trivial twice, the 2-dim irrep once,
    # the standard 3-dim three times, its sign twist once
    g = symmetric(4)
    rep = tensor(natural_perm_rep(g, "complex"), natural_perm_rep(g, "complex"))

    # oracle 1: multiplicity of the trivial irrep = number of orbits on pairs
    elems = list(g.elements())
    fixed_pairs = [sum(1 for i in range(4) for j in range(4)
                       if p(i) == i and p(j) == j) for p in elems]
    assert round(sum(fixed_pairs) / len(elems)) == 2
    # oracle 2: commutant dimension = sum of squared multiplicities
    images = [np.kron(perm_matrix(p.images), perm_matrix(p.images)) for p in elems]
    assert brute_real_commutant_dim(images) == 15  # 2^2 + 1 + 3^2 + 1

    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(1, 2), (2, 1), (3, 1), (3, 3)]
    assert sum(c.multiplicity ** 2 for c in d.components) == 15


def test_decompose_u2_tensor_cube_multiplicity(rng):
    # (C^2)^(x3) under U(2): one 4-dim symmetric irrep, the 2-dim irrep twice.
    # Commutant oracle: by duality it is spanned by the six operators that
    # permute tensor factors; their span has dimension 1^2 + 2^2 = 5.
    import itertools

    ops = []
    for sigma in itertools.permutations(range(3)):
        op = np.zeros((8, 8))
        for idx in itertools.product(range(2), repeat=3):
            src = idx[sigma[0]] * 4 + idx[sigma[1]] * 2 + idx[sigma[2]]
            dst = idx[0] * 4 + idx[1] * 2 + idx[2]
            op[dst, src] = 1
        ops.append(op.reshape(-1))
    rank = np.linalg.matrix_rank(np.array(ops), tol=1e-10)
    assert rank == 5  # sum of squared multiplicities

    rep = tensor_power(defining_rep(unitary_group(2)), 3)
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(2, 2), (4, 1)]
    assert sum(c.multiplicity ** 2 for c in d.components) == rank
    assert max(d.diagnostics.component_residuals) <= 1e-6


def test_decompose_o3_tensor_square_real(rng):
    # R^3 (x) R^3 under O(3): trace (1), antisymmetric (3), traceless
    # symmetric (5), all of real type
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[j * 3 + i, i * 3 + j] = 1
    assert round(np.trace((np.eye(9) + swap) / 2)) == 6  # 1 + 5
    assert round(np.trace((np.eye(9) - swap) / 2)) == 3

    o3 = defining_rep(orthogonal_group(3))
    d = decompose(tensor(o3, o3), rng=rng)
    got = sorted((c.dimension, c.multiplicity, c.real_type) for c in d.components)
    assert got == [(1, 1, "real"), (3, 1, "real"), (5, 1, "real")]


def test_o2_defining_is_real_type_through_the_reflection(monkeypatch):
    # the kernel of the SO(2) Casimir on R^2 is span{I, J}, of complex type;
    # the reflection average leaves span{I}
    rep = defining_rep(orthogonal_group(2))
    d = decompose(rep, rng=np.random.default_rng(0))
    assert [(c.dimension, c.multiplicity, c.real_type) for c in d.components] == \
        [(2, 1, "real")]
    commutant = importlib.import_module("repblock.commutant")
    monkeypatch.setattr(commutant, "_reflects", lambda rep: False)
    d = decompose(rep, rng=np.random.default_rng(0))
    assert [c.real_type for c in d.components] == ["complex"]


def test_o3_parity_separates_the_two_spin_one_copies(monkeypatch):
    # O(3) (+) O(3)^(x2): the vector and the pseudovector (the antisymmetric
    # square) are equivalent under SO(3) only
    o3 = defining_rep(orthogonal_group(3))
    rep = direct_sum(o3, tensor_power(o3, 2))
    d = decompose(rep, rng=np.random.default_rng(1))
    got = sorted((c.dimension, c.multiplicity, c.real_type) for c in d.components)
    assert got == [(1, 1, "real"), (3, 1, "real"), (3, 1, "real"), (5, 1, "real")]
    commutant = importlib.import_module("repblock.commutant")
    monkeypatch.setattr(commutant, "_reflects", lambda rep: False)
    with pytest.raises(DecompositionError, match="verification failed"):
        decompose(rep, rng=np.random.default_rng(1))


def test_compact_images_apart_from_the_tree_are_refused_at_construction():
    # conj without the conjugate: conjugated images and the defining tree
    # cannot disagree, as a compact representation takes no images
    u2 = defining_rep(unitary_group(2))
    with pytest.raises(ValueError, match="takes no image_fn"):
        Representation(u2.group, 2, "complex", lambda g: np.conj(g), derived=u2.derived)
    with pytest.raises(ValueError, match="needs derived"):
        Representation(u2.group, 2, "complex", lambda g: np.conj(g))
    right = decompose(tensor(u2, conjugate(u2)), rng=np.random.default_rng(2))
    assert right.dm_multiset() == [(1, 1), (3, 1)]


def _count_projections(monkeypatch):
    """Calls of the two commutant projections, with those made inside
    classification apart; the package attribute repblock.decompose is the
    function, not the module."""
    dec = importlib.import_module("repblock.decompose")
    com = importlib.import_module("repblock.commutant")
    calls = {"samples": 0, "projections": 0, "in_classify": 0}
    inside = [False]

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            calls["in_classify"] += inside[0]
            return real(*args, **kwargs)
        return wrapper

    def classify(*args, real=dec.classify_real_type):
        inside[0] = True
        try:
            return real(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(dec, "sample_commutant", counted("samples", dec.sample_commutant))
    for name in ("_project", "orbital_sample"):
        monkeypatch.setattr(com, name, counted("projections", getattr(com, name)))
    monkeypatch.setattr(dec, "classify_real_type", classify)
    return calls


def test_classify_projects_shared_seeds_once(monkeypatch):
    # the two samples' seeds are projected once and classify all three
    # components of O(3)^(x2); classification takes no generator and projects
    # nothing
    assert list(inspect.signature(classify_real_type).parameters) == [
        "rep", "components", "samples"]
    calls = _count_projections(monkeypatch)
    o3 = defining_rep(orthogonal_group(3))
    d = decompose(tensor(o3, o3), rng=np.random.default_rng(0))
    assert len(d.components) == 3 and d.attempts == 1
    assert calls == {"samples": 2, "projections": 2, "in_classify": 0}


def test_decompose_c4_real_types(rng):
    d = decompose(natural_perm_rep(cyclic(4), "real"), rng=rng)
    got = sorted((c.dimension, c.multiplicity, c.real_type) for c in d.components)
    assert got == [(1, 1, "real"), (1, 1, "real"), (2, 1, "complex")]


def test_decompose_complex_field_types_not_applicable(rng):
    d = decompose(natural_perm_rep(cyclic(4), "complex"), rng=rng)
    assert all(c.real_type == "not_applicable" for c in d.components)
    assert d.dm_multiset() == [(1, 1), (1, 1), (1, 1), (1, 1)]


def test_decompose_trivial_group_collects_trivials(rng):
    g = group_from_generators(3, [])
    d = decompose(natural_perm_rep(g, "complex"), rng=rng)
    assert d.dm_multiset() == [(1, 3)]


def test_decompose_invariants(rng):
    for rep in (natural_perm_rep(symmetric(4), "complex"),
                natural_perm_rep(cyclic(6), "real")):
        d = decompose(rep, rng=rng)
        n = rep.dim
        assert sum(c.dimension * c.multiplicity for c in d.components) == n
        assert np.linalg.norm(d.U.conj().T @ d.U - np.eye(n)) <= 1e-9 * n
        report = verify_decomposition(rep, d)
        assert report.passed
        assert report.max_off_component <= 1e-8
        assert max(report.component_residuals) <= 1e-8


def test_component_bases_are_views_of_u(rng):
    # multiplicity two and real types: every component is a row slice of U
    nat = natural_perm_rep(symmetric(4), "real")
    rep = direct_sum(nat, nat)
    d = decompose(rep, rng=rng)
    offset = 0
    for c in d.components:
        assert np.shares_memory(c.basis, d.U)
        assert np.array_equal(c.basis, d.U[offset:offset + c.size])
        offset += c.size
    assert offset == rep.dim


def test_decompose_seed_stability_s4_natural():
    rep = natural_perm_rep(symmetric(4), "complex")
    seen = {tuple(decompose(rep, rng=np.random.default_rng(k)).dm_multiset())
            for k in range(20)}
    assert seen == {((1, 1), (3, 1))}


def _s4_dense_images():
    g = symmetric(4)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    return rep_from_generator_images(
        g, [q @ perm_matrix(p.images) @ q.T for p in g.generators], "real")


# Recorded with each cluster's basis QR-factorized, which only flips signs: a
# change that keeps every decision of decompose keeps these.  Per shape:
# (D, M) multiset, real types, clusters, equivalent pairs, and the pairs
# tested at seeds 0, 1, 2 (the eigenvalue order, and so the pass order,
# follows the seed); every decomposition took one attempt.
_S4_PAIRS = [(1, 2), (2, 1), (3, 1), (3, 3)]
_PINNED_DECISIONS = {
    "S4 natural^2": (lambda: tensor_power(natural_perm_rep(symmetric(4)), 2),
                     _S4_PAIRS, ["not_applicable"] * 4, 7, 3, [16, 18, 15]),
    "C5 natural over R": (lambda: natural_perm_rep(cyclic(5), "real"),
                          [(1, 1), (2, 1), (2, 1)], ["complex", "complex", "real"], 3, 0,
                          [3, 3, 3]),
    "S4 dense^2 over R": (lambda: tensor_power(_s4_dense_images(), 2),
                          _S4_PAIRS, ["real"] * 4, 7, 3, [18, 14, 13]),
    "U(3)^3": (lambda: tensor_power(defining_rep(unitary_group(3)), 3),
               [(1, 1), (8, 2), (10, 1)], ["not_applicable"] * 3, 4, 1, [6, 5, 6]),
    "O(3)^2 over R": (lambda: tensor_power(defining_rep(orthogonal_group(3)), 2),
                      [(1, 1), (3, 1), (5, 1)], ["real"] * 3, 3, 0, [3, 3, 3]),
}


@pytest.mark.parametrize("shape", list(_PINNED_DECISIONS))
def test_decisions_are_pinned(shape):
    build, dm, types, clusters, equivalent, tested = _PINNED_DECISIONS[shape]
    rep = build()
    for seed, pairs in enumerate(tested):
        d = decompose(rep, rng=np.random.default_rng(seed))
        assert d.dm_multiset() == dm
        assert [c.real_type for c in d.components] == types
        assert (d.attempts, d.clusters, d.pairs_tested, d.pairs_equivalent) == (
            1, clusters, pairs, equivalent)


@pytest.mark.parametrize("group,route,splits", [
    (lambda: symmetric(4), "real", 1),     # the twin's split is kept
    (lambda: cyclic(4), "complex", 2),     # dropped: 3 clusters, not s = 2
])
def test_each_sample_is_eigendecomposed_at_most_once(monkeypatch, group, route, splits):
    dec = importlib.import_module("repblock.decompose")
    samples, spectra, eigvalsh = [], [], []
    draw, eigh = dec.sample_commutant, np.linalg.eigh

    def counted_draw(*args):
        samples.append(draw(*args))
        return samples[-1]

    def counted_eigh(x, *args):
        spectra.append(x)
        return eigh(x, *args)

    monkeypatch.setattr(dec, "sample_commutant", counted_draw)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: eigvalsh.append(args))
    d = decompose(natural_perm_rep(group()), rng=np.random.default_rng(0))
    assert d.arithmetic.startswith(route) and d.attempts == 1
    assert len(spectra) == splits and eigvalsh == []
    # every split reads a sample drawn as the first of its route, each once
    assert len(samples) == splits + 1
    assert all(x is c.matrix for x, c in zip(spectra, samples))


def test_fresh_sample_matches_block_pattern(rng):
    # a commutant sample conjugated by U must be block-scalar per component
    from repblock import block_diagonalize_matrix

    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    y = sample_commutant(rep, rng=rng)
    blocks, residual = block_diagonalize_matrix(d, y.matrix, tol=1e-8)
    assert residual <= 1e-8
    assert [b.shape[0] for b in blocks] == [c.multiplicity for c in d.components]


def test_decompose_budget_exhaustion(rng, monkeypatch):
    # an impossible witness tolerance turns every equivalence check into a
    # genericity failure, exhausting the restart budget
    dec = importlib.import_module("repblock.decompose")
    monkeypatch.setattr(dec, "_WITNESS_TOL", 1e-18)
    monkeypatch.setattr(dec, "_MAX_RESAMPLES", 1)
    g = symmetric(3)
    std = rep_from_generator_images(g, s3_standard_images(), "real")
    with pytest.raises(DecompositionError, match="gave up after 2 attempts") as info:
        decompose(direct_sum(std, std), rng=rng)
    # every attempt's reason is reported, not only the last
    msg = str(info.value)
    assert "attempt 1: " in msg and "attempt 2: " in msg
    assert msg.count("not a scaled unitary") == 2


# ---------------------------------------------------------------------------
# real-type classification
# ---------------------------------------------------------------------------

def brute_real_commutant_dim(images):
    """Dimension of {M : M u = u M for all images} over the reals."""
    n = images[0].shape[0]
    rows = [np.kron(u, np.eye(n)) - np.kron(np.eye(n), u.T) for u in images]
    svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return n * n - int(np.sum(svals > 1e-10 * svals[0]))


def test_classify_trivial_rep_is_real(rng):
    from repblock import trivial_rep

    g = symmetric(3)
    d = decompose(trivial_rep(g, "real"), rng=rng)
    assert [c.real_type for c in d.components] == ["real"]


def test_classify_c4_rotation_is_complex(rng):
    g = cyclic(4)
    # oracle: the full real commutant of the natural rep (circulants) has
    # dimension 4 = 1 + 1 + 2, with the rotation block contributing 2
    images = [perm_matrix(p.images) for p in g.elements()]
    assert brute_real_commutant_dim(images) == 4
    d = decompose(natural_perm_rep(g, "real"), rng=rng)
    assert sorted(c.real_type for c in d.components) == ["complex", "real", "real"]


def test_classify_quaternion_rep(rng):
    group, mats = quaternion8()
    # oracle: brute-force commutant of the 4x4 real representation over all
    # 8 elements has dimension 4
    table = closure_with_images(8, [p.images for p in group.generators], mats)
    assert len(table) == 8
    assert brute_real_commutant_dim(list(table.values())) == 4

    rep = rep_from_generator_images(group, mats, "real")
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(4, 1)]
    assert d.components[0].real_type == "quaternionic"


@pytest.mark.parametrize("build, want", [
    (lambda: natural_perm_rep(cyclic(3), "real"), ["complex", "real"]),
    (lambda: natural_perm_rep(cyclic(5), "real"), ["complex", "complex", "real"]),
    # Q8's regular action, then its 4 x 4 images, which permute no basis
    (lambda: natural_perm_rep(quaternion8()[0], "real"), ["quaternionic"] + ["real"] * 4),
    (lambda: rep_from_generator_images(*quaternion8(), "real"), ["quaternionic"])])
def test_real_types_below_the_orbital_count_draw_seeds(build, want, monkeypatch, rng):
    # sum M^2 < r, or no index action: the types are read from the two
    # samples' seeds, two per attempt, and classification draws none
    calls = _count_projections(monkeypatch)
    d = decompose(build(), rng=rng)
    assert [c.real_type for c in d.components] == want
    assert calls == {"samples": 2 * d.attempts, "projections": 2 * d.attempts,
                     "in_classify": 0}


def _copy_types(rep, components):
    """Each component's real type from the brute-force commutant of its lead
    copy's generator images."""
    names = {1: "real", 2: "complex", 4: "quaternionic"}
    gens = rep.group.generators
    return [names[brute_real_commutant_dim(
        [c.basis[:c.dimension] @ rep.image(g) @ c.basis[:c.dimension].T for g in gens])]
        for c in components]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=2),
    st.permutations(range(n)))),
    st.sampled_from(("natural", "images", "tensor", "direct_sum")),
    st.integers(0, 2 ** 32 - 1))
def test_real_types_from_the_orbital_count_match_the_seed_path(generated, kind, seed):
    # the orbital count's shortcut and the samples alike give the types of
    # the brute-force copy commutant
    rep = _small_rep(*generated, "real", kind)
    d = decompose(rep, rng=np.random.default_rng(seed))
    types = [c.real_type for c in d.components]
    assert types == _copy_types(rep, d.components)
    shortcut = sum(m * m for m in d.multiplicities) == len(rep.index_action.orbitals()[1])
    assert set(types) == {"real"} or not shortcut


def _q8_twice():
    images = rep_from_generator_images(*quaternion8(), "real")
    return direct_sum(images, images)


def _dense(rep, seed):
    """``rep``'s generator images in a random orthogonal basis."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((rep.dim, rep.dim)))[0]
    return rep_from_generator_images(
        rep.group, [q @ rep.image(g) @ q.T for g in rep.group.generators], "real")


_REPEATED_TYPES = {
    "C5 + C5": (lambda: direct_sum(*[natural_perm_rep(cyclic(5), "real")] * 2),
                [(1, 2), (2, 2), (2, 2)], {"complex", "real"}),
    "Q8 images + Q8 images": (_q8_twice, [(4, 2)], {"quaternionic"}),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_REPEATED_TYPES)), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_real_types_of_repeated_complex_and_quaternionic_copies(shape, dense, seed):
    # multiplicity 2 of complex and quaternionic type: the lead copy's
    # compressions read the type, as the brute-force copy commutant does
    build, dm, types = _REPEATED_TYPES[shape]
    rep = _dense(build(), seed) if dense else build()
    d = decompose(rep, rng=np.random.default_rng(seed))
    assert d.dm_multiset() == dm
    got = [c.real_type for c in d.components]
    assert set(got) == types and got == _copy_types(rep, d.components)


@pytest.mark.parametrize("build, want", [
    (lambda: natural_perm_rep(cyclic(5), "real"), ["complex", "complex", "real"]),
    (lambda: _dense(_q8_twice(), 3), ["quaternionic"])])
def test_real_types_do_not_read_the_samples_scale(build, want, rng):
    # the compressions are normalized by a power of two first: scaling both
    # samples by 2^500 or 2^-500 keeps the types, and a NaN fails closed
    rep = build()
    d = decompose(rep, rng=rng)
    samples = [sample_commutant(rep, rng=rng).whole for _ in range(2)]
    assert classify_real_type(rep, d.components, samples) == want
    for e in (500, -500):
        assert classify_real_type(rep, d.components, [s * 2.0 ** e for s in samples]) == want
    samples[1][0, 0] = np.nan
    with pytest.raises(ResampleNeeded, match="compressed to norms"):
        classify_real_type(rep, d.components, samples)


def test_classify_requires_real_field(rng):
    rep = natural_perm_rep(cyclic(4), "complex")
    d = decompose(rep, rng=rng)
    with pytest.raises(ValueError):
        classify_real_type(rep, d.components, [sample_commutant(rep, rng=rng).matrix] * 2)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_tolerances_fail_closed(value, rng):
    with pytest.raises(ValueError, match="block_tol"):
        DecomposeConfig(block_tol=value)
    rep = natural_perm_rep(symmetric(3), "complex")
    d = decompose(rep, rng=rng)
    with pytest.raises(ValueError, match="tol"):
        verify_decomposition(rep, d, tol=value)


def test_verify_trivial_group(rng):
    rep = natural_perm_rep(group_from_generators(4, []), "complex")
    d = decompose(rep, rng=rng)
    r = verify_decomposition(rep, d)
    assert r.passed
    assert r.unitarity_residual <= 1e-12
    assert r.max_off_component <= 1e-12


def test_verify_s4_natural(rng):
    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    r = verify_decomposition(rep, d)
    assert r.passed and r.max_off_component <= 1e-8


def test_verify_flags_corrupted_basis(rng):
    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    u = d.U.copy()
    u[0] = 0.0
    d.U = u
    r = verify_decomposition(rep, d)
    assert not r.passed
    assert any("unitary" in f for f in r.failures)
    # a NaN entry fails every check instead of passing them all
    u[1, 1] = np.nan
    r = verify_decomposition(rep, d)
    assert any("unitary" in f for f in r.failures)
    assert any("leakage" in f for f in r.failures)
    assert any("copy structure" in f for f in r.failures)


@pytest.mark.parametrize("images", ["index action", "dense"])
def test_verify_fails_an_infinite_basis_without_a_numpy_warning(rng, images):
    # inf * 0 in U^dag U and in the strips must reach the gates as NaN, not
    # stop verification with numpy's invalid-value warning
    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    if images == "dense":
        rep = Representation(rep.group, rep.dim, rep.field, rep.image)
    d.U = d.U.copy()
    d.U[1, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = verify_decomposition(rep, d)
    assert not r.passed
    assert np.isnan(r.unitarity_residual) and np.isnan(r.max_off_component)
    assert any("unitary" in f for f in r.failures)
    assert any("leakage" in f for f in r.failures)
    assert any("copy structure" in f for f in r.failures)


def test_verify_flags_misaligned_copy(rng):
    # rotating the second copy's rows keeps U unitary and leaks nothing
    # between components, but the copy no longer repeats the first block:
    # the check that catches a wrong intertwiner
    rep, _, _ = _s3_double_standard(rng)
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(2, 2)]
    c, s = math.cos(0.3), math.sin(0.3)
    r = np.array([[c, -s], [s, c]])
    u = d.U.copy()
    u[2:4] = r @ u[2:4]
    d.U = u
    report = verify_decomposition(rep, d)
    assert not report.passed
    assert report.unitarity_residual <= 1e-12
    assert any("component copy structure" in f for f in report.failures)


def test_verify_copy_residual_matches_block_loop(rng):
    # the repeated-block pattern np.kron(I_M, avg) gives, bit for bit, the
    # residual of placing avg on each diagonal block in a loop; the strip
    # form U_k (rho U_k^dag) of the block matches it to roundoff
    std = rep_from_generator_images(symmetric(3), s3_standard_images(), "complex")
    rep = direct_sum(std, std, std)
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(2, 3)]
    d.U = d.U + 1e-9 * rng.standard_normal(d.U.shape)  # a residual that is not 0
    report = verify_decomposition(rep, d, tol=1e-3)
    want = 0.0  # the worst over the generators, the images checked
    for x in rep.group.generators:
        img = rep.image(x)
        sub = d.U @ img @ d.U.conj().T
        avg = np.trace(sub.reshape(3, 2, 3, 2), axis1=0, axis2=2) / 3
        pattern = np.zeros_like(sub)
        for a in range(3):
            pattern[2 * a:2 * a + 2, 2 * a:2 * a + 2] = avg
        want = max(want, np.linalg.norm(sub - pattern) / np.linalg.norm(img))
    dense = reference_verify(rep, d, trials=1, tol=1e-3, rng=None)
    assert dense.component_residuals == (want,) and want > 0
    assert abs(report.component_residuals[0] - want) <= 1e-14


def test_verify_flags_wrong_multiplicity(rng):
    # S3 regular: the two copies of the 2-dim irrep, harmonized, leak nothing
    # into each other, so splitting them into two components of multiplicity
    # 1 passes the pattern checks; only the commutant dimension differs
    rep = regular_rep(symmetric(3), "complex")
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(1, 1), (1, 1), (2, 2)]
    big = d.components[0]
    assert (big.dimension, big.multiplicity) == (2, 2)
    d.components[:1] = [IsotypicComponent(2, 1, big.basis[:2]),
                        IsotypicComponent(2, 1, big.basis[2:])]
    report = verify_decomposition(rep, d)
    assert report.failures == (
        "commutant dimension 4 claimed by the components differs from the 6 orbitals",)


def test_verify_flags_wrong_real_type(rng):
    rep = natural_perm_rep(cyclic(5), "real")
    d = decompose(rep, rng=rng)
    assert sorted(c.real_type for c in d.components) == ["complex", "complex", "real"]
    assert verify_decomposition(rep, d).passed
    next(c for c in d.components if c.real_type == "complex").real_type = "real"
    report = verify_decomposition(rep, d)
    assert report.failures == (
        "commutant dimension 4 claimed by the components differs from the 5 orbitals",)


# ---------------------------------------------------------------------------
# strip verification and the equivalence pass against dense oracles
# ---------------------------------------------------------------------------

BASIS_CASES = ("correct", "swap", "rotate", "perturb", "unit-rows", "nan")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=2))),
    st.sampled_from(("complex", "real")), st.booleans(), st.booleans(),
    st.sampled_from(BASIS_CASES), st.integers(-12, -7), st.integers(0, 2 ** 32 - 1))
def test_verify_matches_the_dense_oracle(generated, field, doubled, dense, case, exponent,
                                         seed):
    n, gens = generated
    rep = natural_perm_rep(group_of(n, gens), field)
    if doubled:  # every multiplicity at least 2
        rep = direct_sum(rep, rep)
    rng = np.random.default_rng(seed)
    d = decompose(rep, rng=rng)
    u = d.U.copy()
    offsets = np.cumsum([0] + [c.size for c in d.components])
    if case == "swap":  # a row of the first component trades places with one of the last
        assume(len(d.components) >= 2)
        u[[0, offsets[-2]]] = u[[offsets[-2], 0]]
    elif case == "rotate":  # mixes the first and last row of the largest component
        k = int(np.argmax(np.diff(offsets)))
        lo, hi = offsets[k], offsets[k + 1] - 1
        assume(hi > lo)
        c, s = math.cos(0.3), math.sin(0.3)
        u[[lo, hi]] = np.array([[c, -s], [s, c]]) @ u[[lo, hi]]
    elif case == "perturb":  # off unitarity by 1e-12 to 1e-7
        u = u + 10.0 ** exponent * rng.standard_normal(u.shape)
    elif case == "unit-rows":  # rows of norm 1 that are not orthogonal: a 1-dim
        # component's strip then lies in its own span, and only the
        # unitarity term of the gate sees its leak
        u = u + 10.0 ** exponent * rng.standard_normal(u.shape)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    elif case == "nan":
        u[rng.integers(rep.dim), rng.integers(rep.dim)] = np.nan
    d.U = u
    if dense:  # the same images without the index action: the matrix path
        rep = Representation(rep.group, rep.dim, rep.field, rep.image)

    new = verify_decomposition(rep, d, tol=1e-8)
    old = reference_verify(rep, d, trials=3, tol=1e-8, rng=np.random.default_rng(seed + 1))
    if math.isnan(old.max_off_component):
        assert not new.max_off_component <= new.tolerance
    else:  # never below the dense leak, up to rounding in the two norms; NaN is not below
        assert not new.max_off_component < old.max_off_component * (1 - 1e-12)
    np.testing.assert_allclose(new.component_residuals, old.component_residuals,
                               rtol=0, atol=1e-13)
    if case == "correct":
        assert abs(new.max_off_component - old.max_off_component) <= 1e-13
    assert old.passed or not new.passed


# ---------------------------------------------------------------------------
# the generator check of an index action against a check over the whole group
# ---------------------------------------------------------------------------

def _small_rep(n, gens, relabel, field, kind):
    group = group_of(n, gens)
    nat = natural_perm_rep(group, field)
    # the natural images conjugated by a fixed relabeling: generator images
    # that are permutation matrices, evaluated through the chain
    p = perm_matrix(relabel)
    images = rep_from_generator_images(
        group, [p @ perm_matrix(g.images) @ p.T for g in group.generators], field)

    def dense_images(sign):
        # the natural images times a sign character, in a fixed dense basis:
        # generator images that take the matrix path
        q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
        return rep_from_generator_images(group, [
            sign(g) * q @ perm_matrix(g.images) @ q.T for g in group.generators], field)

    def parity(g):
        return (-1) ** sum(a > b for a, b in itertools.combinations(g.images, 2))

    return {"natural": lambda: nat, "images": lambda: images,
            "tensor": lambda: tensor(nat, images),
            "direct_sum": lambda: direct_sum(images, nat),
            "conjugate": lambda: conjugate(direct_sum(nat, images)),
            "dense": lambda: dense_images(lambda g: 1),
            "signed": lambda: dense_images(parity),
            "dense_tensor": lambda: tensor(nat, dense_images(parity))}[kind]()


def _with_generators(rep, sigmas):
    """``rep`` with the index arrays ``sigmas`` as its action's generators."""
    action = IndexAction(rep.dim, sigmas, rep.index_action.element)
    return Representation(rep.group, rep.dim, rep.field, None, index_action=action)


def _with_every_element(rep):
    """``rep`` with every element of its group among the generators checked."""
    elements = list(rep.group.elements())
    if rep.index_action is not None:
        return _with_generators(rep, [rep.index_action.element(g) for g in elements])
    group = PermutationGroup(rep.group.degree, elements)
    return Representation(group, rep.dim, rep.field, rep.image)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=2),
    st.permutations(range(n)))),
    st.sampled_from(("complex", "real")),
    st.sampled_from(("natural", "images", "tensor", "direct_sum", "conjugate",
                     "dense", "signed", "dense_tensor")),
    st.sampled_from(("correct", "swap", "rotate", "multiplicity", "nan")),
    st.integers(0, 2 ** 32 - 1))
def test_generator_check_agrees_with_the_whole_group(generated, field, kind, fault, seed):
    n, gens, relabel = generated
    if kind == "conjugate":
        field = "complex"
    rep = _small_rep(n, gens, relabel, field, kind)
    assert (rep.index_action is None) == (kind in ("dense", "signed", "dense_tensor"))
    # a split component keeps the block pattern on every element; only the
    # orbital count of an index action sees it
    must_fail = fault == "nan" or fault == "multiplicity" and rep.index_action is not None
    rng = np.random.default_rng(seed)
    d = decompose(rep, rng=rng)
    u = d.U.copy()
    offsets = d.offsets
    if fault == "swap":  # a row of the first component trades places with one of the last
        assume(len(d.components) >= 2)
        u[[0, offsets[-2]]] = u[[offsets[-2], 0]]
    elif fault == "rotate":  # by 1e-3, the first and last row of the component of
        # most copies: two copies of an irrep of dimension 2 or more then differ
        k = max(range(len(d.components)),
                key=lambda k: (d.components[k].multiplicity, d.components[k].size))
        lo, hi = offsets[k], offsets[k + 1] - 1
        assume(hi > lo)
        c, s = math.cos(1e-3), math.sin(1e-3)
        u[[lo, hi]] = np.array([[c, -s], [s, c]]) @ u[[lo, hi]]
        must_fail = min(d.components[k].multiplicity, d.components[k].dimension) >= 2
    elif fault == "multiplicity":  # one copy split off its component
        k = next((k for k, c in enumerate(d.components) if c.multiplicity >= 2), None)
        assume(k is not None)
        c = d.components[k]
        d.components[k:k + 1] = [
            IsotypicComponent(c.dimension, 1, c.basis[:c.dimension], c.real_type),
            IsotypicComponent(c.dimension, c.multiplicity - 1, c.basis[c.dimension:],
                              c.real_type)]
    elif fault == "nan":
        u[rng.integers(rep.dim), rng.integers(rep.dim)] = np.nan
    d.U = u

    gen = verify_decomposition(rep, d, tol=1e-8)
    # the same check with every group element among the generators
    whole = verify_decomposition(_with_every_element(rep), d, tol=1e-8)
    assert (gen.trials, whole.trials) == (len(rep.group.generators), rep.group.order())
    assert gen.passed == whole.passed
    if fault == "correct":
        assert gen.passed
    if must_fail:
        assert not gen.passed
    # the generators are among the elements: each generator residual is one
    # of the whole group's, computed alike
    assert not gen.max_off_component > whole.max_off_component
    assert not np.any(np.array(gen.component_residuals) > whole.component_residuals)


# ---------------------------------------------------------------------------
# the check of a compact group on Lie-algebra generators against Haar images
# ---------------------------------------------------------------------------

def _compact_cases():
    u1 = defining_rep(unitary_group(1))
    return _derived_cases() + [("U(1) (x) conj U(1)", tensor(u1, conjugate(u1))),
                               ("O(3)^4", tensor_power(defining_rep(orthogonal_group(3)), 4))]


@pytest.mark.parametrize("name,rep", _compact_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_lie_check_agrees_with_the_haar_oracle(name, rep):
    # correct bases pass, also where d rho is 0 (trivial, O(1), U(1) (x) conj
    # U(1)); a swap of the first and last rows, or their rotation by 1e-3,
    # fails unless it only relabels two 1-dimensional components; the verdict
    # is that of 20 Haar images, and a second call gives the same report
    d = decompose(rep, rng=np.random.default_rng(0))
    faults = ["correct"] + ["swap", "rotate"] * (len(d.components) >= 2)
    comps = d.components
    for fault in faults:
        u = d.U.copy()
        ends = [0, rep.dim - 1]
        if fault == "swap":
            u[ends] = u[ends[::-1]]
        elif fault == "rotate":
            c, s = math.cos(1e-3), math.sin(1e-3)
            u[ends] = np.array([[c, -s], [s, c]]) @ u[ends]
        faulty = copy.copy(d)
        faulty.U = u
        got = verify_decomposition(rep, faulty)
        assert got == verify_decomposition(rep, faulty)
        oracle = reference_verify(rep, faulty, trials=20, tol=1e-6,
                                  rng=np.random.default_rng(1))
        assert got.passed == oracle.passed
        relabels = fault == "swap" and comps[0].size == comps[-1].size == 1
        assert got.passed == (fault == "correct" or relabels), (fault, got.failures)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build", [
    lambda: natural_perm_rep(symmetric(5)),
    lambda: regular_rep(symmetric(3), "real"),
    lambda: tensor_power(natural_perm_rep(cyclic(4), "real"), 2),
])
def test_decompose_draws_no_verification_samples(monkeypatch, build, seed):
    dec = importlib.import_module("repblock.decompose")
    rep = build()
    calls = [0]
    sample = PermutationGroup.sample

    def counting_sample(group, rng):
        calls[0] += 1
        return sample(group, rng)

    monkeypatch.setattr(PermutationGroup, "sample", counting_sample)
    d = decompose(rep, rng=np.random.default_rng(seed))
    assert calls[0] == 0
    assert d.diagnostics.trials == len(rep.group.generators)

    # verification forced onto 20 random elements too, drawn from a stream of
    # its own, next to the generators: the same U, so verification feeds no
    # stream that U reads
    verify = dec.verify_decomposition

    def on_random_elements(rep, decomp, tol):
        rng = np.random.default_rng(99)
        drawn = [rep.index_action.element(rep.group.sample(rng)) for _ in range(20)]
        forced = _with_generators(rep, rep.index_action.generators + tuple(drawn))
        return verify(forced, decomp, tol=tol)

    monkeypatch.setattr(dec, "verify_decomposition", on_random_elements)
    forced = decompose(rep, rng=np.random.default_rng(seed))
    assert calls[0] == 20 * forced.attempts
    assert forced.attempts == d.attempts
    assert forced.U.tobytes() == d.U.tobytes()


@pytest.mark.parametrize("images", [
    lambda g: s3_standard_images(),
    lambda g: [perm_matrix(p.images) for p in g.generators],
    lambda g: [-perm_matrix(g.generators[0].images), perm_matrix(g.generators[1].images)],
], ids=["dense", "permutation", "signed"])
def test_finite_reps_are_decided_and_verified_without_sampling(monkeypatch, images):
    # the relator check and the generator check read no random element
    def refuse(group, rng):
        raise AssertionError("a finite group was sampled")

    monkeypatch.setattr(PermutationGroup, "sample", refuse)
    g = symmetric(3)
    rep = rep_from_generator_images(g, images(g), "real")
    rep = direct_sum(rep, natural_perm_rep(g, "real"))
    d = decompose(rep, rng=np.random.default_rng(0))
    assert d.diagnostics.trials == len(g.generators)
    report = verify_decomposition(rep, d)
    assert report.passed and report.trials == len(g.generators)


def test_equivalence_pass_witnesses_match_dense_products(monkeypatch):
    dec = importlib.import_module("repblock.decompose")
    samples, calls = [], []

    def recording_sample(*args, **kwargs):
        samples.append(real_sample(*args, **kwargs))
        return samples[-1]

    def recording_test(b1, b2, y_b2, y_norm):
        calls.append((b1, b2, real_test(b1, b2, y_b2, y_norm)))
        return calls[-1][2]

    real_sample, real_test = dec.sample_commutant, dec.equivalence_test
    monkeypatch.setattr(dec, "sample_commutant", recording_sample)
    monkeypatch.setattr(dec, "equivalence_test", recording_test)
    d = decompose(regular_rep(symmetric(4), "complex"), rng=np.random.default_rng(7))
    assert d.attempts == 1 and len(samples) == 2
    y = samples[1].matrix  # the second sample, which decides equivalence
    witnesses = [(b1, b2, w) for b1, b2, w in calls if w is not None]
    assert len(witnesses) == d.pairs_equivalent == 5
    for b1, b2, w in witnesses:
        want = b1.rows @ y @ b2.rows.conj().T
        assert np.linalg.norm(w.F - want) <= 1e-13 * np.linalg.norm(want)


def test_decomposition_counts_its_equivalence_pass(rng):
    # S3 regular over C: trivial, sign, and two copies of the 2-dim irrep,
    # each copy its own eigenvalue cluster
    d = decompose(regular_rep(symmetric(3), "complex"), rng=rng)
    assert d.dm_multiset() == [(1, 1), (1, 1), (2, 2)]
    assert (d.clusters, d.pairs_tested, d.pairs_equivalent) == equivalence_pass_order(d)
    assert d.clusters == 4 and d.pairs_equivalent == 1
    assert d.pairs_tested in (4, 5, 6)


@pytest.mark.parametrize("k", [10 ** 9, 10 ** 9 + 1])
def test_power_of_a_character_decomposes_in_log_k(k):
    # S3's sign character by dense 1 x 1 images, to the k-th power
    g = symmetric(3)
    start = time.perf_counter()
    rep = tensor_power(rep_from_generator_images(g, [np.array([[-1.0]]), np.array([[1.0]])]), k)
    d = decompose(rep, rng=np.random.default_rng(0))
    assert time.perf_counter() - start < 2
    assert d.dm_multiset() == [(1, 1)] and d.diagnostics.passed
    for images in closure(3, [p.images for p in g.generators]):
        sign = round(np.linalg.det(perm_matrix(images)))
        assert rep.image(Permutation(list(images))).tolist() == [[sign ** k]]


def test_power_of_u1_passes_the_casimir_projection_and_verification():
    # charges 5, 1 and 5: the two charge-5 powers are one irrep, twice
    u1 = defining_rep(unitary_group(1))
    rep = direct_sum(tensor_power(u1, 5), u1, tensor_power(u1, 5))
    x = sample_commutant(rep, rng=np.random.default_rng(4))
    assert x.path.startswith("Casimir kernel, 1 Lie generators") and x.residual <= 1e-13
    # the charge-1 copy couples to neither charge-5 copy, which couple
    scale = np.linalg.norm(x.matrix)
    assert max(abs(x.matrix[0, 1]), abs(x.matrix[1, 2])) <= 1e-13 * scale
    assert abs(x.matrix[0, 2]) > 1e-3 * scale
    d = decompose(rep, rng=np.random.default_rng(4))
    assert d.dm_multiset() == [(1, 1), (1, 2)] and d.diagnostics.passed


def test_restart_reasons_are_kept_when_a_later_attempt_succeeds(monkeypatch):
    dec = importlib.import_module("repblock.decompose")
    once = dec._decompose_once

    def first_fails(rep, cfg, streams, attempt):
        if attempt == 0:
            raise ResampleNeeded("planted genericity failure")
        return once(rep, cfg, streams, attempt)

    rep = natural_perm_rep(symmetric(3))
    assert decompose(rep, rng=np.random.default_rng(0)).restarts == ()
    monkeypatch.setattr(dec, "_decompose_once", first_fails)
    d = decompose(rep, rng=np.random.default_rng(0))
    assert d.attempts == 2 and d.restarts == ("planted genericity failure",)
