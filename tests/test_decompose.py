import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repblock import (CommutantSample, DecomposeConfig, DecompositionError,
                      IsotypicComponent, Representation, ResampleNeeded,
                      classify_real_type, conjugate, decompose,
                      defining_rep, direct_sum, eigsplit, equivalence_test,
                      group_from_generators, harmonize, natural_perm_rep,
                      orthogonal_group, rep_from_generator_images,
                      sample_commutant, tensor, tensor_power, unitary_group,
                      verify_decomposition)

from conftest import (closure_with_images, cyclic, equivalence_pass_order, group_of,
                      perm_matrix, quaternion8, reference_verify, regular_rep, symmetric)
from test_reps import s3_standard_images


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
        p = rep.random_element(rng)
        u = rep.image(p)
        s1 = bases[0].rows @ u @ bases[0].rows.conj().T
        s2 = aligned.rows @ u @ aligned.rows.conj().T
        assert np.linalg.norm(s1 - s2) <= 1e-8


def test_harmonize_identity_witness(rng):
    rep, bases, xprime = _s3_double_standard(rng)
    from repblock import EquivalenceWitness

    w = EquivalenceWitness(F=np.eye(2), alpha=1.0)
    out = harmonize(bases[0], w)
    assert np.allclose(out.rows, bases[0].rows)


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
    report = verify_decomposition(rep, d, trials=50, rng=rng)
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


def test_derived_action_disagreeing_with_the_images_fails_verification():
    # conj without the conjugate: conjugated images, the defining derived action
    u2 = defining_rep(unitary_group(2))
    wrong = Representation(u2.group, 2, "complex", lambda g: np.conj(g),
                           derived=u2.derived)
    with pytest.raises(DecompositionError, match="verification failed"):
        decompose(tensor(u2, wrong), rng=np.random.default_rng(2))
    right = decompose(tensor(u2, conjugate(u2)), rng=np.random.default_rng(2))
    assert right.dm_multiset() == [(1, 1), (3, 1)]


def test_classify_projects_shared_seeds_once(monkeypatch):
    # the 8 projected seeds serve all three components of O(3)^(x2); the
    # package attribute repblock.decompose is the function, not the module
    dec = importlib.import_module("repblock.decompose")

    calls = [0]
    inner = dec.project_linear

    def counting(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(dec, "project_linear", counting)
    o3 = defining_rep(orthogonal_group(3))
    d = decompose(tensor(o3, o3), rng=np.random.default_rng(0))
    assert len(d.components) == 3 and d.attempts == 1
    assert calls[0] == 8


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
        report = verify_decomposition(rep, d, trials=50, rng=rng)
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


def test_classify_requires_real_field(rng):
    rep = natural_perm_rep(cyclic(4), "complex")
    d = decompose(rep, rng=rng)
    with pytest.raises(ValueError):
        classify_real_type(rep, d.components, rng)


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


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_needs_a_trial(trials, rng):
    rep = natural_perm_rep(symmetric(3), "complex")
    d = decompose(rep, rng=rng)
    with pytest.raises(ValueError, match="trials"):
        verify_decomposition(rep, d, trials=trials)


def test_verify_trivial_group(rng):
    rep = natural_perm_rep(group_from_generators(4, []), "complex")
    d = decompose(rep, rng=rng)
    r = verify_decomposition(rep, d, trials=10, rng=rng)
    assert r.passed
    assert r.unitarity_residual <= 1e-12
    assert r.max_off_component <= 1e-12


def test_verify_s4_natural(rng):
    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    r = verify_decomposition(rep, d, trials=50, rng=rng)
    assert r.passed and r.max_off_component <= 1e-8


def test_verify_flags_corrupted_basis(rng):
    rep = natural_perm_rep(symmetric(4), "complex")
    d = decompose(rep, rng=rng)
    u = d.U.copy()
    u[0] = 0.0
    d.U = u
    r = verify_decomposition(rep, d, trials=10, rng=rng)
    assert not r.passed
    assert any("unitary" in f for f in r.failures)
    # a NaN entry fails every check instead of passing them all
    u[1, 1] = np.nan
    r = verify_decomposition(rep, d, trials=10, rng=rng)
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
    report = verify_decomposition(rep, d, trials=10, rng=rng)
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
    report = verify_decomposition(rep, d, trials=1, tol=1e-3, rng=np.random.default_rng(5))
    img = rep.image(rep.random_element(np.random.default_rng(5)))
    sub = d.U @ img @ d.U.conj().T
    avg = np.trace(sub.reshape(3, 2, 3, 2), axis1=0, axis2=2) / 3
    pattern = np.zeros_like(sub)
    for a in range(3):
        pattern[2 * a:2 * a + 2, 2 * a:2 * a + 2] = avg
    want = np.linalg.norm(sub - pattern) / np.linalg.norm(img)
    dense = reference_verify(rep, d, trials=1, tol=1e-3, rng=np.random.default_rng(5))
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
    report = verify_decomposition(rep, d, trials=10, rng=rng)
    assert report.failures == (
        "commutant dimension 4 claimed by the components differs from the 6 orbitals",)


def test_verify_flags_wrong_real_type(rng):
    rep = natural_perm_rep(cyclic(5), "real")
    d = decompose(rep, rng=rng)
    assert sorted(c.real_type for c in d.components) == ["complex", "complex", "real"]
    assert verify_decomposition(rep, d, trials=10, rng=rng).passed
    next(c for c in d.components if c.real_type == "complex").real_type = "real"
    report = verify_decomposition(rep, d, trials=10, rng=rng)
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

    new = verify_decomposition(rep, d, trials=3, tol=1e-8, rng=np.random.default_rng(seed + 1))
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
