import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from repblock import (CommutantSample, CompactGroupHandle, ProjectionConfig,
                      ProjectionError, Representation, conjugate, decompose,
                      defining_rep, direct_sum, group_from_generators,
                      natural_perm_rep, orthogonal_group, project_commutant,
                      rep_from_generator_images, sample_commutant, sample_gue,
                      tensor, tensor_power, trivial_rep, unitary_group)
from repblock import commutant
import repblock.reps as reps_mod
from repblock.commutant import (_gaussian, chain_average, commutation_residual,
                                orbital_average, orbital_sample, project_linear)

from conftest import (alternating4, brute_average, closure, closure_with_images,
                      cyclic, dihedral, group_of, haar_average, klein4, perm_matrix,
                      quaternion8, regular_group, symmetric)
from test_reps import s3_standard_images


def brute_reynolds_natural(group, x):
    """Average over the whole group with permutation matrices built directly
    from brute-force closure; independent of the stabilizer chain."""
    elems = closure(group.degree, [p.images for p in group.generators])
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for e in elems:
        u = perm_matrix(e, dtype=complex)
        acc += u @ x @ u.conj().T
    return acc / len(elems)


def test_sample_gue_basics(rng):
    x = sample_gue(1, "real", rng)
    assert x.shape == (1, 1) and not np.iscomplexobj(x)
    y = sample_gue(50, "complex", rng)
    assert np.linalg.norm(y - y.conj().T) == 0.0
    z = sample_gue(50, "real", rng)
    assert np.linalg.norm(z - z.T) == 0.0
    with pytest.raises(ValueError):
        sample_gue(0, "complex", rng)
    with pytest.raises(ValueError):
        sample_gue(3, "rational", rng)


def test_sample_gue_moments(rng):
    n, samples = 30, 10_000
    diag_c, diag_r = [], []
    off_c = []
    for _ in range(samples):
        x = sample_gue(n, "complex", rng)
        diag_c.append(x[0, 0].real)
        off_c.append(x[0, 1])
    for _ in range(samples):
        diag_r.append(sample_gue(n, "real", rng)[0, 0])
    assert abs(np.mean(diag_c)) < 0.05
    # complex diagonal entries are N(0, 1/2); real (GOE) diagonal N(0, 1)
    assert abs(np.var(diag_c) - 0.5) < 0.05
    assert abs(np.var(diag_r) - 1.0) < 0.1
    assert abs(np.mean(np.abs(off_c) ** 2) - 0.5) < 0.05


def test_project_finite_trivial_group(rng):
    g = group_from_generators(5, [])
    rep = natural_perm_rep(g)
    x = sample_gue(5, "complex", rng)
    out = project_commutant(rep, x)
    assert np.allclose(out.matrix, x)
    assert out.residual == 0.0


def test_project_finite_identity_fixed_point():
    g = symmetric(4)
    rep = natural_perm_rep(g)
    out = project_commutant(rep, np.eye(4))
    assert np.linalg.norm(out.matrix - np.eye(4)) <= 1e-14


def test_project_finite_matches_brute_force_s4(rng):
    g = symmetric(4)
    rep = natural_perm_rep(g)
    x = sample_gue(4, "complex", rng)
    got = project_commutant(rep, x).matrix
    want = brute_reynolds_natural(g, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


FINITE_CATALOG = [
    ("C2", lambda: cyclic(2)),
    ("C4", lambda: cyclic(4)),
    ("C6", lambda: cyclic(6)),
    ("V4", klein4),
    ("S3", lambda: symmetric(3)),
    ("D4", lambda: dihedral(4)),
    ("Q8", lambda: quaternion8()[0]),
    ("A4", alternating4),
    ("S4", lambda: symmetric(4)),
    ("S5", lambda: symmetric(5)),
]


@pytest.mark.parametrize("name,make", FINITE_CATALOG)
def test_chain_projection_invariants(name, make, rng):
    group = make()
    rep = natural_perm_rep(group, "complex")
    n = group.degree
    x = sample_gue(n, "complex", rng)
    proj = project_commutant(rep, x).matrix

    # matches brute force
    want = brute_reynolds_natural(group, x)
    assert np.linalg.norm(proj - want) <= 1e-12 * max(1, np.linalg.norm(want))
    # idempotent
    again = project_commutant(rep, proj).matrix
    assert np.linalg.norm(again - proj) <= 1e-10 * np.linalg.norm(proj)
    # commutes with 20 random elements
    elems = [group.sample(rng) for _ in range(20)]
    assert commutation_residual(proj, [rep.image(g) for g in elems]) <= 1e-10
    # trace preserved
    assert abs(np.trace(proj) - np.trace(x)) <= 1e-10 * max(1, abs(np.trace(x)))
    # linear
    y = sample_gue(n, "complex", rng)
    py = project_commutant(rep, y).matrix
    both = project_commutant(rep, 2.0 * x + 0.5 * y).matrix
    assert np.linalg.norm(both - (2.0 * proj + 0.5 * py)) <= 1e-10 * np.linalg.norm(both)


def test_projection_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(commutation_tol=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="commutation_tol"):
            ProjectionConfig(commutation_tol=tol)


def test_project_compact_identity(rng):
    rep = tensor(defining_rep(unitary_group(2)), defining_rep(unitary_group(2)))
    out = project_commutant(rep, np.eye(4))
    assert np.linalg.norm(out.matrix - np.eye(4)) <= 1e-12
    assert out.residual <= 1e-12


def test_project_compact_u1_scalar(rng):
    rep = defining_rep(unitary_group(1))
    x = np.array([[2.5]])
    out = project_commutant(rep, x)
    assert np.allclose(out.matrix, x)


def test_project_compact_schur_weyl(rng):
    # the commutant of u (x) u on U(2) is spanned by I and SWAP
    u2 = defining_rep(unitary_group(2))
    rep = tensor(u2, u2)
    x = sample_gue(4, "complex", rng)
    out = project_commutant(rep, x)
    assert out.residual <= 1e-8

    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    basis = np.stack([np.eye(4).reshape(-1), swap.reshape(-1)]).T
    coeff, *_ = np.linalg.lstsq(basis, out.matrix.reshape(-1), rcond=None)
    fitted = (basis @ coeff).reshape(4, 4)
    assert np.linalg.norm(fitted - out.matrix) <= 1e-6


def test_project_compact_budget_exhaustion(rng):
    # a gate below roundoff, which no projection reaches: the Casimir path
    # refuses the projection and names the conjugate-gradient steps it ran
    u2 = defining_rep(unitary_group(2))
    x = sample_gue(4, "complex", rng)
    cfg = ProjectionConfig(commutation_tol=1e-300)
    with pytest.raises(ProjectionError, match=r"above 1\.0e-300 after \d+ conjugate-gradient"):
        project_commutant(tensor(u2, u2), x, cfg)


def test_project_compact_stops_at_roundoff(rng):
    # CG takes one step per distinct nonzero Casimir value on X, three on
    # End(C^3 (x) C^3), far below its cap of n^2 = 81, and ends at roundoff
    u3 = defining_rep(unitary_group(3))
    out = project_commutant(tensor(u3, u3), sample_gue(9, "complex", rng))
    assert out.residual <= 1e-13
    assert out.path.endswith(", 3 conjugate-gradient iterations")


def test_project_compact_nan_image_stops_early():
    # images are read from the tree and cannot hold NaN; NaN input stops
    # CG before its first step, and the gate refuses it
    u2 = defining_rep(unitary_group(2))
    with pytest.raises(ProjectionError, match="nan above .* after 0 conjugate-gradient"):
        project_commutant(u2, np.full((2, 2), np.nan))


def _casimir_cases():
    u2, u3 = defining_rep(unitary_group(2)), defining_rep(unitary_group(3))
    o3 = defining_rep(orthogonal_group(3))
    return [
        ("U(1)", defining_rep(unitary_group(1))),
        ("U(3) (x) U(3)", tensor(u3, u3)),
        ("U(3)^3", tensor_power(u3, 3)),
        ("U(2) (x) conj U(2)", tensor(u2, conjugate(u2))),
        ("U(2) (+) U(2)^2", direct_sum(u2, tensor_power(u2, 2))),
        ("O(2) over R", defining_rep(orthogonal_group(2))),
        ("O(3) (+) O(3)^2 over R", direct_sum(o3, tensor_power(o3, 2))),
        ("trivial (+) U(2) (x) trivial", direct_sum(trivial_rep(u2.group),
                                                   tensor(u2, trivial_rep(u2.group)))),
        ("trivial (+) O(3) over R", direct_sum(trivial_rep(o3.group, "real"), o3)),
    ]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# per case: the Lie generators, the CG iterations (one per distinct nonzero
# Casimir value on a generic X) and the reflection
_CASIMIR_PATHS = {
    "U(1)": "1 Lie generators, 0 conjugate-gradient iterations",
    "U(3) (x) U(3)": "9 Lie generators, 3 conjugate-gradient iterations",
    "U(3)^3": "9 Lie generators, 5 conjugate-gradient iterations",
    "U(2) (x) conj U(2)": "4 Lie generators, 2 conjugate-gradient iterations",
    "U(2) (+) U(2)^2": "4 Lie generators, 4 conjugate-gradient iterations",
    "O(2) over R": "1 Lie generators, 1 conjugate-gradient iterations, one reflection average",
    "O(3) (+) O(3)^2 over R": ("3 Lie generators, 4 conjugate-gradient iterations, "
                               "one reflection average"),
    "trivial (+) U(2) (x) trivial": "4 Lie generators, 2 conjugate-gradient iterations",
    "trivial (+) O(3) over R": ("3 Lie generators, 2 conjugate-gradient iterations, "
                                "one reflection average"),
}


@pytest.mark.parametrize("name,rep", _casimir_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_casimir_projection_matches_the_haar_oracle(name, rep, rng):
    # the oracle averages over Haar samples of the same images
    x = sample_gue(rep.dim, rep.field, rng)
    got = project_commutant(rep, x)
    want = haar_average(rep, x, rng)
    assert got.path == f"Casimir kernel, {_CASIMIR_PATHS[name]}"
    assert got.residual <= 1e-13
    assert _rel(got.matrix, (want + want.conj().T) / 2) <= 1e-12
    assert np.linalg.norm(got.matrix - got.matrix.conj().T) == 0.0

    z = rng.standard_normal((rep.dim, rep.dim))
    if rep.field == "complex":
        z = z + 1j * rng.standard_normal((rep.dim, rep.dim))
    assert _rel(project_linear(rep, z), haar_average(rep, z, rng)) <= 1e-12


def test_casimir_projection_names_its_path(rng):
    # CG takes one step per distinct nonzero Casimir value on X: three on
    # End(C^3 (x) C^3); on End(R^3), 1 on the antisymmetric and 3 on the
    # traceless symmetric part of a Gaussian seed
    u3 = defining_rep(unitary_group(3))
    assert project_commutant(tensor(u3, u3), sample_gue(9, "complex", rng)).path == \
        "Casimir kernel, 9 Lie generators, 3 conjugate-gradient iterations"
    assert sample_commutant(defining_rep(orthogonal_group(3)), rng=rng).path == \
        "Casimir kernel, 3 Lie generators, 2 conjugate-gradient iterations, one reflection average"


def test_finite_projections_name_their_paths(rng):
    # S3 natural: the diagonal and the off-diagonal orbital, drawn or averaged
    natural = natural_perm_rep(symmetric(3), "complex")
    assert sample_commutant(natural, rng=rng).path == "orbital averaging, 2 orbitals"
    x = sample_gue(3, "complex", rng)
    assert project_commutant(natural, x).path == "orbital averaging, 2 orbitals"
    # S3 standard images: a chain of base length 2, transversals of 3 and 2
    std = rep_from_generator_images(symmetric(3), s3_standard_images(), "real")
    assert sample_commutant(std, rng=rng).path == "stabilizer chain, 5 transversal elements"
    assert project_commutant(std, np.eye(2)).path == "stabilizer chain, 5 transversal elements"


@pytest.mark.parametrize("build", [
    lambda: tensor(defining_rep(unitary_group(2)), conjugate(defining_rep(unitary_group(2)))),
    lambda: tensor_power(defining_rep(orthogonal_group(3)), 2)], ids=["U(2) adjoint", "O(3)^2"])
def test_casimir_projection_keeps_commuting_input(build):
    # CG on Omega Y = Omega X with X commuting already sees roundoff alone;
    # a step along a direction mostly in the kernel would move X there (by
    # 1e15 |X| on one of these samples), so CG stops at curvature below
    # half the gap
    rep = build()
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = sample_commutant(rep, rng=rng).matrix
        assert _rel(project_commutant(rep, x).matrix, x) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_casimir_projection_fails_closed_on_non_finite_input(bad):
    rep = tensor_power(defining_rep(unitary_group(2)), 2)
    x = np.eye(4, dtype=complex)
    x[1, 2] = bad
    with pytest.raises(ProjectionError, match="Casimir kernel .* after 0 conjugate-gradient"):
        project_commutant(rep, x)
    with pytest.raises(ProjectionError, match="Casimir kernel"):
        project_linear(rep, x)


@pytest.mark.parametrize("rep", [
    defining_rep(orthogonal_group(1)),
    defining_rep(unitary_group(1)),
    direct_sum(trivial_rep(unitary_group(3)), trivial_rep(unitary_group(3)))],
    ids=["O(1) over R", "U(1)", "trivial parts only"])
def test_casimir_gate_without_lie_generators_or_leaves(rep, rng):
    # o(1) = 0 has no spectral gap, and a tree of trivial parts no leaves:
    # Omega is 0, the commutant is every matrix, and the gate reads 0.0
    # without dividing by lambda_1 = 0
    x = sample_gue(rep.dim, rep.field, rng)
    got = project_commutant(rep, x)
    assert got.residual == 0.0 and np.array_equal(got.matrix, x)
    assert np.array_equal(project_linear(rep, x), x)
    x[0, 0] = np.nan
    with pytest.raises(ProjectionError, match="residual nan"):
        project_commutant(rep, x)


@pytest.mark.parametrize("seed", range(4))
def test_u1_gate_reads_the_charges_at_large_charge(seed):
    # charges k and 1: Omega's roundoff grows with the charges squared, and
    # the bound 2 r ||Omega X|| / ||X|| refused these correct projections at
    # k = 1000, CG's roundoff itself at k = 10^9
    u1 = defining_rep(unitary_group(1))
    for k in [1000, 10**9]:
        rep = direct_sum(tensor_power(u1, k), u1)
        got = sample_commutant(rep, rng=np.random.default_rng(seed))
        assert got.residual <= 1e-12
        assert decompose(rep, rng=np.random.default_rng(seed)).dm_multiset() == [(1, 1), (1, 1)]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_u1_charge_mask_drops_the_coupling_and_fails_closed(bad):
    # charges 1000 and 1: the mask keeps the diagonal exactly, without CG, and
    # a non-finite entry the mask drops still fails the gate (0 * inf is NaN)
    u1 = defining_rep(unitary_group(1))
    rep = direct_sum(tensor_power(u1, 1000), u1)
    x = np.array([[1.0, 1e-9], [1e-9, 2.0]], dtype=complex)
    got = project_commutant(rep, x)
    assert np.array_equal(got.matrix, np.diag([1.0, 2.0])) and got.residual == 0.0
    assert got.path == "Casimir kernel, 1 Lie generators, 0 conjugate-gradient iterations"
    x[0, 1] = bad
    with pytest.raises(ProjectionError, match="residual nan above"):
        project_commutant(rep, x)


def test_u1_charges_follow_the_kronecker_order():
    u1 = defining_rep(unitary_group(1))
    rep = tensor(direct_sum(u1, conjugate(u1), trivial_rep(unitary_group(1))),
                 direct_sum(tensor_power(u1, 3), u1))
    assert commutant._charges(rep.derived).tolist() == [4, 2, 2, 0, 3, 1]


def _gap_cases():
    u2, u3 = defining_rep(unitary_group(2)), defining_rep(unitary_group(3))
    return [
        pytest.param(lambda field: tensor_power(u2, 2), "complex", id="U(2)^2"),
        pytest.param(lambda field: tensor_power(u3, 2), "complex", id="U(3)^2"),
        pytest.param(lambda field: tensor_power(u2, 3), "complex", id="U(2)^3"),
        pytest.param(lambda field: tensor(u2, conjugate(u2)), "complex", id="U(2) (x) conj U(2)"),
        pytest.param(lambda field: direct_sum(u3, trivial_rep(u3.group)), "complex",
                     id="U(3) (+) trivial"),
        pytest.param(lambda field: tensor_power(defining_rep(orthogonal_group(3), field), 2),
                     "real", id="O(3)^2 over R"),
        pytest.param(lambda field: tensor_power(defining_rep(orthogonal_group(2), field), 2),
                     "real", id="O(2)^2 over R"),
        pytest.param(lambda field: direct_sum(defining_rep(orthogonal_group(4), field),
                                              trivial_rep(orthogonal_group(4), field)),
                     "real", id="O(4) (+) trivial over R"),
    ]


@pytest.mark.parametrize("build,field", _gap_cases())
def test_casimir_spectral_gap_and_kernel_by_brute_force(build, field):
    # Omega as an n^2 x n^2 matrix: positive semidefinite, its smallest
    # nonzero eigenvalue at least lambda_1 = d on U(d), (d - 1)/2 on O(d),
    # the bound the gate divides by
    rep = build(field)
    n, group = rep.dim, rep.group
    omega = commutant._casimir(rep)
    mat = np.stack([omega(e).ravel() for e in np.eye(n * n).reshape(-1, n, n)], axis=1)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    w, v = np.linalg.eigh(mat)
    assert w.min() >= -1e-9
    gap = group.dim if group.kind == "unitary" else (group.dim - 1) / 2
    assert w[w > 1e-9].min() >= gap - 1e-9
    # the kernel is the commutant of SO(d) or U(d); O(d) then averages with
    # a reflection (on O(2)^2, 6 dimensions down to 3).  Its dimension is
    # sum M^2 of the decomposition over C
    kernel = v[:, w <= 1e-9].T.reshape(-1, n, n)
    if group.kind == "orthogonal":
        u = rep.image(np.diag([-1.0] + [1.0] * (group.dim - 1)))
        kernel = (kernel + u @ kernel @ u.T) / 2
    dims = decompose(build("complex"), rng=np.random.default_rng(0)).dm_multiset()
    assert np.linalg.matrix_rank(kernel.reshape(len(kernel), -1), tol=1e-9) == \
        sum(m * m for _, m in dims)


def test_casimir_projection_memory_is_bounded_in_the_generators(rng):
    # U(12)^(x2): 144 generators, n = 144, one stack over all of them would
    # be 48 MiB; the pair contraction holds a few n x n matrices, 0.3 MiB each
    rep = tensor_power(defining_rep(unitary_group(12)), 2)
    x = sample_gue(rep.dim, "complex", rng)
    tracemalloc.start()
    try:
        out = project_commutant(rep, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.residual <= 1e-12
    assert peak <= 32 * 2 ** 20
    # Sym^2 and Alt^2 of C^12: the commutant is spanned by I and the swap
    swap = np.eye(144).reshape(12, 12, 12, 12).transpose(0, 1, 3, 2).reshape(144, 144)
    coeff, *_ = np.linalg.lstsq(np.stack([np.eye(144).ravel(), swap.ravel()]).T,
                                out.matrix.ravel(), rcond=None)
    assert np.linalg.norm(coeff[0] * np.eye(144) + coeff[1] * swap - out.matrix) <= \
        1e-12 * np.linalg.norm(out.matrix)


def test_casimir_decompose_draws_images_only_for_verification(rng, monkeypatch):
    # U(d) has no reflection, and verification reads d rho of two Lie-algebra
    # elements: no group image at all, and no Haar draw
    calls = []
    image, lie_image = Representation.image, Representation.lie_image
    monkeypatch.setattr(Representation, "image", lambda r, g: calls.append(g) or image(r, g))
    monkeypatch.setattr(Representation, "lie_image",
                        lambda r, z: calls.append("lie") or lie_image(r, z))
    monkeypatch.setattr(CompactGroupHandle, "sample",
                        lambda *a: pytest.fail("a Haar sample was drawn"))
    d = decompose(tensor_power(defining_rep(unitary_group(3)), 3), rng=rng)
    assert d.dm_multiset() == [(1, 1), (8, 2), (10, 1)]
    assert calls == ["lie"] * 2 * d.attempts


def test_project_linear_gates_a_broken_finite_rep(rng):
    # a fresh random unitary per element is no homomorphism: the chain
    # average of any matrix then fails to commute with the generators
    g = symmetric(3)
    mats = {}

    def image(p):
        if p.images not in mats:
            q, _ = np.linalg.qr(sample_gue(2, "complex", rng))
            mats[p.images] = q
        return mats[p.images]

    rep = Representation(g, 2, "complex", image)
    with pytest.raises(ProjectionError, match="not a homomorphism"):
        project_linear(rep, rng.standard_normal((2, 2)))


def _plant_a_wrong_label(monkeypatch):
    # pair (0, 1) gets an orbital of its own, which no generator that moves
    # point 0 or 1 keeps
    propagate = reps_mod._propagate_labels

    def planted(lab, moves):
        out = propagate(lab, moves).copy()
        out[1] = out.max() + 1
        return out

    monkeypatch.setattr(reps_mod, "_propagate_labels", planted)


def test_orbital_gate_refuses_a_planted_label(monkeypatch, rng):
    _plant_a_wrong_label(monkeypatch)
    rep = natural_perm_rep(symmetric(3))
    for project in (project_commutant, project_linear):
        with pytest.raises(ProjectionError, match="orbital labels are not invariant"):
            project(rep, sample_gue(3, "complex", rng))
    with pytest.raises(ProjectionError, match="orbital labels are not invariant"):
        decompose(rep, rng=rng)
    # the commutation gate that the label check replaced refuses them too
    moves = [(s[:, None] * 3 + s).ravel() for s in rep.index_action.generators]
    _, ids, counts = np.unique(reps_mod._propagate_labels(np.arange(9), moves),
                               return_inverse=True, return_counts=True)
    rep.index_action._orbitals = (ids, counts)
    out = orbital_average(rep, sample_gue(3, "complex", rng))
    assert commutation_residual(out, _generator_images(rep)) > 1e-3


@pytest.mark.parametrize("bad", [(np.nan, np.nan), (np.inf, np.inf), (np.inf, -np.inf)])
@pytest.mark.parametrize("images", [False, True])
def test_finite_gate_refuses_non_finite_input(bad, images, rng):
    # C3 on 3 points: (0, 1) and (1, 0) lie in two orbitals that the
    # Hermitian part adds, so +inf and -inf meet there
    c3 = group_of(3, [[1, 2, 0]])
    rep = natural_perm_rep(c3, "real")
    if images:  # the same images without the index action: the chain path
        rep = Representation(c3, 3, "real", rep.image)
    x = sample_gue(3, "real", rng)
    assert project_commutant(rep, x).residual <= 1e-15
    x[0, 1], x[1, 0] = bad
    for project in (project_commutant, project_linear):
        with pytest.raises(ProjectionError, match="residual nan; the input is not finite"):
            project(rep, x)
    # the commutation gate, which the orbital path no longer runs, refuses it too
    with np.errstate(invalid="ignore"):
        assert not commutation_residual(x, _generator_images(rep)) <= 1.0


def test_sample_commutant_trivial_group_returns_raw_gue():
    g = group_from_generators(5, [])
    rep = natural_perm_rep(g, "complex")
    want = sample_gue(5, "complex", np.random.default_rng(13))
    got = sample_commutant(rep, rng=np.random.default_rng(13))
    assert np.array_equal(got.matrix, want)


def test_sample_commutant_s3_span(rng):
    g = symmetric(3)
    rep = natural_perm_rep(g)
    s = sample_commutant(rep, rng=rng)
    basis = np.stack([np.eye(3).reshape(-1), np.ones(9)]).T
    coeff, *_ = np.linalg.lstsq(basis, s.matrix.reshape(-1), rcond=None)
    assert np.linalg.norm((basis @ coeff).reshape(3, 3) - s.matrix) <= 1e-10


def test_sample_commutant_c4_circulant(rng):
    g = cyclic(4)
    rep = natural_perm_rep(g, "complex")
    s = sample_commutant(rep, rng=rng).matrix
    # circulant: entry depends only on (j - i) mod 4
    for i in range(4):
        for j in range(4):
            assert abs(s[i, j] - s[0, (j - i) % 4]) <= 1e-12
    # and equals the brute-force average of the GOE/GUE seed used
    want = brute_reynolds_natural(g, sample_gue(4, "complex", np.random.default_rng(99)))
    got = project_commutant(rep, sample_gue(4, "complex", np.random.default_rng(99))).matrix
    assert np.linalg.norm(got - want) <= 1e-12


def _c3_with_fixed_points(field):
    # C3 on {0, 1, 2} fixing 3 and 4: orbitals of 1 and 3 pairs, some their
    # own transpose and some not
    return natural_perm_rep(group_of(5, [[1, 2, 0, 3, 4]]), field)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("build", [
    _c3_with_fixed_points,
    lambda field: natural_perm_rep(regular_group(symmetric(3)), field),
    lambda field: tensor_power(natural_perm_rep(dihedral(4), field), 2)])
def test_orbital_sample_is_a_hermitian_commutant_element(build, field, rng):
    # the projected seed is a commutant element, not Hermitian; the sample is
    # its Hermitian part, drawn from the same stream, and keeps it over R
    rep = build(field)
    state = rng.bit_generator.state
    x = orbital_sample(rep, rng)
    assert x.dtype == (complex if field == "complex" else float)
    assert commutation_residual(x, _generator_images(rep)) <= 1e-14
    assert not np.array_equal(x, x.conj().T)
    rng.bit_generator.state = state
    s = sample_commutant(rep, rng=rng)
    assert s.residual == 0.0 and np.array_equal(s.matrix, (x + x.conj().T) / 2)
    assert np.array_equal(s.whole, x) if field == "real" else s.whole is None


@pytest.mark.parametrize("field", ["real", "complex"])
def test_orbital_sample_moments_match_projected_seeds(field):
    # the second moment of every orbital's entry, over 3000 draws of each
    rep = _c3_with_fixed_points(field)
    ids, counts = rep.index_action.orbitals()
    first = np.unique(ids, return_index=True)[1]  # one pair per orbital
    rng = np.random.default_rng(2024)
    draws = 3000
    got = np.array([orbital_sample(rep, rng).reshape(-1)[first] for _ in range(draws)])
    want = np.array([orbital_average(rep, _gaussian(5, field, rng))
                     .reshape(-1)[first] for _ in range(draws)])
    got, want = np.mean(np.abs(got) ** 2, axis=0), np.mean(np.abs(want) ** 2, axis=0)
    assert len(counts) == 11 and set(counts.tolist()) == {1, 3}
    np.testing.assert_allclose(got, want, rtol=0.1)


def _generator_images(rep):
    return [rep.image(g) for g in rep.group.generators]


_PATHS = ["orbital", "stabilizer chain", "Casimir"]


def _path_rep(path):
    if path in ("orbital", "stabilizer chain"):
        rep = natural_perm_rep(symmetric(4), "complex")
    else:
        rep = tensor_power(defining_rep(orthogonal_group(3), "complex"), 2)
    if path == "stabilizer chain":  # the same images, without the structure
        rep = Representation(rep.group, rep.dim, rep.field, rep.image)
    probe = project_commutant(rep, np.eye(rep.dim))
    assert probe.path.startswith(path)
    return rep


@pytest.mark.parametrize("path", _PATHS)
def test_project_commutant_is_the_hermitian_part_of_project_linear(path):
    # every path returns the linear average P; the Hermitian part is taken once
    rep = _path_rep(path)
    x = _gaussian(rep.dim, rep.field, np.random.default_rng(5))
    p = project_linear(rep, x)
    got = project_commutant(rep, x)
    assert not np.array_equal(p, p.conj().T)
    assert np.array_equal(got.matrix, (p + p.conj().T) / 2)


@pytest.mark.parametrize("path", _PATHS)
def test_projection_commutes_with_powers_of_two(path):
    # P(2^k x) = 2^k P(x) bit for bit: data near the ends of the float range
    # project as ordinary data do, and ordinary data keep their bits
    rep = _path_rep(path)
    x = _gaussian(rep.dim, rep.field, np.random.default_rng(5))
    p, resid, _ = commutant._project(rep, x, None)
    for k in (-1000, 0, 1000):
        got = commutant._project(rep, x * 2.0 ** k, None)
        assert np.array_equal(got[0], p * 2.0 ** k) and got[1] == resid


def test_casimir_projection_of_data_near_the_float_range():
    # the CG residual's squared norm overflowed above about 1e154
    o3 = defining_rep(orthogonal_group(3))
    for scale in (1e-300, 1e160, 1e300):
        got = project_linear(o3, np.full((3, 3), scale))
        np.testing.assert_allclose(got, scale * np.eye(3), rtol=0, atol=1e-14 * scale)


def test_average_that_overflows_when_scaled_back_is_refused():
    # the reflection's commutant holds a projector with an entry of 1.75, so
    # the average of 1e308 * ones has an entry of 3.6e308: finite data whose
    # average commutes at the scale it was taken, but not as floats
    w = np.ones(8)
    w[0] = -1
    w /= np.linalg.norm(w)
    rep = rep_from_generator_images(cyclic(2), [np.eye(8) - 2 * np.outer(w, w)], "real")
    assert project_linear(rep, np.full((8, 8), 1e300))[0, 0] == pytest.approx(3.625e300)
    with pytest.raises(ProjectionError, match="overflows"):
        project_linear(rep, np.full((8, 8), 1e308))


def test_project_dispatch(rng):
    g = symmetric(3)
    rep = natural_perm_rep(g)
    x = sample_gue(3, "complex", rng)
    out = project_commutant(rep, x)
    assert isinstance(out, CommutantSample)
    with pytest.raises(TypeError):
        chain_average(defining_rep(unitary_group(2)), np.eye(2))


# ---------------------------------------------------------------------------
# orbital averaging for representations with an index action
# ---------------------------------------------------------------------------
#
# Each case builds a representation and, independently of it, the matrices
# of the group generators; the oracle is the brute-force average over the
# closure of those matrices.

def _gen_perms(group):
    return [p.images for p in group.generators]


def _natural(group, field="complex"):
    return natural_perm_rep(group, field), [perm_matrix(p) for p in _gen_perms(group)]


def _regular_images(group, field="complex"):
    # the left-regular action as generator-images of the group itself
    reg = regular_group(group)
    mats = [perm_matrix(p.images) for p in reg.generators]
    return rep_from_generator_images(group, mats, field), mats


def _kron(a, b):
    return [np.kron(x, y) for x, y in zip(a, b)]


def _blockdiag(a, b):
    out = []
    for x, y in zip(a, b):
        m = np.zeros((len(x) + len(y),) * 2)
        m[:len(x), :len(x)], m[len(x):, len(x):] = x, y
        out.append(m)
    return out


def _perm_cases():
    s3, d4 = symmetric(3), dihedral(4)
    nat3, nat3_m = _natural(s3)
    reg3, reg3_m = _regular_images(s3)
    nat4, nat4_m = _natural(d4)
    return [
        ("natural S4", *_natural(symmetric(4))),
        ("natural A4", *_natural(alternating4())),
        ("generator-images S3 regular", reg3, reg3_m),
        ("tensor natural x images", tensor(nat3, reg3), _kron(nat3_m, reg3_m)),
        ("dsum images + natural", direct_sum(reg3, nat3), _blockdiag(reg3_m, nat3_m)),
        ("conj natural D4", conjugate(nat4), nat4_m),
        ("power 2 natural D4", tensor_power(nat4, 2), _kron(nat4_m, nat4_m)),
        ("dsum(power, conj)", direct_sum(tensor_power(nat3, 2), conjugate(reg3)),
         _blockdiag(_kron(nat3_m, nat3_m), reg3_m)),
    ]


def _brute(rep, mats, x):
    table = closure_with_images(rep.group.degree, _gen_perms(rep.group), mats)
    return brute_average(table.keys(), table, x)


@pytest.mark.parametrize("case", range(len(_perm_cases())))
def test_orbital_projection_matches_brute_force(case, rng):
    name, rep, mats = _perm_cases()[case]
    assert rep.index_action is not None, name
    n = rep.dim
    x = sample_gue(n, "complex", rng)
    want = _brute(rep, mats, x)
    scale = max(1.0, np.linalg.norm(want))
    got = project_commutant(rep, x)
    assert np.linalg.norm(got.matrix - want) <= 1e-12 * scale, name
    assert got.residual == 0.0
    # the chain path is the second reference, and project_linear takes the
    # orbital path for a non-Hermitian matrix too
    assert np.linalg.norm(chain_average(rep, x) - got.matrix) <= 1e-12 * scale
    y = rng.standard_normal((n, n))
    assert np.linalg.norm(project_linear(rep, y) - _brute(rep, mats, y)) <= 1e-12 * n
    ids, counts = rep.index_action.orbitals()
    assert ids.shape == (n * n,) and counts.sum() == n * n


def _non_permutation_cases():
    c2, c4 = cyclic(2), cyclic(4)
    quarter = [np.array([[0.0, -1.0], [1.0, 0.0]])]  # a signed permutation
    near = [np.array([[0.0, 1.0 - 1e-12], [1.0, 0.0]])]
    s3 = symmetric(3)
    return [
        ("signed permutation C4", rep_from_generator_images(c4, quarter, "real"), quarter),
        ("S3 standard", rep_from_generator_images(s3, s3_standard_images(), "real"),
         s3_standard_images()),
        ("1 - 1e-12 entry", rep_from_generator_images(c2, near, "real"), near),
    ]


@pytest.mark.parametrize("case", range(3))
def test_non_permutation_images_take_the_chain(case, rng):
    name, rep, mats = _non_permutation_cases()[case]
    assert rep.index_action is None, name
    x = sample_gue(rep.dim, "real", rng)
    want = _brute(rep, mats, x)
    got = project_commutant(rep, x).matrix
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want)), name


def test_combinators_drop_the_index_action_with_a_matrix_factor():
    s3 = symmetric(3)
    nat = natural_perm_rep(s3, "real")
    std = rep_from_generator_images(s3, s3_standard_images(), "real")
    assert tensor(nat, std).index_action is None
    assert direct_sum(std, nat).index_action is None
    assert tensor(nat, nat).index_action is not None


def test_orbital_labels_against_brute_force():
    # the regular action has one orbital per group element
    regular = natural_perm_rep(regular_group(symmetric(4)))
    assert len(regular.index_action.orbitals()[1]) == 24
    # S4 on pairs of index pairs of its tensor square, by brute force
    elems = closure(4, _gen_perms(symmetric(4)))
    ids, counts = tensor_power(natural_perm_rep(symmetric(4)), 2).index_action.orbitals()

    def move(g, i):
        return g[i // 4] * 4 + g[i % 4]

    orbits = {frozenset(move(g, i) * 16 + move(g, j) for g in elems)
              for i in range(16) for j in range(16)}
    assert len(counts) == len(orbits)
    for orbit in orbits:
        assert len({int(ids[p]) for p in orbit}) == 1
        assert counts[ids[min(orbit)]] == len(orbit)


def _numbered(lab):
    """orbitals() on labels ``lab`` of a group without generators, which no
    move refuses, so only their numbering acts."""
    with mock.patch.object(reps_mod, "_propagate_labels", lambda *_: lab):
        return natural_perm_rep(group_of(math.isqrt(lab.size), [])).index_action.orbitals()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.integers(0, 4 * n * n), min_size=n * n, max_size=n * n)))
# S3's labels with _plant_a_wrong_label's label, one above every root
@example([0, 2, 1, 1, 0, 1, 1, 1, 0])
def test_orbital_ids_number_labels_as_np_unique(labels):
    lab = np.array(labels)
    ids, counts = _numbered(lab)
    _, want_ids, want_counts = np.unique(lab, return_inverse=True, return_counts=True)
    assert ids.dtype == want_ids.dtype and counts.dtype == want_counts.dtype
    assert np.array_equal(ids, want_ids) and np.array_equal(counts, want_counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=3))),
    st.integers(0, 2 ** 32 - 1))
def test_orbital_projection_properties(generated, seed):
    n, gens = generated
    group = group_of(n, gens)
    rep = natural_perm_rep(group, "complex")
    x = sample_gue(n, "complex", np.random.default_rng(seed))
    got = project_commutant(rep, x).matrix

    want = np.zeros((n, n), dtype=complex)
    elems = closure(n, gens)
    for e in elems:
        u = perm_matrix(e)
        want += u @ x @ u.T
    want /= len(elems)
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
    assert np.linalg.norm(orbital_average(rep, got) - got) <= 1e-12 * max(1.0, np.linalg.norm(got))
    assert np.array_equal(got, got.conj().T)
    for p in gens:
        u = perm_matrix(p)
        assert np.linalg.norm(u @ got - got @ u) <= 1e-12 * max(1.0, np.linalg.norm(got))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=3))),
    st.integers(0, 2 ** 32 - 1))
def test_decompose_over_c_counts_the_orbitals(generated, seed):
    n, gens = generated
    rep = natural_perm_rep(group_of(n, gens), "complex")
    d = decompose(rep, rng=np.random.default_rng(seed))
    assert sum(m * m for m in d.multiplicities) == len(rep.index_action.orbitals()[1])
