import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repblock import (CommutantSample, ProjectionConfig,
                      ProjectionError, Representation, conjugate, decompose,
                      defining_rep, direct_sum, group_from_generators,
                      natural_perm_rep, orthogonal_group, project_commutant,
                      rep_from_generator_images, sample_commutant, sample_gue,
                      tensor, tensor_power, trivial_rep, unitary_group)
from repblock import commutant
from repblock.commutant import (_MAX_ROUNDS, _RESIDUAL_PROBES, _SET_SIZE, chain_average,
                                commutation_residual, orbital_average, project_linear,
                                projection_path)
from repblock.decompose import _VERIFY_TRIALS

from conftest import (alternating4, brute_average, closure, closure_with_images,
                      cyclic, dihedral, group_of, klein4, perm_matrix,
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
    assert commutation_residual(rep, proj, elems) <= 1e-10
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
    out = project_commutant(rep, np.eye(4), rng=rng)
    assert np.linalg.norm(out.matrix - np.eye(4)) <= 1e-12
    assert out.residual <= 1e-12


def test_project_compact_u1_scalar(rng):
    rep = defining_rep(unitary_group(1))
    x = np.array([[2.5]])
    out = project_commutant(rep, x, rng=rng)
    assert np.allclose(out.matrix, x)


def test_project_compact_schur_weyl(rng):
    # the commutant of u (x) u on U(2) is spanned by I and SWAP
    u2 = defining_rep(unitary_group(2))
    rep = tensor(u2, u2)
    x = sample_gue(4, "complex", rng)
    out = project_commutant(rep, x, rng=rng)
    assert out.residual <= 1e-8

    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    basis = np.stack([np.eye(4).reshape(-1), swap.reshape(-1)]).T
    coeff, *_ = np.linalg.lstsq(basis, out.matrix.reshape(-1), rcond=None)
    fitted = (basis @ coeff).reshape(4, 4)
    assert np.linalg.norm(fitted - out.matrix) <= 1e-6


def test_project_compact_budget_exhaustion(rng, monkeypatch):
    # on the Haar path: a representation given by its images alone
    u2 = defining_rep(unitary_group(2))
    inner = tensor(u2, u2)
    rep, _ = _counting(inner, inner.image)
    x = sample_gue(4, "complex", rng)
    monkeypatch.setattr(commutant, "_MAX_ROUNDS", 1)
    monkeypatch.setattr(commutant, "_SET_SIZE", 2)
    cfg = ProjectionConfig(commutation_tol=1e-15)
    with pytest.raises(ProjectionError, match="after 1 rounds"):
        project_commutant(rep, x, cfg, rng)


def _counting(rep, image):
    """``rep`` with its images taken from ``image``, and a call counter."""
    calls = [0]

    def image_fn(g):
        calls[0] += 1
        return image(g)

    return Representation(rep.group, rep.dim, rep.field, image_fn), calls


def test_project_compact_stops_at_roundoff(rng):
    u3 = defining_rep(unitary_group(3))
    inner = tensor(u3, u3)
    rep, calls = _counting(inner, inner.image)
    out = project_commutant(rep, sample_gue(9, "complex", rng), rng=rng)
    assert out.residual <= 1e-13
    # the residual reaches roundoff well before the round cap
    assert calls[0] <= _MAX_ROUNDS * _SET_SIZE // 5


def test_project_compact_nan_image_stops_early(rng):
    u2 = defining_rep(unitary_group(2))
    rep, calls = _counting(u2, lambda g: np.full((2, 2), np.nan))
    with pytest.raises(ProjectionError, match="nan above .* after 10 rounds"):
        project_commutant(rep, np.eye(2), rng=rng)
    # ten rounds, then one residual check on the fixed probes
    assert calls[0] == 10 * _SET_SIZE + _RESIDUAL_PROBES


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


@pytest.mark.parametrize("name,rep", _casimir_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_casimir_projection_matches_the_haar_oracle(name, rep, rng):
    # the oracle is the same representation given by its images alone
    oracle, _ = _counting(rep, rep.image)
    assert projection_path(rep).startswith("Casimir kernel")
    assert projection_path(oracle) == "Haar averaging"
    x = sample_gue(rep.dim, rep.field, rng)
    got = project_commutant(rep, x, rng=rng)
    want = project_commutant(oracle, x, rng=rng)
    assert got.residual <= 1e-13
    assert _rel(got.matrix, want.matrix) <= 1e-12
    assert np.linalg.norm(got.matrix - got.matrix.conj().T) == 0.0

    z = rng.standard_normal((rep.dim, rep.dim))
    if rep.field == "complex":
        z = z + 1j * rng.standard_normal((rep.dim, rep.dim))
    assert _rel(project_linear(rep, z, rng=rng), project_linear(oracle, z, rng=rng)) <= 1e-12


def test_casimir_projection_names_its_path():
    u3 = defining_rep(unitary_group(3))
    assert projection_path(tensor(u3, u3)) == "Casimir kernel, 9 Lie generators"
    assert projection_path(defining_rep(orthogonal_group(3))) == \
        "Casimir kernel, 3 Lie generators, one reflection average"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_casimir_projection_fails_closed_on_non_finite_input(bad):
    rep = tensor_power(defining_rep(unitary_group(2)), 2)
    x = np.eye(4, dtype=complex)
    x[1, 2] = bad
    with pytest.raises(ProjectionError, match="Casimir kernel .* after 0 conjugate-gradient"):
        project_commutant(rep, x)
    with pytest.raises(ProjectionError, match="Casimir kernel"):
        project_linear(rep, x)


def test_casimir_projection_stops_at_non_positive_curvature():
    # i L_j is Hermitian, so Omega is negative semidefinite: CG stops at its
    # first direction rather than running on towards the n^2 cap
    u2 = defining_rep(unitary_group(2))
    calls = [0]

    def derived(y, gens):
        calls[0] += 1
        return 1j * u2.derived(y, gens)

    rep = tensor_power(Representation(u2.group, 2, "complex", u2.image, derived=derived), 4)
    with pytest.raises(ProjectionError, match="after 0 conjugate-gradient iterations; "
                                              "CG stopped at a direction of non-positive"):
        project_commutant(rep, sample_gue(16, "complex", np.random.default_rng(3)))
    # per factor: two actions for the right-hand side's Omega, two for the
    # first direction's, one per part of the gated result
    assert calls[0] == 4 * (2 + 2 + 2)


def test_casimir_projection_memory_is_bounded_in_the_generators(rng):
    # U(12)^(x2): 144 generators, n = 144, one stack over all of them would
    # be 48 MiB; the chunks keep every stack within 2^18 entries, 4 MiB
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


def test_casimir_decompose_draws_images_only_for_verification(rng):
    inner = tensor_power(defining_rep(unitary_group(3)), 3)
    calls = [0]

    def image(g):
        calls[0] += 1
        return inner.image(g)

    rep = Representation(inner.group, inner.dim, inner.field, image, derived=inner.derived)
    d = decompose(rep, rng=rng)
    assert d.dm_multiset() == [(1, 1), (8, 2), (10, 1)]
    assert calls[0] == _VERIFY_TRIALS * d.attempts


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
