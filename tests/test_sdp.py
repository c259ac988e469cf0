import numpy as np
import pytest

from repblock import (NotInvariantError, SdpProblem, block_diagonalize_matrix,
                      block_diagonalize_sdp, decompose, natural_perm_rep,
                      reconstruct, sample_commutant, sample_gue,
                      symmetrize_matrix)

from conftest import symmetric
from test_commutant import brute_reynolds_natural


@pytest.fixture(scope="module")
def s3_setup():
    rep = natural_perm_rep(symmetric(3), "complex")
    decomp = decompose(rep, rng=np.random.default_rng(101))
    return rep, decomp


@pytest.fixture(scope="module")
def s4_setup():
    rep = natural_perm_rep(symmetric(4), "complex")
    decomp = decompose(rep, rng=np.random.default_rng(202))
    return rep, decomp


def test_symmetrize_fixed_point(s3_setup, rng):
    rep, _ = s3_setup
    x = sample_commutant(rep, rng=rng).matrix
    assert np.linalg.norm(symmetrize_matrix(rep, x) - x) <= 1e-10 * np.linalg.norm(x)


def test_symmetrize_trivial_group(rng):
    from repblock import group_from_generators

    rep = natural_perm_rep(group_from_generators(4, []), "complex")
    x = sample_gue(4, "complex", rng)
    assert np.array_equal(symmetrize_matrix(rep, x), x)


def test_symmetrize_s3_projector(s3_setup):
    rep, _ = s3_setup
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    got = symmetrize_matrix(rep, e11)
    want = brute_reynolds_natural(rep.group, e11)
    assert np.linalg.norm(got - want) <= 1e-12
    # alpha I + beta J with trace preserved: alpha + 3 beta... trace = 1
    assert got[0, 0] == pytest.approx(1 / 3)
    assert got[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_symmetrize_rejects_nonhermitian(s3_setup):
    rep, _ = s3_setup
    skew = np.zeros((3, 3))
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        symmetrize_matrix(rep, skew)


def test_block_diagonalize_identity(s3_setup):
    _, decomp = s3_setup
    blocks, residual = block_diagonalize_matrix(decomp, np.eye(3, dtype=complex))
    assert residual <= 1e-12
    for comp, xi in zip(decomp.components, blocks):
        assert xi.shape == (comp.multiplicity, comp.multiplicity)
        assert np.allclose(xi, np.eye(comp.multiplicity))


def test_block_diagonalize_all_ones(s3_setup):
    _, decomp = s3_setup
    j = np.ones((3, 3), dtype=complex)
    blocks, residual = block_diagonalize_matrix(decomp, j)
    assert residual <= 1e-10
    by_dim = {c.dimension: b for c, b in zip(decomp.components, blocks)}
    assert by_dim[1][0, 0] == pytest.approx(3.0, abs=1e-10)  # trivial component
    assert by_dim[2][0, 0] == pytest.approx(0.0, abs=1e-10)  # standard component


def test_block_roundtrip_random_invariant(s4_setup, rng):
    rep, decomp = s4_setup
    x = sample_commutant(rep, rng=rng).matrix
    blocks, _ = block_diagonalize_matrix(decomp, x)
    back = reconstruct(decomp, blocks)
    assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)


def test_reconstruct_cases(s3_setup):
    _, decomp = s3_setup
    eye_blocks = [np.eye(c.multiplicity) for c in decomp.components]
    assert np.linalg.norm(reconstruct(decomp, eye_blocks) - np.eye(3)) <= 1e-10
    zero_blocks = [np.zeros((c.multiplicity, c.multiplicity)) for c in decomp.components]
    assert np.linalg.norm(reconstruct(decomp, zero_blocks)) == 0.0
    with pytest.raises(ValueError):
        reconstruct(decomp, eye_blocks[:1])
    with pytest.raises(ValueError):
        reconstruct(decomp, [np.eye(5) for _ in decomp.components])


def test_block_diagonalize_rejects_noninvariant(s3_setup, rng):
    _, decomp = s3_setup
    x = sample_gue(3, "complex", rng)  # generic, not invariant
    with pytest.raises(NotInvariantError):
        block_diagonalize_matrix(decomp, x)
    # the gates fail closed on a NaN residual
    x = np.eye(3)
    x[0, 0] = np.nan
    with pytest.raises(NotInvariantError, match="residual nan"):
        block_diagonalize_matrix(decomp, x)
    prob = SdpProblem(c=np.eye(3), a=[np.eye(3), np.eye(3)], b=[1.0, 2.0], field="complex")
    prob.a[1][0, 0] = np.nan  # past the constructor's checks
    with pytest.raises(NotInvariantError, match="A_2 .*residual nan"):
        block_diagonalize_sdp(decomp, prob)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_block_diagonalize_rejects_bad_tolerance(s3_setup, tol):
    _, decomp = s3_setup
    with pytest.raises(ValueError, match="tol"):
        block_diagonalize_matrix(decomp, np.eye(3), tol=tol)
    prob = SdpProblem(c=np.eye(3), a=[np.eye(3)], b=[1.0], field="complex")
    with pytest.raises(ValueError, match="tol"):
        block_diagonalize_sdp(decomp, prob, tol=tol)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_hermitian_check_keeps_its_tolerance(rng, field):
    # a bitwise-Hermitian matrix skips the residual; one Hermitian only to
    # roundoff still takes the tolerance path and passes, 1e-9 off fails
    x = rng.standard_normal((6, 6))
    if field == "complex":
        x = x + 1j * rng.standard_normal((6, 6))
    h = x + x.conj().T
    h /= 2 * np.linalg.norm(h)  # norm 1/2, so the tolerance is 1e-10 absolute
    SdpProblem(c=h, a=[h], b=[1.0], field=field)
    near, off = h.copy(), h.copy()
    near[0, 1] += 1e-14
    off[0, 1] += 1e-9
    assert not np.array_equal(near, near.conj().T)
    SdpProblem(c=near, a=[], b=[], field=field)
    with pytest.raises(ValueError, match="C is not Hermitian"):
        SdpProblem(c=off, a=[], b=[], field=field)
    with pytest.raises(ValueError, match="A_1 is not Hermitian"):
        SdpProblem(c=h, a=[off], b=[1.0], field=field)


def test_sdp_problem_validation(rng):
    c = np.eye(3)
    with pytest.raises(ValueError, match="Hermitian"):
        SdpProblem(c=np.triu(np.ones((3, 3))) * 2, a=[], b=[], field="real")
    with pytest.raises(ValueError, match="b entries"):
        SdpProblem(c=c, a=[c], b=[], field="real")
    with pytest.raises(ValueError, match="shape"):
        SdpProblem(c=c, a=[np.eye(2)], b=[1.0], field="real")
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="C has a non-finite entry"):
        SdpProblem(c=bad, a=[], b=[], field="real")
    bad[0, 0], bad[1, 2], bad[2, 1] = 1.0, np.inf, np.inf
    with pytest.raises(ValueError, match="A_1 has a non-finite entry"):
        SdpProblem(c=c, a=[bad], b=[1.0], field="real")
    with pytest.raises(ValueError, match="b has a non-finite entry"):
        SdpProblem(c=c, a=[c], b=[np.nan], field="real")
    p = SdpProblem(c=c, a=[c, 2 * c], b=[1.0, 2.0], field="real")
    assert p.n == 3 and p.m == 2


def _random_invariant_instance(rep, m, rng):
    c = sample_commutant(rep, rng=rng).matrix
    a = [sample_commutant(rep, rng=rng).matrix for _ in range(m)]
    b = rng.standard_normal(m)
    return SdpProblem(c=c, a=a, b=b, field=rep.field)


def test_blockdiag_sdp_objective_constraints(s3_setup, rng):
    rep, decomp = s3_setup
    prob = _random_invariant_instance(rep, 1, rng)
    blocked = block_diagonalize_sdp(decomp, prob)
    assert blocked.block_sizes == [c.multiplicity for c in decomp.components]
    assert np.array_equal(blocked.b, prob.b)

    for _ in range(20):
        x = sample_commutant(rep, rng=rng).matrix
        x_blocks, _ = block_diagonalize_matrix(decomp, x)
        lhs = np.trace(prob.c.conj().T @ x)
        rhs = sum(comp.dimension * np.trace(comp.c_block.conj().T @ xb)
                  for comp, xb in zip(blocked.components, x_blocks))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        lhs_a = np.trace(prob.a[0].conj().T @ x)
        rhs_a = sum(comp.dimension * np.trace(comp.a_blocks[0].conj().T @ xb)
                    for comp, xb in zip(blocked.components, x_blocks))
        assert abs(lhs_a - rhs_a) <= 1e-8 * max(1.0, abs(lhs_a))


def test_blockdiag_sdp_psd_equivalence(s4_setup, rng):
    rep, decomp = s4_setup
    for _ in range(20):
        x = sample_commutant(rep, rng=rng).matrix
        blocks, _ = block_diagonalize_matrix(decomp, x)
        full_min = np.linalg.eigvalsh(x).min()
        block_min = min(np.linalg.eigvalsh(b).min() for b in blocks)
        assert abs(full_min - block_min) <= 1e-8
        if abs(full_min) > 1e-8:
            assert np.sign(full_min) == np.sign(block_min)


def test_blockdiag_sdp_zero_constraints(s3_setup):
    _, decomp = s3_setup
    prob = SdpProblem(c=np.eye(3, dtype=complex), a=[], b=[], field="complex")
    blocked = block_diagonalize_sdp(decomp, prob)
    for comp in blocked.components:
        assert np.allclose(comp.c_block, np.eye(comp.multiplicity))
        assert comp.a_blocks == []


def test_blockdiag_sdp_noninvariant_and_symmetrize(s3_setup, rng):
    rep, decomp = s3_setup
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    prob = SdpProblem(c=e11, a=[], b=[], field="complex")
    with pytest.raises(NotInvariantError):
        block_diagonalize_sdp(decomp, prob)
    blocked = block_diagonalize_sdp(decomp, prob, symmetrize_first=True)
    assert blocked.residual <= 1e-10
    # symmetrized C is (1/3) I + 0 J: trivial block 1/3, standard block 1/3
    for comp in blocked.components:
        assert comp.c_block[0, 0] == pytest.approx(1 / 3, abs=1e-10)


def test_blockdiag_real_field_roundtrip(rng):
    rep = natural_perm_rep(symmetric(4), "real")
    decomp = decompose(rep, rng=np.random.default_rng(303))
    prob = _random_invariant_instance(rep, 2, rng)
    assert not np.iscomplexobj(prob.c)
    blocked = block_diagonalize_sdp(decomp, prob)
    for comp in blocked.components:
        assert not np.iscomplexobj(comp.c_block)
    back = reconstruct(decomp, [c.c_block for c in blocked.components])
    assert np.linalg.norm(back - prob.c) <= 1e-9 * np.linalg.norm(prob.c)


def test_blockdiag_threads_keyword_accepts_only_one(s4_setup, rng):
    rep, decomp = s4_setup
    prob = _random_invariant_instance(rep, 2, rng)
    assert block_diagonalize_sdp(decomp, prob, threads=1).residual <= 1e-8
    with pytest.raises(ValueError, match="threads must be 1"):
        block_diagonalize_sdp(decomp, prob, threads=2)

def test_blocks_stay_hermitian(s4_setup, rng):
    rep, decomp = s4_setup
    x = sample_commutant(rep, rng=rng).matrix
    blocks, _ = block_diagonalize_matrix(decomp, x)
    for b in blocks:
        assert np.linalg.norm(b - b.conj().T) == 0.0
