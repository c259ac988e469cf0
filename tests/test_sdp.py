import importlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repblock import (IrrepDecomposition, NotInvariantError, Representation, SdpProblem,
                      block_diagonalize_matrix, block_diagonalize_sdp, conjugate,
                      decompose, defining_rep, direct_sum, natural_perm_rep,
                      reconstruct, sample_commutant, sample_gue,
                      symmetrize_matrix, tensor, unitary_group)
from repblock.commutant import chain_average, orbital_average
from repblock.formats import format_sdp, parse_sdp
from repblock.sdp import DEFAULT_INVARIANCE_TOL, _extract_blocks, _orbital_path_applies

from conftest import group_of, symmetric
from test_commutant import brute_reynolds_natural

sdp_mod = importlib.import_module("repblock.sdp")


def plant_nan(prob, k, i, j):
    """NaN in the stored entry (i, j) of matrix k, past the constructor's checks."""
    at = np.flatnonzero((prob.k == k) & (prob.i == i) & (prob.j == j))
    assert at.size == 1
    prob.v[at] = np.nan


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
    plant_nan(prob, 2, 0, 0)
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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("order, message", [
    (["near", "off", "nan"], "A_1 is not Hermitian"),
    (["h", "near", "nan", "off"], "A_2 has a non-finite entry"),
    (["nan", "h", "small"], "C has a non-finite entry"),
    (["h", "h", "small", "off"], "A_2 has shape"),
    (["near", "h", "near"], None)])
def test_sdp_problem_names_the_first_bad_matrix(order, message, field, rng):
    # one test on the stack finds a fault anywhere; the first bad matrix, in
    # the order given, is the one named
    x = rng.standard_normal((4, 4))
    if field == "complex":
        x = x + 1j * rng.standard_normal((4, 4))
    h = (x + x.conj().T) / 4
    mats = {"h": h, "near": h.copy(), "off": h.copy(), "nan": h.copy(), "small": np.eye(3)}
    mats["near"][0, 1] += 1e-15  # not bitwise Hermitian, within tolerance
    mats["off"][0, 1] += 1e-6
    mats["nan"][2, 3] = np.nan
    c, *a = [mats[k] for k in order]
    if message is None:
        assert SdpProblem(c=c, a=a, b=[1.0] * len(a), field=field).m == len(a)
    else:
        with pytest.raises(ValueError, match=message):
            SdpProblem(c=c, a=a, b=[1.0] * len(a), field=field)


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


@pytest.mark.parametrize("x", [
    [[0, 1e300], [-1e300, 0]],        # antisymmetric: both norms overflow when squared
    [[1e200, 1e200], [3e200, 0]],
    [[0, 1.7e308], [-1.7e308, 0]],    # the unscaled residual itself is beyond the float range
], ids=["antisymmetric", "lopsided", "float-max"])
def test_hermitian_gate_holds_on_huge_entries(x):
    x = np.array(x)
    rep = natural_perm_rep(symmetric(2), "real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow leaks either
        with pytest.raises(ValueError, match="C is not Hermitian"):
            SdpProblem(c=x, a=[], b=[], field="real")
        with pytest.raises(ValueError, match="matrix to symmetrize is not Hermitian"):
            symmetrize_matrix(rep, x)
        # the same scale, Hermitian to roundoff, passes, and its group average
        # is measured without squaring an entry
        near = np.array([[1e300, 2e300], [2e300 * (1 + 2 ** -52), 0]])
        assert SdpProblem(c=near, a=[], b=[], field="real").c[0, 1] == 2e300
        avg = symmetrize_matrix(rep, near)
        assert np.allclose(avg, [[5e299, 2e300], [2e300, 5e299]], rtol=1e-15, atol=0)
        assert np.array_equal(avg, avg.T)


def test_real_field_refuses_imaginary_parts():
    herm = np.array([[1, 2j], [-2j, 1]])
    with pytest.raises(ValueError, match="C has an entry with a nonzero imaginary part"):
        SdpProblem(c=herm, a=[], b=[], field="real")
    with pytest.raises(ValueError, match="A_2 has an entry with a nonzero imaginary part"):
        SdpProblem(c=np.eye(2), a=[np.eye(2), herm], b=[1.0, 2.0], field="real")
    # complex arrays whose imaginary parts are zero are real data
    p = SdpProblem(c=herm.real.astype(complex), a=[], b=[], field="real")
    assert p.c.dtype == np.float64 and np.array_equal(p.c, np.eye(2))
    assert format_sdp(p) == "2 0 real\nMATRIX 0 0 0 1\nMATRIX 0 1 1 1\nB\n"


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


# ---------------------------------------------------------------------------
# extraction in orbital coordinates against the dense oracle
# ---------------------------------------------------------------------------

def _strip_index_action(rep):
    """The same images without the index action: the dense path."""
    return Representation(rep.group, rep.dim, rep.field, rep.image)


def _invariant_data(rep, count, rng):
    """Hermitian matrices averaged over their orbitals: exactly invariant."""
    return [orbital_average(rep, sample_gue(rep.dim, rep.field, rng)) for _ in range(count)]


def _dense_oracle(decomp, mats, symmetrize_first):
    """Blocks and total residual of every matrix, each conjugated by U."""
    if symmetrize_first:
        mats = [chain_average(decomp.rep, m) for m in mats]
    return [_extract_blocks(decomp, m) for m in mats]


def _weighted_norm(decomp, blocks):
    return math.sqrt(sum(c.dimension * np.linalg.norm(b) ** 2
                         for c, b in zip(decomp.components, blocks)))


def _through_text(prob, rng):
    """``parse_sdp(format_sdp(prob))``, with explicit zero entries (0 and -0.0,
    in either part over C) written on some unlisted upper-triangle slots."""
    lines = format_sdp(prob).splitlines()
    listed = {tuple(int(t) for t in line.split()[1:4]) for line in lines[1:-1]}
    free = [(k, i, j) for k in range(prob.m + 1) for i in range(prob.n)
            for j in range(i, prob.n) if (k, i, j) not in listed]
    zeros = ["0", "-0.0"] if prob.field == "real" else ["0 0", "-0.0 0", "0 -0.0", "-0 -0"]
    picks = rng.permutation(len(free))[:8]
    extra = [f"MATRIX {k} {i} {j} {zeros[t % len(zeros)]}"
             for t, (k, i, j) in enumerate(free[p] for p in picks)]
    return parse_sdp("\n".join(lines[:-1] + extra + lines[-1:]) + "\n")


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3))),
    st.sampled_from(("complex", "real")), st.booleans(), st.booleans(), st.booleans(),
    st.sampled_from((0.0, 1e-9, 1e-2)), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_orbital_extraction_matches_the_dense_path(generated, field, doubled, symmetrize,
                                                   stripped, noise, via_text, seed):
    n, gens = generated
    rep = natural_perm_rep(group_of(n, gens), field)
    if doubled:  # every multiplicity at least 2
        rep = direct_sum(rep, rep)
    rng = np.random.default_rng(seed)
    d = decompose(rep, rng=rng)
    mats = [m + noise * sample_gue(rep.dim, field, rng) for m in _invariant_data(rep, 3, rng)]
    if via_text:  # a sparse and an all-zero matrix too, read back from text
        sparse = orbital_average(rep, np.diag(rng.standard_normal(rep.dim)))
        sparse[0, 1] += noise  # the rest of its orbital is unlisted
        sparse[1, 0] += noise
        mats += [sparse, np.zeros((rep.dim, rep.dim))]
    prob = SdpProblem(c=mats[0], a=mats[1:], b=np.arange(1.0, len(mats)), field=field)
    if via_text:
        prob = _through_text(prob, rng)
    mats = [prob.matrix(q) for q in range(prob.m + 1)]
    r = len(rep.index_action.orbitals()[1])
    orbital = (not stripped and r <= rep.dim
               and sum(c.multiplicity ** 2 for c in d.components) == r)
    if stripped:
        d.rep = _strip_index_action(rep)

    oracle = _dense_oracle(d, mats, symmetrize)
    rejected = not np.max([total for _, _, total in oracle]) <= DEFAULT_INVARIANCE_TOL
    event(f"{'orbital' if orbital else 'dense'} path, {'rejected' if rejected else 'accepted'}")
    gated = []
    real_gate = sdp_mod._gate_residuals

    def recording_gate(residuals, names, tol):
        gated.append(np.array(residuals, dtype=float))
        return real_gate(residuals, names, tol)

    with mock.patch.object(sdp_mod, "_gate_residuals", recording_gate):
        if rejected:
            with pytest.raises(NotInvariantError):
                block_diagonalize_sdp(d, prob, symmetrize_first=symmetrize)
        else:
            blocked = block_diagonalize_sdp(d, prob, symmetrize_first=symmetrize)
    if orbital and not symmetrize:
        # the invariance residuals, summed from the entries, against |X - x[ids]| / |X|
        want = [np.linalg.norm(x - orbital_average(rep, x))
                / (np.linalg.norm(x) or 1.0) for x in mats]
        assert np.allclose(gated[0], want, rtol=1e-12, atol=1e-12)
    if rejected:
        return
    assert blocked.extraction.startswith("orbital coordinates") == orbital
    assert [(c.dimension, c.multiplicity) for c in blocked.components] == \
        [(c.dimension, c.multiplicity) for c in d.components]
    assert blocked.residual <= DEFAULT_INVARIANCE_TOL
    for j, (want, _, _) in enumerate(oracle):
        got = [c.c_block if j == 0 else c.a_blocks[j - 1] for c in blocked.components]
        assert all(g.shape == w.shape and g.dtype == w.dtype for g, w in zip(got, want))
        err = _weighted_norm(d, [g - w for g, w in zip(got, want)])
        assert err <= 1e-12 * np.linalg.norm(mats[j])


@pytest.fixture(scope="module")
def doubled_s4():
    natural = natural_perm_rep(symmetric(4), "real")
    rep = direct_sum(natural, natural)
    return rep, decompose(rep, rng=np.random.default_rng(404))


PLANTED_FAULTS = ("noisy", "swap", "rotate", "nan", "nan-symmetrized")


@pytest.mark.parametrize("stripped", [False, True], ids=["orbital", "dense"])
@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_faults_fail_both_paths(doubled_s4, fault, stripped):
    rep, base = doubled_s4
    rng = np.random.default_rng(7)
    mats = _invariant_data(rep, 3, rng)
    d = IrrepDecomposition(U=base.U.copy(), components=base.components, diagnostics=None,
                           rep=_strip_index_action(rep) if stripped else rep)
    assert _orbital_path_applies(d) != stripped
    # without the fault the same data and basis pass
    block_diagonalize_sdp(d, SdpProblem(c=mats[0], a=mats[1:], b=[1.0, 2.0], field="real"))

    offsets = np.cumsum([0] + [c.size for c in d.components])
    if fault == "noisy":  # off the commutant by about 1e-4, without symmetrize_first
        mats = [m + 1e-4 * sample_gue(rep.dim, "real", rng) for m in mats]
    elif fault == "swap":  # a row of the first component trades places with one of the last
        d.U[[0, offsets[-2]]] = d.U[[offsets[-2], 0]]
    elif fault == "rotate":  # one copy of the largest component rotated within itself
        k = int(np.argmax(np.diff(offsets)))
        dim = d.components[k].dimension
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        d.U[offsets[k]:offsets[k] + dim] = q @ d.U[offsets[k]:offsets[k] + dim]
    arrays = SdpProblem(c=mats[0], a=mats[1:], b=[1.0, 2.0], field="real")
    # the same problem from dense arrays and read back from text
    for prob in (arrays, _through_text(arrays, rng)):
        if fault.startswith("nan"):
            plant_nan(prob, 2, 0, 0)
        if fault == "nan-symmetrized":
            with pytest.raises(ValueError, match="non-finite entry"):
                block_diagonalize_sdp(d, prob, symmetrize_first=True)
            continue
        with pytest.raises(NotInvariantError, match="residual nan" if fault == "nan" else None):
            block_diagonalize_sdp(d, prob)
        # the dense oracle rejects every one of them too
        oracle = _dense_oracle(d, [prob.c] + prob.a, False)
        assert not np.max([total for _, _, total in oracle]) <= DEFAULT_INVARIANCE_TOL


@pytest.mark.parametrize("fault,message", [
    ("map-off", "block map disagrees"),
    ("map-nan", "block map disagrees .* nan"),
    ("pattern-off", "block pattern: residual [0-9.e-]+ of a seeded combination"),
    ("pattern-nan", "block pattern: residual nan"),
])
def test_orbital_dense_check_fails_closed(doubled_s4, monkeypatch, fault, message):
    # the data are invariant and the basis blocks them; only the check's own
    # inputs are spoiled: the block map T, or the dense pattern residual
    rep, d = doubled_s4
    mats = _invariant_data(rep, 3, np.random.default_rng(8))
    prob = SdpProblem(c=mats[0], a=mats[1:], b=[1.0, 2.0], field="real")
    block_diagonalize_sdp(d, prob)
    real_map, real_extract = sdp_mod._block_map, sdp_mod._extract_blocks
    if fault.startswith("map"):
        spoil = 1 + 1e-5 if fault == "map-off" else np.nan
        monkeypatch.setattr(sdp_mod, "_block_map", lambda *args: real_map(*args) * spoil)
    else:
        total = 1e-5 if fault == "pattern-off" else np.nan
        monkeypatch.setattr(sdp_mod, "_extract_blocks",
                            lambda *args: real_extract(*args)[:2] + (total,))
    with pytest.raises(NotInvariantError, match=message):
        block_diagonalize_sdp(d, prob)


@pytest.mark.parametrize("count,relative,rejected", [
    (1, 0.5, False),   # |z| = |g_0| < 1: relative to |z|, as for one dense matrix
    (1, 1.5, True),
    (20, 0.5, True),   # |z| > 2: absolute, so half of tol per unit of |z| fails
])
def test_orbital_pattern_gate_scales_with_the_combination(doubled_s4, monkeypatch, count,
                                                          relative, rejected):
    # the combination's pattern residual is spoiled to a fixed value relative
    # to |z|; the gate reads it relative to min(|z|, 1)
    rep, d = doubled_s4
    mats = _invariant_data(rep, count, np.random.default_rng(10))
    prob = SdpProblem(c=mats[0], a=mats[1:], b=np.ones(count - 1), field="real")
    real_extract = sdp_mod._extract_blocks
    z_norms = []

    def spoiled(decomp, x):
        z_norms.append(float(np.linalg.norm(x)))
        return real_extract(decomp, x)[:2] + (relative * DEFAULT_INVARIANCE_TOL,)

    monkeypatch.setattr(sdp_mod, "_extract_blocks", spoiled)
    if rejected:
        with pytest.raises(NotInvariantError, match="block pattern"):
            block_diagonalize_sdp(d, prob)
    else:
        blocked = block_diagonalize_sdp(d, prob)
        assert blocked.residual == pytest.approx(relative * DEFAULT_INVARIANCE_TOL)
    assert z_norms[0] < 1 if count == 1 else z_norms[0] > 2


@pytest.mark.parametrize("generator", [list(range(12)), [1, 0] + list(range(2, 12))],
                         ids=["trivial", "transposition"])
def test_more_orbitals_than_points_keep_the_dense_path(monkeypatch, generator):
    # sum M^2 = r holds (144 and 122 orbitals), but T would have r^2 > n^2
    # entries, more than a data matrix
    rep = natural_perm_rep(group_of(12, [generator]), "complex")
    d = decompose(rep, rng=np.random.default_rng(12))
    r = len(rep.index_action.orbitals()[1])
    assert r > rep.dim and sum(c.multiplicity ** 2 for c in d.components) == r
    assert not _orbital_path_applies(d)
    mats = _invariant_data(rep, 3, np.random.default_rng(13))
    extracts = _counting(monkeypatch, "_extract_blocks")
    blocked = block_diagonalize_sdp(d, SdpProblem(c=mats[0], a=mats[1:], b=[1.0, 2.0],
                                                  field="complex"))
    assert blocked.extraction == "dense conjugation, 3 products"
    assert len(extracts) == 3


def _counting(monkeypatch, name):
    calls = []
    real = getattr(sdp_mod, name)

    def wrapped(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdp_mod, name, wrapped)
    return calls


@pytest.mark.parametrize("symmetrize", [False, True])
def test_orbital_path_makes_one_dense_product(doubled_s4, monkeypatch, symmetrize):
    rep, d = doubled_s4
    rng = np.random.default_rng(9)
    mats = [m + 1e-3 * symmetrize * sample_gue(rep.dim, "real", rng)
            for m in _invariant_data(rep, 20, rng)]
    prob = SdpProblem(c=mats[0], a=mats[1:], b=np.ones(19), field="real")
    extracts = _counting(monkeypatch, "_extract_blocks")
    symmetrizes = _counting(monkeypatch, "symmetrize_matrix")
    blocked = block_diagonalize_sdp(d, prob, symmetrize_first=symmetrize)
    assert (len(extracts), len(symmetrizes)) == (1, 0)
    r = len(rep.index_action.orbitals()[1])
    assert blocked.extraction == f"orbital coordinates, {r} orbitals"

    # the same data through matrix images: one conjugation (and one
    # group average) per matrix
    dense = IrrepDecomposition(U=d.U, components=d.components, diagnostics=None,
                               rep=_strip_index_action(rep))
    extracts.clear()
    block_diagonalize_sdp(dense, prob, symmetrize_first=symmetrize)
    assert (len(extracts), len(symmetrizes)) == (20, 20 if symmetrize else 0)


def test_compact_sdp_conjugates_every_matrix(monkeypatch):
    rep = tensor(defining_rep(unitary_group(2)), conjugate(defining_rep(unitary_group(2))))
    rng = np.random.default_rng(17)
    d = decompose(rep, rng=rng)
    prob = SdpProblem(c=sample_commutant(rep, rng=rng).matrix,
                      a=[sample_commutant(rep, rng=rng).matrix for _ in range(2)],
                      b=[1.0, 2.0], field="complex")
    extracts = _counting(monkeypatch, "_extract_blocks")
    symmetrizes = _counting(monkeypatch, "symmetrize_matrix")
    blocked = block_diagonalize_sdp(d, prob, symmetrize_first=True, rng=rng)
    assert (len(extracts), len(symmetrizes)) == (3, 3)
    assert blocked.extraction == "dense conjugation, 3 products"


def test_complex_type_components_keep_the_dense_path():
    # C3 on two regular orbits over R: [(2, 2, complex), (1, 2, real)], so
    # sum M^2 = 8 falls short of the 12 orbitals.  Exactly invariant
    # symmetric data with a non-symmetric circulant coupling does not fit
    # the repeated-block pattern and is rejected.
    rep = natural_perm_rep(group_of(6, [[1, 2, 0, 4, 5, 3]]), "real")
    d = decompose(rep, rng=np.random.default_rng(5))
    assert sorted((c.dimension, c.multiplicity, c.real_type) for c in d.components) == \
        [(1, 2, "real"), (2, 2, "complex")]
    assert not _orbital_path_applies(d)
    x = c3_two_orbit_data()
    assert np.linalg.norm(orbital_average(rep, x) - x) == 0.0
    with pytest.raises(NotInvariantError, match="C does not fit the invariant block pattern"):
        block_diagonalize_sdp(d, SdpProblem(c=x, a=[], b=[], field="real"))


def c3_two_orbit_data():
    shift = np.roll(np.eye(3), 1, axis=0)
    coupling = 2.0 * shift + np.eye(3)  # circulant, not symmetric
    block = np.ones((3, 3)) + np.eye(3)
    return np.block([[block, coupling], [coupling.T, 2 * block]])


@pytest.mark.parametrize("stripped", [False, True], ids=["orbital", "dense"])
def test_zero_and_tiny_matrices_pass_both_paths(s4_setup, stripped):
    rep, d = s4_setup
    if stripped:
        d = IrrepDecomposition(U=d.U, components=d.components, diagnostics=None,
                               rep=_strip_index_action(rep))
    prob = SdpProblem(c=np.ones((4, 4)), a=[np.zeros((4, 4)), 1e-310 * np.eye(4)],
                      b=[0.0, 1.0], field="complex")
    blocked = block_diagonalize_sdp(d, prob)
    assert blocked.extraction.startswith("dense" if stripped else "orbital")
    assert blocked.residual <= 1e-12
    for comp in blocked.components:
        assert np.array_equal(comp.a_blocks[0], np.zeros((comp.multiplicity,) * 2))
        assert np.allclose(comp.a_blocks[1], 1e-310 * np.eye(comp.multiplicity),
                           rtol=1e-12, atol=0)
    # a problem without a single stored entry
    empty = block_diagonalize_sdp(d, SdpProblem(c=np.zeros((4, 4)), a=[], b=[], field="real"))
    assert empty.residual == 0 and not any(comp.c_block.any() for comp in empty.components)


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_orbital_gates_hold_at_extreme_scales(s4_setup, scale):
    # the squares of these entries underflow or overflow; each matrix is
    # measured relative to its largest entry instead
    rep, d = s4_setup
    x = _invariant_data(rep, 1, np.random.default_rng(14))[0]
    spike = np.zeros((4, 4))
    spike[0, 1] = spike[1, 0] = 1e-3 * np.abs(x).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocked = block_diagonalize_sdp(d, SdpProblem(c=scale * x, a=[], b=[]))
        assert blocked.extraction.startswith("orbital") and blocked.residual <= 1e-12
        want, _ = block_diagonalize_matrix(d, x)
        for comp, w in zip(blocked.components, want):
            assert np.allclose(comp.c_block / scale, w, rtol=1e-12, atol=1e-12)
        with pytest.raises(NotInvariantError, match="C does not fit"):
            block_diagonalize_sdp(d, SdpProblem(c=scale * (x + spike), a=[], b=[]))


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_dense_gate_holds_at_extreme_scales(s4_setup, scale):
    # the dense extraction reads each matrix divided by a power of two near
    # its largest entry: below about 1e-160 its norms used to underflow to 0
    # and accept anything, and near 1e300 they overflowed
    rep, d = s4_setup
    dense = IrrepDecomposition(U=d.U, components=d.components, diagnostics=None,
                               rep=_strip_index_action(rep))
    x = _invariant_data(rep, 1, np.random.default_rng(14))[0]
    spike = np.zeros((4, 4))
    spike[0, 1] = spike[1, 0] = 1e-3 * np.abs(x).max()
    want, _ = block_diagonalize_matrix(d, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks, residual = block_diagonalize_matrix(d, scale * x)
        assert residual <= 1e-12
        for got, w in zip(blocks, want):
            assert np.allclose(got / scale, w, rtol=1e-12, atol=0)
        blocked = block_diagonalize_sdp(dense, SdpProblem(c=scale * x, a=[], b=[]))
        assert blocked.extraction.startswith("dense") and blocked.residual <= 1e-12
        with pytest.raises(NotInvariantError, match="does not fit"):
            block_diagonalize_matrix(d, scale * (x + spike))
        with pytest.raises(NotInvariantError, match="C does not fit"):
            block_diagonalize_sdp(dense, SdpProblem(c=scale * (x + spike), a=[], b=[]))


def _terwilliger_text(count):
    """S8 permuting the coordinates of {0,1}^8 (n = 256) and ``count`` SDP
    matrices, each the 0/1 indicator of an orbital and its transpose,
    written as text."""
    q = 8
    gens = [[1, 0] + list(range(2, q)), list(range(1, q)) + [0]]

    def act(g, x):  # bit k of x moves to bit g(k)
        return sum(1 << g[k] for k in range(q) if x >> k & 1)

    rep = natural_perm_rep(group_of(2 ** q, [[act(g, x) for x in range(2 ** q)]
                                             for g in gens]), "real")
    ids, _ = rep.index_action.orbitals()
    n = rep.dim
    labels = ids.reshape(n, n)
    lines = [f"{n} {count - 1} real"]
    for k in range(count):  # orbital k, numbered in order of its first pair
        rows, cols = np.nonzero((labels == k) | (labels.T == k))
        upper = rows <= cols
        lines += [f"MATRIX {k} {i} {j} 1" for i, j in zip(rows[upper], cols[upper])]
    lines.append("B" + " 1" * (count - 1))
    return rep, "\n".join(lines) + "\n"


def test_orbital_path_forms_no_dense_matrix_per_data_matrix():
    # 40 matrices of 256 x 256 would take 40 x 512 KiB = 20 MiB as dense
    # arrays; parsing and extraction together stay below a few n x n arrays
    # (about 6, for the one dense check of the combination z)
    rep, text = _terwilliger_text(40)
    d = decompose(rep, rng=np.random.default_rng(21))
    assert _orbital_path_applies(d)
    n_by_n = rep.dim ** 2 * 8
    tracemalloc.start()
    try:
        prob = parse_sdp(text)
        blocked = block_diagonalize_sdp(d, prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prob.m == 39 and blocked.residual <= 1e-10
    assert blocked.extraction.startswith("orbital coordinates")
    assert peak <= 8 * n_by_n, f"peak {peak / n_by_n:.1f} n x n arrays"
