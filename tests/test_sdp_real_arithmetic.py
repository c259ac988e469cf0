"""Conjugation by a real-valued basis in real arithmetic.

A basis U with no nonzero imaginary part (float64, or complex128 as the
real route of a permutation action over C returns it) conjugates data as
U Re X U^T + i U Im X U^T, the second product skipped when Im X is zero.
The plain complex product U X U^dag is the oracle.
"""

import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repblock import (IrrepDecomposition, NotInvariantError, Representation, SdpProblem,
                      block_diagonalize_matrix, block_diagonalize_sdp, decompose, direct_sum,
                      natural_perm_rep, reconstruct, sample_gue)
from repblock.commutant import orbital_average
from repblock.decompose import isotypic_components

from conftest import cyclic, regular_group, symmetric
from test_real_route import direct_product

sdp_mod = importlib.import_module("repblock.sdp")


def _complex_product(u, x):
    return u @ x @ u.conj().T


def _oracle_extract(decomp, x):
    """Blocks and residuals with U X U^dag formed as one complex product."""
    with mock.patch.object(sdp_mod, "_conjugate", _complex_product):
        return sdp_mod._extract_blocks(decomp, x)


def _basis(kind, n, rng):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if kind == "float64":
        return q
    if kind == "complex, zero imaginary part":
        return q.astype(np.complex128)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _data(kind, n, rng):
    x = sample_gue(n, "complex" if kind == "complex Hermitian" else "real", rng)
    return x.astype(np.complex128) if kind == "complex, zero imaginary part" else x


_KINDS_U = ["float64", "complex, zero imaginary part", "complex"]
_KINDS_X = ["real", "complex, zero imaginary part", "complex Hermitian"]


@settings(max_examples=120, deadline=None)
@given(parts=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
       u_kind=st.sampled_from(_KINDS_U), x_kind=st.sampled_from(_KINDS_X),
       invariant=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conjugation_matches_the_complex_product(parts, u_kind, x_kind, invariant, seed):
    rng = np.random.default_rng(seed)
    n = sum(d * m for d, m in parts)
    u = _basis(u_kind, n, rng)
    decomp = IrrepDecomposition(U=u, diagnostics=None,
                                components=isotypic_components(u, [(d, m, {}) for d, m in parts]))
    x = _data(x_kind, n, rng)
    if invariant:  # data that fit the pattern (for a real-valued U): roundoff residuals
        x = reconstruct(decomp, [_data(x_kind, m, rng) for _, m in parts])
        if x_kind != "complex Hermitian":
            x = x.real.astype(_data(x_kind, 1, rng).dtype)
    got, want = sdp_mod._extract_blocks(decomp, x), _oracle_extract(decomp, x)
    dtype = _complex_product(u, x).dtype
    scale = np.linalg.norm(x)
    for g, w in zip(got[0], want[0]):
        assert g.dtype == dtype and g.shape == w.shape
        assert np.linalg.norm(g - w) <= 1e-13 * scale
    assert np.allclose(got[1], want[1], rtol=0, atol=1e-12)
    assert abs(got[2] - want[2]) <= 1e-12
    # and back: U^dag xhat U, against the complex product
    back = reconstruct(decomp, got[0])
    xhat = np.zeros((n, n), dtype=np.result_type(u, *got[0]))
    for c, b, lo in zip(decomp.components, got[0], decomp.offsets):
        xhat[lo:lo + c.size, lo:lo + c.size] = np.kron(b, np.eye(c.dimension))
    oracle = _complex_product(u.conj().T, xhat)
    assert back.dtype == oracle.dtype
    assert np.linalg.norm(back - (oracle + oracle.conj().T) / 2) <= 1e-13 * scale


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s4xc2_regular():
    """S4 x C2 in its regular action over C, n = 48: every irrep of real
    type, so it is decomposed by the real route."""
    rep = natural_perm_rep(regular_group(direct_product(symmetric(4), cyclic(2))), "complex")
    return rep, decompose(rep, rng=np.random.default_rng(24))


def _invariant(rep, kinds, rng):
    """Exactly invariant data over C: complex Hermitian, or real-valued in
    complex128 like the Lovasz theta data of a Cayley graph."""
    return [orbital_average(rep, sample_gue(rep.dim, kind, rng)).astype(np.complex128)
            for kind in kinds]


@pytest.mark.parametrize("kinds,field", [
    (["complex", "complex", "real"], "complex"),
    (["real", "real", "real"], "complex"),  # every entry real-valued
    (["real", "real", "real"], "real"),     # blocks in U's dtype on both paths
])
def test_real_route_blocks_match_the_complex_product(s4xc2_regular, kinds, field):
    rep, d = s4xc2_regular
    assert d.arithmetic.startswith("real") and d.U.dtype == np.complex128
    assert not np.any(d.U.imag)
    mats = _invariant(rep, kinds, np.random.default_rng(25))
    if field == "real":
        mats = [x.real for x in mats]
    blocked = block_diagonalize_sdp(d, SdpProblem(c=mats[0], a=mats[1:], b=[1.0, 2.0],
                                                  field=field))
    assert blocked.extraction.startswith("orbital coordinates")
    for j, x in enumerate(mats):
        want, _, total = _oracle_extract(d, x)
        assert total <= 1e-12
        got = [c.c_block if j == 0 else c.a_blocks[j - 1] for c in blocked.components]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.complex128 and g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(x)
    assert d.U.dtype == np.complex128 and not np.any(d.U.imag)


@pytest.mark.parametrize("via", ["matrix", "sdp, orbital", "sdp, dense"])
@pytest.mark.parametrize("fault", ["NaN in Im X", "NaN in Re X", "inf in U"])
def test_non_finite_input_fails_closed(s4xc2_regular, via, fault):
    rep, base = s4xc2_regular
    mats = _invariant(rep, ["real", "real"], np.random.default_rng(26))  # Im X = 0
    u = base.U.copy()
    d = IrrepDecomposition(U=u, diagnostics=None,
                           components=isotypic_components(u, [(c.dimension, c.multiplicity, {})
                                                              for c in base.components]),
                           rep=rep if via == "sdp, orbital" else
                           Representation(rep.group, rep.dim, rep.field, rep.image))
    assert sdp_mod._orbital_path_applies(d) == (via == "sdp, orbital")
    prob = SdpProblem(c=mats[0], a=mats[1:], b=[1.0])
    # without the fault the same data and basis pass
    block_diagonalize_matrix(d, mats[0])
    block_diagonalize_sdp(d, prob)

    if fault == "inf in U":
        d.U[3, 5] = np.inf
    else:
        part = "imag" if fault == "NaN in Im X" else "real"
        getattr(mats[0], part)[0, 1] = np.nan
        at = np.flatnonzero((prob.k == 0) & (prob.i == 0) & (prob.j == 1))
        getattr(prob.v, part)[at] = np.nan
    # inf * 0 in the products must reach the gate as NaN, not as numpy's warning
    with warnings.catch_warnings(), pytest.raises(NotInvariantError):
        warnings.simplefilter("error")
        if via == "matrix":
            block_diagonalize_matrix(d, mats[0])
        else:
            block_diagonalize_sdp(d, prob)


def test_reconstruct_complex_blocks_on_a_real_basis():
    # S3 natural (+) natural over R: U is float64 and each component has
    # M = 2.  The data are exactly invariant, complex Hermitian, and couple
    # the two copies through an imaginary part: [[A, iB], [-iB, C]] with
    # A, B, C in the span of I and J.
    rep = direct_sum(*[natural_perm_rep(symmetric(3), "real")] * 2)
    d = decompose(rep, rng=np.random.default_rng(3))
    assert d.U.dtype == np.float64 and sorted(d.multiplicities) == [2, 2]
    eye, ones = np.eye(3), np.ones((3, 3))
    x = np.block([[2 * eye + ones, 1j * (0.5 * eye - 0.25 * ones)],
                  [-1j * (0.5 * eye - 0.25 * ones), -eye + 3 * ones]])
    blocked = block_diagonalize_sdp(d, SdpProblem(c=x, a=[], b=[], field="complex"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ComplexWarning, where the imaginary part was dropped
        for blocks in (block_diagonalize_matrix(d, x)[0],
                       [c.c_block for c in blocked.components]):
            assert all(b.dtype == np.complex128 for b in blocks)
            assert any(np.any(b.imag) for b in blocks)
            back = reconstruct(d, blocks)
            assert back.dtype == np.complex128
            assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)
