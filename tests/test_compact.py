import numpy as np
import pytest

from repblock import (CompactGroupHandle, haar_orthogonal, haar_unitary,
                      orthogonal_group, unitary_group)
from repblock.compact import lie_basis


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 32])
def test_unitarity_residuals(d, rng):
    eye = np.eye(d)
    for _ in range(100):
        u = haar_unitary(d, rng)
        assert np.linalg.norm(u.conj().T @ u - eye) <= 1e-12
        o = haar_orthogonal(d, rng)
        assert o.dtype == np.float64
        assert np.linalg.norm(o.T @ o - eye) <= 1e-12


def test_dimension_one(rng):
    u = haar_unitary(1, rng)
    assert abs(abs(u[0, 0]) - 1) <= 1e-12
    o = haar_orthogonal(1, rng)
    assert o[0, 0] in (1.0, -1.0)


def test_invalid_dimension(rng):
    with pytest.raises(ValueError):
        haar_unitary(0, rng)
    with pytest.raises(ValueError):
        haar_orthogonal(-1, rng)
    with pytest.raises(ValueError):
        CompactGroupHandle("unitary", 0)
    with pytest.raises(ValueError):
        CompactGroupHandle("special", 2)


# Each statistical test draws its samples one at a time, as the library
# does; the sample counts keep every bound at 4.9 standard errors or more.

def test_haar_moment_unitary(rng):
    # E|u_ij|^2 = 1/d for Haar on U(d)
    d, samples = 3, 20_000
    acc = sum(abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(samples))
    assert abs(acc / samples - 1 / 3) < 0.01


def test_haar_moment_orthogonal(rng):
    d, samples = 2, 30_000
    acc = sum(haar_orthogonal(d, rng)[0, 0] ** 2 for _ in range(samples))
    assert abs(acc / samples - 1 / 2) < 0.01


def test_left_invariance_first_moment(rng):
    # entry means of V u match those of u (all zero) within Monte-Carlo error
    d, samples = 2, 20_000
    v = haar_unitary(d, rng)
    us = np.array([haar_unitary(d, rng) for _ in range(samples)])
    acc_plain = us.sum(axis=0)
    acc_moved = (v @ us).sum(axis=0)
    # entries are averages of bounded, variance <= 1/d quantities
    mc = 5 / np.sqrt(samples)
    assert np.abs(acc_plain / samples).max() < mc
    assert np.abs(acc_moved / samples).max() < mc


def test_draws_are_rescaled_qr_factors(rng):
    # a draw is the Q factor of its own Ginibre matrix g, rescaled so that
    # Q^dag g = R has a positive real diagonal; that makes the factorization
    # unique and the draws Haar distributed
    for d in (1, 2, 4):
        seed = int(rng.integers(2**32))
        u = haar_unitary(d, np.random.default_rng(seed))
        o = haar_orthogonal(d, np.random.default_rng(seed))
        assert u.shape == o.shape == (d, d)
        assert np.iscomplexobj(u) and o.dtype == np.float64
        ref = np.random.default_rng(seed)
        z = (ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))) / np.sqrt(2)
        r = u.conj().T @ z
        assert np.all(np.diagonal(r).real > 0)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-12)
        r = o.T @ np.random.default_rng(seed).standard_normal((d, d))
        assert np.all(np.diagonal(r) > 0)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-12)


def test_handles(rng):
    h = unitary_group(4)
    assert h.kind == "unitary" and h.dim == 4
    u = h.sample(rng)
    assert u.shape == (4, 4) and np.iscomplexobj(u)
    o = orthogonal_group(3).sample(rng)
    assert o.shape == (3, 3) and not np.iscomplexobj(o)
    assert unitary_group(2) == CompactGroupHandle("unitary", 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_brauer_identities_of_the_lie_basis(d):
    # the identities the Casimir's pair contraction reads: on u(d),
    # sum L (x) L = -SWAP, sum L^2 = -d I and, for a conjugated factor, the
    # partial transpose sum conj(L) (x) L = sum_ab E_ab (x) E_ab; on o(d),
    # sum L (x) L = (sum_ab E_ab (x) E_ab - SWAP) / 2 and sum L^2 = -(d-1)/2 I
    eye = np.eye(d)
    swap = np.einsum("ad,cb->acbd", eye, eye).reshape(d * d, d * d)
    ptrans = np.einsum("ac,bd->acbd", eye, eye).reshape(d * d, d * d)

    def pairs(left, right):
        return np.einsum("jab,jcd->acbd", left, right).reshape(d * d, d * d)

    u, o = lie_basis(unitary_group(d)), lie_basis(orthogonal_group(d))
    assert np.allclose(pairs(u, u), -swap, atol=1e-14)
    assert np.allclose(np.einsum("jab,jbc->ac", u, u), -d * eye, atol=1e-14)
    assert np.allclose(pairs(u.conj(), u), ptrans, atol=1e-14)
    assert np.allclose(pairs(o, o), (ptrans - swap) / 2, atol=1e-14)
    assert np.allclose(np.einsum("jab,jbc->ac", o, o), -(d - 1) / 2 * eye, atol=1e-14)
