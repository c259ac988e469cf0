import numpy as np
import pytest

from repblock import (CompactGroupHandle, haar_orthogonal, haar_unitary,
                      orthogonal_group, unitary_group)


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


def test_haar_moment_unitary(rng):
    # E|u_ij|^2 = 1/d for Haar on U(d)
    d, samples = 3, 100_000
    acc = np.sum(np.abs(haar_unitary(d, rng, size=samples)[:, 0, 0]) ** 2)
    assert abs(acc / samples - 1 / 3) < 0.01


def test_haar_moment_orthogonal(rng):
    d, samples = 2, 100_000
    acc = np.sum(haar_orthogonal(d, rng, size=samples)[:, 0, 0] ** 2)
    assert abs(acc / samples - 1 / 2) < 0.01


def test_left_invariance_first_moment(rng):
    # entry means of V u match those of u (all zero) within Monte-Carlo error
    d, samples = 2, 100_000
    v = haar_unitary(d, rng)
    us = haar_unitary(d, rng, size=samples)
    acc_plain = us.sum(axis=0)
    acc_moved = (v @ us).sum(axis=0)
    # entries are averages of bounded, variance <= 1/d quantities
    mc = 5 / np.sqrt(samples)
    assert np.abs(acc_plain / samples).max() < mc
    assert np.abs(acc_moved / samples).max() < mc


def test_batched_draws_are_rescaled_qr_factors(rng):
    # each sample of a stack is the Q factor of its own Ginibre matrix g,
    # rescaled so that Q^dag g = R has a positive real diagonal; that makes
    # the factorization unique and the samples Haar distributed
    for d in (1, 2, 4):
        seed = int(rng.integers(2**32))
        us = haar_unitary(d, np.random.default_rng(seed), size=5)
        os_ = haar_orthogonal(d, np.random.default_rng(seed), size=5)
        assert us.shape == os_.shape == (5, d, d)
        assert np.iscomplexobj(us) and os_.dtype == np.float64
        assert np.allclose(us.conj().transpose(0, 2, 1) @ us, np.eye(d), atol=1e-12)
        assert np.allclose(os_.transpose(0, 2, 1) @ os_, np.eye(d), atol=1e-12)
        ref = np.random.default_rng(seed)
        z = (ref.standard_normal((5, d, d)) + 1j * ref.standard_normal((5, d, d))) / np.sqrt(2)
        r = us.conj().transpose(0, 2, 1) @ z
        assert np.all(np.diagonal(r, axis1=1, axis2=2).real > 0)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-12)
        g = np.random.default_rng(seed).standard_normal((5, d, d))
        r = os_.transpose(0, 2, 1) @ g
        assert np.all(np.diagonal(r, axis1=1, axis2=2) > 0)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-12)
    # a stack of one reads the stream as a single draw does
    assert haar_unitary(3, np.random.default_rng(1), size=1)[0].tobytes() == \
        haar_unitary(3, np.random.default_rng(1)).tobytes()


def test_handles(rng):
    h = unitary_group(4)
    assert h.kind == "unitary" and h.dim == 4
    u = h.sample(rng)
    assert u.shape == (4, 4) and np.iscomplexobj(u)
    o = orthogonal_group(3).sample(rng)
    assert o.shape == (3, 3) and not np.iscomplexobj(o)
    assert unitary_group(2) == CompactGroupHandle("unitary", 2)
