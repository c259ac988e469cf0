"""Permutation actions over C decomposed in real arithmetic.

A complex representation with an index action runs the real pipeline on its
real twin when every constituent is of real type.  The route is chosen by
the number s of self-paired orbitals: the twin is sampled only when r <= s^2
and kept only when its eigenvalue clusters number s.
"""

import importlib
from itertools import product

import numpy as np
import pytest

from repblock import (DecomposeConfig, DecompositionError, ResampleNeeded, decompose,
                      natural_perm_rep, rep_from_generator_images, tensor_power,
                      verify_decomposition)

from conftest import (alternating4, compose_tuples, cyclic, dihedral, group_of, perm_matrix,
                      quaternion8, regular_group, symmetric)

dec = importlib.import_module("repblock.decompose")


def direct_product(*groups):
    """The direct product of permutation groups, on the disjoint union of their points."""
    degree = sum(g.degree for g in groups)
    gens, offset = [], 0
    for g in groups:
        for p in g.generators:
            images = list(range(degree))
            images[offset:offset + g.degree] = [offset + x for x in p.images]
            gens.append(images)
        offset += g.degree
    return group_of(degree, gens)


def involutions(group):
    """#{g : g^2 = 1}."""
    ident = tuple(range(group.degree))
    return sum(compose_tuples(p.images, p.images) == ident for p in group.elements())


_ACTIONS = {
    **{f"C{n}": (lambda n=n: cyclic(n), True) for n in range(1, 10)},
    "D5": (lambda: dihedral(5), False),
    "A4 natural": (alternating4, False),
    "A4 regular": (lambda: regular_group(alternating4()), True),
    "Q8 regular": (lambda: quaternion8()[0], True),
    "S3xC3 regular": (lambda: regular_group(direct_product(symmetric(3), cyclic(3))), True),
    "S4xC2 regular": (lambda: regular_group(direct_product(symmetric(4), cyclic(2))), True),
    "trivial on 3": (lambda: group_of(3, []), False),
}


def _rep(name, field="complex"):
    if name == "S4 natural^2":
        return tensor_power(natural_perm_rep(symmetric(4), field), 2)
    return natural_perm_rep(_ACTIONS[name][0](), field)


_NAMES = [*_ACTIONS, "S4 natural^2"]


def brute_self_paired(rep):
    """Orbitals {(g i, g j)} that hold (j, i), by enumerating the group."""
    n = rep.dim
    elements = [rep.index_action.element(p) for p in rep.group.elements()]
    seen, count = set(), 0
    for i, j in product(range(n), repeat=2):
        if (i, j) in seen:
            continue
        orbit = {(int(s[i]), int(s[j])) for s in elements}
        seen |= orbit
        count += (j, i) in orbit
    return count


@pytest.mark.parametrize("name", _NAMES)
def test_self_paired_count_matches_brute_force(name):
    rep = _rep(name)
    twin, s = dec._real_twin(rep)
    assert s == brute_self_paired(rep)
    r = len(rep.index_action.orbitals()[1])
    assert (twin is not None) == (r <= s * s)
    if name in _ACTIONS and _ACTIONS[name][1]:  # a regular action: s counts the involutions
        assert s == involutions(rep.group) and r == rep.dim


@pytest.mark.parametrize("name", _NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_real_route_exactly_when_every_type_is_real(name, seed):
    rep = _rep(name)
    d = decompose(rep, rng=np.random.default_rng(seed))
    over_r = decompose(_rep(name, "real"), rng=np.random.default_rng(seed))
    every_real = all(c.real_type == "real" for c in over_r.components)
    assert d.arithmetic.startswith("real") == every_real
    assert d.arithmetic == (f"real: every component of real type, {dec._real_twin(rep)[1]} "
                            "self-paired orbitals" if every_real else "complex")
    assert d.rep is rep and d.U.dtype == np.complex128
    assert {c.real_type for c in d.components} == {"not_applicable"}
    if every_real:
        assert not np.any(d.U.imag)
    # the cast U decomposes the complex representation itself
    report = verify_decomposition(rep, d)
    assert report.passed, report.failures
    offset = 0
    for c in d.components:
        assert np.shares_memory(c.basis, d.U)
        offset += c.size
    assert offset == rep.dim


@pytest.mark.parametrize("name", _NAMES)
def test_dm_matches_dense_images_under_a_unitary_basis(name):
    # the same permutation matrices in a random unitary basis carry no index
    # action, so they take the complex route: an independent oracle
    # (the trivial group has no generator to give an image of: n copies of 1)
    rep = _rep(name)
    n = rep.dim
    dm = [(1, n)]
    if rep.index_action.generators:
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        dense = rep_from_generator_images(
            rep.group, [q @ perm_matrix(s, complex) @ q.conj().T
                        for s in rep.index_action.generators], "complex")
        assert dense.index_action is None
        oracle = decompose(dense, rng=np.random.default_rng(0))
        assert oracle.arithmetic == "complex"
        dm = oracle.dm_multiset()
    assert decompose(rep, rng=np.random.default_rng(0)).dm_multiset() == dm


def test_switch_draws_what_the_complex_route_draws(monkeypatch):
    # C4 passes r <= s^2 (4 <= 2^2) but has a complex-type pair: its twin
    # splits into 3 clusters, not 2, and the complex route runs on streams
    # the twin did not advance
    rep = natural_perm_rep(cyclic(4))
    switched = decompose(rep, rng=np.random.default_rng(3))
    assert switched.arithmetic == "complex"
    monkeypatch.setattr(dec, "_real_twin", lambda rep: (None, 0))
    direct = decompose(rep, rng=np.random.default_rng(3))
    assert np.array_equal(switched.U, direct.U)
    assert switched.dm_multiset() == direct.dm_multiset()


def test_non_real_type_after_matching_clusters_fails_closed(monkeypatch):
    # S4 natural over C: the twin's clusters match s, then classification
    # is made to read a complex type; nothing may be verified or cast
    rep = natural_perm_rep(symmetric(4))
    monkeypatch.setattr(dec, "classify_real_type",
                        lambda rep, comps, samples: ["complex"] + ["real"] * (len(comps) - 1))
    verified = []
    monkeypatch.setattr(dec, "verify_decomposition",
                        lambda *args, **kwargs: verified.append(args))
    streams = np.random.default_rng(0).spawn(4)
    with pytest.raises(ResampleNeeded, match="clusters over R, but the types read"):
        dec._decompose_once(rep, DecomposeConfig(), streams, 0)
    assert verified == []
    monkeypatch.setattr(dec, "_MAX_RESAMPLES", 0)
    with pytest.raises(DecompositionError, match="but the types read"):
        decompose(rep, rng=np.random.default_rng(0))


def _sample_fields(monkeypatch):
    fields = []
    original = dec.sample_commutant

    def counting(rep, *args):
        fields.append(rep.field)
        return original(rep, *args)

    monkeypatch.setattr(dec, "sample_commutant", counting)
    return fields


@pytest.mark.parametrize("group,real_first", [
    (lambda: cyclic(12), False),                                          # r = 12 > 2^2
    (lambda: regular_group(direct_product(symmetric(4), cyclic(5))), False),  # 120 > 10^2
    (lambda: regular_group(alternating4()), True),                         # 12 <= 4^2
    (lambda: regular_group(direct_product(symmetric(4), cyclic(3))), True),   # 72 <= 10^2
])
def test_cost_of_the_route(monkeypatch, group, real_first):
    # actions with complex-type irreps: at most one real sample, then the
    # two complex ones
    rep = natural_perm_rep(group())
    fields = _sample_fields(monkeypatch)
    d = decompose(rep, rng=np.random.default_rng(0))
    assert d.arithmetic == "complex" and d.attempts == 1
    assert fields == ["real"] * real_first + ["complex", "complex"]


def test_real_route_draws_two_real_samples(monkeypatch):
    rep = natural_perm_rep(regular_group(direct_product(symmetric(4), cyclic(2))))
    fields = _sample_fields(monkeypatch)
    d = decompose(rep, rng=np.random.default_rng(0))
    assert d.arithmetic.startswith("real") and d.attempts == 1
    assert fields == ["real", "real"]
