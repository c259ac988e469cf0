import itertools

import numpy as np
import pytest

from repblock import Permutation, PermutationGroup, compose, group_from_generators, identity, inverse

from conftest import (alternating4, closure, cyclic, dihedral, group_of,
                      klein4, quaternion8, symmetric)


def test_compose_examples():
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    assert compose(p, q).images == (1, 2, 0)
    assert (identity(4) * Permutation([3, 2, 1, 0])).images == (3, 2, 1, 0)
    r = Permutation([1, 2, 0])
    assert (r * inverse(r)).images == (0, 1, 2)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        Permutation([1, 0]) * Permutation([1, 0, 2])


def test_permutation_basics():
    p = Permutation([2, 0, 1])
    assert p(0) == 2 and p.degree == 3
    assert p.inverse().images == (1, 2, 0)
    assert not p.is_identity()
    assert identity(3).is_identity()
    assert p.smallest_moved() == 0
    assert identity(5).smallest_moved() is None
    assert Permutation([0, 1, 3, 2]).smallest_moved() == 2


def test_group_from_generators_examples():
    g = group_of(3, [[1, 0, 2], [1, 2, 0]])
    assert g.order() == 6
    assert group_from_generators(4, []).order() == 1
    assert group_of(5, [[1, 2, 3, 4, 0]]).order() == 5


def test_order_examples():
    assert symmetric(4).order() == 24
    assert group_from_generators(3, []).order() == 1
    assert cyclic(6).order() == 6


GROUP_CATALOG = [
    ("C2", lambda: cyclic(2)),
    ("C3", lambda: cyclic(3)),
    ("C4", lambda: cyclic(4)),
    ("C5", lambda: cyclic(5)),
    ("C6", lambda: cyclic(6)),
    ("V4", klein4),
    ("S3", lambda: symmetric(3)),
    ("D4", lambda: dihedral(4)),
    ("Q8", lambda: quaternion8()[0]),
    ("A4", alternating4),
    ("S4", lambda: symmetric(4)),
    ("S5", lambda: symmetric(5)),
]


@pytest.mark.parametrize("name,make", GROUP_CATALOG)
def test_order_matches_brute_force_closure(name, make):
    g = make()
    want = len(closure(g.degree, [p.images for p in g.generators]))
    assert g.order() == want


@pytest.mark.parametrize("name,make", GROUP_CATALOG)
def test_contains_matches_brute_force(name, make, rng):
    g = make()
    members = closure(g.degree, [p.images for p in g.generators])
    for _ in range(100):
        cand = tuple(rng.permutation(g.degree))
        assert g.contains(Permutation(cand)) == (cand in members)
    for m in itertools.islice(members, 25):
        assert Permutation(m) in g


def test_contains_examples():
    a4 = alternating4()
    assert not a4.contains(Permutation([1, 0, 2, 3]))
    assert a4.contains(Permutation.identity(4))
    assert symmetric(3).contains(Permutation([2, 0, 1]))


@pytest.mark.parametrize("name,make", GROUP_CATALOG)
def test_transversal_factorization_bijective(name, make):
    g = make()
    sets = g.transversal_sets()
    total = 1
    for t in sets:
        total *= len(t)
    assert total == g.order()
    # compose t_v ... t_1 over the whole cartesian product: must hit every
    # element exactly once
    seen = set()
    for combo in itertools.product(*reversed(sets)):
        prod = Permutation.identity(g.degree)
        for t in combo:
            prod = prod * t
        seen.add(prod.images)
    assert len(seen) == g.order()
    assert seen == closure(g.degree, [p.images for p in g.generators])


def test_transversal_sets_examples():
    s3 = symmetric(3)
    assert sorted(len(t) for t in s3.transversal_sets()) == [2, 3]
    assert group_from_generators(4, []).transversal_sets() == []
    s4 = symmetric(4)
    assert sorted(len(t) for t in s4.transversal_sets()) == [2, 3, 4]


@pytest.mark.parametrize("d", [5, 8, 12])
def test_transversal_sets_symmetric_group_quadratic(d):
    # for S_d from the standard generators: at most d sets, total size O(d^2)
    sets = symmetric(d).transversal_sets()
    assert len(sets) <= d
    assert sum(len(t) for t in sets) == sum(range(2, d + 1))


def test_transversal_representatives_map_base_to_orbit():
    g = symmetric(4)
    for point, t in zip(g.base, g.transversals):
        images = set()
        for b, u in t.items():
            assert u(point) == b
            images.add(b)
        assert len(images) == len(t)


def test_base_is_canonical_and_increasing():
    # same group from generators in different orders -> identical chain
    gens = [[1, 0, 2, 3], [1, 2, 3, 0], [0, 2, 1, 3]]
    groups = [group_of(4, list(perm)) for perm in itertools.permutations(gens)]
    bases = {g.base for g in groups}
    assert len(bases) == 1
    base = bases.pop()
    assert list(base) == sorted(base)
    assert all(g.order() == 24 for g in groups)
    # base points are the smallest points moved by the successive stabilizers
    assert base[0] == 0


def test_elements_iterates_whole_group():
    g = alternating4()
    elems = [p.images for p in g.elements()]
    assert len(elems) == 12
    assert set(elems) == closure(4, [p.images for p in g.generators])


def test_factorize_roundtrip():
    g = symmetric(4)
    for p in g.elements():
        coords = g.factorize(p)
        prod = Permutation.identity(4)
        for level, point in coords:
            prod = prod * g.transversals[level][point]
        assert prod == p
    with pytest.raises(ValueError):
        alternating4().factorize(Permutation([1, 0, 2, 3]))


def test_sample_trivial_group():
    g = group_from_generators(4, [])
    r = np.random.default_rng(0)
    for _ in range(5):
        assert g.sample(r).is_identity()


def test_sample_uniform_c2(rng):
    g = cyclic(2)
    draws = 10_000
    hits = sum(1 for _ in range(draws) if g.sample(rng).is_identity())
    assert abs(hits / draws - 0.5) < 0.02


def _chi_square_uniform(group, draws, rng, significance=1e-3):
    from scipy.stats import chi2

    counts = {p.images: 0 for p in group.elements()}
    for _ in range(draws):
        counts[group.sample(rng).images] += 1
    expected = draws / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    return stat, chi2.ppf(1 - significance, df=len(counts) - 1)


def test_sample_uniform_s3_chi_square(rng):
    g = symmetric(3)
    stat, cutoff = _chi_square_uniform(g, 60_000, rng)
    assert stat < cutoff
    # spot check the per-element frequencies too
    counts = {p.images: 0 for p in g.elements()}
    for _ in range(60_000):
        counts[g.sample(rng).images] += 1
    for c in counts.values():
        assert abs(c / 60_000 - 1 / 6) < 0.01


def test_sample_uniform_q8_chi_square(rng):
    g, _ = quaternion8()
    stat, cutoff = _chi_square_uniform(g, 10_000 * 8, rng)
    assert stat < cutoff


def test_degree_validation():
    with pytest.raises(ValueError):
        PermutationGroup(3, [Permutation([1, 0])])
    with pytest.raises(ValueError):
        PermutationGroup(0, [])
    with pytest.raises(TypeError):
        PermutationGroup(3, [[1, 0, 2]])


def _multiply_out(word, gens):
    """Left-to-right product of a letter word (+i = generator i-1, -i its inverse)."""
    out = Permutation.identity(gens[0].degree)
    for letter in word:
        g = gens[abs(letter) - 1]
        out = out * (g if letter > 0 else g.inverse())
    return out


@pytest.mark.parametrize("make", [
    *(lambda d=d: symmetric(d) for d in range(4, 9)),
    lambda: group_of(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),  # A5
    lambda: symmetric(14),
], ids=["S4", "S5", "S6", "S7", "S8", "A5", "S14"])
def test_expanded_transversal_words_multiply_out(make):
    g = make()
    longest = 0
    for words, t in zip(g.transversal_words, g.transversals):
        assert words.keys() == t.keys()
        for b, word in words.items():
            assert _multiply_out(word, g.generators) == t[b]
            longest = max(longest, len(word))
    if g.degree == 14:
        # the expansion spells the words the chain has always built
        assert longest == 2960


def test_word_dag_simplifies_identity_and_double_inverse():
    from repblock.perm import _word_inv, _word_mul, evaluate_words

    w = _word_mul(0, _word_inv(1))
    assert _word_mul(None, w) is w and _word_mul(w, None) is w
    assert _word_inv(_word_inv(w)) is w and _word_inv(None) is None
    letters = evaluate_words([None, 0, w, _word_inv(w)], [(1,), (2,)], tuple,
                             lambda a, b: a + b, lambda a: tuple(-x for x in reversed(a)))
    assert letters == [(), (1,), (1, -2), (2, -1)]
