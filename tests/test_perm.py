import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repblock import Permutation, PermutationGroup, compose, group_from_generators, identity, inverse
from repblock import perm
from repblock.perm import _CHAIN_ATTRIBUTES, evaluate_words

from conftest import (alternating4, closure, cyclic, dihedral, group_of,
                      klein4, quaternion8, reference_build_chain, symmetric)


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


def _assert_chain_matches_reference(g):
    """The reference builder fixes what is canonical: base, orbits and order.

    The representatives and their words are the builder's own choice; they
    only have to be valid.
    """
    levels = reference_build_chain(
        g.degree, [(p.images, i) for i, p in enumerate(g.generators)])
    assert g.base == tuple(lvl.point for lvl in levels)
    assert [sorted(t) for t in g.transversals] == [sorted(lvl.transversal) for lvl in levels]
    assert g.order() == math.prod(len(lvl.transversal) for lvl in levels)
    for l, (point, t, words) in enumerate(zip(g.base, g.transversals, g.transversal_words)):
        for b, u in t.items():
            assert u(point) == b
            assert all(u(earlier) == earlier for earlier in g.base[:l])
            assert _multiply_out(words[b], g.generators) == u
    bound = sum(len(t) - 1 for t in g.transversals) + len(g.generators)
    assert g.strong_generator_count <= bound


def _signed_permutations(n):
    """The hyperoctahedral group: point i is +i, point i + n is -i."""
    def lift(images, flip=()):
        out = [0] * (2 * n)
        for i, j in enumerate(images):
            neg = i in flip
            out[i], out[i + n] = (j + n, j) if neg else (j, j + n)
        return out
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return group_of(2 * n, [lift(swap), lift(cycle), lift(range(n), flip=(0,))])


@pytest.mark.parametrize("make", [
    *(lambda d=d: symmetric(d) for d in range(4, 13)),
    lambda: group_of(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),  # A5
    lambda: _signed_permutations(4),
    lambda: _signed_permutations(5),
], ids=[*(f"S{d}" for d in range(4, 13)), "A5", "B4", "B5"])
def test_chain_matches_reference_builder(make):
    g = make()
    _assert_chain_matches_reference(g)
    if g.degree == 10 and len(g.generators) == 3:
        assert g.order() == 2 ** 5 * 120


def _assert_strong_generators(g):
    """Level l's strong generators fix base[:l], move base[l] over its whole
    orbit, and generate the stabilizer of base[:l]: a group built from them
    alone has the order of the transversals from level l down."""
    assert len(g.strong_generators) == len(g.base)
    for l, (gens, t) in enumerate(zip(g.strong_generators, g.transversals)):
        assert all(isinstance(s, Permutation) and s.degree == g.degree for s in gens)
        assert all(s(b) == b for s in gens for b in g.base[:l])
        orbit, frontier = {g.base[l]}, [g.base[l]]
        while frontier:
            frontier = [s(a) for a in frontier for s in gens if s(a) not in orbit]
            orbit.update(frontier)
        assert orbit == set(t)
        assert PermutationGroup(g.degree, gens).order() == \
            math.prod(len(u) for u in g.transversals[l:])


@pytest.mark.parametrize("make", [
    lambda: symmetric(8), lambda: symmetric(14), alternating4, klein4,
    lambda: dihedral(6), lambda: quaternion8()[0], lambda: _signed_permutations(4),
    lambda: group_of(3, []), lambda: group_of(3, [[0, 1, 2]]),
], ids=["S8", "S14", "A4", "V4", "D6", "Q8", "B4", "empty", "identity"])
def test_strong_generators_generate_each_stabilizer(make):
    _assert_strong_generators(make())


def _permutation_of(d):
    swaps = st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=3)

    def apply(pairs):
        p = list(range(d))
        for a, b in pairs:
            p[a], p[b] = p[b], p[a]
        return p
    return st.one_of(st.permutations(range(d)), swaps.map(apply))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(_permutation_of(d), max_size=4))))
def test_chain_matches_reference_builder_random(case):
    d, gens = case
    g = group_of(d, gens)
    _assert_chain_matches_reference(g)
    _assert_strong_generators(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(_permutation_of(d), max_size=4),
                        st.randoms(use_true_random=False))))
def test_chain_base_and_orbits_ignore_generator_order(case):
    d, gens, random = case
    shuffled = list(gens)
    random.shuffle(shuffled)
    g = group_of(d, gens)
    for other in (group_of(d, gens[::-1]), group_of(d, shuffled)):
        assert other.base == g.base
        assert [sorted(t) for t in other.transversals] == [sorted(t) for t in g.transversals]


_CHAIN_READS = {
    "base": lambda g: g.base,
    "strong_generators": lambda g: g.strong_generators,
    "strong_generator_count": lambda g: g.strong_generator_count,
    "transversals": lambda g: g.transversals,
    "transversal_nodes": lambda g: g.transversal_nodes,
    "_inverses": lambda g: g._inverses,
    "_orbits": lambda g: g._orbits,
    "order": lambda g: g.order(),
    "sample": lambda g: g.sample(np.random.default_rng(0)),
    "factorize": lambda g: g.factorize(identity(g.degree)),
    "sift": lambda g: g.sift(identity(g.degree)),
    "contains": lambda g: identity(g.degree) in g,
    "elements": lambda g: next(g.elements()),
    "transversal_sets": lambda g: g.transversal_sets(),
    "transversal_images": lambda g: g.transversal_images(
        [p.images for p in g.generators], lambda: tuple(range(g.degree)),
        lambda a, b: tuple(a[x] for x in b), lambda a: inverse(Permutation(a)).images),
    "transversal_words": lambda g: g.transversal_words,
    "repr": repr,
}


def _letters(levels, n_gens):
    """Each level's orbit point -> its word's letters, as ``transversal_words``
    spells them."""
    words = [w for level in levels for w in level.values()]
    letters = iter(evaluate_words(words, [(i + 1,) for i in range(n_gens)], tuple,
                                  lambda a, b: a + b, lambda w: tuple(-x for x in reversed(w))))
    return [{b: next(letters) for b in level} for level in levels]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(_permutation_of(d), max_size=4),
                        st.randoms(use_true_random=False))))
@example((1, [], random.Random(0)))  # the trivial group
@example((4, [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2, 3]], random.Random(1)))  # identities given
@example((6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 2, 5]], random.Random(2)))  # intransitive
def test_the_chain_built_on_first_read_is_the_direct_build(case):
    # whichever attribute or method is read first, the chain is built once,
    # and it is the chain _build_chain gives
    d, gens, rnd = case
    g = group_of(d, gens)
    assert not _CHAIN_ATTRIBUTES & set(vars(g))
    assert _CHAIN_ATTRIBUTES <= set(_CHAIN_READS)
    reads = list(_CHAIN_READS)
    rnd.shuffle(reads)
    with mock.patch.object(perm, "_build_chain", wraps=perm._build_chain) as build:
        assert not hasattr(g, "no_such_attribute") and build.call_count == 0
        for name in reads:
            _CHAIN_READS[name](g)
    assert build.call_count == 1

    levels, count = perm._build_chain(d, [(p.images, i) for i, p in enumerate(g.generators)])
    assert g.base == tuple(lvl.point for lvl in levels)
    assert g.strong_generator_count == count
    assert [[s.images for s in strong] for strong in g.strong_generators] == \
        [[imgs for imgs, _ in lvl.gens] for lvl in levels]
    # dict order too: it fixes the order of the transversal sets and samples
    assert [[(b, u.images) for b, u in t.items()] for t in g.transversals] == \
        [[(b, imgs) for b, (imgs, _) in lvl.transversal.items()] for lvl in levels]
    assert [list(inv.items()) for inv in g._inverses] == \
        [[(b, imgs) for b, (imgs, _) in lvl.inverses.items()] for lvl in levels]
    assert g._orbits == tuple(tuple(sorted(lvl.transversal)) for lvl in levels)
    want = _letters([{b: w for b, (_, w) in lvl.transversal.items()} for lvl in levels],
                    len(gens))
    assert [list(w.items()) for w in _letters(g.transversal_nodes, len(gens))] == \
        [list(w.items()) for w in want]
    assert list(g.transversal_words) == want


def test_chain_s14_keeps_14_strong_generators(monkeypatch):
    import repblock.perm as perm

    calls = [0]
    sift = perm._sift

    def counted(*args):
        calls[0] += 1
        return sift(*args)

    monkeypatch.setattr(perm, "_sift", counted)
    g = symmetric(14)
    assert g.strong_generator_count == 14
    # the builder that re-rooted its base kept 1,027 and sifted 27,235
    assert calls[0] <= 27_235 // 5


def test_chain_s20_strong_generators_stay_linear():
    g = symmetric(20)
    assert g.order() == math.factorial(20)
    assert g.strong_generator_count <= 20
