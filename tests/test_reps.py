import functools
import itertools
import math

import numpy as np
import pytest

from repblock import (Permutation, PermutationGroup, Representation, conjugate,
                      defining_rep, direct_sum, natural_perm_rep,
                      rep_from_generator_images, tensor, tensor_power,
                      trivial_rep, unitary_group, orthogonal_group)

from repblock.compact import lie_basis
from repblock.reps import _ChainImages

from conftest import cyclic, group_of, perm_matrix, symmetric

OMEGA = np.exp(2j * np.pi / 3)


def s3_standard_images():
    """2x2 irreducible images for the generators [1,0,2] (reflection) and
    [1,2,0] (rotation by 120 degrees) of S3."""
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rot = np.array([[c, -s], [s, c]])
    return [refl, rot]


def test_generator_images_identity():
    g = group_of(2, [[1, 0]])
    rep = rep_from_generator_images(g, [np.array([[0, 1], [1, 0]])], "complex")
    assert np.allclose(rep.image(Permutation.identity(2)), np.eye(2))


def test_generator_images_s3_exhaustive():
    g = symmetric(3)
    rep = rep_from_generator_images(g, s3_standard_images(), "real")
    elems = list(g.elements())
    for a, b in itertools.product(elems, elems):
        assert np.linalg.norm(rep.image(a) @ rep.image(b) - rep.image(a * b)) <= 1e-12


def test_generator_images_c3_omega():
    g = cyclic(3)
    img = np.diag([OMEGA, OMEGA ** 2, 1.0])
    rep = rep_from_generator_images(g, [img], "complex")
    gen = g.generators[0]
    cube = rep.image(gen) @ rep.image(gen) @ rep.image(gen)
    assert np.linalg.norm(cube - np.eye(3)) <= 1e-12
    assert np.allclose(rep.image(gen * gen), img @ img)


def test_generator_images_errors():
    g = symmetric(3)
    with pytest.raises(ValueError, match="images"):
        rep_from_generator_images(g, [np.eye(2)], "real")
    bad = [np.eye(2) * 2, np.eye(2)]
    with pytest.raises(ValueError, match="unitary"):
        rep_from_generator_images(g, bad, "real")
    # right shapes, each unitary, but not a homomorphism
    c2 = cyclic(2)
    with pytest.raises(ValueError, match="inconsistent"):
        rep_from_generator_images(c2, [np.array([[OMEGA]])], "complex")
    with pytest.raises(ValueError, match="complex entries"):
        rep_from_generator_images(c2, [np.array([[1j]])], "real")
    # NaN fails the unitarity gate instead of passing it
    with pytest.raises(ValueError, match="unitary"):
        rep_from_generator_images(c2, [np.array([[np.nan]])], "real")
    # permutation images are checked exactly: a 3-cycle cannot square to 1
    with pytest.raises(ValueError, match="inconsistent"):
        rep_from_generator_images(c2, [perm_matrix((1, 2, 0))], "real")


def test_index_action_agrees_with_images(rng):
    g = symmetric(3)
    nat = natural_perm_rep(g, "complex")
    images = rep_from_generator_images(
        g, [perm_matrix(p.images) for p in g.generators], "complex")
    assert images.index_action is not None

    def block(a, b):
        m = np.zeros((len(a) + len(b),) * 2)
        m[:len(a), :len(a)], m[len(a):, len(a):] = a, b
        return m

    cases = [
        (nat, lambda p: p),
        (images, lambda p: p),
        (tensor(nat, images), lambda p: np.kron(p, p)),
        (direct_sum(images, nat), lambda p: block(p, p)),
        (conjugate(nat), lambda p: p),
        (tensor_power(nat, 3), lambda p: np.kron(np.kron(p, p), p)),
    ]
    for rep, want in cases:
        for _ in range(10):
            x = g.sample(rng)
            sigma = rep.index_action.element(x)
            assert np.array_equal(rep.image(x), want(perm_matrix(x.images)))
            assert np.array_equal(rep.image(x), perm_matrix(sigma))
            m = rng.standard_normal((rep.dim, rep.dim))
            u = rep.image(x)
            assert np.array_equal(rep.conjugate_by(x, m), u @ m @ u.T)
        for p, sigma in zip(g.generators, rep.index_action.generators):
            assert np.array_equal(rep.index_action.element(p), sigma)


def test_natural_rep_examples():
    g = symmetric(3)
    rep = natural_perm_rep(g, "complex")
    m = rep.image(Permutation([1, 0, 2]))
    assert np.allclose(m, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.allclose(rep.image(Permutation.identity(3)), np.eye(3))

    c4 = cyclic(4)
    shift = natural_perm_rep(c4, "real").image(c4.generators[0])
    assert np.allclose(shift, perm_matrix((1, 2, 3, 0)))
    assert np.allclose(np.linalg.matrix_power(shift, 4), np.eye(4))


def test_defining_rep(rng):
    u2 = defining_rep(unitary_group(2))
    assert u2.field == "complex"
    g = u2.random_element(rng)
    assert np.allclose(u2.image(g), g)
    assert np.linalg.norm(g.conj().T @ g - np.eye(2)) <= 1e-12

    u1 = defining_rep(unitary_group(1))
    z = u1.random_element(rng)
    assert abs(abs(z[0, 0]) - 1) <= 1e-12

    o3 = defining_rep(orthogonal_group(3))
    assert o3.field == "real"
    assert not np.iscomplexobj(o3.image(o3.random_element(rng)))


def test_tensor_with_trivial_is_identity_map(rng):
    g = symmetric(3)
    r = natural_perm_rep(g, "complex")
    t = tensor(r, trivial_rep(g, "complex"))
    assert t.dim == 3
    for _ in range(5):
        p = g.sample(rng)
        assert np.allclose(t.image(p), r.image(p))


def test_tensor_compact(rng):
    u2 = defining_rep(unitary_group(2))
    t = tensor(u2, u2)
    assert t.dim == 4
    g = t.random_element(rng)
    m = t.image(g)
    assert np.linalg.norm(m.conj().T @ m - np.eye(4)) <= 1e-12
    assert np.allclose(m, np.kron(g, g))


def test_tensor_natural_exhaustive():
    g = symmetric(3)
    t = tensor(natural_perm_rep(g, "complex"), natural_perm_rep(g, "complex"))
    elems = list(g.elements())
    for a, b in itertools.product(elems, elems):
        assert np.linalg.norm(t.image(a) @ t.image(b) - t.image(a * b)) <= 1e-10


def test_direct_sum(rng):
    g = symmetric(3)
    two_trivial = direct_sum(trivial_rep(g, "real"), trivial_rep(g, "real"))
    assert np.allclose(two_trivial.image(g.sample(rng)), np.eye(2))

    std = rep_from_generator_images(g, s3_standard_images(), "real")
    sign = rep_from_generator_images(
        g, [np.array([[-1.0]]), np.array([[1.0]])], "real")
    r = direct_sum(std, sign)
    assert r.dim == 3
    p = g.sample(rng)
    m = r.image(p)
    assert np.allclose(m[:2, :2], std.image(p))
    assert np.allclose(m[2:, 2:], sign.image(p))
    assert np.allclose(m[:2, 2:], 0)


def test_conjugate(rng):
    g = symmetric(3)
    nat = natural_perm_rep(g, "complex")
    p = g.sample(rng)
    assert np.allclose(conjugate(nat).image(p), nat.image(p))  # real entries

    u1 = defining_rep(unitary_group(1))
    z = u1.random_element(rng)
    assert np.allclose(conjugate(u1).image(z), 1 / u1.image(z))

    u2 = defining_rep(unitary_group(2))
    w = u2.random_element(rng)
    assert np.allclose(conjugate(conjugate(u2)).image(w), u2.image(w))

    with pytest.raises(ValueError):
        conjugate(natural_perm_rep(g, "real"))


def _exp_skew(a):
    """exp(a) for an anti-Hermitian a, through the eigenvectors of i a."""
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _derived_cases():
    u2, u3 = defining_rep(unitary_group(2)), defining_rep(unitary_group(3))
    o3 = defining_rep(orthogonal_group(3))
    return [
        ("U(1)", defining_rep(unitary_group(1))),
        ("U(3) (x) U(3)", tensor(u3, u3)),
        ("U(2) (x) conj U(2)", tensor(u2, conjugate(u2))),
        ("U(2) (+) U(2)^2", direct_sum(u2, tensor_power(u2, 2))),
        ("(U(2) (+) U(2)^2) (x) conj(U(2))^2",
         tensor(direct_sum(u2, tensor(u2, u2)), tensor_power(conjugate(u2), 2))),
        ("O(3) (+) O(3)^2", direct_sum(o3, tensor_power(o3, 2))),
        ("O(2) on C^2", tensor(defining_rep(orthogonal_group(2), "complex"),
                               defining_rep(orthogonal_group(2), "complex"))),
        ("O(1)", defining_rep(orthogonal_group(1))),
        ("trivial (+) U(2) (x) trivial", direct_sum(trivial_rep(u2.group),
                                                   tensor(u2, trivial_rep(u2.group)))),
        ("trivial of O(3) over R", trivial_rep(o3.group, "real")),
    ]


@pytest.mark.parametrize("name,rep", _derived_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_derived_action_is_the_derivative_of_the_images(name, rep, rng):
    # d rho(L) = (rho(exp tL) - rho(exp -tL)) / 2t + O(t^2), from the images alone
    basis = lie_basis(rep.group)
    n = rep.dim
    dense = rep.derived(np.eye(n)[None, None], slice(None))[:, 0]
    assert dense.shape == (len(basis), n, n)
    t = 1e-5
    for lie, a in zip(basis, dense):
        plus, minus = _exp_skew(t * lie), _exp_skew(-t * lie)
        if rep.group.kind == "orthogonal":
            plus, minus = plus.real, minus.real
        slope = (rep.image(plus) - rep.image(minus)) / (2 * t)
        assert np.linalg.norm(slope - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a + a.conj().T) <= 1e-14 * max(1.0, np.linalg.norm(a))
    # a stack of k inputs is acted on entry by entry, on its middle axis
    y = rng.standard_normal((len(basis), 2, n, 3))
    got = rep.derived(y, slice(None))
    assert np.allclose(got, np.einsum("jab,jpbq->jpaq", dense, y), atol=1e-12)
    # and a slice of the generators acts by those generators alone
    if len(basis) > 1:
        part = slice(1, None, 2)
        assert np.array_equal(rep.derived(y[part], part), got[part])


def test_derived_action_only_where_every_part_has_one():
    u2 = defining_rep(unitary_group(2))
    bare = Representation(u2.group, 2, "complex", u2.image)
    assert bare.derived is None
    assert tensor(u2, bare).derived is None and direct_sum(bare, u2).derived is None
    assert conjugate(bare).derived is None
    assert natural_perm_rep(symmetric(3)).derived is None
    assert trivial_rep(symmetric(3)).derived is None
    assert tensor_power(u2, 3).derived(np.zeros((1, 1, 8, 1)), slice(None)).shape == (4, 1, 8, 1)
    assert defining_rep(orthogonal_group(4)).derived(
        np.zeros((1, 1, 4, 1)), slice(None)).shape == (6, 1, 4, 1)
    # the trivial representation of a compact group: d rho = 0
    triv = trivial_rep(unitary_group(2)).derived(np.ones((1, 2, 1, 3)), slice(1, 3))
    assert triv.shape == (2, 2, 1, 3) and not triv.any()
    with pytest.raises(ValueError, match="complex, not real"):
        defining_rep(unitary_group(2), "real")


def test_combinator_mismatches():
    g, h = symmetric(3), symmetric(4)
    with pytest.raises(ValueError):
        tensor(natural_perm_rep(g), natural_perm_rep(h))
    with pytest.raises(ValueError):
        direct_sum(natural_perm_rep(g, "real"), natural_perm_rep(g, "complex"))
    # every constructor refuses an unknown field with the one message
    for build in (lambda f: natural_perm_rep(g, f), lambda f: trivial_rep(g, f),
                  lambda f: trivial_rep(unitary_group(2), f),
                  lambda f: defining_rep(orthogonal_group(2), f),
                  lambda f: rep_from_generator_images(g, s3_standard_images(), f)):
        with pytest.raises(ValueError, match="field must be one of"):
            build("quaternion")


def test_tensor_power():
    g = cyclic(3)
    r = natural_perm_rep(g, "complex")
    assert tensor_power(r, 1).dim == 3
    assert tensor_power(r, 2).dim == 9
    p = g.generators[0]
    assert np.allclose(tensor_power(r, 2).image(p), np.kron(r.image(p), r.image(p)))
    with pytest.raises(ValueError):
        tensor_power(r, 0)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_factor_lists_match_the_binary_fold(rng):
    # tensor and direct_sum over a factor list give, bit for bit, the images
    # and index arrays of folding the two-argument calls left to right
    g = symmetric(3)
    nat, nat_r = natural_perm_rep(g, "complex"), natural_perm_rep(g, "real")
    perms = rep_from_generator_images(g, [perm_matrix(p.images) for p in g.generators],
                                      "complex")
    sign = rep_from_generator_images(g, [perm_matrix([1, 0]), np.eye(2)], "complex")
    std = rep_from_generator_images(g, s3_standard_images(), "complex")
    std_r = rep_from_generator_images(g, s3_standard_images(), "real")
    u2 = defining_rep(unitary_group(2))
    cases = [(nat, sign), (nat, std), (std, nat, perms), (sign, nat, perms), (nat, perms, sign),
             (nat_r, std_r, nat_r), (u2, conjugate(u2)), (conjugate(u2), u2, u2)]
    for reps in cases:
        for combine in (tensor, direct_sum):
            flat, folded = combine(*reps), functools.reduce(combine, reps)
            assert flat.dim == folded.dim
            action, oracle = flat.index_action, folded.index_action
            assert (action is None) == (oracle is None)
            if action is not None:
                assert all(_same_bits(a, b)
                           for a, b in zip(action.generators, oracle.generators))
            for _ in range(5):
                x = reps[0].random_element(rng)
                assert _same_bits(flat.image(x), folded.image(x))
                if combine is tensor:  # indices pair row-major, as numpy's kron
                    want = functools.reduce(np.kron, [r.image(x) for r in reps])
                    assert _same_bits(flat.image(x), want)
                if action is not None:
                    assert _same_bits(action.element(x), oracle.element(x))

def test_tensor_without_index_action_evaluates_each_factor_once(monkeypatch):
    # a power of k 1 x 1 factors: one image of the inner representation per
    # element, and its k-th power as one scalar, with no kron fold
    inner = defining_rep(unitary_group(1))
    images = []

    def counted(u):
        images.append(u)
        return inner.image(u)

    once = Representation(inner.group, 1, "complex", counted, name="defining")
    power = tensor_power(once, 1000)
    krons = []
    real_kron = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: krons.append(1) or real_kron(a, b))
    for seed in range(5):
        u = inner.random_element(np.random.default_rng(seed))
        got = power.image(u)
        assert len(images) == seed + 1 and got.shape == (1, 1)
        assert np.allclose(got, u[0, 0] ** 1000, rtol=1e-12, atol=0)
    assert krons == []


def test_tensor_mixed_factor_lists_match_the_kron_fold():
    # 1 x 1 factors multiplied in as a scalar give the kron fold's images
    # up to the order of the scalar products
    g = cyclic(3)
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rot = rep_from_generator_images(g, [np.array([[c, -s], [s, c]])], "complex")
    chi = rep_from_generator_images(g, [np.array([[OMEGA]])], "complex")
    chi2 = rep_from_generator_images(g, [np.array([[OMEGA ** 2]])], "complex")
    cases = [(rot, chi), (chi, rot), (chi, chi2, rot, chi, rot, chi2),
             (rot, rot, chi), (chi, chi, chi2)]
    for reps in cases:
        rep = tensor(*reps)
        assert rep.index_action is None
        for x in g.elements():
            want = functools.reduce(np.kron, [r.image(x) for r in reps])
            got = rep.image(x)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _constructed_reps():
    g3 = symmetric(3)
    g4 = symmetric(4)
    out = [
        ("s4 natural C", natural_perm_rep(g4, "complex")),
        ("s4 natural R", natural_perm_rep(g4, "real")),
        ("s3 std images", rep_from_generator_images(g3, s3_standard_images(), "real")),
        ("s3 nat x nat", tensor(natural_perm_rep(g3), natural_perm_rep(g3))),
        ("s3 nat + nat", direct_sum(natural_perm_rep(g3), natural_perm_rep(g3))),
        ("conj(s3 nat)", conjugate(natural_perm_rep(g3))),
        ("u2 def x def", tensor(defining_rep(unitary_group(2)),
                                defining_rep(unitary_group(2)))),
        ("o3 defining", defining_rep(orthogonal_group(3))),
    ]
    return out


def _identity_and_product(rep):
    """The group's identity element and product g*h (h acts first)."""
    if rep.is_finite:
        return Permutation.identity(rep.group.degree), lambda g, h: g * h
    return np.eye(rep.group.dim), lambda g, h: g @ h


@pytest.mark.parametrize("name,rep", _constructed_reps(), ids=lambda v: v if isinstance(v, str) else "")
def test_homomorphism_and_unitarity_invariants(name, rep, rng):
    n = rep.dim
    eye = np.eye(n)
    ident, product = _identity_and_product(rep)
    assert np.linalg.norm(rep.image(ident) - eye) <= 1e-10
    for _ in range(50):
        g, h = rep.random_element(rng), rep.random_element(rng)
        ig, ih = rep.image(g), rep.image(h)
        assert np.linalg.norm(ig @ ih - rep.image(product(g, h))) <= 1e-10 * n
        assert np.linalg.norm(ig.conj().T @ ig - eye) <= 1e-10


def test_dimensions_exact():
    g = symmetric(3)
    a = natural_perm_rep(g)
    b = trivial_rep(g)
    assert tensor(a, a).dim == 9
    assert direct_sum(a, b).dim == 4


def hyperoctahedral(n):
    """(group, images): signed permutations of n axes acting on the 2n points
    +e_i -> 2i, -e_i -> 2i + 1, with their signed permutation matrices."""
    def axis_perm(sigma, flip=()):
        images = [0] * (2 * n)
        mat = np.zeros((n, n))
        for i in range(n):
            sign = -1 if i in flip else 1
            mat[sigma[i], i] = sign
            images[2 * i] = 2 * sigma[i] + (sign < 0)
            images[2 * i + 1] = 2 * sigma[i] + (sign > 0)
        return Permutation(images), mat

    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    gens = [axis_perm(swap), axis_perm(cycle), axis_perm(list(range(n)), flip=(0,))]
    return PermutationGroup(2 * n, [p for p, _ in gens]), [m for _, m in gens]


def s4_standard_images():
    """Natural S4 restricted to the sum-zero subspace, in an orthonormal basis."""
    basis = np.linalg.qr(np.eye(4)[:, :3] - 0.25)[0]
    return [basis.T @ perm_matrix(p.images) @ basis for p in symmetric(4).generators]


def _fold(word, gens, inv, mul, one):
    """Left fold of the generator images along an expanded letter word."""
    out = one
    for letter in word:
        m = gens[abs(letter) - 1]
        out = mul(out, m if letter > 0 else inv(m))
    return out


@pytest.mark.parametrize("case", ["hyperoctahedral", "s4 standard", "s6 index"])
def test_dag_transversal_images_match_word_fold(case):
    if case == "hyperoctahedral":
        g, images = hyperoctahedral(4)
    elif case == "s4 standard":
        g, images = symmetric(4), s4_standard_images()
    else:
        g = symmetric(6)
        images = [perm_matrix(p.images) for p in g.generators]
    rep = rep_from_generator_images(g, images, "real")
    assert (rep.index_action is not None) == (case == "s6 index")
    for level, words in enumerate(g.transversal_words):
        for b, word in words.items():
            u = g.transversals[level][b]
            if rep.index_action is None:
                want = _fold(word, images, lambda m: m.T, np.matmul, np.eye(rep.dim))
                assert np.abs(rep.image(u) - want).max() <= 1e-12
            else:  # integer gathers are exact
                sigmas = rep.index_action.generators
                want = _fold(word, sigmas, np.argsort, lambda a, b: a[b],
                             np.arange(rep.dim))
                assert np.array_equal(rep.index_action.element(u), want)


def test_transversal_images_cost_one_product_per_reachable_node():
    g = symmetric(14)
    reachable, stack = set(), [w for words in g.transversal_nodes for w in words.values()]
    while stack:
        w = stack.pop()
        if isinstance(w, tuple) and id(w) not in reachable:
            reachable.add(id(w))
            stack.extend(w)
    calls = [0]

    def counted(op):
        def run(*args):
            calls[0] += 1
            return op(*args)
        return run

    chain = _ChainImages(g, [np.array(p.images) for p in g.generators],
                         lambda: np.arange(14), counted(lambda a, b: a[b]),
                         counted(np.argsort))
    for level, t in enumerate(g.transversals):
        for b, u in t.items():
            assert chain._transversal_image(level, b).tolist() == list(u.images)
    # a left fold along the expanded words would take about 10^5 products
    assert calls[0] <= len(reachable) < 500
