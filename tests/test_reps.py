import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repblock import (Permutation, PermutationGroup, Representation, conjugate,
                      defining_rep, direct_sum, natural_perm_rep,
                      rep_from_generator_images, tensor, tensor_power,
                      trivial_rep, unitary_group, orthogonal_group)

from repblock.commutant import lie_contraction
from repblock.compact import lie_basis
import repblock.reps as reps_mod
from repblock.reps import _ChainImages

from conftest import closure_with_images, cyclic, group_of, perm_matrix, symmetric

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


def test_real_field_takes_the_real_part_of_complex_dtype_images():
    # a permutation matrix and a rotation with zero imaginary parts are real
    # images; a nonzero or NaN imaginary part is refused by its index
    g = symmetric(3)
    perm = rep_from_generator_images(
        g, [perm_matrix(x.images).astype(complex) for x in g.generators], "real")
    assert perm.index_action is not None
    std = [m.astype(complex) for m in s3_standard_images()]
    rep = rep_from_generator_images(g, std, "real")
    assert rep.image(g.generators[1]).dtype == float
    assert np.array_equal(rep.image(g.generators[1]), s3_standard_images()[1])
    for bad in (1e-300j, complex(0, np.nan)):
        images = [std[0], std[1] + bad]
        with pytest.raises(ValueError, match="image 1 has complex entries"):
            rep_from_generator_images(g, images, "real")


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
    # an identity generator must map to I, as a matrix or as a permutation
    c2_with_identity = group_of(2, [[1, 0], [0, 1]])
    for ident_image in (-np.eye(2), perm_matrix((1, 0))):
        with pytest.raises(ValueError, match="inconsistent: the chain evaluates generator 1 "):
            rep_from_generator_images(c2_with_identity, [perm_matrix((1, 0)), ident_image],
                                      "real")
    # -1 on the transpositions makes the 4-cycle, a product of three, -1 as well
    s4 = group_of(4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2], [1, 2, 3, 0]])
    with pytest.raises(ValueError, match="inconsistent: the chain evaluates generator 3 "):
        rep_from_generator_images(s4, [-np.eye(1)] * 3 + [np.eye(1)], "real")


def test_permutation_images_skip_the_unitarity_product(monkeypatch):
    # a matrix of exact 0s and 1s with one 1 per row and column is orthogonal
    # exactly, so only images on the matrix path form m^dag m
    checked = []
    require = reps_mod._require_unitary
    monkeypatch.setattr(reps_mod, "_require_unitary",
                        lambda m, what: checked.append(what) or require(m, what))
    g = symmetric(3)
    perms = rep_from_generator_images(g, [perm_matrix(p.images) for p in g.generators], "real")
    assert perms.index_action is not None and checked == []
    # one rotation sends every image to the matrix path: the swap reflects
    # across the diagonal, which inverts the rotation as (0 1) does (0 1 2)
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    mixed = rep_from_generator_images(g, [perm_matrix((1, 0)), np.array([[c, -s], [s, c]])],
                                      "real")
    assert mixed.index_action is None
    assert checked == ["generator image 0", "generator image 1"]
    for bad in (2 * np.eye(3), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError, match=r"^generator image 1 is not unitary"):
            rep_from_generator_images(g, [perm_matrix((1, 0, 2)), bad], "real")


def test_overflowing_image_is_refused_without_a_warning():
    # m^dag m overflows; the non-finite residual fails the gate as a ValueError
    for field in ("real", "complex"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^generator image 0 is not unitary "
                                                 r"\(residual (inf|nan)\)"):
                rep_from_generator_images(cyclic(2), [np.full((2, 2), 1e308)], field)


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
        for p, sigma in zip(g.generators, rep.index_action.generators):
            assert np.array_equal(rep.index_action.element(p), sigma)


@pytest.mark.parametrize("first_use", ["dense images", "permutation images", "chain average",
                                       "sample"])
def test_the_chain_is_built_once_by_its_first_reader(first_use, chain_builds, rng):
    from repblock.commutant import chain_average

    g = symmetric(4)
    nat = natural_perm_rep(g, "real")
    x = np.diag(np.arange(4.0))
    assert chain_builds == []  # the index action reads only the generators
    if first_use == "dense images":
        # both generators are odd: sign times permutation matrix, no index action
        images = [-perm_matrix(p.images) for p in g.generators]
        rep = rep_from_generator_images(g, images, "real")
        assert rep.index_action is None
        rep.image(g.sample(rng))
    elif first_use == "permutation images":
        rep = rep_from_generator_images(g, [perm_matrix(p.images) for p in g.generators],
                                        "real")
        rep.index_action.element(g.sample(rng))
    elif first_use == "chain average":
        assert np.allclose(chain_average(nat, x), 1.5 * np.eye(4))
    else:
        g.sample(rng)
    assert chain_builds == [4]
    nat.image(g.sample(rng))
    chain_average(nat, x)
    assert chain_builds == [4]


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
    g = u2.group.sample(rng)
    assert np.allclose(u2.image(g), g)
    assert np.linalg.norm(g.conj().T @ g - np.eye(2)) <= 1e-12

    u1 = defining_rep(unitary_group(1))
    z = u1.group.sample(rng)
    assert abs(abs(z[0, 0]) - 1) <= 1e-12

    o3 = defining_rep(orthogonal_group(3))
    assert o3.field == "real"
    assert not np.iscomplexobj(o3.image(o3.group.sample(rng)))


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
    g = t.group.sample(rng)
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
    z = u1.group.sample(rng)
    assert np.allclose(conjugate(u1).image(z), 1 / u1.image(z))

    u2 = defining_rep(unitary_group(2))
    w = u2.group.sample(rng)
    assert np.allclose(conjugate(conjugate(u2)).image(w), u2.image(w))

    with pytest.raises(ValueError):
        conjugate(natural_perm_rep(g, "real"))


def _exp_skew(a):
    """exp(a) for an anti-Hermitian a, through the eigenvectors of i a."""
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _derived_cases():
    u1, u2, u3 = (defining_rep(unitary_group(d)) for d in (1, 2, 3))
    o3 = defining_rep(orthogonal_group(3))
    return [
        ("U(1)", u1),
        ("U(1) (x) conj U(1) (+) U(1)", direct_sum(tensor(u1, conjugate(u1)), u1)),
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
    # d rho(L) = (rho(exp tL) - rho(exp -tL)) / 2t + O(t^2), from the images
    # alone; the pair contraction of the tree must give sum_j A_j X A_j
    n, t = rep.dim, 1e-5
    slopes = []
    for lie in lie_basis(rep.group):
        plus, minus = _exp_skew(t * lie), _exp_skew(-t * lie)
        if rep.group.kind == "orthogonal":
            plus, minus = plus.real, minus.real
        slopes.append((rep.image(plus) - rep.image(minus)) / (2 * t))
    x = rng.standard_normal((n, n))
    if rep.field == "complex":
        x = x + 1j * rng.standard_normal((n, n))
    want = sum((a @ x @ a for a in slopes), np.zeros((n, n)))
    scale = max(1.0, sum(np.linalg.norm(a) ** 2 for a in slopes)) * np.linalg.norm(x)
    assert np.linalg.norm(lie_contraction(rep, x) - want) <= 1e-8 * scale


def test_derived_action_only_where_every_part_has_one():
    u2 = defining_rep(unitary_group(2))
    bare = Representation(u2.group, 2, "complex", u2.image)
    assert bare.derived is None
    assert tensor(u2, bare).derived is None and direct_sum(bare, u2).derived is None
    assert conjugate(bare).derived is None
    assert natural_perm_rep(symmetric(3)).derived is None
    assert trivial_rep(symmetric(3)).derived is None
    # leaves on one tensor path; conjugation flips the leaves' flags
    assert tensor_power(u2, 3).derived.leaves == 3
    assert direct_sum(u2, tensor_power(u2, 2)).derived.leaves == 2
    assert [p.conj for p in conjugate(tensor(u2, conjugate(u2))).derived.parts] == [True, False]
    # the trivial representation of a compact group: d rho = 0, no leaves
    triv = trivial_rep(unitary_group(2)).derived
    assert triv.kind == "zero" and triv.leaves == 0
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
                x = reps[0].group.sample(rng)
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
        u = inner.group.sample(np.random.default_rng(seed))
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
        g, h = rep.group.sample(rng), rep.group.sample(rng)
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


# ---------------------------------------------------------------------------
# the relator check against a brute-force homomorphism test
# ---------------------------------------------------------------------------

# small groups by generators: S4 with a redundant one, C2 x S3 on 2 + 3 points
_RELATOR_GROUPS = {
    "S3": (3, [[1, 0, 2], [1, 2, 0]]),
    "S4": (4, [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2], [1, 2, 3, 0]]),
    "D4": (4, [[1, 2, 3, 0], [3, 2, 1, 0]]),
    "A4": (4, [[1, 2, 0, 3], [1, 0, 3, 2]]),
    "C2xS3": (5, [[1, 0, 2, 3, 4], [0, 1, 3, 2, 4], [0, 1, 3, 4, 2]]),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RELATOR_GROUPS)), st.integers(1, 2), st.booleans(),
       st.booleans(), st.booleans(), st.data())
def test_relator_check_agrees_with_brute_force(name, dim, signed, dense, extra, data):
    degree, gens = _RELATOR_GROUPS[name]
    gens = [list(p) for p in gens]
    if extra:  # a redundant generator, the product of two others, and the identity
        gens.insert(data.draw(st.integers(0, len(gens))),
                    [gens[0][x] for x in gens[-1]])
        gens.insert(data.draw(st.integers(0, len(gens))), list(range(degree)))
    # signed permutation images: all signs + give permutation matrices, which
    # take the index path unless conjugated into a dense basis
    mats = [perm_matrix(data.draw(st.permutations(range(dim)))) * data.draw(
        st.lists(st.sampled_from((1, -1) if signed else (1,)), min_size=dim, max_size=dim))
        for _ in gens]
    c, s = math.cos(0.7), math.sin(0.7)
    q = np.array([[c, -s], [s, c]]) if dim == 2 and dense else np.eye(dim)
    try:
        table = closure_with_images(degree, gens, mats)
    except AssertionError:
        table = None
    group = group_of(degree, gens)
    try:
        rep = rep_from_generator_images(group, [q @ m @ q.T for m in mats], "real")
    except ValueError as err:
        assert "generator images are inconsistent" in str(err)
        rep = None
    assert (rep is None) == (table is None)
    if rep is not None:
        for g in group.elements():
            assert np.linalg.norm(q.T @ rep.image(g) @ q - table[g.images]) <= 1e-12


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


@pytest.mark.parametrize("field, itemsize", [("complex", 16), ("real", 8)])
def test_dimension_guard_at_the_boundary_names_the_excess(monkeypatch, field, itemsize):
    # physical memory of exactly one n x n matrix: n passes, n + 1 is refused,
    # and the message shows the two byte counts apart
    n = 300
    sizes = {"SC_PAGE_SIZE": itemsize, "SC_PHYS_PAGES": n * n}
    monkeypatch.setattr(reps_mod.os, "sysconf", sizes.__getitem__)
    assert natural_perm_rep(group_of(n, [[1, 0] + list(range(2, n))]), field).dim == n
    need, have = (n + 1) ** 2 * itemsize, n * n * itemsize
    with pytest.raises(ValueError) as err:
        natural_perm_rep(group_of(n + 1, [[1, 0] + list(range(2, n + 1))]), field)
    assert str(err.value) == (
        f"dimension {n + 1} is too large: one {n + 1} x {n + 1} {field} matrix "
        f"needs {need:,} bytes, physical memory is {have:,} bytes")


def test_power_refused_from_bit_lengths_only_where_the_dimension_rule_refuses(monkeypatch):
    # physical memory of one 300 x 300 real matrix: 2^k is refused from k alone
    # once 2^k > 300, 3^k is formed and refused by the ordinary rule below that
    sizes = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 300 * 300}
    monkeypatch.setattr(reps_mod.os, "sysconf", sizes.__getitem__)
    two, three = (natural_perm_rep(cyclic(m), "real") for m in (2, 3))
    assert tensor_power(two, 8).dim == 256 and tensor_power(three, 5).dim == 243
    with pytest.raises(ValueError, match=r"^dimension 2\^9 is too large: one real matrix of "
                                         r"2\^9 x 2\^9 or more exceeds physical memory"):
        tensor_power(two, 9)
    with pytest.raises(ValueError, match=r"^dimension 729 is too large: one 729 x 729"):
        tensor_power(three, 6)
    with pytest.raises(ValueError, match=r"^dimension of a product of 9 factors is too large"):
        tensor(*[two] * 9)
    with pytest.raises(ValueError, match=r"^dimension 301 is too large"):
        defining_rep(orthogonal_group(301))
    assert defining_rep(orthogonal_group(300)).dim == 300


def test_power_of_a_one_dimensional_node_is_built_in_log_k():
    # the image is the inner scalar to the k-th power, the index action the
    # inner one, and the derived tree has O(log k) nodes, charge k charge
    # and leaves k leaves
    u1 = defining_rep(unitary_group(1))
    k = 10 ** 9 + 1
    power = tensor_power(u1, k)
    assert power.dim == 1 and power.derived.dim == 1
    assert power.derived.charge == k and power.derived.leaves == k
    assert conjugate(power).derived.charge == -k

    def nodes(tree, seen):
        if id(tree) not in seen:
            seen.add(id(tree))
            for p in tree.parts:
                nodes(p, seen)
        return len(seen)

    assert nodes(power.derived, set()) <= 2 * k.bit_length()
    u = np.array([[1j]])  # i^(10^9 + 1) = i, exactly by squaring
    assert power.image(u).tolist() == [[1j]]
    sign = natural_perm_rep(symmetric(1))
    assert tensor_power(sign, k).index_action is sign.index_action
    # a power of a node of dimension >= 2 keeps its flat factor list
    assert len(tensor_power(defining_rep(unitary_group(2)), 3).derived.parts) == 3
