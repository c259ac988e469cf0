"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; each criterion checks its stated tolerance against an oracle that is
independent of the code path under test.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repblock import (DecomposeConfig, ProjectionConfig,
                      SdpProblem, block_diagonalize_matrix,
                      block_diagonalize_sdp, conjugate, decompose,
                      defining_rep, haar_orthogonal, haar_unitary,
                      natural_perm_rep, project_commutant,
                      rep_from_generator_images, reconstruct, sample_commutant,
                      sample_gue, tensor, unitary_group, verify_decomposition)
from repblock.commutant import chain_average

from conftest import (alternating4, closure, closure_with_images, cyclic,
                      dihedral, klein4, perm_matrix, quaternion8,
                      regular_rep, symmetric)
from test_decompose import brute_real_commutant_dim, character_multiplicities_natural


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


@contextmanager
def time_limit(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, limit {seconds}s"


def test_criterion_01_s3_natural():
    with criterion(1, "S3 natural representation over C"):
        g = symmetric(3)
        assert character_multiplicities_natural(g) == (1, 2)  # character oracle
        rep = natural_perm_rep(g, "complex")
        with time_limit(1.0):
            d = decompose(rep, rng=np.random.default_rng(1))
        assert d.dm_multiset() == [(1, 1), (2, 1)]
        report = verify_decomposition(rep, d, trials=50, tol=1e-8,
                                      rng=np.random.default_rng(2))
        assert report.passed
        assert report.max_off_component <= 1e-8
        assert max(report.component_residuals) <= 1e-8


def test_criterion_02_s3_regular():
    with criterion(2, "S3 regular representation (6-dim)"):
        rep = regular_rep(symmetric(3), "complex")
        with time_limit(1.0):
            d = decompose(rep, rng=np.random.default_rng(3))
        assert d.dm_multiset() == [(1, 1), (1, 1), (2, 2)]
        assert sum(c.dimension * c.multiplicity for c in d.components) == 6


def test_criterion_03_s4_regular():
    with criterion(3, "S4 regular representation (24-dim)"):
        rep = regular_rep(symmetric(4), "complex")
        with time_limit(10.0):
            d = decompose(rep, rng=np.random.default_rng(4))
        assert sorted(c.dimension for c in d.components) == [1, 1, 2, 3, 3]
        assert all(c.multiplicity == c.dimension for c in d.components)


def test_criterion_04_s5_natural():
    with criterion(4, "S5 natural representation"):
        g = symmetric(5)
        assert character_multiplicities_natural(g) == (1, 2)
        with time_limit(1.0):
            d = decompose(natural_perm_rep(g, "complex"),
                          rng=np.random.default_rng(5))
        assert d.dm_multiset() == [(1, 1), (4, 1)]


def test_criterion_05_u3_tensor_square():
    with criterion(5, "U(3) defining (x) defining (9-dim)"):
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[j * 3 + i, i * 3 + j] = 1
        assert round(np.trace((np.eye(9) + swap) / 2)) == 6  # projector oracle
        assert round(np.trace((np.eye(9) - swap) / 2)) == 3

        u3 = defining_rep(unitary_group(3))
        rep = tensor(u3, u3)
        cfg = DecomposeConfig(projection=ProjectionConfig(nu=1000, set_size=3))
        with time_limit(60.0):
            d = decompose(rep, cfg, rng=np.random.default_rng(6))
        assert sorted(c.dimension for c in d.components) == [3, 6]
        assert [c.multiplicity for c in d.components] == [1, 1]
        assert d.diagnostics.max_off_component <= 1e-6
        assert max(d.diagnostics.component_residuals) <= 1e-6


def test_criterion_06_u2_adjoint():
    with criterion(6, "U(2) defining (x) conjugate(defining)"):
        vec_id = np.eye(2).reshape(-1) / np.sqrt(2)
        assert round(np.trace(np.outer(vec_id, vec_id))) == 1  # projector oracle

        u2 = defining_rep(unitary_group(2))
        rep = tensor(u2, conjugate(u2))
        d = decompose(rep, rng=np.random.default_rng(7))
        assert d.dm_multiset() == [(1, 1), (3, 1)]
        assert d.diagnostics.max_off_component <= 1e-6


def test_criterion_07_c5_real_types():
    with criterion(7, "real-field C5 natural representation"):
        g = cyclic(5)
        images = [perm_matrix(p.images) for p in g.elements()]
        assert brute_real_commutant_dim(images) == 5  # 1 + 2 + 2

        d = decompose(natural_perm_rep(g, "real"), rng=np.random.default_rng(8))
        got = sorted((c.dimension, c.multiplicity, c.real_type) for c in d.components)
        assert got == [(1, 1, "real"), (2, 1, "complex"), (2, 1, "complex")]


def test_criterion_08_quaternionic_detection():
    with criterion(8, "quaternionic type of the 4x4 real Q8 representation"):
        group, mats = quaternion8()
        table = closure_with_images(8, [p.images for p in group.generators], mats)
        assert len(table) == 8
        assert brute_real_commutant_dim(list(table.values())) == 4  # oracle

        rep = rep_from_generator_images(group, mats, "real")
        d = decompose(rep, rng=np.random.default_rng(9))
        assert d.dm_multiset() == [(4, 1)]
        assert d.components[0].real_type == "quaternionic"


CRITERION_9_GROUPS = [
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


def test_criterion_09_projection_vs_brute_force():
    with criterion(9, "chain and orbital projection = brute-force averaging, orders 2-120"):
        rng = np.random.default_rng(10)
        for name, make in CRITERION_9_GROUPS:
            group = make()
            assert 2 <= group.order() <= 120
            rep = natural_perm_rep(group, "complex")
            x = sample_gue(group.degree, "complex", rng)

            elems = closure(group.degree, [p.images for p in group.generators])
            acc = np.zeros((group.degree, group.degree), dtype=complex)
            for e in elems:
                u = perm_matrix(e, dtype=complex)
                acc += u @ x @ u.conj().T
            want = acc / len(elems)
            scale = max(np.linalg.norm(want), 1.0)

            # the chain path, and the orbital path project_commutant takes
            for project in (chain_average,
                            lambda r, m: project_commutant(r, m).matrix):
                got = project(rep, x)
                assert np.linalg.norm(got - want) <= 1e-12 * scale, name
                again = project(rep, got)
                assert np.linalg.norm(again - got) <= 1e-10 * np.linalg.norm(got), name


def test_criterion_10_sdp_round_trip():
    with criterion(10, "SDP round trip on S4-invariant instances (n=24, m=3)"):
        rep = regular_rep(symmetric(4), "complex")
        rng = np.random.default_rng(11)
        decomp = decompose(rep, rng=rng)
        for _ in range(20):
            prob = SdpProblem(
                c=sample_commutant(rep, rng=rng).matrix,
                a=[sample_commutant(rep, rng=rng).matrix for _ in range(3)],
                b=rng.standard_normal(3), field="complex")
            blocked = block_diagonalize_sdp(decomp, prob)

            x = sample_commutant(rep, rng=rng).matrix
            x_blocks, _ = block_diagonalize_matrix(decomp, x)

            for mat, blocks in [
                (prob.c, [c.c_block for c in blocked.components]),
                (prob.a[0], [c.a_blocks[0] for c in blocked.components]),
                (prob.a[1], [c.a_blocks[1] for c in blocked.components]),
                (prob.a[2], [c.a_blocks[2] for c in blocked.components]),
            ]:
                back = reconstruct(decomp, blocks)
                assert np.linalg.norm(back - mat) <= 1e-9 * np.linalg.norm(mat)
                lhs = np.trace(mat.conj().T @ x)
                rhs = sum(c.dimension * np.trace(b.conj().T @ xb)
                          for c, b, xb in zip(blocked.components, blocks, x_blocks))
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

            full_min = np.linalg.eigvalsh(x).min()
            block_min = min(np.linalg.eigvalsh(b).min() for b in x_blocks)
            assert abs(full_min - block_min) <= 1e-8


def _stability_cases():
    u3 = defining_rep(unitary_group(3))
    u2 = defining_rep(unitary_group(2))
    q8_group, q8_mats = quaternion8()
    stated = DecomposeConfig(projection=ProjectionConfig(nu=1000, set_size=3))
    return [
        ("S3 natural", natural_perm_rep(symmetric(3), "complex"), None),
        ("S3 regular", regular_rep(symmetric(3), "complex"), None),
        ("S4 regular", regular_rep(symmetric(4), "complex"), None),
        ("S5 natural", natural_perm_rep(symmetric(5), "complex"), None),
        ("U(3) def^2", tensor(u3, u3), stated),
        ("U(2) adjoint", tensor(u2, conjugate(u2)), stated),
        ("C5 natural R", natural_perm_rep(cyclic(5), "real"), None),
        ("Q8 4x4 R", rep_from_generator_images(q8_group, q8_mats, "real"), None),
    ]


def test_criterion_11_seed_stability():
    with criterion(11, "(D, M) multisets identical across 20 seeds per case"):
        for name, rep, cfg in _stability_cases():
            seen = {tuple(decompose(rep, cfg, rng=np.random.default_rng(seed)).dm_multiset())
                    for seed in range(20)}
            assert len(seen) == 1, f"{name}: {seen}"


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repblock", *args],
                          capture_output=True, cwd=cwd, env=env)


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "fixed seed gives byte-identical structured CLI output"):
        (tmp_path / "s3.group").write_text(
            '{"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}\n')
        (tmp_path / "nat.rep").write_text('{"kind": "natural"}\n')
        args = ["decompose", "s3.group", "nat.rep", "--seed", "123",
                "--format", "structured"]
        one = _run_cli(args, tmp_path)
        two = _run_cli(args, tmp_path)
        assert one.returncode == 0 and two.returncode == 0, one.stderr
        assert one.stdout == two.stdout
        assert json.loads(one.stdout)["schema_version"] == 1

        args = ["sample-group", "unitary:3", "4", "--seed", "9",
                "--format", "structured"]
        s1 = _run_cli(args, tmp_path)
        s2 = _run_cli(args, tmp_path)
        assert s1.returncode == 0 and s1.stdout == s2.stdout


def test_criterion_13_uniform_sampling_and_haar():
    with criterion(13, "chi-square uniformity and Haar unitarity residuals"):
        from scipy.stats import chi2

        rng = np.random.default_rng(13)
        for group in (symmetric(3), cyclic(6)):
            members = sorted(p.images for p in group.elements())
            index = {m: i for i, m in enumerate(members)}
            draws = 10_000 * len(members)
            counts = np.zeros(len(members))
            for _ in range(draws):
                counts[index[group.sample(rng).images]] += 1
            expected = draws / len(members)
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert stat < chi2.ppf(1 - 1e-3, df=len(members) - 1)

        for d in (1, 2, 3, 8, 32):
            eye = np.eye(d)
            for _ in range(25):
                u = haar_unitary(d, rng)
                assert np.linalg.norm(u.conj().T @ u - eye) <= 1e-12
                o = haar_orthogonal(d, rng)
                assert np.linalg.norm(o.T @ o - eye) <= 1e-12
