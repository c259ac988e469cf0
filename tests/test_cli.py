import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repblock import SdpProblem, natural_perm_rep, sample_commutant, sample_gue
from repblock import cli
from repblock.cli import main
from repblock.formats import format_sdp

from conftest import symmetric

S3_GROUP = '{"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}\n'
NATURAL = '{"kind": "natural"}\n'
U2_GROUP = '{"compact": "unitary", "dimension": 2}\n'
U2_ADJOINT = ('{"kind": "tensor", "factors": [{"kind": "defining"}, '
              '{"kind": "conj", "inner": {"kind": "defining"}}]}\n')


@pytest.fixture
def s3_files(tmp_path):
    group = tmp_path / "s3.group"
    rep = tmp_path / "natural.rep"
    group.write_text(S3_GROUP)
    rep.write_text(NATURAL)
    return group, rep


def test_decompose_text(s3_files, capsys):
    group, rep = s3_files
    assert main(["decompose", str(group), str(rep), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "D=2 M=1" in out and "D=1 M=1" in out
    assert "n=3" in out


def test_decompose_structured_and_deterministic(s3_files, capsys):
    group, rep = s3_files
    args = ["decompose", str(group), str(rep), "--seed", "7", "--format", "structured"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    assert doc["command"] == "decompose"
    assert [(c["dimension"], c["multiplicity"]) for c in doc["components"]] \
        == [(2, 1), (1, 1)]
    assert doc["diagnostics"]["passed"] is True


def test_decompose_seed_changes_output(s3_files, capsys):
    group, rep = s3_files
    main(["decompose", str(group), str(rep), "--seed", "7", "--format", "structured"])
    a = capsys.readouterr().out
    main(["decompose", str(group), str(rep), "--seed", "8", "--format", "structured"])
    b = capsys.readouterr().out
    assert json.loads(a)["components"] == json.loads(b)["components"]


def test_decompose_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.group"
    bad.write_text('{"degree": 3, "generators": [[0, 0, 1]]}')
    rep = tmp_path / "r.rep"
    rep.write_text(NATURAL)
    assert main(["decompose", str(bad), str(rep)]) == 2
    assert "generator 0" in capsys.readouterr().err


def test_decompose_missing_file(tmp_path, capsys):
    rep = tmp_path / "r.rep"
    rep.write_text(NATURAL)
    assert main(["decompose", str(tmp_path / "nope.group"), str(rep)]) == 2


def test_decompose_failure_exit_code(tmp_path, capsys):
    group = tmp_path / "u2.group"
    group.write_text(U2_GROUP)
    rep = tmp_path / "adj.rep"
    rep.write_text(U2_ADJOINT)
    # no projection reaches a commutation tolerance below roundoff
    code = main(["decompose", str(group), str(rep), "--commutation-tol", "1e-300"])
    assert code == 3
    err = capsys.readouterr().err
    assert "decomposition failed" in err and "Casimir kernel projection" in err
    assert re.search(r"after \d+ conjugate-gradient iterations", err)


def test_emit_basis_and_verify(s3_files, tmp_path, capsys):
    group, rep = s3_files
    basis = tmp_path / "u.basis"
    assert main(["decompose", str(group), str(rep), "--seed", "3",
                 "--emit-basis", str(basis)]) == 0
    capsys.readouterr()
    assert main(["verify", str(group), str(rep), str(basis), "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # a permutation action is checked on its 2 generators
    assert "n=3, field=complex, 2 generators, tolerance" in out
    assert main(["verify", str(group), str(rep), str(basis), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["trials"] == 2

    # corrupt one row: unitarity breaks, exit 5
    lines = basis.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("ROW"):
            lines[i] = "ROW" + " 0" * 6
            break
    basis.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(group), str(rep), str(basis)]) == 5
    assert "FAIL" in capsys.readouterr().out


def test_verify_dimension_mismatch(s3_files, tmp_path, capsys):
    group, rep = s3_files
    basis = tmp_path / "u.basis"
    basis.write_text("BASIS 1\nFIELD complex\nDIM 1\nCOMPONENT 1 1 not_applicable\n"
                     "ROW 1 0\n")
    assert main(["verify", str(group), str(rep), str(basis)]) == 2


def test_verify_tight_tolerance_on_compact_basis(tmp_path, capsys):
    group = tmp_path / "u2.group"
    group.write_text(U2_GROUP)
    rep = tmp_path / "adj.rep"
    rep.write_text(U2_ADJOINT)
    basis = tmp_path / "u.basis"
    assert main(["decompose", str(group), str(rep), "--seed", "5",
                 "--commutation-tol", "1e-6", "--emit-basis", str(basis)]) == 0
    capsys.readouterr()
    # the projection is exact, so plant a visible (but in-tolerance) error
    # in one entry: fine at the default tolerance, hopeless at 1e-15
    lines = basis.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("ROW"))
    first, *rest = lines[row].split()[1:]
    lines[row] = " ".join(["ROW", repr(float(first) + 1e-9), *rest])
    basis.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(group), str(rep), str(basis), "--seed", "5"]) == 0
    assert "n=4, field=complex, 2 Lie-algebra elements, tolerance" in capsys.readouterr().out
    code = main(["verify", str(group), str(rep), str(basis), "--seed", "5",
                 "--tol", "1e-15"])
    assert code == 5
    assert "FAIL" in capsys.readouterr().out


def _write_invariant_sdp(tmp_path, m=1, seed=11):
    rep = natural_perm_rep(symmetric(3), "complex")
    rng = np.random.default_rng(seed)
    prob = SdpProblem(
        c=sample_commutant(rep, rng=rng).matrix,
        a=[sample_commutant(rep, rng=rng).matrix for _ in range(m)],
        b=list(range(1, m + 1)), field="complex")
    path = tmp_path / "instance.sdp"
    path.write_text(format_sdp(prob))
    return path


def test_blockdiag_flow(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = _write_invariant_sdp(tmp_path)
    out = tmp_path / "blocks"
    assert main(["blockdiag", str(sdp), str(group), str(rep),
                 "--seed", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "blocks of sizes [1, 1]" in text

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 3 and manifest["m"] == 1
    assert [b["size"] for b in manifest["blocks"]] == [1, 1]
    assert {b["dimension"] for b in manifest["blocks"]} == {1, 2}
    for entry in manifest["blocks"]:
        assert (out / entry["file"]).exists()
        assert entry["residual"] <= 1e-9
    from repblock.formats import parse_sdp

    blk = parse_sdp((out / manifest["blocks"][0]["file"]).read_text())
    assert blk.n == 1 and blk.m == 1
    assert blk.b.tolist() == [1.0]


S3_STANDARD = ('{"kind": "generator-images", "images": [[[1, 0], [0, -1]], '
               '[[-0.5, -0.8660254037844386], [0.8660254037844386, -0.5]]]}\n')


@pytest.mark.parametrize("group_text,rep_text,path", [
    (S3_GROUP, NATURAL, "projection: orbital averaging, 2 orbitals"),
    (S3_GROUP, S3_STANDARD, "projection: stabilizer chain, 5 transversal elements"),
    (U2_GROUP, U2_ADJOINT, "projection: Casimir kernel, 4 Lie generators"),
])
def test_verbose_names_projection_path(tmp_path, capsys, group_text, rep_text, path):
    (tmp_path / "g").write_text(group_text)
    (tmp_path / "r").write_text(rep_text)
    args = ["decompose", str(tmp_path / "g"), str(tmp_path / "r"), "--seed", "3",
            "--format", "structured"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert main(args + ["-v"]) == 0
    loud = capsys.readouterr()
    assert path not in quiet.err and path in loud.err
    chain = "base length 2, 3 strong generators"
    assert chain not in quiet.err
    assert (chain in loud.err) == (group_text == S3_GROUP)
    assert "eigenvalue clusters" not in quiet.err
    assert re.search(r"# \d+ eigenvalue clusters; \d+ candidate pairs tested, \d+ equivalent",
                     loud.err)
    assert loud.out == quiet.out


def test_blockdiag_verbose_names_projection_path(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = _write_invariant_sdp(tmp_path)
    args = ["blockdiag", str(sdp), str(group), str(rep), "--seed", "2",
            "--out", str(tmp_path / "b"), "--format", "structured"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert main(args + ["-v"]) == 0
    loud = capsys.readouterr()
    assert "projection: orbital averaging, 2 orbitals" in loud.err
    assert "degree 3, order 6, base length 2, 3 strong generators" in loud.err
    # S3 natural: the trivial and the 2-dim irrep, one test between them
    assert "# 2 eigenvalue clusters; 1 candidate pairs tested, 0 equivalent" in loud.err
    assert loud.out == quiet.out


def test_blockdiag_noninvariant_exit4(s3_files, tmp_path, capsys):
    group, rep = s3_files
    x = sample_gue(3, "complex", np.random.default_rng(0))
    prob = SdpProblem(c=x, a=[], b=[], field="complex")
    sdp = tmp_path / "bad.sdp"
    sdp.write_text(format_sdp(prob))
    assert main(["blockdiag", str(sdp), str(group), str(rep), "--seed", "2"]) == 4
    assert "--symmetrize" in capsys.readouterr().err

    assert main(["blockdiag", str(sdp), str(group), str(rep), "--seed", "2",
                 "--symmetrize"]) == 0
    assert "worst residual" in capsys.readouterr().out


def test_blockdiag_nan_entry_exit2(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = tmp_path / "nan.sdp"
    sdp.write_text("3 1 real\nMATRIX 0 0 0 nan\nMATRIX 1 0 1 1.0\nB 1\n")
    out = tmp_path / "blocks"
    assert main(["blockdiag", str(sdp), str(group), str(rep), "--field", "real",
                 "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("verify", "--tol", "inf"), ("verify", "--tol", "nan"), ("verify", "--tol", "-1"),
    # --trials is retired: argparse refuses it by name as an unrecognized argument
    ("verify", "--trials", "0"), ("verify", "--trials", "-3"),
    ("blockdiag", "--tol", "inf"), ("blockdiag", "--tol", "nan"),
    ("blockdiag", "--tol", "-1"), ("blockdiag", "--commutation-tol", "nan"),
    ("decompose", "--tol", "0"), ("decompose", "--commutation-tol", "inf"),
])
def test_out_of_range_flag_exit2(s3_files, tmp_path, capsys, command, flag, value):
    # inputs that fail every check at a sane tolerance, so an out-of-range
    # value cannot pass them by accident
    group, rep = s3_files
    out = tmp_path / "blocks"
    if command == "verify":
        basis = tmp_path / "u.basis"
        assert main(["decompose", str(group), str(rep), "--emit-basis", str(basis)]) == 0
        lines = basis.read_text().splitlines()
        first_row = next(i for i, line in enumerate(lines) if line.startswith("ROW"))
        lines[first_row] = "ROW" + " 0" * 6  # unitarity residual 1.0
        basis.write_text("\n".join(lines) + "\n")
        args = ["verify", str(group), str(rep), str(basis)]
    elif command == "blockdiag":
        x = sample_gue(3, "complex", np.random.default_rng(0))  # not invariant
        sdp = tmp_path / "bad.sdp"
        sdp.write_text(format_sdp(SdpProblem(c=x, a=[], b=[], field="complex")))
        args = ["blockdiag", str(sdp), str(group), str(rep), "--out", str(out)]
    else:
        args = ["decompose", str(group), str(rep)]
    capsys.readouterr()
    assert main(args + [flag, value]) == 2
    captured = capsys.readouterr()
    assert flag.lstrip("-").replace("-", "_") in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_blockdiag_oversized_sdp_exit2(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = tmp_path / "huge.sdp"
    sdp.write_text("2000000 1 real\nB 1\n")  # one 29 TiB matrix exceeds physical memory
    out = tmp_path / "blocks"
    assert main(["blockdiag", str(sdp), str(group), str(rep), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert ("line 1: dimension 2000000 is too large: one 2000000 x 2000000 real matrix "
            "needs 32,000,000,000,000 bytes") in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_non_unitary_image_after_a_permutation_exit2(s3_files, tmp_path, capsys):
    group, _ = s3_files
    rep = tmp_path / "bad.rep"
    rep.write_text('{"kind": "generator-images", "images": '
                   '[[[0, 1], [1, 0]], [[2, 0], [0, 2]]]}\n')
    assert main(["decompose", str(group), str(rep), "--field", "real"]) == 2
    captured = capsys.readouterr()
    assert "generator image 1 is not unitary" in captured.err
    assert captured.out == ""


def test_decompose_huge_integer_image_exit2(s3_files, tmp_path, capsys):
    group, _ = s3_files
    rep = tmp_path / "big.rep"
    big = "1" + "0" * 400  # a JSON integer beyond the float range
    rep.write_text('{"kind": "generator-images", "images": '
                   '[[[%s, 0], [0, 1]], [[1, 0], [0, 1]]]}\n' % big)
    assert main(["decompose", str(group), str(rep), "--field", "real"]) == 2
    captured = capsys.readouterr()
    assert "rep.images[0][0][0]: matrix entry is too large" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("k", [12, 40])
def test_decompose_huge_tensor_power_exit2(s3_files, tmp_path, capsys, k):
    import tracemalloc

    group, _ = s3_files
    rep = tmp_path / "power.rep"
    rep.write_text('{"kind": "power", "k": %d, "inner": {"kind": "natural"}}\n' % k)
    tracemalloc.start()
    try:
        code = main(["decompose", str(group), str(rep)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert "error: rep: dimension " in captured.err and "is too large" in captured.err
    assert captured.out == ""
    # refused from the dimension: no index array of 3^12 entries (4 MiB) is built
    assert peak < 8 * 2 ** 20


def test_decompose_huge_natural_rep_exit2(tmp_path, capsys):
    import math
    import os
    import resource
    import tracemalloc

    # the smallest degree whose one complex n x n matrix exceeds physical memory
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n = math.isqrt(phys // 16) + 1
    group, rep = tmp_path / "g.group", tmp_path / "r.rep"
    group.write_text(json.dumps({"degree": n, "generators": [[1, 0] + list(range(2, n))]}))
    rep.write_text(NATURAL)
    # should the guard go, the n x n draw fails here instead of taking the memory
    with open("/proc/self/status") as status:
        size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = size * 1024 + 2 ** 30
    if limits[1] != resource.RLIM_INFINITY:
        cap = min(cap, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    tracemalloc.start()
    try:
        code = main(["decompose", str(group), str(rep)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: rep: dimension {n} is too large")
    assert captured.out == ""
    # refused from the degree: nothing of n^2 entries (at least 500 MiB) is built
    assert peak < 64 * 2 ** 20


def test_decompose_huge_power_refused_before_the_product(tmp_path, capsys, monkeypatch):
    import time

    import repblock.reps as reps_mod

    def tensor(*reps):
        raise AssertionError(f"tensor of {len(reps)} factors built")

    monkeypatch.setattr(reps_mod, "tensor", tensor)
    group, rep = tmp_path / "u2.group", tmp_path / "power.rep"
    group.write_text(U2_GROUP)
    rep.write_text('{"kind": "power", "k": 1000000, "inner": {"kind": "defining"}}\n')
    start = time.perf_counter()
    code = main(["decompose", str(group), str(rep)])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    captured = capsys.readouterr()
    # the dimension is named, not printed: 2^10^6 has 301,030 digits
    assert captured.err.startswith("error: rep: dimension 2^1000000 is too large: one "
                                   "complex matrix of 2^1000000 x 2^1000000 or more exceeds")
    assert captured.out == ""


@pytest.mark.parametrize("kind, field", [("unitary", "complex"), ("orthogonal", "real")])
def test_huge_compact_group_exit2(tmp_path, capsys, kind, field):
    # a d x d matrix of d = 10^7 takes 800 TB or more; refused before any draw
    d = 10 ** 7
    tail = (f"dimension {d} is too large: one {d} x {d} {field} matrix needs "
            f"{d * d * (16 if field == 'complex' else 8):,} bytes")
    group, rep = tmp_path / "big.group", tmp_path / "defining.rep"
    group.write_text(json.dumps({"compact": kind, "dimension": d}))
    rep.write_text('{"kind": "defining"}\n')
    assert main(["decompose", str(group), str(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: group spec: {tail}") and captured.out == ""
    assert main(["sample-group", f"{kind}:{d}", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: group '{kind}:{d}': {tail}") and captured.out == ""


C2_GROUP = '{"degree": 2, "generators": [[1, 0]]}\n'


@pytest.mark.parametrize("group_text,rep_text,spot", [
    ('{"compact": "unitary", "dimension": true}', '{"kind": "defining"}',
     "group spec.dimension"),
    (S3_GROUP, '{"kind": "power", "k": true, "inner": {"kind": "natural"}}', "rep.k"),
    ('{"degree": true, "generators": []}', NATURAL, "group spec.degree"),
    ('{"degree": 3, "generators": [[true, false, 2]]}', NATURAL, "group spec.generators[0][0]"),
    (C2_GROUP, '{"kind": "generator-images", "images": [[[false, true], [true, false]]]}',
     "rep.images[0][0][0]"),
], ids=["dimension", "power", "degree", "generator", "image"])
def test_decompose_boolean_spec_value_exit2(tmp_path, capsys, group_text, rep_text, spot):
    group, rep = tmp_path / "g.group", tmp_path / "r.rep"
    group.write_text(group_text)
    rep.write_text(rep_text)
    assert main(["decompose", str(group), str(rep), "--field", "real"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {spot}: booleans are not spec values\n"
    assert captured.out == ""


S4_FOUR_GENERATORS = ('{"degree": 4, "generators": '
                      '[[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2], [1, 2, 3, 0]]}\n')


@pytest.mark.parametrize("group_text,images,named", [
    # C2's generator squares to 1; a 3-cycle and a quarter turn do not
    (C2_GROUP, "[[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]", None),
    (C2_GROUP, "[[[0, -1], [1, 0]]]", None),
    # an identity generator maps to I, not to -I or to the swap
    ('{"degree": 2, "generators": [[1, 0], [0, 1]]}\n',
     "[[[0, 1], [1, 0]], [[-1, 0], [0, -1]]]", 1),
    ('{"degree": 2, "generators": [[1, 0], [0, 1]]}\n',
     "[[[0, 1], [1, 0]], [[0, 1], [1, 0]]]", 1),
    # -1 on three transpositions forces -1 on the 4-cycle, their product
    (S4_FOUR_GENERATORS, "[[[-1]], [[-1]], [[-1]], [[1]]]", 3),
], ids=["permutation", "matrix", "identity-minus", "identity-swap", "s4-sign"])
def test_decompose_inconsistent_image_exit2(tmp_path, capsys, group_text, images, named):
    group, rep = tmp_path / "g.group", tmp_path / "r.rep"
    group.write_text(group_text)
    rep.write_text('{"kind": "generator-images", "images": %s}' % images)
    assert main(["decompose", str(group), str(rep), "--field", "real"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rep: generator images are inconsistent")
    if named is not None:
        assert f"the chain evaluates generator {named} off its image" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lines,spot", [
    (["COMPONENT -1 -3 not_applicable"], "line 4: COMPONENT sizes must be positive"),
    (["COMPONENT 0 7 not_applicable"], "line 4: COMPONENT sizes must be positive"),
    (["FIELD real", "COMPONENT 2 1 not_applicable"], "line 4: duplicate FIELD line"),
    (["DIM 3", "COMPONENT 2 1 not_applicable"], "line 4: duplicate DIM line"),
], ids=["negative", "zero", "field-twice", "dim-twice"])
def test_verify_malformed_basis_exit2(s3_files, tmp_path, capsys, lines, spot):
    group, rep = s3_files
    basis = tmp_path / "u.basis"
    rows = ["ROW 1 0 0", "ROW 0 1 0", "ROW 0 0 1"]
    basis.write_text("\n".join(["BASIS 1", "FIELD real", "DIM 3", *lines, *rows]) + "\n")
    assert main(["verify", str(group), str(rep), str(basis)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {spot}\n"
    assert captured.out == ""


TRIVIAL_GROUP = '{"degree": 1, "generators": []}\n'
U1_GROUP = '{"compact": "unitary", "dimension": 1}\n'


@pytest.mark.parametrize("group_text,rep_doc", [
    (TRIVIAL_GROUP, {"kind": "power", "k": 1000, "inner": {"kind": "natural"}}),
    (U1_GROUP, {"kind": "power", "k": 1000, "inner": {"kind": "defining"}}),
    (TRIVIAL_GROUP, {"kind": "tensor", "factors": [{"kind": "natural"}] * 1500}),
], ids=["power-trivial", "power-u1", "tensor-1500"])
def test_decompose_long_factor_lists(tmp_path, capsys, group_text, rep_doc):
    # one closure per spec node, however many factors it has
    group, rep = tmp_path / "g.group", tmp_path / "long.rep"
    group.write_text(group_text)
    rep.write_text(json.dumps(rep_doc))
    assert main(["decompose", str(group), str(rep), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(c["dimension"], c["multiplicity"]) for c in doc["components"]] == [(1, 1)]


def test_decompose_o1_defining_over_r(tmp_path, capsys):
    # O(1) has no Lie generators: the Casimir part of the projection and of
    # its gate is 0, and the reflection average alone projects
    group, rep = tmp_path / "o1.group", tmp_path / "defining.rep"
    group.write_text('{"compact": "orthogonal", "dimension": 1}\n')
    rep.write_text('{"kind": "defining"}\n')
    assert main(["decompose", str(group), str(rep), "--field", "real",
                 "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(c["dimension"], c["multiplicity"], c["real_type"])
            for c in doc["components"]] == [(1, 1, "real")]


def _conj_chain(depth, leaf):
    return '{"kind": "conj", "inner": ' * depth + leaf + "}" * depth


@pytest.mark.parametrize("group_text,rep_text,spots", [
    ("[" * 100000, NATURAL, ["group spec: JSON nests too deeply to parse"]),
    # json.loads overflows at this depth where its C recursion shares the
    # interpreter's limit; elsewhere the spec's nesting bound refuses it
    (S3_GROUP, _conj_chain(995, NATURAL.strip()),
     ["rep: JSON nests too deeply to parse",
      "rep" + ".inner" * 100 + ": spec nests deeper than 100 levels"]),
    (U2_GROUP, _conj_chain(700, '{"kind": "defining"}'),
     ["rep" + ".inner" * 100 + ": spec nests deeper than 100 levels"]),
], ids=["group-brackets", "conj-995-natural", "conj-700-defining"])
def test_deeply_nested_spec_exit2(tmp_path, capsys, group_text, rep_text, spots):
    group, rep = tmp_path / "g.group", tmp_path / "deep.rep"
    group.write_text(group_text)
    rep.write_text(rep_text)
    assert main(["decompose", str(group), str(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.err in [f"error: {spot}\n" for spot in spots]
    assert captured.out == ""


@pytest.mark.parametrize("digits", [4000, 5000])
def test_compact_dimension_of_thousands_of_digits_exit2(tmp_path, capsys, digits):
    # 4,000 digits parse but their square has too many to print; 5,000 are
    # more than Python converts from text (where it limits conversion)
    group, rep = tmp_path / "g.group", tmp_path / "defining.rep"
    group.write_text('{"compact": "unitary", "dimension": 1' + "0" * digits + "}")
    rep.write_text('{"kind": "defining"}\n')
    assert main(["decompose", str(group), str(rep)]) == 2
    captured = capsys.readouterr()
    bits = (10 ** digits).bit_length()
    too_large = (f"error: group spec: dimension of {bits} bits is too large: one complex "
                 f"matrix of 2^{bits - 1} x 2^{bits - 1} or more exceeds physical memory")
    assert captured.err.startswith(too_large) or (
        digits == 5000 and captured.err == "error: group spec: a JSON integer is too long to read\n")
    assert captured.out == ""


@pytest.mark.parametrize("d,code", [("1" + "0" * 5000, 2), ("0" * 5000 + "2", 0)],
                         ids=["5,001 digits", "zero-padded"])
def test_inline_dimension_of_thousands_of_digits(capsys, d, code):
    # refused by its digit count before int() meets more digits than it
    # converts; leading zeros do not count
    assert main(["sample-group", f"unitary:{d}", "1", "--seed", "2"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(
            f"error: group 'unitary:{d}': dimension of 5,001 digits is too large: one complex "
            "matrix of 2^15000 x 2^15000 or more exceeds physical memory")
        assert captured.out == ""
    else:
        assert main(["sample-group", "unitary:2", "1", "--seed", "2"]) == 0
        assert capsys.readouterr().out == captured.out


def test_decompose_nan_generator_image_exit2(s3_files, tmp_path, capsys):
    group, _ = s3_files
    rep = tmp_path / "nan.rep"
    rep.write_text('{"kind": "generator-images", "images": [[[NaN]], [[1]]]}\n')
    assert main(["decompose", str(group), str(rep), "--field", "real"]) == 2
    captured = capsys.readouterr()
    assert "rep.images[0][0][0]: matrix entry is not finite" in captured.err
    assert captured.out == ""


def test_blockdiag_structured_deterministic(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = _write_invariant_sdp(tmp_path, m=2, seed=23)
    args = ["blockdiag", str(sdp), str(group), str(rep), "--seed", "9",
            "--out", str(tmp_path / "b"), "--format", "structured"]
    assert main(args) == 0
    one = capsys.readouterr().out
    assert main(args) == 0
    two = capsys.readouterr().out
    assert one == two
    doc = json.loads(one)
    assert doc["command"] == "blockdiag"
    assert doc["field"] == "complex"


def test_blockdiag_compact_group(tmp_path, capsys):
    from repblock import conjugate, defining_rep, tensor, unitary_group

    group = tmp_path / "u2.group"
    group.write_text(U2_GROUP)
    rep_file = tmp_path / "adj.rep"
    rep_file.write_text(U2_ADJOINT)

    rep = tensor(defining_rep(unitary_group(2)),
                 conjugate(defining_rep(unitary_group(2))))
    rng = np.random.default_rng(17)
    prob = SdpProblem(c=sample_commutant(rep, rng=rng).matrix,
                      a=[sample_commutant(rep, rng=rng).matrix],
                      b=[2.0], field="complex")
    sdp = tmp_path / "compact.sdp"
    sdp.write_text(format_sdp(prob))

    out = tmp_path / "blocks"
    assert main(["blockdiag", str(sdp), str(group), str(rep_file),
                 "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(b["dimension"] for b in manifest["blocks"]) == [1, 3]
    assert all(b["size"] == 1 for b in manifest["blocks"])
    assert manifest["worst_residual"] <= 1e-6


def test_blockdiag_symmetrizes_data_near_the_float_range(tmp_path):
    # the Casimir projection of O(3) averages data of 1e300 as it does data of 1
    from repblock.formats import parse_sdp

    (tmp_path / "g").write_text('{"compact": "orthogonal", "dimension": 3}\n')
    (tmp_path / "r").write_text('{"kind": "defining"}\n')
    blocks = []
    for scale in ("1", "1e300"):
        sdp = tmp_path / f"{scale}.sdp"
        sdp.write_text("3 1 real\n" + "".join(f"MATRIX 0 {i} {j} {scale}\n" for i in range(3)
                                               for j in range(i, 3))
                       + "".join(f"MATRIX 1 {i} {i} 1\n" for i in range(3)) + "B 1\n")
        out = tmp_path / f"b{scale}"
        assert main(["blockdiag", str(sdp), str(tmp_path / "g"), str(tmp_path / "r"),
                     "--symmetrize", "--seed", "1", "--out", str(out)]) == 0
        blocks.append(parse_sdp((out / "block_000.sdp").read_text()))
        assert not (out / "block_001.sdp").exists()
    for prob, scale in zip(blocks, (1.0, 1e300)):  # the average of C is tr(C) / 3 I
        assert prob.n == 1 and list(prob.b) == [1.0]
        np.testing.assert_allclose(prob.matrix(0), [[scale]], rtol=1e-15)
        np.testing.assert_allclose(prob.matrix(1), [[1.0]], rtol=1e-15)


def test_decompose_names_the_lie_generators_without_building_them(tmp_path, capsys,
                                                                   monkeypatch):
    # the projection note is formed only under -v, and counts d^2 generators
    import repblock.commutant
    import repblock.compact

    def refuse(handle):
        raise AssertionError("lie_basis built")

    for module in (repblock.compact, repblock.commutant):  # wherever it is bound
        monkeypatch.setattr(module, "lie_basis", refuse, raising=False)
    (tmp_path / "g").write_text('{"compact": "unitary", "dimension": 3}\n')
    (tmp_path / "r").write_text('{"kind": "defining"}\n')
    for flags in ([], ["-v"]):
        assert main(["decompose", str(tmp_path / "g"), str(tmp_path / "r"), *flags]) == 0
        notes = capsys.readouterr().err
        assert ("# decomposed in 1 attempt(s); projection: Casimir kernel, 9 Lie generators"
                in notes) == bool(flags)


def test_verify_trials_flag_retired_and_o3_named(tmp_path, capsys):
    # a compact group is checked on its Lie-algebra generators, so there is
    # no count of random elements to set; O(3) adds a reflection
    (tmp_path / "g").write_text('{"compact": "orthogonal", "dimension": 3}\n')
    (tmp_path / "r").write_text('{"kind": "power", "k": 2, "inner": {"kind": "defining"}}\n')
    basis = tmp_path / "u.basis"
    paths = [str(tmp_path / "g"), str(tmp_path / "r"), str(basis)]
    assert main(["decompose", *paths[:2], "--field", "real", "--emit-basis", str(basis)]) == 0
    capsys.readouterr()
    assert main(["verify", *paths, "--trials", "4"]) == 2
    assert "unrecognized arguments: --trials 4" in capsys.readouterr().err
    assert main(["verify", *paths]) == 0
    out = capsys.readouterr().out
    assert "n=9, field=real, 2 Lie-algebra elements and a reflection, tolerance" in out


def test_blockdiag_threads_flag_retired(s3_files, tmp_path, capsys):
    group, rep = s3_files
    sdp = _write_invariant_sdp(tmp_path, m=2, seed=31)
    assert main(["blockdiag", str(sdp), str(group), str(rep), "--threads", "4"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --threads 4" in captured.err
    assert captured.out == ""


def test_readme_lists_the_shared_flags_and_their_env_mirrors(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shared = re.search(r"Shared flags: (.*?)\.\s", readme, re.S).group(1)
    documented = {token.split()[0] for token in re.findall(r"`([^`]+)`", shared)}
    mirrors = []
    env = cli._env
    monkeypatch.setattr(cli, "_env", lambda name, *rest: mirrors.append(name) or env(name, *rest))
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    flags = [{a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"}
             for p in commands]
    assert documented == set.intersection(*flags)

    env_text = re.search(r"environment-variable mirror(.*?)explicit flags win", readme, re.S)
    assert set(re.findall(r"`REPBLOCK_(\w+)`", env_text.group(1))) == set(mirrors)
    # each mirror names a flag of some command
    assert all("--" + name.lower().replace("_", "-") in set.union(*flags) for name in mirrors)


def test_sample_group_unitary(capsys):
    assert main(["sample-group", "unitary:2", "1", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert "SAMPLE 0" in out
    assert "unitarity residual" in out
    resid = float(out.strip().rsplit(" ", 1)[-1])
    assert resid <= 1e-12


def test_sample_group_permutations(s3_files, capsys):
    group, _ = s3_files
    assert main(["sample-group", str(group), "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        assert sorted(json.loads(line)) == [0, 1, 2]


def test_sample_group_count_zero(s3_files, capsys):
    group, _ = s3_files
    assert main(["sample-group", str(group), "0"]) == 0
    assert capsys.readouterr().out == ""


def test_sample_group_structured(capsys):
    args = ["sample-group", "orthogonal:3", "2", "--seed", "3",
            "--format", "structured"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "sample-group"
    assert len(doc["samples"]) == 2
    assert doc["max_unitarity_residual"] <= 1e-12


def test_sample_group_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.group"
    bad.write_text("{")
    assert main(["sample-group", str(bad), "1"]) == 2


def test_sample_group_frequencies(s3_files, capsys):
    group, _ = s3_files
    assert main(["sample-group", str(group), "6000", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    counts = {}
    for line in lines:
        counts[tuple(json.loads(line))] = counts.get(tuple(json.loads(line)), 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / 6000 - 1 / 6) < 0.03


def test_env_overrides(s3_files, capsys, monkeypatch):
    group, rep = s3_files
    main(["decompose", str(group), str(rep), "--seed", "42", "--format", "structured"])
    flagged = capsys.readouterr().out

    monkeypatch.setenv("REPBLOCK_SEED", "42")
    monkeypatch.setenv("REPBLOCK_FORMAT", "structured")
    main(["decompose", str(group), str(rep)])
    env_driven = capsys.readouterr().out
    assert flagged == env_driven

    # explicit flag wins over the environment
    monkeypatch.setenv("REPBLOCK_SEED", "43")
    main(["decompose", str(group), str(rep), "--seed", "42"])
    assert json.loads(capsys.readouterr().out)["seed"] == 42


def test_bad_env_value(s3_files, capsys, monkeypatch):
    group, rep = s3_files
    monkeypatch.setenv("REPBLOCK_SEED", "not-an-int")
    assert main(["decompose", str(group), str(rep)]) == 2


@pytest.mark.parametrize("name, value", [
    ("SYMMETRIZE", "yes"), ("SYMMETRIZE", "2"), ("FORMAT", "xml"),
    ("FORMAT", "structued"), ("FIELD", "quaternion"), ("SEED", "-1"),
])
def test_bad_env_mirror_exits_2_naming_it(s3_files, capsys, monkeypatch, name, value):
    # argparse checks no default against its flag's choices
    group, rep = s3_files
    monkeypatch.setenv("REPBLOCK_" + name, value)
    assert main(["decompose", str(group), str(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: invalid REPBLOCK_{name}={value!r}")
    assert captured.out == ""


def test_negative_seed_flag_exits_2_naming_it(s3_files, capsys):
    # numpy takes no negative seed; the flag is refused before it is asked
    group, rep = s3_files
    assert main(["decompose", str(group), str(rep), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "argument --seed: invalid non_negative value: '-1'" in captured.err
    assert captured.out == ""


def test_usage_error_is_exit_2(capsys):
    assert main(["decompose"]) == 2
    assert main(["no-such-command"]) == 2


def _compact_invariant_sdp(tmp_path):
    from repblock import conjugate, defining_rep, tensor, unitary_group

    rep = tensor(defining_rep(unitary_group(2)), conjugate(defining_rep(unitary_group(2))))
    rng = np.random.default_rng(17)
    prob = SdpProblem(c=sample_commutant(rep, rng=rng).matrix,
                      a=[sample_commutant(rep, rng=rng).matrix], b=[2.0], field="complex")
    path = tmp_path / "compact.sdp"
    path.write_text(format_sdp(prob))
    return path


@pytest.mark.parametrize("case,note", [
    ("orbital", "# extraction: orbital coordinates, 2 orbitals"),
    ("compact", "# extraction: dense conjugation, 2 products"),
])
def test_blockdiag_verbose_names_the_extraction(tmp_path, capsys, case, note):
    (tmp_path / "g").write_text(S3_GROUP if case == "orbital" else U2_GROUP)
    (tmp_path / "r").write_text(NATURAL if case == "orbital" else U2_ADJOINT)
    sdp = _write_invariant_sdp(tmp_path, m=2) if case == "orbital" else \
        _compact_invariant_sdp(tmp_path)
    args = ["blockdiag", str(sdp), str(tmp_path / "g"), str(tmp_path / "r"), "--seed", "4",
            "--symmetrize", "--out", str(tmp_path / "b"),
            "--format", "structured"]
    outs = []
    for extra in ([], [], ["-v"]):
        assert main(args + extra) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert (note in captured.err) == bool(extra)
    assert outs[0] == outs[1] == outs[2]


C3_GROUP = '{"degree": 3, "generators": [[1, 2, 0]]}\n'


@pytest.mark.parametrize("command", ["decompose", "blockdiag"])
@pytest.mark.parametrize("group_text,field,note", [
    # S3 natural: both orbitals are self-paired, and both irreps of real type
    (S3_GROUP, "complex", "# arithmetic: real: every component of real type, "
                          "2 self-paired orbitals"),
    # C3 natural: 3 orbitals, of which only the diagonal is self-paired
    (C3_GROUP, "complex", "# arithmetic: complex"),
    (S3_GROUP, "real", "# arithmetic: real"),
])
def test_verbose_names_the_arithmetic(tmp_path, capsys, command, group_text, field, note):
    (tmp_path / "g").write_text(group_text)
    (tmp_path / "r").write_text(NATURAL)
    files = [str(tmp_path / "g"), str(tmp_path / "r")]
    if command == "blockdiag":
        c = np.eye(3) if field == "real" else np.eye(3, dtype=complex)
        sdp = tmp_path / "eye.sdp"
        sdp.write_text(format_sdp(SdpProblem(c=c, a=[np.ones_like(c)], b=[1.0], field=field)))
        files = [str(sdp), *files, "--out", str(tmp_path / "b")]
    args = [command, *files, "--field", field, "--seed", "6", "--format", "structured"]
    outs = []
    for extra in ([], ["-v"]):
        assert main(args + extra) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        lines = [line for line in captured.err.splitlines() if "arithmetic" in line]
        assert lines == ([note] if extra else [])
    assert outs[0] == outs[1]


def test_blockdiag_complex_type_components_exit4(tmp_path, capsys):
    # C3 on two regular orbits over R has a complex-type component of
    # multiplicity 2: the data take the dense path and, though exactly
    # invariant, do not fit the repeated-block pattern
    from test_sdp import c3_two_orbit_data

    (tmp_path / "g").write_text('{"degree": 6, "generators": [[1, 2, 0, 4, 5, 3]]}\n')
    (tmp_path / "r").write_text(NATURAL)
    sdp = tmp_path / "c3.sdp"
    sdp.write_text(format_sdp(SdpProblem(c=c3_two_orbit_data(), a=[], b=[], field="real")))
    assert main(["blockdiag", str(sdp), str(tmp_path / "g"), str(tmp_path / "r"),
                 "--field", "real", "--out", str(tmp_path / "b"), "-v"]) == 4
    err = capsys.readouterr().err
    assert "C does not fit the invariant block pattern" in err
    assert "# extraction" not in err
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_decompose_planted_orbital_label_exit3(s3_files, monkeypatch, capsys):
    from test_commutant import _plant_a_wrong_label
    _plant_a_wrong_label(monkeypatch)
    group, rep = s3_files
    assert main(["decompose", str(group), str(rep)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("decomposition failed: orbital labels are not invariant "
                            "under the generators\n")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# the stabilizer chain is built only where it is read
# ---------------------------------------------------------------------------

@pytest.fixture
def s4xc2_regular_files(tmp_path):
    """SDP, group and rep files of S4 x C2 in its left-regular action (n = 48),
    natural over C, with invariant data; every irrep is of real type."""
    from conftest import cyclic, regular_group
    from test_real_route import direct_product

    group = regular_group(direct_product(symmetric(4), cyclic(2)))
    rep = natural_perm_rep(group, "complex")
    rng = np.random.default_rng(12)
    prob = SdpProblem(c=sample_commutant(rep, rng=rng).matrix, a=[np.eye(48)], b=[1.0],
                      field="complex")
    (tmp_path / "x.sdp").write_text(format_sdp(prob))
    (tmp_path / "g").write_text(json.dumps({"degree": 48, "generators": [
        list(p.images) for p in group.generators]}))
    (tmp_path / "r").write_text(NATURAL)
    return [str(tmp_path / name) for name in ("x.sdp", "g", "r")]


def test_blockdiag_pipeline_builds_no_stabilizer_chain(s4xc2_regular_files, chain_builds):
    # an index action reads only the generators' index arrays, from the
    # orbitals to the blocks
    from repblock import block_diagonalize_sdp, decompose
    from repblock.formats import parse_group_spec, parse_rep_spec, parse_sdp

    sdp, group, rep = (Path(p).read_text() for p in s4xc2_regular_files)
    prob = parse_sdp(sdp)
    rep = parse_rep_spec(rep, parse_group_spec(group), prob.field)
    d = decompose(rep, rng=np.random.default_rng(5))
    blocked = block_diagonalize_sdp(d, prob, rng=np.random.default_rng(6))
    for comp in blocked.components:
        format_sdp(SdpProblem(c=comp.c_block, a=comp.a_blocks, b=blocked.b,
                              field=blocked.field))
    assert d.arithmetic.startswith("real")
    assert blocked.extraction.startswith("orbital coordinates")
    assert chain_builds == []
    assert rep.group.order() == 48 and chain_builds == [48]


def test_blockdiag_builds_the_chain_for_its_verbose_label_only(s4xc2_regular_files, tmp_path,
                                                               chain_builds, capsys):
    args = ["blockdiag", *s4xc2_regular_files, "--seed", "2", "--out", str(tmp_path / "b"),
            "--format", "structured"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert chain_builds == [] and quiet.err == ""
    assert main(args + ["-v"]) == 0
    loud = capsys.readouterr()
    assert chain_builds == [48]
    assert loud.err.splitlines()[0] == ("# permutation group, degree 48, order 48, base length 1, "
                                        "3 strong generators; SDP n=48, m=1, field complex")
    assert loud.out == quiet.out


def test_sample_group_refuses_a_count_beyond_memory(s3_files, capsys, monkeypatch):
    # refused by the physical-memory rule of one representation matrix,
    # before the first draw
    from repblock.compact import CompactGroupHandle

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(CompactGroupHandle, "sample", no_draw)
    monkeypatch.setattr(cli.PermutationGroup, "sample", no_draw)
    group, _ = s3_files
    for spec in ("unitary:2", str(group)):
        assert main(["sample-group", spec, "100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "count 100000000000 is too large" in captured.err
        assert "physical memory is" in captured.err


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_sample_group_charges_at_least_the_traced_peak(s3_files, fmt):
    # the per-sample size the memory rule charges covers what the command
    # holds; output goes to a file, which the process does not hold
    import contextlib
    import os
    import tracemalloc

    from repblock.formats import parse_group_spec, parse_inline_group

    group, _ = s3_files
    count = 20000
    for spec, handle in [("unitary:2", parse_inline_group("unitary:2")),
                         (str(group), parse_group_spec(S3_GROUP))]:
        args = ["sample-group", spec, str(count), "--format", fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(args[:2] + ["3"] + args[3:]) == 0  # imports and caches, once
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert cli._sample_size(handle, fmt == "structured") >= peak / count, spec


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_sample_group_refuses_a_hundredth_of_memory_in_samples(s3_files, capsys, monkeypatch, fmt):
    import os
    import time

    from repblock.compact import CompactGroupHandle

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(CompactGroupHandle, "sample", no_draw)
    monkeypatch.setattr(cli.PermutationGroup, "sample", no_draw)
    count = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 100
    group, _ = s3_files
    for spec in ("unitary:2", str(group)):
        start = time.perf_counter()
        assert main(["sample-group", spec, str(count), "--format", fmt]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"count {count} is too large" in captured.err


def test_verbose_keeps_the_restart_reasons(s3_files, capsys, monkeypatch):
    import importlib

    from repblock import ResampleNeeded

    dec = importlib.import_module("repblock.decompose")
    once = dec._decompose_once

    def first_fails(rep, cfg, streams, attempt):
        if attempt == 0:
            raise ResampleNeeded("planted genericity failure")
        return once(rep, cfg, streams, attempt)

    monkeypatch.setattr(dec, "_decompose_once", first_fails)
    group, rep = s3_files
    args = ["decompose", str(group), str(rep), "--seed", "3", "--format", "structured"]
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert main(args + ["-v"]) == 0
    loud = capsys.readouterr()
    assert quiet.err == "" and loud.out == quiet.out
    assert "# decomposed in 2 attempt(s); projection: orbital averaging, 2 orbitals" in loud.err
    assert "# restarted after attempt 1: planted genericity failure\n" in loud.err
    assert "planted" not in quiet.out
