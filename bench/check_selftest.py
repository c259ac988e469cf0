"""Self-test of the benchmark's checks: wrong answers must be caught.

    python3 bench/check_selftest.py          (or: python3 -m pytest bench/check_selftest.py)

Two answers are built here by hand, without the program: S3 acting on
C^3 (+) C^3, where both the trivial and the 2-dimensional irrep occur
twice, and O(3) on R^3 (x) R^3.  Each is written out as the program would
write it (basis, block files, manifest) and must pass ``check_attempt``;
every test then plants one fault and asserts that the job is reported
as failed.  One more test runs a small job both through ``job.py`` and
through ``repblock blockdiag --out``, and asserts that the two write the
same files, so that the benchmark's copy of the writer cannot drift from
the command's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import Job, format_sdp, perm_matrix, tensor_permutation  # noqa: E402


def _write_answer(root, job, u, comps, blocks):
    """Write U, one block file per component and the manifest."""
    root = Path(root)
    np.save(root / "U.npy", u)
    outdir = root / "blocks"
    outdir.mkdir()
    meta = []
    for k, ((d, m, _), mats) in enumerate(zip(comps, blocks)):
        name = f"block_{k:03d}.sdp"
        (outdir / name).write_text(format_sdp(mats, job.b, job.field))
        meta.append({"file": name, "dimension": d, "multiplicity": m, "size": m,
                     "field": job.field, "residual": 0.0})
    manifest = {"schema_version": 1, "field": job.field, "n": u.shape[0],
                "m": len(job.mats) - 1, "b": [float(v) for v in job.b],
                "worst_residual": 0.0, "blocks": meta}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return {"name": job.name, "tag": "selftest", "ok": True, "U": str(root / "U.npy"),
            "blocks": str(outdir), "components": [list(c) for c in comps]}


def _answer(u, comps, field, rng, m=2):
    """Random symmetric blocks and the invariant data they reassemble to."""
    blocks = []
    for d, mult, _ in comps:
        mats = []
        for _ in range(m + 1):
            a = rng.standard_normal((mult, mult))
            mats.append((a + a.T) / 2)
        blocks.append(mats)
    n = u.shape[0]
    data = []
    for k in range(m + 1):
        xhat = np.zeros((n, n), dtype=u.dtype)
        lo = 0
        for (d, mult, _), mats in zip(comps, blocks):
            xhat[lo:lo + d * mult, lo:lo + d * mult] = np.kron(mats[k], np.eye(d))
            lo += d * mult
        x = u.conj().T @ xhat @ u
        data.append((x + x.conj().T) / 2 if field == "complex" else x.real)
    return blocks, data


def s3_twice(root):
    """S3 on C^3 (+) C^3: (D, M) = (1, 2) and (2, 2)."""
    t = np.ones(3) / np.sqrt(3)
    s1 = np.array([1, -1, 0]) / np.sqrt(2)
    s2 = np.array([1, 1, -2]) / np.sqrt(6)
    z = np.zeros(3)
    rows = [np.r_[s1, z], np.r_[s2, z], np.r_[z, s1], np.r_[z, s2],
            np.r_[t, z], np.r_[z, t]]
    u = np.array(rows, dtype=complex)
    comps = [(2, 2, "not_applicable"), (1, 2, "not_applicable")]
    blocks, data = _answer(u, comps, "complex", np.random.default_rng(1))
    gens = [perm_matrix(p) for p in ([1, 0, 2], [1, 2, 0])]
    images = [np.kron(np.eye(2), g).astype(complex) for g in gens]
    job = Job(name="s3-twice", field="complex", mats=data, b=np.array([0.5, -1.0]),
              group_spec={}, rep_spec={},
              expect={"kind": "exact", "dm": [[1, 2], [2, 2]]}, gen_images=images)
    return job, _write_answer(root, job, u, comps, blocks)


def o3_square(root):
    """O(3) on R^3 (x) R^3: trace (1), antisymmetric (3), symmetric traceless (5)."""
    omega = np.eye(3).reshape(9)
    h = tensor_permutation(3, 2, (1, 0)) + np.outer(omega, omega)
    w, v = np.linalg.eigh(h)           # eigenvalues -1 (x3), 1 (x5), 4 (x1)
    order = np.r_[np.where(np.isclose(w, 1))[0], np.where(np.isclose(w, -1))[0],
                  np.where(np.isclose(w, 4))[0]]
    u = v[:, order].T
    comps = [(5, 1, "real"), (3, 1, "real"), (1, 1, "real")]
    blocks, data = _answer(u, comps, "real", np.random.default_rng(2))
    job = Job(name="o3-square", field="real", mats=data, b=np.array([1.0, 2.0]),
              group_spec={}, rep_spec={},
              expect={"kind": "exact", "dm": [[1, 1], [3, 1], [5, 1]], "real_type": "real"},
              compact=("orthogonal", 3, 2))
    return job, _write_answer(root, job, u, comps, blocks)


CASES = (s3_twice, o3_square)


def _failures(job, rec):
    return checks.check_attempt(job, rec, np.random.default_rng(0))


def _each_case():
    for make in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            yield make(tmp)


def test_correct_answers_pass():
    for job, rec in _each_case():
        assert _failures(job, rec) == [], job.name


def test_rows_swapped_across_components():
    for job, rec in _each_case():
        u = np.load(rec["U"])
        u[[0, -1]] = u[[-1, 0]]
        np.save(rec["U"], u)
        assert _failures(job, rec), job.name


def test_basis_not_unitary():
    for job, rec in _each_case():
        u = np.load(rec["U"])
        u[1] *= 1 + 1e-6
        np.save(rec["U"], u)
        assert _failures(job, rec), job.name


def test_block_off_by_1e_6():
    for job, rec in _each_case():
        path = Path(rec["blocks"]) / "block_000.sdp"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("MATRIX 1 "):
                parts = line.split()
                parts[4] = repr(float(parts[4]) + 1e-6)
                lines[i] = " ".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        assert _failures(job, rec), job.name


def test_wrong_structure():
    for job, rec in _each_case():
        (d, m), rest = job.expect["dm"][-1], job.expect["dm"][:-1]
        job.expect = {**job.expect, "dm": rest + [[d + 1, m]]}
        assert _failures(job, rec), job.name


def test_wrong_real_type():
    with tempfile.TemporaryDirectory() as tmp:
        job, rec = o3_square(tmp)
        rec["components"][0][2] = "complex"
        assert _failures(job, rec)


def test_regular_structure():
    comps = [(1, 1, "x"), (2, 2, "x")]
    assert not checks.check_structure({"kind": "regular", "order": 5, "classes": 2}, comps)
    assert checks.check_structure({"kind": "regular", "order": 6, "classes": 2}, comps)
    assert checks.check_structure({"kind": "regular", "order": 5, "classes": 3}, comps)
    assert checks.check_structure({"kind": "regular", "order": 5, "classes": 2},
                                  [(1, 1, "x"), (2, 1, "x"), (1, 2, "x")])


def test_nan_in_manifest():
    for job, rec in _each_case():
        path = Path(rec["blocks"]) / "manifest.json"
        doc = json.loads(path.read_text())
        doc["worst_residual"] = float("nan")
        path.write_text(json.dumps(doc))
        assert _failures(job, rec), job.name


def test_missing_block_file():
    for job, rec in _each_case():
        (Path(rec["blocks"]) / "block_001.sdp").unlink()
        assert _failures(job, rec), job.name


def test_failed_job():
    for job, rec in _each_case():
        assert _failures(job, {**rec, "ok": False, "error": "DecompositionError"})


def test_written_blocks_match_cli():
    sys.path.insert(0, str(HERE.parent / "src"))
    import job as measured  # the measured process's functions; needs repblock
    from repblock import cli

    n = 4
    small = Job(name="s4-natural", field="real", mats=[np.ones((n, n)), np.eye(n)],
                b=np.array([1.0]), group_spec={"degree": n, "generators": [[1, 0, 2, 3],
                                                                           [1, 2, 3, 0]]},
                rep_spec={"kind": "natural"})
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        desc = small.write(root, seed=3)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["blockdiag", desc["sdp"], desc["group"], desc["rep"],
                             "--seed", "3", "--out", str(root / "cli")])
        assert code == 0, code
        prob, rep = measured.set_up(desc, measured.nullcontext_span)
        measured.solve(desc, prob, rep, root / "job", measured.nullcontext_span)
        files = sorted(f.name for f in (root / "cli").iterdir())
        assert files == sorted(f.name for f in (root / "job").iterdir()), files
        assert len(files) == 3, files       # two blocks and the manifest
        for name in files:
            assert (root / "cli" / name).read_bytes() == (root / "job" / name).read_bytes(), name


def main():
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    bad = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok      {name}")
        except AssertionError as exc:
            bad += 1
            print(f"FAILED  {name} {exc}")
    print(f"{len(tests) - bad}/{len(tests)} self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
