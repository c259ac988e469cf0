"""Checks of the program's output, computed apart from the program.

Nothing here imports ``repblock``.  The expected (D, M) structure comes
from representation theory, the group images from the benchmark's own
permutation matrices or Haar samples, the block files are read back with
a parser written here, and the blocks are reassembled with ``np.kron``.
Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The program's output agrees with the data to 1e-10 relative or better
# (the regular job is the loosest, its harmonized copies match to ~1e-10).
# The tolerance is the program's own verification tolerance for finite
# groups, and sits well below the smallest fault the self-test plants (a
# block entry off by 1e-6).
TOL = 1e-8
HAAR_SAMPLES = 4


def check_structure(expect, components) -> list:
    dm = sorted((d, m) for d, m, _ in components)
    out = []
    if expect["kind"] == "regular":
        if any(d != m for d, m in dm):
            out.append(f"regular representation with D != M: {dm}")
        if sum(d * d for d, _ in dm) != expect["order"]:
            out.append(f"sum of D^2 is {sum(d * d for d, _ in dm)}, "
                       f"not the group order {expect['order']}")
        if len(dm) != expect["classes"]:
            out.append(f"{len(dm)} components for {expect['classes']} conjugacy classes")
    else:
        want = sorted(tuple(x) for x in expect["dm"])
        if dm != want:
            out.append(f"(D, M) = {dm}, expected {want}")
    rt = expect.get("real_type")
    if rt is not None and any(t != rt for _, _, t in components):
        out.append(f"real types {[t for _, _, t in components]}, expected all {rt}")
    return out


def check_unitary(u) -> list:
    n = u.shape[0]
    if u.shape != (n, n):
        return [f"basis has shape {u.shape}"]
    resid = float(np.abs(u @ u.conj().T - np.eye(n)).max())
    if not resid <= TOL:
        return [f"basis is not unitary (max residual {resid:.3e})"]
    return []


def _offsets(components):
    return np.cumsum([0] + [d * m for d, m, _ in components])


def check_block_pattern(u, components, images) -> list:
    """U rho U^dag: zero off the components, M equal D x D blocks on each."""
    off = _offsets(components)
    if off[-1] != u.shape[0]:
        return [f"components cover {off[-1]} of {u.shape[0]} dimensions"]
    worst_leak = worst_copy = 0.0
    for img in images:
        b = u @ img @ u.conj().T
        scale = float(np.abs(img).max())
        rest = b.copy()
        for (d, m, _), lo, hi in zip(components, off[:-1], off[1:]):
            sub = b[lo:hi, lo:hi].reshape(m, d, m, d)
            rest[lo:hi, lo:hi] = 0.0
            diag = np.einsum("aiaj->aij", sub)
            want = np.zeros_like(sub)
            for a in range(m):
                want[a, :, a, :] = diag.mean(axis=0)
            worst_copy = max(worst_copy, float(np.abs(sub - want).max()) / scale)
        worst_leak = max(worst_leak, float(np.abs(rest).max()) / scale)
    out = []
    if not worst_leak <= TOL:
        out.append(f"U rho U^dag leaks {worst_leak:.3e} off the components")
    if not worst_copy <= TOL:
        out.append(f"U rho U^dag copies differ by {worst_copy:.3e}")
    return out


def haar(kind, d, rng):
    """Haar-random unitary or orthogonal d x d matrix (phase-corrected QR)."""
    if kind == "unitary":
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    else:
        z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def compact_images(kind, d, k, rng, count=HAAR_SAMPLES):
    out = []
    for _ in range(count):
        g = haar(kind, d, rng)
        img = g
        for _ in range(k - 1):
            img = np.kron(img, g)
        out.append(img)
    return out


# ---------------------------------------------------------------------------
# reading the output files back
# ---------------------------------------------------------------------------

class OutputError(ValueError):
    pass


def parse_sdp_file(text):
    """Read the SDP text format; returns (field, [C, A_1, ...], b)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [p for p in lines if p]
    if not lines or len(lines[0]) != 3 or lines[0][2] not in ("real", "complex"):
        raise OutputError("bad header")
    n, m, field = int(lines[0][0]), int(lines[0][1]), lines[0][2]
    mats = np.zeros((m + 1, n, n), dtype=complex if field == "complex" else float)
    b = None
    width = 6 if field == "complex" else 5
    for parts in lines[1:]:
        if parts[0] == "MATRIX" and len(parts) == width:
            k, i, j = (int(x) for x in parts[1:4])
            v = float(parts[4]) + (1j * float(parts[5]) if field == "complex" else 0)
            if not (0 <= k <= m and 0 <= i <= j < n) or not np.isfinite(v):
                raise OutputError(f"bad entry {' '.join(parts)}")
            mats[k, i, j] = v
            mats[k, j, i] = np.conj(v)
        elif parts[0] == "B" and b is None and len(parts) == m + 1:
            b = np.array([float(x) for x in parts[1:]])
        else:
            raise OutputError(f"bad record {' '.join(parts[:2])}")
    if b is None:
        raise OutputError("missing B line")
    return field, list(mats), b


def _no_constants(name):
    raise OutputError(f"manifest holds {name}, which is not JSON")


def read_outputs(blocks_dir, components, field, m, b):
    """Strict manifest, block files parsed back; returns per-component blocks."""
    root = Path(blocks_dir)
    manifest = json.loads((root / "manifest.json").read_text(), parse_constant=_no_constants)
    metas = manifest["blocks"]
    if len(metas) != len(components):
        raise OutputError(f"manifest lists {len(metas)} blocks for {len(components)} components")
    if not manifest["worst_residual"] <= 1e-6:
        raise OutputError(f"manifest worst residual {manifest['worst_residual']}")
    blocks = []
    for meta, (d, mult, _) in zip(metas, components):
        if (meta["dimension"], meta["multiplicity"]) != (d, mult):
            raise OutputError(f"manifest entry {meta['file']} has D, M = "
                              f"{meta['dimension']}, {meta['multiplicity']}, expected {d}, {mult}")
        bfield, mats, bb = parse_sdp_file((root / meta["file"]).read_text())
        if bfield != field or len(mats) != m + 1 or mats[0].shape != (mult, mult):
            raise OutputError(f"{meta['file']} has the wrong shape or field")
        if not np.array_equal(bb, b) or manifest["b"] != [float(x) for x in b]:
            raise OutputError(f"{meta['file']}: b differs from the input")
        blocks.append(mats)
    return blocks


def check_reassembly(u, components, blocks, target) -> list:
    """U^dag (sum_i xi_i (x) I_D) U must equal each input matrix."""
    n = u.shape[0]
    worst = 0.0
    for k, want in enumerate(target):
        xhat = np.zeros((n, n), dtype=np.result_type(u.dtype, blocks[0][k].dtype))
        lo = 0
        for (d, m, _), mats in zip(components, blocks):
            xhat[lo:lo + d * m, lo:lo + d * m] = np.kron(mats[k], np.eye(d))
            lo += d * m
        got = u.conj().T @ xhat @ u
        scale = max(1.0, float(np.abs(want).max()))
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    if not worst <= TOL:
        return [f"blocks reassemble to the data with error {worst:.3e}"]
    return []


def check_attempt(job, rec, rng) -> list:
    """Every check of one job's output; an empty list means it passed."""
    if not rec.get("ok"):
        return [f"job failed: {rec.get('error')}"]
    comps = [tuple(c) for c in rec["components"]]
    u = np.load(rec["U"])
    out = check_structure(job.expect, comps) + check_unitary(u)
    if job.compact is not None:
        kind, d, k = job.compact
        images = compact_images(kind, d, k, rng)
    else:
        images = job.gen_images
    out += check_block_pattern(u, comps, images)
    if out:
        return out
    try:
        blocks = read_outputs(rec["blocks"], comps, job.field, len(job.mats) - 1, job.b)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output files: {exc}"]
    return check_reassembly(u, comps, blocks, job.target or job.mats)
