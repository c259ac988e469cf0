"""Shared fixtures and independent brute-force oracles.

Everything here deliberately avoids the stabilizer chain: closures are
computed by breadth-first multiplication of image tuples, and matrix
images ride along as explicit products, so these helpers can serve as
oracles for the chain-based code under test.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repblock import Permutation, PermutationGroup, natural_perm_rep


def compose_tuples(p, q):
    return tuple(p[x] for x in q)


def closure(degree, gen_image_lists):
    """All group elements as image tuples, by brute-force BFS closure."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gen_image_lists]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose_tuples(g, p)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def closure_with_images(degree, gen_image_lists, gen_matrices):
    """Map every group element to its matrix image, chain-free.

    BFS closure where each new element's matrix is the product of the
    generator matrix with the parent's matrix; inconsistent assignments
    (images that do not define a homomorphism) raise.
    """
    ident = tuple(range(degree))
    n = gen_matrices[0].shape[0]
    table = {ident: np.eye(n, dtype=gen_matrices[0].dtype)}
    frontier = [ident]
    gens = [(tuple(g), np.asarray(m)) for g, m in zip(gen_image_lists, gen_matrices)]
    while frontier:
        new = []
        for p in frontier:
            for g, mg in gens:
                q = compose_tuples(g, p)
                mq = mg @ table[p]
                if q in table:
                    assert np.linalg.norm(table[q] - mq) < 1e-10, \
                        "generator matrices are not a homomorphism"
                else:
                    table[q] = mq
                    new.append(q)
        frontier = new
    return table


def group_of(degree, image_lists):
    return PermutationGroup(degree, [Permutation(p) for p in image_lists])


def cyclic(n):
    return group_of(n, [list(range(1, n)) + [0]])


def symmetric(n):
    if n == 1:
        return group_of(1, [])
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return group_of(n, [swap, cycle])


def alternating4():
    return group_of(4, [[1, 2, 0, 3], [1, 0, 3, 2]])


def klein4():
    return group_of(4, [[1, 0, 3, 2], [2, 3, 0, 1]])


def dihedral(n):
    rot = list(range(1, n)) + [0]
    refl = list(reversed(range(n)))
    return group_of(n, [rot, refl])


# --- quaternion group -------------------------------------------------------
#
# Unit quaternions {+-1, +-i, +-j, +-k} indexed as axis*2 + (0 if positive
# else 1), axes ordered (1, i, j, k).

_QMUL = {}  # (axis_a, axis_b) -> (sign, axis)
for a in range(4):
    _QMUL[(0, a)] = (1, a)
    _QMUL[(a, 0)] = (1, a)
for a in range(1, 4):
    _QMUL[(a, a)] = (-1, 0)
_QMUL[(1, 2)] = (1, 3)   # i j = k
_QMUL[(2, 1)] = (-1, 3)
_QMUL[(2, 3)] = (1, 1)   # j k = i
_QMUL[(3, 2)] = (-1, 1)
_QMUL[(3, 1)] = (1, 2)   # k i = j
_QMUL[(1, 3)] = (-1, 2)


def _qmul(x, y):
    ax, sx = x // 2, 1 - 2 * (x % 2)
    ay, sy = y // 2, 1 - 2 * (y % 2)
    s, a = _QMUL[(ax, ay)]
    s *= sx * sy
    return a * 2 + (0 if s > 0 else 1)


def _qperm(x):
    """Left multiplication by unit x as a permutation of the 8 units."""
    return [_qmul(x, y) for y in range(8)]


def _qmatrix(x):
    """Left multiplication by unit x on the quaternion algebra, basis (1,i,j,k)."""
    m = np.zeros((4, 4))
    ax, sx = x // 2, 1 - 2 * (x % 2)
    for c in range(4):
        s, a = _QMUL[(ax, c)]
        m[a, c] = s * sx
    return m


def quaternion8():
    """(group, generator matrices): Q8 acting on itself, with the standard
    4x4 real matrices of left multiplication by i and j as generator images."""
    gens = [_qperm(2), _qperm(4)]  # left multiplication by i and by j
    mats = [_qmatrix(2), _qmatrix(4)]
    return group_of(8, gens), mats


# --- regular representations ------------------------------------------------

def regular_group(group: PermutationGroup):
    """The left-regular permutation action of ``group`` on its own elements."""
    elems = sorted(p.images for p in group.elements())
    index = {e: k for k, e in enumerate(elems)}
    gens = []
    for g in group.generators:
        gens.append([index[compose_tuples(g.images, e)] for e in elems])
    return group_of(len(elems), gens)


def regular_rep(group: PermutationGroup, field="complex"):
    return natural_perm_rep(regular_group(group), field)


def brute_average(elements, matrices_by_element, x):
    """Reynolds average of x over explicitly enumerated elements."""
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for e in elements:
        u = matrices_by_element[e]
        acc = acc + u @ x @ u.conj().T
    return acc / len(elements)


def perm_matrix(images, dtype=float):
    n = len(images)
    m = np.zeros((n, n), dtype=dtype)
    for k in range(n):
        m[images[k], k] = 1
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chain_builds(monkeypatch):
    """The degree of every stabilizer chain built from here on, in order."""
    from repblock import perm

    built, build = [], perm._build_chain

    def counted(degree, gen_words):
        built.append(degree)
        return build(degree, gen_words)

    monkeypatch.setattr(perm, "_build_chain", counted)
    return built


# --- reference stabilizer chain -------------------------------------------
#
# An earlier Schreier-Sims builder, kept as an independent route to the
# canonical base, the orbits and the order.  When a new strong generator
# moves a point below an existing base point it re-roots that level and
# folds the deeper levels into it; every visit to a level rebuilds its
# transversal and re-sifts every Schreier generator, inverting transversal
# elements at each use.  Same (images, word) representation and word DAG as
# repblock.perm.

def reference_build_chain(degree, gen_words):
    """Levels of the chain; each has .point, .gens and .transversal
    (orbit point -> (images, word))."""
    from types import SimpleNamespace

    from repblock.perm import _min_moved, _word_inv, _word_mul

    ident = tuple(range(degree))
    levels = []

    def new_level(point):
        return SimpleNamespace(point=point, gens=[], transversal={})

    def mul(a, b):
        return tuple(a[0][x] for x in b[0]), _word_mul(a[1], b[1])

    def inv(a):
        q = [0] * degree
        for i, j in enumerate(a[0]):
            q[j] = i
        return tuple(q), _word_inv(a[1])

    def rebuild_transversal(lvl):
        t = {lvl.point: (ident, None)}
        frontier = [lvl.point]
        while frontier:
            grown = []
            for a in frontier:
                for s in lvl.gens:
                    b = s[0][a]
                    if b not in t:
                        t[b] = mul(s, t[a])
                        grown.append(b)
            frontier = sorted(set(grown))
        lvl.transversal = t

    def sift(wp, start):
        cur = wp
        for lvl in levels[start:]:
            b = cur[0][lvl.point]
            if b == lvl.point:
                continue
            if b not in lvl.transversal:
                return cur
            cur = mul(inv(lvl.transversal[b]), cur)
        return cur

    def assign(wp, start):
        p = _min_moved(wp[0])
        l = start
        while True:
            if l == len(levels):
                lvl = new_level(p)
                lvl.gens.append(wp)
                levels.append(lvl)
                return l
            lvl = levels[l]
            if p < lvl.point:
                merged = list(lvl.gens)
                for deeper in levels[l + 1:]:
                    merged.extend(deeper.gens)
                merged.append(wp)
                del levels[l:]
                nl = new_level(p)
                nl.gens = merged
                levels.append(nl)
                return l
            lvl.gens.append(wp)
            if wp[0][lvl.point] != lvl.point:
                return l
            l += 1

    for wp in gen_words:
        if wp[0] != ident:
            assign(wp, 0)
    l = len(levels) - 1
    while l >= 0:
        lvl = levels[l]
        rebuild_transversal(lvl)
        residue = None
        for a in sorted(lvl.transversal):
            ua = lvl.transversal[a]
            for s in lvl.gens:
                sg = mul(inv(lvl.transversal[s[0][a]]), mul(s, ua))
                if sg[0] == ident:
                    continue
                res = sift(sg, l + 1)
                if res[0] != ident:
                    residue = res
                    break
            if residue is not None:
                break
        if residue is not None:
            l = assign(residue, l + 1)
        else:
            l -= 1
    return levels


# --- reference parsers ------------------------------------------------------
#
# The line-by-line SDP reader and entry-by-entry image reader that the
# batched parsers in repblock.formats replaced.  They define the arrays the
# batched parsers must return and, for malformed input, the line and message
# of the error.  The SDP reader returns the dense matrices themselves, as
# the dense parser built them, with (j, i) set to conj(v) for every listed
# (i, j): they are not passed through SdpProblem, which keeps only the
# nonzero upper triangle.

def reference_parse_sdp(text):
    import math
    from types import SimpleNamespace

    from repblock.formats import SpecFormatError

    header = None
    entries = {}
    bvec = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3:
                raise SpecFormatError("header must be 'n m field'", line=lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise SpecFormatError("header sizes must be integers", line=lineno)
            field = parts[2]
            if n < 1 or m < 0 or field not in ("real", "complex"):
                raise SpecFormatError("header must be 'n m field' with n >= 1, m >= 0, "
                                      "field in {real, complex}", line=lineno)
            header = (n, m, field)
            continue
        n, m, field = header
        if parts[0] == "MATRIX":
            want = 6 if field == "complex" else 5
            if len(parts) != want:
                raise SpecFormatError(
                    f"MATRIX line needs {want - 1} fields for field {field}", line=lineno)
            try:
                k, i, j = int(parts[1]), int(parts[2]), int(parts[3])
                re = float(parts[4])
                im = float(parts[5]) if field == "complex" else 0.0
            except ValueError:
                raise SpecFormatError("malformed MATRIX entry", line=lineno)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SpecFormatError("MATRIX value is not finite", line=lineno)
            if not 0 <= k <= m:
                raise SpecFormatError(f"matrix index {k} out of range 0..{m}", line=lineno)
            if not (0 <= i < n and 0 <= j < n):
                raise SpecFormatError("entry indices out of range", line=lineno)
            if i > j:
                raise SpecFormatError("entries must lie in the upper triangle (i <= j)",
                                      line=lineno)
            if i == j and im != 0.0:
                raise SpecFormatError("diagonal entries must be real", line=lineno)
            if (k, i, j) in entries:
                raise SpecFormatError(f"duplicate entry for matrix {k} at ({i}, {j})",
                                      line=lineno)
            entries[(k, i, j)] = complex(re, im)
        elif parts[0] == "B":
            if bvec is not None:
                raise SpecFormatError("duplicate B line", line=lineno)
            if len(parts) != 1 + m:
                raise SpecFormatError(f"B line needs exactly {m} values", line=lineno)
            try:
                bvec = [float(v) for v in parts[1:]]
            except ValueError:
                raise SpecFormatError("malformed B value", line=lineno)
            if not all(math.isfinite(v) for v in bvec):
                raise SpecFormatError("B value is not finite", line=lineno)
        else:
            raise SpecFormatError(f"unknown record {parts[0]!r}", line=lineno)

    if header is None:
        raise SpecFormatError("empty SDP file", line=1)
    if bvec is None:
        raise SpecFormatError("missing B line")

    n, m, field = header
    dtype = np.complex128 if field == "complex" else np.float64
    mats = [np.zeros((n, n), dtype=dtype) for _ in range(m + 1)]
    for (k, i, j), v in entries.items():
        v = v if field == "complex" else v.real
        mats[k][i, j] = v
        if i != j:
            mats[k][j, i] = np.conj(v)
    return SimpleNamespace(c=mats[0], a=mats[1:], b=np.array(bvec), field=field)


def reference_format_rows(mat, field):
    """The per-entry basis writer: each entry formatted on its own, a real
    and an imaginary part per entry over the complex field."""
    rows = []
    for row in np.asarray(mat):
        if field == "complex":
            vals = [f"{x:.17g}" for v in row for x in (v.real, v.imag)]
        else:
            vals = [f"{float(v.real):.17g}" for v in row]
        rows.append(" ".join(vals))
    return rows


def reference_format_basis(decomp, field):
    """The buffered basis writer: every line formed, then joined."""
    out = ["BASIS 1", f"FIELD {field}", f"DIM {decomp.U.shape[0]}"]
    for comp in decomp.components:
        out.append(f"COMPONENT {comp.dimension} {comp.multiplicity} {comp.real_type}")
    out.extend("ROW " + row for row in reference_format_rows(decomp.U, field))
    return "\n".join(out) + "\n"


def reference_sample_group(spec, count, seed, fmt, field="complex"):
    """The buffered ``repblock sample-group`` stdout: every draw from
    ``default_rng(seed)`` is held, then the whole output is formatted; the
    structured format is one ``json.dumps(doc, indent=2)``."""
    from repblock.formats import parse_group_spec, parse_inline_group

    if re.fullmatch(r"(unitary|orthogonal):\d+", spec):
        group = parse_inline_group(spec)
    else:
        group = parse_group_spec(Path(spec).read_text())
    rng = np.random.default_rng(seed)
    samples = [group.sample(rng) for _ in range(count)]
    compact = not isinstance(group, PermutationGroup)
    if compact:
        worst = max((float(np.linalg.norm(u.conj().T @ u - np.eye(group.dim)))
                     for u in samples), default=0.0)
    if fmt == "structured":
        if not compact:
            entries = [list(p.images) for p in samples]
        elif group.kind == "unitary":
            entries = [[[[float(v.real), float(v.imag)] for v in row] for row in u]
                       for u in samples]
        else:
            entries = [[[float(v) for v in row] for row in u] for u in samples]
        doc = {"schema_version": 1, "command": "sample-group", "seed": seed,
               "field": field, "spec": spec, "count": count, "samples": entries}
        if compact:
            doc["max_unitarity_residual"] = worst
        return json.dumps(doc, indent=2) + "\n"
    if not compact:
        return "".join(json.dumps(list(p.images)) + "\n" for p in samples)
    out = []
    for k, u in enumerate(samples):
        out.append(f"SAMPLE {k}")
        out.extend(reference_format_rows(u, "complex" if group.kind == "unitary" else "real"))
    if samples:
        out.append(f"# max unitarity residual: {worst:.3e}")
    return "".join(line + "\n" for line in out)


def reference_format_sdp(prob):
    """The dense SDP writer: every upper-triangle slot of every matrix, in
    (k, i, j) order, zeros skipped."""
    out = [f"{prob.n} {prob.m} {prob.field}"]
    for k, mat in enumerate([prob.c] + list(prob.a)):
        for i in range(prob.n):
            for j in range(i, prob.n):
                v = complex(mat[i, j])
                if v == 0:
                    continue
                if prob.field == "complex":
                    out.append(f"MATRIX {k} {i} {j} {v.real:.17g} {v.imag:.17g}")
                else:
                    out.append(f"MATRIX {k} {i} {j} {v.real:.17g}")
    out.append("B" + "".join(f" {v:.17g}" for v in prob.b))
    return "\n".join(out) + "\n"


def reference_parse_matrix(rows, field, where):
    import math

    from repblock.formats import SpecFormatError

    def entry(v, where):
        if isinstance(v, (int, float)):
            if not math.isfinite(v):
                raise SpecFormatError(f"{where}: matrix entry is not finite")
            return float(v)
        if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
            if not (math.isfinite(v[0]) and math.isfinite(v[1])):
                raise SpecFormatError(f"{where}: matrix entry is not finite")
            if field == "real":
                if v[1] != 0:
                    raise SpecFormatError(f"{where}: complex entry in a real-field matrix")
                return float(v[0])
            return complex(v[0], v[1])
        raise SpecFormatError(f"{where}: matrix entries must be numbers or [re, im] pairs")

    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SpecFormatError(f"{where}: expected a list of rows")
    n = len(rows)
    mat = np.zeros((n, n), dtype=np.complex128 if field == "complex" else np.float64)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise SpecFormatError(f"{where}: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            mat[i, j] = entry(v, f"{where}[{i}][{j}]")
    return mat


# --- compact-group oracles ----------------------------------------------------

def lie_basis(handle):
    """Frobenius-orthonormal basis of u(d) or o(d), as a (k, d, d) stack.

    The anti-Hermitian matrices (E_ab - E_ba)/sqrt(2) for a < b span o(d),
    k = d(d-1)/2; u(d) adds i(E_ab + E_ba)/sqrt(2) for a < b and i E_aa,
    k = d^2.
    """
    d = handle.dim
    a, b = np.triu_indices(d, 1)
    pairs = np.arange(len(a))
    real = handle.kind == "orthogonal"
    basis = np.zeros((len(a) if real else d * d, d, d), dtype=np.float64 if real else complex)
    basis[pairs, a, b] = 1 / math.sqrt(2.0)
    basis[pairs, b, a] = -1 / math.sqrt(2.0)
    if not real:
        basis[len(a) + pairs, a, b] = basis[len(a) + pairs, b, a] = 1j / math.sqrt(2.0)
        basis[2 * len(a) + np.arange(d), np.arange(d), np.arange(d)] = 1j
    return basis


def haar_average(rep, x, rng):
    """The group average of x over a compact group by Haar sampling.

    Each round conjugates by 3 fresh Haar samples and averages, which shrinks
    the part outside the commutant geometrically; every 10 rounds the
    relative commutator with 20 fixed Haar images is measured, and averaging
    stops at the first measurement that does not halve the previous one.
    """
    def draw():
        return rep.image(rep.group.sample(rng))

    probes = [draw() for _ in range(20)]
    out, resid = np.array(x, dtype=complex if rep.field == "complex" else float), math.inf
    for _ in range(100):
        for _ in range(10):
            out = sum(u @ out @ u.conj().T for u in (draw() for _ in range(3))) / 3
        last = resid
        resid = max(np.linalg.norm(out @ u - u @ out) for u in probes) / np.linalg.norm(out)
        if not resid < last / 2:
            return out
    raise AssertionError("Haar averaging did not reach roundoff in 1,000 rounds")


# --- reference verification -------------------------------------------------
#
# The dense verification loop that repblock.decompose.verify_decomposition
# replaced: each checked image forms the full conjugation U rho_g U^dag,
# zeroes the component blocks to measure the leak, and compares each block
# with its repeated-copy pattern.  Same gates and messages.  A finite group
# is checked on its generators; a compact one on ``trials`` Haar-random
# elements, the oracle of the library's check on Lie-algebra generators.

def reference_verify(rep, decomp, trials, tol, rng):
    from repblock.decompose import _REAL_TYPE_WEIGHT, VerificationReport

    u = decomp.U
    n = rep.dim
    action = rep.index_action
    if action is not None:
        images, trials = action.generators, len(action.generators)
    elif rep.is_finite:
        images, trials = [rep.image(x) for x in rep.group.generators], len(rep.group.generators)
    else:
        images = (rep.image(rep.group.sample(rng)) for _ in range(trials))
    failures = []

    dims_ok = sum(c.size for c in decomp.components) == n and u.shape == (n, n)
    if not dims_ok:
        failures.append("component sizes do not add up to the dimension")

    unit_resid = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if not unit_resid <= tol * n:
        failures.append(f"basis is not unitary (residual {unit_resid:.3e})")

    if action is not None:
        orbitals = len(action.orbitals()[1])
        weight = _REAL_TYPE_WEIGHT if rep.field == "real" else {}
        claimed = sum(weight.get(c.real_type, 1) * c.multiplicity ** 2
                      for c in decomp.components)
        if claimed != orbitals:
            failures.append(f"commutant dimension {claimed} claimed by the components "
                            f"differs from the {orbitals} orbitals")

    max_off = 0.0
    comp_resid = [0.0] * len(decomp.components)
    if dims_ok:
        offsets = np.cumsum([0] + [c.size for c in decomp.components])
        for img in images:
            if action is None:
                nrm = float(np.linalg.norm(img))
                b = u @ img @ u.conj().T
            else:  # img is the index array sigma of a generator
                nrm = np.sqrt(n)
                b = u[:, img] @ u.conj().T
            leak = b.copy()
            for ci, comp in enumerate(decomp.components):
                lo, hi = offsets[ci], offsets[ci + 1]
                sub = b[lo:hi, lo:hi]
                leak[lo:hi, lo:hi] = 0.0
                d, m = comp.dimension, comp.multiplicity
                copies = sub.reshape(m, d, m, d)
                pattern = np.kron(np.eye(m), np.trace(copies, axis1=0, axis2=2) / m)
                comp_resid[ci] = float(np.maximum(comp_resid[ci],
                                                  np.linalg.norm(sub - pattern) / nrm))
            max_off = float(np.maximum(max_off, np.linalg.norm(leak) / nrm))
        if not max_off <= tol:
            failures.append(f"off-component leakage {max_off:.3e} above {tol:.1e}")
        worst_comp = float(np.max(comp_resid, initial=0.0))
        if not worst_comp <= tol:
            failures.append(f"component copy structure off by {worst_comp:.3e}")

    return VerificationReport(
        trials=trials, tolerance=tol, unitarity_residual=unit_resid,
        max_off_component=max_off, component_residuals=tuple(comp_resid),
        dims_ok=dims_ok, passed=not failures, failures=tuple(failures))


def equivalence_pass_order(decomp):
    """(clusters, pairs tested, pairs equivalent) of the equivalence pass
    that produced ``decomp``, rebuilt from its components' eigenvalues.

    The pass visits the clusters in ascending eigenvalue order and tests each
    one against the lead of every component found before it.
    """
    owner = sorted((ev, k) for k, c in enumerate(decomp.components) for ev in c.eigenvalues)
    seen = set()
    tested = 0
    for _, k in owner:
        tested += len(seen)
        seen.add(k)
    return len(owner), tested, len(owner) - len(seen)
