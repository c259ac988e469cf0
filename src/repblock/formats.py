"""Text formats consumed and produced by the command-line tools.

Group spec (JSON, one object per file)
    Permutation group:   {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    Compact group:       {"compact": "unitary", "dimension": 3}
                         kinds: "unitary" | "orthogonal"
    Writers emit one canonical line; canonical output round-trips
    bit-exactly through the parser.

Representation spec (JSON tree)
    {"kind": "natural"}
    {"kind": "generator-images", "images": [MATRIX, ...]}   one per generator
    {"kind": "defining"}
    {"kind": "tensor", "factors": [NODE, NODE, ...]}        folded left
    {"kind": "dsum", "terms": [NODE, NODE, ...]}            folded left
    {"kind": "conj", "inner": NODE}
    {"kind": "power", "k": K, "inner": NODE}                K-fold tensor power
    MATRIX is a list of rows; an entry is a number (real) or a [re, im]
    pair (complex field only).

SDP problem (line-oriented text)
    '#' starts a comment; blank lines are ignored.
    header:   n m field                      e.g. "24 3 real"
    entries:  MATRIX k i j re [im]           k = 0 for C, 1..m for A_k;
                                             upper triangle only (i <= j),
                                             symmetry/hermitianity implied;
                                             im required iff field complex
    vector:   B v_1 ... v_m                  exactly one such line
    Unlisted entries are zero.  Values are written with 17 significant
    digits, which round-trips IEEE doubles exactly.

Decomposition basis (line-oriented text)
    BASIS 1
    FIELD field
    DIM n
    COMPONENT d m real_type                  one per component, in order
    ROW v ...                                n lines, row-major; complex
                                             entries interleave re im
"""

from __future__ import annotations

import json
import math

import numpy as np

from .compact import CompactGroupHandle
from .decompose import IrrepDecomposition, IsotypicComponent, REAL_TYPES
from .perm import Permutation, PermutationGroup
from .sdp import SdpProblem
from .reps import (Representation, conjugate, defining_rep, direct_sum,
                   natural_perm_rep, rep_from_generator_images, tensor,
                   tensor_power)


class SpecFormatError(ValueError):
    """A spec or data file failed to parse; the message names the spot."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------

def parse_group_spec(text: str):
    """Parse a group spec; returns a PermutationGroup or CompactGroupHandle."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise SpecFormatError("group spec must be a JSON object")

    if "compact" in doc:
        kind = doc.get("compact")
        dim = doc.get("dimension")
        if kind not in ("unitary", "orthogonal"):
            raise SpecFormatError(f"unknown compact group kind {kind!r}")
        if not isinstance(dim, int) or dim < 1:
            raise SpecFormatError("compact group needs a positive integer 'dimension'")
        return CompactGroupHandle(kind, dim)

    degree = doc.get("degree")
    gens = doc.get("generators")
    if not isinstance(degree, int) or degree < 1:
        raise SpecFormatError("permutation group spec needs a positive integer 'degree'")
    if not isinstance(gens, list):
        raise SpecFormatError("permutation group spec needs a 'generators' list")
    perms = []
    for gi, images in enumerate(gens):
        if (not isinstance(images, list) or len(images) != degree
                or not all(isinstance(x, int) for x in images)):
            raise SpecFormatError(
                f"generator {gi} must be a list of {degree} integers")
        try:
            perms.append(Permutation(images))
        except ValueError as exc:
            raise SpecFormatError(f"generator {gi}: {exc}") from exc
    return PermutationGroup(degree, perms)


def format_group_spec(group) -> str:
    """Canonical one-line group spec (bit-exact round trip)."""
    if isinstance(group, CompactGroupHandle):
        doc = {"compact": group.kind, "dimension": group.dim}
    elif isinstance(group, PermutationGroup):
        doc = {"degree": group.degree,
               "generators": [list(g.images) for g in group.generators]}
    else:
        raise TypeError(f"not a group: {group!r}")
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def parse_inline_group(token: str):
    """Parse 'unitary:d' / 'orthogonal:d' shorthand used on the command line."""
    kind, _, d = token.partition(":")
    if kind not in ("unitary", "orthogonal") or not d.isdigit() or int(d) < 1:
        raise SpecFormatError(f"expected 'unitary:<d>' or 'orthogonal:<d>', got {token!r}")
    return CompactGroupHandle(kind, int(d))


# ---------------------------------------------------------------------------
# representation specs
# ---------------------------------------------------------------------------

def _parse_entry(v, field, where):
    # JSON NaN and Infinity parse to floats; math.isfinite rejects them
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


def _parse_matrix(rows, field, where):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SpecFormatError(f"{where}: expected a list of rows")
    n = len(rows)
    mat = np.zeros((n, n), dtype=np.complex128 if field == "complex" else np.float64)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise SpecFormatError(f"{where}: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            mat[i, j] = _parse_entry(v, field, f"{where}[{i}][{j}]")
    return mat


def _build_rep(node, group, field, path):
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecFormatError(f"{path}: expected an object with a 'kind'")
    kind = node["kind"]

    if kind == "natural":
        if not isinstance(group, PermutationGroup):
            raise SpecFormatError(f"{path}: 'natural' needs a permutation group")
        return natural_perm_rep(group, field)

    if kind == "generator-images":
        if not isinstance(group, PermutationGroup):
            raise SpecFormatError(f"{path}: 'generator-images' needs a permutation group")
        images = node.get("images")
        if not isinstance(images, list):
            raise SpecFormatError(f"{path}: 'generator-images' needs an 'images' list")
        mats = [_parse_matrix(m, field, f"{path}.images[{k}]") for k, m in enumerate(images)]
        try:
            return rep_from_generator_images(group, mats, field)
        except ValueError as exc:
            raise SpecFormatError(f"{path}: {exc}") from exc

    if kind == "defining":
        if not isinstance(group, CompactGroupHandle):
            raise SpecFormatError(f"{path}: 'defining' needs a compact group")
        rep = defining_rep(group)
        if rep.field == field:
            return rep
        if field == "complex" and rep.field == "real":
            return Representation(group, rep.dim, "complex",
                                  lambda g: np.asarray(g, dtype=np.complex128),
                                  name="defining")
        raise SpecFormatError(
            f"{path}: the defining representation of a {group.kind} group is "
            f"{rep.field}, not {field}")

    if kind == "tensor":
        factors = node.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise SpecFormatError(f"{path}: 'tensor' needs at least two 'factors'")
        reps = [_build_rep(f, group, field, f"{path}.factors[{i}]")
                for i, f in enumerate(factors)]
        out = reps[0]
        for r in reps[1:]:
            out = tensor(out, r)
        return out

    if kind == "dsum":
        terms = node.get("terms")
        if not isinstance(terms, list) or len(terms) < 2:
            raise SpecFormatError(f"{path}: 'dsum' needs at least two 'terms'")
        reps = [_build_rep(t, group, field, f"{path}.terms[{i}]")
                for i, t in enumerate(terms)]
        out = reps[0]
        for r in reps[1:]:
            out = direct_sum(out, r)
        return out

    if kind == "conj":
        if field != "complex":
            raise SpecFormatError(f"{path}: 'conj' needs the complex field")
        inner = node.get("inner")
        if inner is None:
            raise SpecFormatError(f"{path}: 'conj' needs an 'inner' node")
        return conjugate(_build_rep(inner, group, field, f"{path}.inner"))

    if kind == "power":
        k = node.get("k")
        inner = node.get("inner")
        if not isinstance(k, int) or k < 1:
            raise SpecFormatError(f"{path}: 'power' needs a positive integer 'k'")
        if inner is None:
            raise SpecFormatError(f"{path}: 'power' needs an 'inner' node")
        return tensor_power(_build_rep(inner, group, field, f"{path}.inner"), k)

    raise SpecFormatError(f"{path}: unknown construction kind {kind!r}")


def parse_rep_spec(text: str, group, field: str) -> Representation:
    """Build a representation of ``group`` over ``field`` from a spec tree."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return _build_rep(doc, group, field, "rep")


# ---------------------------------------------------------------------------
# SDP problems
# ---------------------------------------------------------------------------

def parse_sdp(text: str) -> SdpProblem:
    """Parse the sparse SDP text format into a full problem.

    Upper-triangle entries are mirrored to the implied conjugate positions;
    parse errors carry the offending line number.
    """
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
    return SdpProblem(c=mats[0], a=mats[1:], b=np.array(bvec), field=field)


def format_sdp(prob) -> str:
    """Serialize an SdpProblem in the sparse text format (upper triangle)."""
    out = [f"{prob.n} {prob.m} {prob.field}"]
    for k, mat in enumerate([prob.c] + list(prob.a)):
        for i in range(prob.n):
            for j in range(i, prob.n):
                v = complex(mat[i, j])
                if v == 0:
                    continue
                if prob.field == "complex":
                    out.append(f"MATRIX {k} {i} {j} {_fmt(v.real)} {_fmt(v.imag)}")
                else:
                    out.append(f"MATRIX {k} {i} {j} {_fmt(v.real)}")
    out.append("B" + "".join(f" {_fmt(v)}" for v in prob.b))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# decomposition bases
# ---------------------------------------------------------------------------

def format_basis(decomp: IrrepDecomposition, field: str) -> str:
    """Serialize U and the component structure, row-major, 17 digits."""
    u = decomp.U
    n = u.shape[0]
    out = ["BASIS 1", f"FIELD {field}", f"DIM {n}"]
    for comp in decomp.components:
        out.append(f"COMPONENT {comp.dimension} {comp.multiplicity} {comp.real_type}")
    for i in range(n):
        if field == "complex":
            vals = []
            for v in u[i]:
                vals.append(_fmt(v.real))
                vals.append(_fmt(v.imag))
        else:
            vals = [_fmt(float(v.real)) for v in u[i]]
        out.append("ROW " + " ".join(vals))
    return "\n".join(out) + "\n"


def parse_basis(text: str):
    """Read a basis file back into a bare IrrepDecomposition.

    The result carries U and the component structure but no
    representation and no diagnostics; pair it with freshly built group
    and representation specs to verify it.
    """
    field = None
    n = None
    comps = []
    rows = []
    saw_magic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if not saw_magic:
            if tag != "BASIS" or parts[1:] != ["1"]:
                raise SpecFormatError("expected 'BASIS 1' header", line=lineno)
            saw_magic = True
        elif tag == "FIELD":
            if len(parts) != 2 or parts[1] not in ("real", "complex"):
                raise SpecFormatError("FIELD must be real or complex", line=lineno)
            field = parts[1]
        elif tag == "DIM":
            if len(parts) != 2 or not parts[1].isdigit():
                raise SpecFormatError("DIM needs a positive integer", line=lineno)
            n = int(parts[1])
        elif tag == "COMPONENT":
            if len(parts) != 4 or parts[3] not in REAL_TYPES:
                raise SpecFormatError("COMPONENT needs 'd m real_type'", line=lineno)
            try:
                comps.append((int(parts[1]), int(parts[2]), parts[3]))
            except ValueError:
                raise SpecFormatError("COMPONENT sizes must be integers", line=lineno)
        elif tag == "ROW":
            if field is None or n is None:
                raise SpecFormatError("ROW before FIELD/DIM", line=lineno)
            want = 2 * n if field == "complex" else n
            if len(parts) != 1 + want:
                raise SpecFormatError(f"ROW needs {want} values", line=lineno)
            try:
                vals = [float(v) for v in parts[1:]]
            except ValueError:
                raise SpecFormatError("malformed ROW value", line=lineno)
            if not all(math.isfinite(v) for v in vals):
                raise SpecFormatError("ROW value is not finite", line=lineno)
            if field == "complex":
                rows.append([complex(vals[2 * k], vals[2 * k + 1]) for k in range(n)])
            else:
                rows.append(vals)
        else:
            raise SpecFormatError(f"unknown record {tag!r}", line=lineno)

    if field is None or n is None:
        raise SpecFormatError("missing FIELD or DIM")
    if len(rows) != n:
        raise SpecFormatError(f"expected {n} ROW lines, got {len(rows)}")
    if sum(d * m for d, m, _ in comps) != n:
        raise SpecFormatError("component sizes do not add up to DIM")

    dtype = np.complex128 if field == "complex" else np.float64
    u = np.array(rows, dtype=dtype)
    components = []
    offset = 0
    for d, m, rt in comps:
        components.append(IsotypicComponent(
            dimension=d, multiplicity=m, basis=u[offset:offset + d * m], real_type=rt))
        offset += d * m
    return field, IrrepDecomposition(U=u, components=components, diagnostics=None)
