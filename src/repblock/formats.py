"""Text formats consumed and produced by the command-line tools.

Group spec (JSON, one object per file)
    Permutation group:   {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    Compact group:       {"compact": "unitary", "dimension": 3}
                         kinds: "unitary" | "orthogonal"

Representation spec (JSON tree)
    {"kind": "natural"}
    {"kind": "generator-images", "images": [MATRIX, ...]}   one per generator
    {"kind": "defining"}
    {"kind": "tensor", "factors": [NODE, NODE, ...]}        Kronecker product
    {"kind": "dsum", "terms": [NODE, NODE, ...]}            blocks in order
    {"kind": "conj", "inner": NODE}
    {"kind": "power", "k": K, "inner": NODE}                K-fold tensor power
    MATRIX is a list of rows; an entry is a number (real) or a [re, im]
    pair (complex field only).  A tree nests at most 100 levels deep.

SDP problem (line-oriented text)
    '#' starts a comment; blank lines are ignored.
    header:   n m field                      e.g. "24 3 real"
    entries:  MATRIX k i j re [im]           k = 0 for C, 1..m for A_k;
                                             upper triangle only (i <= j),
                                             symmetry/hermitianity implied;
                                             im required iff field complex
    vector:   B v_1 ... v_m                  exactly one such line
    Unlisted entries are zero.  Values are written with 17 significant
    digits, which round-trips IEEE doubles exactly.  ``parse_sdp`` reads a
    well-formed file in one numpy C-reader call, others line by line.

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
import re
import warnings
from itertools import chain

import numpy as np

from .compact import CompactGroupHandle
from .decompose import IrrepDecomposition, REAL_TYPES, isotypic_components
from .perm import Permutation, PermutationGroup
from .sdp import SdpProblem
from .reps import (Representation, _check_dim, _check_dim_bits, conjugate, defining_rep,
                   direct_sum, natural_perm_rep, rep_from_generator_images, tensor,
                   tensor_power)


class SpecFormatError(ValueError):
    """A spec or data file failed to parse; the message names the spot."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_MAX_SPEC_DEPTH = 100  # spec tree levels; far below the interpreter's recursion limit


def _load_json(text, what):
    """``json.loads``, with invalid or too deeply nested JSON, or a boolean
    anywhere in it, as a SpecFormatError.  No spec value is a boolean, and
    Python would take ``true`` and ``false`` for the integers 1 and 0."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise SpecFormatError(f"{what}: JSON nests too deeply to parse") from None
    except ValueError:  # an integer of more digits than Python converts
        raise SpecFormatError(f"{what}: a JSON integer is too long to read") from None
    if "true" in text or "false" in text:  # as every JSON boolean is spelled
        stack = [(doc, what)]  # depth first in document order, without recursion
        while stack:
            node, path = stack.pop()
            if isinstance(node, bool):
                raise SpecFormatError(f"{path}: booleans are not spec values")
            if isinstance(node, dict):
                stack.extend(reversed([(v, f"{path}.{k}") for k, v in node.items()]))
            elif isinstance(node, list):
                stack.extend(reversed([(v, f"{path}[{i}]") for i, v in enumerate(node)]))
    return doc


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------

def parse_group_spec(text: str):
    """Parse a group spec; returns a PermutationGroup or CompactGroupHandle."""
    doc = _load_json(text, "group spec")
    if not isinstance(doc, dict):
        raise SpecFormatError("group spec must be a JSON object")

    if "compact" in doc:
        kind = doc.get("compact")
        dim = doc.get("dimension")
        if kind not in ("unitary", "orthogonal"):
            raise SpecFormatError(f"unknown compact group kind {kind!r}")
        if not isinstance(dim, int) or dim < 1:
            raise SpecFormatError("compact group needs a positive integer 'dimension'")
        return _compact_group(kind, dim, "group spec")

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


def parse_inline_group(token: str):
    """Parse 'unitary:d' / 'orthogonal:d' shorthand used on the command line.

    A d of k > 20 significant digits, beyond 64 bits, is at least
    10^(k - 1) >= 2^(3 (k - 1)): the memory rule refuses it on that bound,
    before int() meets more digits than it converts.
    """
    kind, _, d = token.partition(":")
    d = d.lstrip("0")  # leading zeros do not count as digits of d
    if kind not in ("unitary", "orthogonal") or not d.isdecimal() or len(d) <= 20 and int(d) < 1:
        raise SpecFormatError(f"expected 'unitary:<d>' or 'orthogonal:<d>', got {token!r}")
    where, field = f"group {token!r}", "complex" if kind == "unitary" else "real"
    if len(d) > 20:
        _build_at(where, _check_dim_bits, f"of {len(d):,} digits", 3 * (len(d) - 1), field)
    return _compact_group(kind, int(d), where)


def _compact_group(kind, dim, where):
    """U(d) or O(d), refused at ``where`` when one of its d x d matrices, as
    Haar sampling draws them, exceeds physical memory (``reps._check_dim``)."""
    _build_at(where, _check_dim, dim, "complex" if kind == "unitary" else "real")
    return CompactGroupHandle(kind, dim)


# ---------------------------------------------------------------------------
# representation specs
# ---------------------------------------------------------------------------

def _entry_float(x, where):
    """A JSON number as a finite float; NaN, Infinity and integers beyond
    the float range are refused."""
    try:
        x = float(x)
    except OverflowError:
        raise SpecFormatError(f"{where}: matrix entry is too large") from None
    if not math.isfinite(x):
        raise SpecFormatError(f"{where}: matrix entry is not finite")
    return x


def _parse_entry(v, field, where):
    if isinstance(v, (int, float)):
        return _entry_float(v, where)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        re, im = _entry_float(v[0], where), _entry_float(v[1], where)
        if field == "real":
            if im != 0:
                raise SpecFormatError(f"{where}: complex entry in a real-field matrix")
            return re
        return complex(re, im)
    raise SpecFormatError(f"{where}: matrix entries must be numbers or [re, im] pairs")


def _parse_matrix(rows, field, where):
    """An n x n image from its JSON rows.

    A matrix of plain numbers, or of [re, im] pairs, converts in one numpy
    call.  Anything else (ragged rows, a bad or non-finite entry, numbers
    mixed with pairs) is read entry by entry, which names the first bad
    entry in row-major order.  Booleans never get here: the JSON loader
    refuses them.
    """
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise SpecFormatError(f"{where}: expected a list of rows")
    n = len(rows)
    dtype = np.complex128 if field == "complex" else np.float64
    try:
        arr = np.array(rows)
    except ValueError:  # ragged, or numbers mixed with pairs
        arr = None
    if arr is not None and arr.dtype.kind in "iuf" and arr.shape in ((n, n), (n, n, 2)):
        arr = arr.astype(np.float64)
        if np.isfinite(arr).all():
            if arr.ndim == 2:
                return arr.astype(dtype, copy=False)
            if field == "complex":
                mat = np.empty((n, n), dtype=dtype)
                mat.real, mat.imag = arr[..., 0], arr[..., 1]
                return mat
            if not arr[..., 1].any():
                return arr[..., 0].copy()
    mat = np.zeros((n, n), dtype=dtype)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise SpecFormatError(f"{where}: row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            mat[i, j] = _parse_entry(v, field, f"{where}[{i}][{j}]")
    return mat


def _build_at(path, build, *args):
    """``build(*args)``, with its ValueError (a mismatch, a dimension too
    large to hold) reported at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def _build_rep(node, group, field, path):
    # every level below the root adds one ".key" to the path
    if path.count(".") >= _MAX_SPEC_DEPTH:
        raise SpecFormatError(f"{path}: spec nests deeper than {_MAX_SPEC_DEPTH} levels")
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecFormatError(f"{path}: expected an object with a 'kind'")
    kind = node["kind"]

    if kind == "natural":
        if not isinstance(group, PermutationGroup):
            raise SpecFormatError(f"{path}: 'natural' needs a permutation group")
        return _build_at(path, natural_perm_rep, group, field)

    if kind == "generator-images":
        if not isinstance(group, PermutationGroup):
            raise SpecFormatError(f"{path}: 'generator-images' needs a permutation group")
        images = node.get("images")
        if not isinstance(images, list):
            raise SpecFormatError(f"{path}: 'generator-images' needs an 'images' list")
        mats = [_parse_matrix(m, field, f"{path}.images[{k}]") for k, m in enumerate(images)]
        return _build_at(path, rep_from_generator_images, group, mats, field)

    if kind == "defining":
        if not isinstance(group, CompactGroupHandle):
            raise SpecFormatError(f"{path}: 'defining' needs a compact group")
        return _build_at(path, defining_rep, group, field)

    if kind == "tensor":
        factors = node.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise SpecFormatError(f"{path}: 'tensor' needs at least two 'factors'")
        reps = [_build_rep(f, group, field, f"{path}.factors[{i}]")
                for i, f in enumerate(factors)]
        return _build_at(path, tensor, *reps)

    if kind == "dsum":
        terms = node.get("terms")
        if not isinstance(terms, list) or len(terms) < 2:
            raise SpecFormatError(f"{path}: 'dsum' needs at least two 'terms'")
        reps = [_build_rep(t, group, field, f"{path}.terms[{i}]")
                for i, t in enumerate(terms)]
        return _build_at(path, direct_sum, *reps)

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
        return _build_at(path, tensor_power, _build_rep(inner, group, field, f"{path}.inner"), k)

    raise SpecFormatError(f"{path}: unknown construction kind {kind!r}")


def parse_rep_spec(text: str, group, field: str) -> Representation:
    """Build a representation of ``group`` over ``field`` from a spec tree."""
    doc = _load_json(text, "rep")
    return _build_rep(doc, group, field, "rep")


# ---------------------------------------------------------------------------
# SDP problems
# ---------------------------------------------------------------------------

def _sdp_header(parts, lineno):
    """The header's (n, m, field), refused when one n x n matrix exceeds physical
    memory (``reps._check_dim``) or a key (k n + i) n + j may overflow 64 bits."""
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
    if (m + 1) * n * n * (16 if field == "complex" else 8) >= 2 ** 63:
        raise SpecFormatError("header sizes are too large for 64-bit entry keys", line=lineno)
    try:
        _check_dim(n, field)
    except ValueError as exc:
        raise SpecFormatError(str(exc), line=lineno) from None
    return n, m, field


def _sdp_entry(parts, lineno, n, m, field):
    """Check one MATRIX line; returns (k, i, j, re, im)."""
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
    return k, i, j, re, im


def _sdp_b(parts, lineno, m):
    if len(parts) != 1 + m:
        raise SpecFormatError(f"B line needs exactly {m} values", line=lineno)
    try:
        bvec = [float(v) for v in parts[1:]]
    except ValueError:
        raise SpecFormatError("malformed B value", line=lineno)
    if not all(math.isfinite(v) for v in bvec):
        raise SpecFormatError("B value is not finite", line=lineno)
    return bvec


def _sdp_blocks(text, start):
    """The lines of ``text`` from ``start`` on, in blocks of about 64 KB: at
    most a block of line strings is held while the C reader takes them."""
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield text[start:end].split("\n")  # a block's last, empty line is skipped
        start = end


def _sdp_fast(text):
    """The problem's n, field, entries (k, i, j, value) sorted by (k, i, j)
    and b, from one call of numpy's C text reader, or None for the checked
    reader.  Only whole-text string work precedes the call, and no Python
    code runs per line.  Errors it can word first, the header's or, once
    every other line has passed, the B line's, are raised."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    # str.splitlines breaks lines at these too, numpy's reader does not; and a
    # bytes column drops a token's trailing NULs
    if any(c in text for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\0"):
        return None
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    if not text.isascii():  # a non-ASCII digit or space outside the comments
        return None
    first = re.search(r"\S[^\n]*", text)
    if first is None:
        raise SpecFormatError("empty SDP file", line=1)
    header_line = text.count("\n", 0, first.start()) + 1
    n, m, field = _sdp_header(first.group().split(), header_line)
    # the one B of the file, as no number, MATRIX tag or valid header holds one
    at = text.find("B")
    if at < 0 or text.find("B", at + 1) >= 0:
        return None
    end = text.find("\n", at)
    b_parts = text[text.rfind("\n", 0, at) + 1:end if end >= 0 else None].split()
    if b_parts[0] != "B":  # the reader would take the rest of its line for a comment
        return None
    complex_ = field == "complex"
    # an 8-byte tag keeps MATRIXX and longer tags apart from MATRIX, and the
    # number columns aligned
    dtype = ([("tag", "S8")] + [(c, np.int64) for c in ["k", "i", "j"]]
             + [(c, np.float64) for c in (["re", "im"] if complex_ else ["re"])])
    try:
        # The reader splits as str.split does and converts with Python's float
        # parser; it refuses tokens such as 1_0, and an older numpy may only
        # warn about a float in an integer field.  The one B starts a comment.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.loadtxt(chain.from_iterable(_sdp_blocks(text, first.end())),
                              dtype=dtype, comments="B", ndmin=1)
    except (ValueError, Warning):  # an empty body warns
        return None
    if not (cols["tag"].view("<u8") == int.from_bytes(b"MATRIX", "little")).all():
        return None  # the tag's 8 bytes, compared as one number
    # contiguous copies: views would keep the whole record array, tag included
    k, i, j = (cols[c].copy() for c in ["k", "i", "j"])
    values = np.empty(k.size, dtype=np.complex128 if complex_ else np.float64)
    values.real = cols["re"]
    if complex_:
        values.imag = cols["im"]
    del cols
    ok = np.isfinite(values) & (0 <= k) & (k <= m) & (0 <= i) & (i <= j) & (j < n)
    if complex_:
        ok &= (i < j) | (values.imag == 0)
    if not ok.all():
        return None
    key = (k * n + i) * n + j
    if not (key[1:] > key[:-1]).all():  # listed out of order, or with a repeat
        order = np.argsort(key, kind="stable")
        if (key[order[1:]] == key[order[:-1]]).any():  # the checked reader names the first
            return None
        k, i, j, values = k[order], i[order], j[order], values[order]
    # every other line has passed, so an error on the B line is the file's first
    return n, field, k, i, j, values, _sdp_b(b_parts, text.count("\n", 0, at) + 1, m)


def _sdp_checked(text):
    """``_sdp_fast``'s result, read line by line; the first line that fails
    a check raises, worded by ``_sdp_header``, ``_sdp_entry`` or ``_sdp_b``."""
    header, entries, bvec = None, {}, None  # entries: (k, i, j) -> value, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if header is None:
            n, m, field = header = _sdp_header(parts, lineno)
        elif parts[0] == "MATRIX":
            k, i, j, re_, im = _sdp_entry(parts, lineno, n, m, field)
            if (k, i, j) in entries:
                raise SpecFormatError(f"duplicate entry for matrix {k} at ({i}, {j})",
                                      line=lineno)
            entries[k, i, j] = complex(re_, im) if field == "complex" else re_
        elif parts[0] != "B":
            raise SpecFormatError(f"unknown record {parts[0]!r}", line=lineno)
        elif bvec is not None:
            raise SpecFormatError("duplicate B line", line=lineno)
        else:
            bvec = _sdp_b(parts, lineno, m)
    if header is None:
        raise SpecFormatError("empty SDP file", line=1)
    if bvec is None:
        raise SpecFormatError("missing B line")
    keys = sorted(entries)  # the order of the keys (k n + i) n + j
    k, i, j = np.array(keys, dtype=np.int64).reshape(-1, 3).T.copy()
    values = np.array([entries[key] for key in keys],
                      dtype=np.complex128 if field == "complex" else np.float64)
    return n, field, k, i, j, values, bvec


def parse_sdp(text: str) -> SdpProblem:
    """Parse the sparse SDP text format into a problem held as its entries.

    The checked upper-triangle entries, sorted by (k, i, j), become the
    problem's storage; no dense matrix is formed.  The header is checked
    before any entry is read (``_sdp_header``).  Parse errors carry the
    offending line number.  A well-formed file, ASCII outside its comments,
    whose lines end in LF or CRLF is read by one call of numpy's C text reader,
    with every check run as a mask (``_sdp_fast``).  Any other file, and
    any file that call refuses or a mask fails, is read line by line
    (``_sdp_checked``), so the first failing line is reported with the
    message a line-by-line reading gives.
    """
    n, field, k, i, j, values, bvec = _sdp_fast(text) or _sdp_checked(text)
    return SdpProblem._from_entries(n, k, i, j, values, np.array(bvec), field)


def format_sdp(prob) -> str:
    """Serialize an SdpProblem in the sparse text format: its nonzero entries."""
    keep = prob.v != 0
    vals = [prob.v.real, prob.v.imag] if prob.field == "complex" else [prob.v]
    cols = [x[keep].tolist() for x in [prob.k, prob.i, prob.j] + vals]
    line = "MATRIX %d %d %d" + " %.17g" * len(vals) + "\n"  # "%.17g" % x is f"{x:.17g}"
    body = (line * len(cols[0])) % tuple(chain.from_iterable(zip(*cols)))
    return (f"{prob.n} {prob.m} {prob.field}\n" + body
            + ("B" + " %.17g" * len(prob.b) + "\n") % tuple(prob.b.tolist()))


# ---------------------------------------------------------------------------
# decomposition bases
# ---------------------------------------------------------------------------

def format_rows(mat, field: str) -> list:
    """Each row as 17-digit numbers, a real and an imaginary part per entry
    over the complex field."""
    mat = np.asarray(mat)
    # a complex row viewed as doubles interleaves the real and imaginary parts
    vals = np.ascontiguousarray(mat, dtype=complex).view(float) if field == "complex" else mat.real
    line = " ".join(["%.17g"] * vals.shape[1])
    return [line % tuple(row) for row in vals.tolist()]


def format_basis(decomp: IrrepDecomposition, field: str) -> str:
    """Serialize U and the component structure, row-major, 17 digits."""
    out = ["BASIS 1", f"FIELD {field}", f"DIM {decomp.U.shape[0]}"]
    for comp in decomp.components:
        out.append(f"COMPONENT {comp.dimension} {comp.multiplicity} {comp.real_type}")
    out.extend("ROW " + row for row in format_rows(decomp.U, field))
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
            if field is not None:
                raise SpecFormatError("duplicate FIELD line", line=lineno)
            if len(parts) != 2 or parts[1] not in ("real", "complex"):
                raise SpecFormatError("FIELD must be real or complex", line=lineno)
            field = parts[1]
        elif tag == "DIM":
            if n is not None:
                raise SpecFormatError("duplicate DIM line", line=lineno)
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise SpecFormatError("DIM needs a positive integer", line=lineno)
            n = int(parts[1])
        elif tag == "COMPONENT":
            if len(parts) != 4 or parts[3] not in REAL_TYPES:
                raise SpecFormatError("COMPONENT needs 'd m real_type'", line=lineno)
            try:
                d, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise SpecFormatError("COMPONENT sizes must be integers", line=lineno)
            if d < 1 or m < 1:
                raise SpecFormatError("COMPONENT sizes must be positive", line=lineno)
            comps.append((d, m, {"real_type": parts[3]}))
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

    u = np.array(rows, dtype=np.complex128 if field == "complex" else np.float64)
    decomp = IrrepDecomposition(U=u, components=isotypic_components(u, comps),
                                diagnostics=None)
    if decomp.offsets[-1] != n:
        raise SpecFormatError("component sizes do not add up to DIM")
    return field, decomp
