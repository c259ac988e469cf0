import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repblock import formats
from repblock import (CompactGroupHandle, PermutationGroup, decompose,
                      natural_perm_rep, sample_commutant, SdpProblem)
from repblock.formats import (SpecFormatError, format_basis, format_rows, format_sdp,
                              parse_basis, parse_group_spec, parse_inline_group, parse_rep_spec,
                              parse_sdp)

from conftest import (reference_format_rows, reference_format_sdp, reference_parse_matrix,
                      reference_parse_sdp, symmetric)


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------

def test_group_spec_roundtrip_permutation():
    text = '{"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}\n'
    g = parse_group_spec(text)
    assert isinstance(g, PermutationGroup)
    assert g.order() == 6
    assert [list(p.images) for p in g.generators] == [[1, 0, 2], [1, 2, 0]]


def test_group_spec_roundtrip_compact():
    text = '{"compact": "unitary", "dimension": 3}\n'
    h = parse_group_spec(text)
    assert isinstance(h, CompactGroupHandle)
    assert h.kind == "unitary" and h.dim == 3


def test_group_spec_errors():
    with pytest.raises(SpecFormatError, match="line 1"):
        parse_group_spec("{nope}")
    with pytest.raises(SpecFormatError, match="degree"):
        parse_group_spec('{"generators": []}')
    with pytest.raises(SpecFormatError, match="generator 0"):
        parse_group_spec('{"degree": 3, "generators": [[0, 0, 1]]}')
    with pytest.raises(SpecFormatError, match="generator 1"):
        parse_group_spec('{"degree": 2, "generators": [[0, 1], [1, 0, 2]]}')
    with pytest.raises(SpecFormatError, match="kind"):
        parse_group_spec('{"compact": "symplectic", "dimension": 2}')
    with pytest.raises(SpecFormatError):
        parse_group_spec('[1, 2]')
    # Python's bool is an int: each of these would read as 0 or 1
    for text, spot in [('{"compact": "unitary", "dimension": true}', "group spec.dimension"),
                       ('{"degree": true, "generators": []}', "group spec.degree"),
                       ('{"degree": 3, "generators": [[true, false, 2]]}',
                        r"group spec.generators\[0\]\[0\]")]:
        with pytest.raises(SpecFormatError, match=f"^{spot}: booleans are not spec values$"):
            parse_group_spec(text)


def test_inline_group():
    h = parse_inline_group("unitary:4")
    assert h.kind == "unitary" and h.dim == 4
    assert parse_inline_group("orthogonal:2").kind == "orthogonal"
    with pytest.raises(SpecFormatError):
        parse_inline_group("unitary:x")
    with pytest.raises(SpecFormatError):
        parse_inline_group("special:3")
    with pytest.raises(SpecFormatError):
        parse_inline_group("unitary:²")  # a digit that int() refuses


# ---------------------------------------------------------------------------
# representation specs
# ---------------------------------------------------------------------------

def test_rep_spec_natural():
    g = symmetric(3)
    rep = parse_rep_spec('{"kind": "natural"}', g, "complex")
    assert rep.dim == 3 and rep.field == "complex"
    # a string may spell a boolean
    assert parse_rep_spec('{"kind": "natural", "note": "true, not false"}', g, "real").dim == 3


def test_rep_spec_generator_images():
    g = parse_group_spec('{"degree": 2, "generators": [[1, 0]]}')
    rep = parse_rep_spec(
        '{"kind": "generator-images", "images": [[[0, 1], [1, 0]]]}', g, "real")
    assert rep.dim == 2
    sign = parse_rep_spec(
        '{"kind": "generator-images", "images": [[[-1]]]}', g, "real")
    assert sign.dim == 1


def test_rep_spec_complex_entries():
    g = parse_group_spec('{"degree": 4, "generators": [[1, 2, 3, 0]]}')
    spec = '{"kind": "generator-images", "images": [[[[0, 1], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, -1], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [-1, 0]]]]}'
    rep = parse_rep_spec(spec, g, "complex")
    img = rep.image(g.generators[0])
    assert np.allclose(np.diag(img), [1j, -1j, 1, -1])
    with pytest.raises(SpecFormatError, match="real-field"):
        parse_rep_spec(spec, g, "real")


def test_rep_spec_combinators():
    g = symmetric(3)
    rep = parse_rep_spec(
        '{"kind": "tensor", "factors": [{"kind": "natural"}, {"kind": "natural"}]}',
        g, "complex")
    assert rep.dim == 9
    rep = parse_rep_spec(
        '{"kind": "dsum", "terms": [{"kind": "natural"}, {"kind": "natural"}]}',
        g, "real")
    assert rep.dim == 6
    rep = parse_rep_spec(
        '{"kind": "power", "k": 2, "inner": {"kind": "natural"}}', g, "complex")
    assert rep.dim == 9
    rep = parse_rep_spec('{"kind": "conj", "inner": {"kind": "natural"}}', g, "complex")
    assert rep.dim == 3


def test_rep_spec_defining():
    h = parse_group_spec('{"compact": "unitary", "dimension": 2}')
    rep = parse_rep_spec(
        '{"kind": "tensor", "factors": [{"kind": "defining"}, '
        '{"kind": "conj", "inner": {"kind": "defining"}}]}', h, "complex")
    assert rep.dim == 4
    o = parse_group_spec('{"compact": "orthogonal", "dimension": 3}')
    rep = parse_rep_spec('{"kind": "defining"}', o, "real")
    assert rep.field == "real"
    # a real-orthogonal defining representation may be viewed over C
    rep = parse_rep_spec('{"kind": "defining"}', o, "complex")
    assert rep.field == "complex"


def _conj_chain(depth, leaf):
    return '{"kind": "conj", "inner": ' * depth + leaf + "}" * depth


def test_rep_spec_nesting_bound():
    h = parse_group_spec('{"compact": "unitary", "dimension": 2}')
    # 100 levels: 99 conj nodes over the leaf
    rep = parse_rep_spec(_conj_chain(99, '{"kind": "defining"}'), h, "complex")
    u = np.diag([1j, 1.0])
    assert np.array_equal(rep.image(u), np.conj(u))
    with pytest.raises(SpecFormatError) as info:
        parse_rep_spec(_conj_chain(100, '{"kind": "defining"}'), h, "complex")
    assert str(info.value) == "rep" + ".inner" * 100 + ": spec nests deeper than 100 levels"

def test_rep_spec_errors():
    g = symmetric(3)
    h = parse_group_spec('{"compact": "unitary", "dimension": 2}')
    with pytest.raises(SpecFormatError, match="permutation group"):
        parse_rep_spec('{"kind": "natural"}', h, "complex")
    with pytest.raises(SpecFormatError, match="compact group"):
        parse_rep_spec('{"kind": "defining"}', g, "complex")
    with pytest.raises(SpecFormatError, match="complex field"):
        parse_rep_spec('{"kind": "conj", "inner": {"kind": "natural"}}', g, "real")
    with pytest.raises(SpecFormatError, match="unknown construction"):
        parse_rep_spec('{"kind": "induced"}', g, "complex")
    with pytest.raises(SpecFormatError, match="complex, not real"):
        parse_rep_spec('{"kind": "defining"}', h, "real")
    with pytest.raises(SpecFormatError, match="'k'"):
        parse_rep_spec('{"kind": "power", "k": 0, "inner": {"kind": "natural"}}',
                       g, "complex")
    with pytest.raises(SpecFormatError, match="^rep.k: booleans are not spec values$"):
        parse_rep_spec('{"kind": "power", "k": true, "inner": {"kind": "natural"}}',
                       g, "complex")
    with pytest.raises(SpecFormatError, match="line 1"):
        parse_rep_spec("not json", g, "complex")


S3_IMAGES = '{"kind": "generator-images", "images": [%s, %s]}'
BIG = "1" + "0" * 400  # beyond the float range


@pytest.mark.parametrize("first,second,field,msg", [
    ("[[NaN]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry is not finite"),
    ("[[Infinity]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
    ("[[1]]", "[[-Infinity]]", "real", r"rep\.images\[1\]\[0\]\[0\]: matrix entry"),
    ("[[1, 0], [0, NaN]]", "[[1, 0], [0, 1]]", "real",
     r"rep\.images\[0\]\[1\]\[1\]: matrix entry is not finite"),
    ("[[[NaN, 0]]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
    ("[[[1, Infinity]]]", "[[1]]", "complex", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
    (f"[[{BIG}, 0], [0, 1]]", "[[1, 0], [0, 1]]", "real",
     r"rep\.images\[0\]\[0\]\[0\]: matrix entry is too large"),
    ("[[1, 0], [0, 1]]", f"[[1, 0], [0, [1, -{BIG}]]]", "complex",
     r"rep\.images\[1\]\[1\]\[1\]: matrix entry is too large"),
    # booleans, alone, among integers and in a pair
    ("[[false, true], [true, false]]", "[[1, 0], [0, 1]]", "real",
     r"^rep\.images\[0\]\[0\]\[0\]: booleans are not spec values$"),
    ("[[0, 1], [1, 0]]", "[[1, 0], [0, true]]", "real",
     r"^rep\.images\[1\]\[1\]\[1\]: booleans are not spec values$"),
    ("[[0, 1], [1, 0]]", "[[[1, 0], [0, 0]], [[0, 0], [1, false]]]", "complex",
     r"^rep\.images\[1\]\[1\]\[1\]\[1\]: booleans are not spec values$"),
])
def test_rep_spec_nonfinite_image_entries(first, second, field, msg):
    with pytest.raises(SpecFormatError, match=msg):
        parse_rep_spec(S3_IMAGES % (first, second), symmetric(3), field)


# ---------------------------------------------------------------------------
# SDP text format
# ---------------------------------------------------------------------------

SDP_SAMPLE = """# invariant toy instance
3 1 real
MATRIX 0 0 0 1.5
MATRIX 0 0 2 -0.25
MATRIX 1 1 1 2
B 0.5
"""


def test_sdp_parse_basic():
    prob = parse_sdp(SDP_SAMPLE)
    assert prob.n == 3 and prob.m == 1 and prob.field == "real"
    assert prob.c[0, 0] == 1.5
    assert prob.c[0, 2] == prob.c[2, 0] == -0.25
    assert prob.a[0][1, 1] == 2
    assert prob.b.tolist() == [0.5]


def test_sdp_roundtrip_real_and_complex(rng):
    rep = natural_perm_rep(symmetric(3), "complex")
    c = sample_commutant(rep, rng=rng).matrix
    a = sample_commutant(rep, rng=rng).matrix
    prob = SdpProblem(c=c, a=[a], b=[1.25], field="complex")
    text = format_sdp(prob)
    back = parse_sdp(text)
    assert np.array_equal(back.c, prob.c)
    assert np.array_equal(back.a[0], prob.a[0])
    assert np.array_equal(back.b, prob.b)
    assert format_sdp(back) == text  # canonical serialization round-trips


@pytest.mark.parametrize("bad,msg", [
    ("", "empty"),
    ("3 1\nB 1", "header"),
    ("3 1 real\nMATRIX 0 0 0 1 2\nB 1", "MATRIX line"),
    ("3 1 real\nMATRIX 0 2 0 1\nB 1", "upper triangle"),
    ("3 1 complex\nMATRIX 0 0 0 1 5\nB 1", "diagonal"),
    ("3 1 real\nMATRIX 0 0 1 1\nMATRIX 0 0 1 2\nB 1", "duplicate"),
    ("3 1 real\nMATRIX 2 0 0 1\nB 1", "out of range"),
    ("3 1 real\nMATRIX 0 0 9 1\nB 1", "indices"),
    ("3 1 real\nMATRIX 0 0 0 1", "missing B"),
    ("3 1 real\nB 1 2", "B line"),
    ("3 1 real\nWHAT 1\nB 1", "unknown record"),
    ("3 1 real\nMATRIX 0 0 0 nan\nB 1", "line 2: MATRIX value is not finite"),
    ("3 1 real\nMATRIX 1 0 1 -inf\nB 1", "line 2: MATRIX value is not finite"),
    ("3 1 complex\nMATRIX 0 0 0 1 0\nMATRIX 1 0 1 1 inf\nB 1",
     "line 3: MATRIX value is not finite"),
    ("3 1 real\nMATRIX 0 0 0 1\nB nan", "line 3: B value is not finite"),
    ("3 2 real\nB 1 inf", "line 2: B value is not finite"),
])
def test_sdp_parse_errors(bad, msg):
    with pytest.raises(SpecFormatError, match=msg):
        parse_sdp(bad)


@pytest.mark.parametrize("header, msg", [
    # one 29 TiB matrix exceeds physical memory: the representation builders' rule
    pytest.param("2000000 1 real", r"line 2: dimension 2000000 is too large: "
                 r"one 2000000 x 2000000 real matrix needs", id="2000000 1 real"),
    # (m + 1) n^2 positions beyond the 64-bit entry keys
    pytest.param("10000000000 0 complex", "line 2: header sizes are too large for 64-bit "
                 "entry keys", id="10000000000 0 complex"),
])
def test_sdp_oversized_header_names_header_line(header, msg):
    with pytest.raises(SpecFormatError, match=msg):
        parse_sdp("# too big\n" + header + "\nB" + " 1" * int(header.split()[1]) + "\n")


def test_sdp_zero_constraints_parse():
    prob = parse_sdp("2 0 real\nMATRIX 0 0 1 3.5\nB\n")
    assert prob.m == 0 and prob.b.size == 0
    assert prob.c[0, 1] == prob.c[1, 0] == 3.5


def test_sdp_error_names_line():
    try:
        parse_sdp("3 0 real\nMATRIX 0 5 5 1\nB")
    except SpecFormatError as exc:
        assert "line 2" in str(exc)
    else:
        raise AssertionError("expected a parse error")


# ---------------------------------------------------------------------------
# basis files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["real", "complex"])
def test_basis_roundtrip(field):
    rep = natural_perm_rep(symmetric(3), field)
    decomp = decompose(rep, rng=np.random.default_rng(7))
    text = format_basis(decomp, field)
    back_field, back = parse_basis(text)
    assert back_field == field
    assert np.array_equal(back.U, decomp.U)  # 17 digits round-trip doubles
    assert [(c.dimension, c.multiplicity, c.real_type) for c in back.components] \
        == [(c.dimension, c.multiplicity, c.real_type) for c in decomp.components]
    assert format_basis(back, field) == text


_ROW_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1 / 3]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["real", "complex"]), st.booleans(), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_format_rows_matches_the_per_entry_writer(field, complex_input, rows, width, data):
    # over R the writer takes the real part of complex input; over C a real
    # entry gets imaginary part 0
    parts = data.draw(st.lists(_ROW_PARTS, min_size=2 * rows * width, max_size=2 * rows * width))
    pairs = np.array(parts, dtype=float).reshape(rows, width, 2)
    mat = pairs.view(complex)[..., 0] if complex_input else pairs[..., 0]
    assert format_rows(mat, field) == reference_format_rows(mat, field)


@pytest.mark.parametrize("bad,msg", [
    ("nope", "BASIS 1"),
    ("BASIS 1\nDIM 2\nROW 1 0\nROW 0 1", "before FIELD"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1 0", "2 ROW lines"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1\nROW 0 1", "values"),
    ("BASIS 1\nFIELD real\nDIM 1\nCOMPONENT 1 1 sideways\nROW 1", "real_type"),
    ("BASIS 1\nFIELD quaternion\nDIM 1\nROW 1", "FIELD"),
    ("BASIS 1\nFIELD real\nDIM 0", "line 3: DIM needs a positive integer"),
    ("BASIS 1\nFIELD real\nDIM ²", "line 3: DIM needs a positive integer"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1 0\nROW nan 1", "line 5: ROW value is not finite"),
    ("BASIS 1\nFIELD real\nDIM 3\nCOMPONENT -1 -3 not_applicable",
     "line 4: COMPONENT sizes must be positive"),
    ("BASIS 1\nFIELD real\nDIM 3\nCOMPONENT 0 7 not_applicable",
     "line 4: COMPONENT sizes must be positive"),
    ("BASIS 1\nFIELD real\nDIM 1\nFIELD complex\nROW 1 0", "line 4: duplicate FIELD line"),
    ("BASIS 1\nFIELD real\nDIM 1\nDIM 2\nROW 1", "line 4: duplicate DIM line"),
])
def test_basis_parse_errors(bad, msg):
    with pytest.raises(SpecFormatError, match=msg):
        parse_basis(bad)


# ---------------------------------------------------------------------------
# differential tests against the line-by-line and entry-by-entry readers
# ---------------------------------------------------------------------------

def _outcome(parse, *args):
    try:
        return parse(*args)
    except SpecFormatError as exc:
        return exc


def _assert_same_sdp(text):
    want = _outcome(reference_parse_sdp, text)
    got = _outcome(parse_sdp, text)
    if isinstance(want, SpecFormatError):
        assert isinstance(got, SpecFormatError), "the batched parser accepted a bad file"
        assert (str(got), got.line) == (str(want), want.line)
        return
    assert not isinstance(got, SpecFormatError), str(got)
    assert got.field == want.field
    for x, y in zip([got.c, *got.a, got.b], [want.c, *want.a, want.b]):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()  # bit for bit, signed zeros included
    assert len(got.a) == len(want.a)


_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1e300, 1 / 3]),
    st.integers(-10**6, 10**6).map(float))
_SPELLINGS = ["{!r}", "{:.17g}", "{:.3e}", "{:+.1f}", "{:.25g}"]


@st.composite
def sdp_files(draw):
    """A valid SDP file as a list of lines, with its (n, m, field).

    Fields may be separated by tabs and lines indented; lines may end in
    CRLF, or share a list item through another break that ``splitlines``
    breaks at (a lone CR, a vertical tab, a form feed, a file separator,
    NEL, a line or a paragraph separator); the B line may come first; and a
    comment may hold a B or non-ASCII text.
    """
    field = draw(st.sampled_from(["real", "complex"]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    slots = [(k, i, j) for k in range(m + 1) for i in range(n) for j in range(i, n)]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=30))

    def spell(v):
        return draw(st.sampled_from(_SPELLINGS)).format(v)

    body = []
    for k, i, j in keys:
        fields = [str(k), str(i), str(j), spell(draw(_VALUES))]
        if field == "complex":
            fields.append(spell(draw(st.sampled_from([0.0, -0.0])) if i == j
                                else draw(_VALUES)))
        sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
        indent = draw(st.sampled_from(["", "", "", " ", "\t"]))
        body.append(indent + "MATRIX" + sep + sep.join(fields))
    b_line = "B" + "".join(" " + spell(draw(_VALUES)) for _ in range(m))
    body = draw(st.permutations(body))
    body.insert(draw(st.one_of(st.just(0), st.integers(0, len(body)))), b_line)
    gaps = draw(st.booleans())
    lines = ["# generated", f"{n} {m} {field}"]
    for line in body:
        if gaps:
            lines.extend(draw(st.lists(st.sampled_from(["", "   ", "# note", "\t# x", "# B 1",
                                                        "# café"]), max_size=1)))
            line += draw(st.sampled_from(["", "  ", " # trailing"]))
        lines.append(line)
    out = lines[:2]
    for line in lines[2:]:
        brk = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                                    "\x85", "\u2028", "\u2029"]))
        if brk == "\n":
            out.append(line)
        elif brk == "\r\n":
            out[-1] += "\r"
            out.append(line)
        else:
            out[-1] += brk + line
    return out, (n, m, field)


@st.composite
def mutated_sdp_files(draw):
    lines, (n, m, field) = draw(sdp_files())
    at = [t for t, line in enumerate(lines) if line.split("#")[0].split()[:1] == ["MATRIX"]]
    kind = draw(st.sampled_from([
        "token", "nonfinite", "k", "ij", "long index", "lower", "complex diagonal",
        "duplicate", "fields", "record", "second B", "MATRIX value", "widths",
        "separator", "wide index"]))
    if kind in ("duplicate", "second B", "record") or not at:  # insert a line
        if kind == "duplicate" and at:
            src = draw(st.sampled_from(at))
            extra, lo = lines[src], src + 1
        else:
            # a tag column narrower than 7 bytes would read MATRIXX as MATRIX,
            # and a bytes column drops trailing NULs
            record = draw(st.sampled_from(["MATRICES 0 0 0 1", "MATRIXX 0 0 0 1",
                                           "MATRIX1 0 0 1", "MATRIX\0 0 0 0 1"]))
            extra = {"second B": "B" + " 1" * m, "record": record}.get(kind, "MATRIX 0 0 0 1")
            lo = 2
        pos = draw(st.integers(lo, len(lines)))
        return lines[:pos] + [extra] + lines[pos:]
    t = draw(st.sampled_from(at))
    parts = lines[t].split("#")[0].split()
    if kind == "token":
        parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(
            ["x1", "1.2.3", "0x10", "--1", "1e", "nan(1)", "٣", "1_0", "+2"]))
    elif kind == "MATRIX value":
        parts[draw(st.integers(1, len(parts) - 1))] = "MATRIX"
    elif kind == "separator":  # whitespace that str.split and numpy's reader both split on
        gap = draw(st.integers(0, len(parts) - 1))
        sep = draw(st.sampled_from(["\xa0", "\u3000", "\x1f"]))
        lines[t] = " ".join(parts[:gap]) + sep + " ".join(parts[gap:])
        return lines
    elif kind == "wide index":  # Python's int reads all three, numpy's reader none
        parts[draw(st.integers(1, 3))] = draw(st.sampled_from(
            ["\uff15", "\uff10", "9223372036854775808"]))
    elif kind == "widths":  # token counts that add up: only their places differ
        pair = [" ".join(parts[:-1]), " ".join(parts + ["7"])]
        return lines[:t] + draw(st.permutations(pair)) + lines[t + 1:]
    elif kind == "nonfinite":
        parts[draw(st.integers(4, len(parts) - 1))] = draw(st.sampled_from(
            ["nan", "-inf", "Infinity", "1e999"]))
    elif kind == "k":
        parts[1] = str(draw(st.sampled_from([-1, m + 1, 10**6])))
    elif kind == "ij":
        parts[draw(st.sampled_from([2, 3]))] = str(draw(st.sampled_from([-1, n, n + 7])))
    elif kind == "long index":
        parts[draw(st.integers(1, 3))] = draw(st.sampled_from(["1" * 25, "-" + "9" * 25]))
    elif kind == "lower":
        parts[2], parts[3] = parts[3], parts[2]
    elif kind == "complex diagonal":
        parts[3] = parts[2]
        parts[4:] = ["1", "0.5"] if field == "complex" else ["1", "2"]
    elif kind == "fields":
        parts = parts[:-1] if draw(st.booleans()) else parts + ["7"]
    lines[t] = " ".join(parts)
    return lines


@settings(max_examples=150, deadline=None)
@given(sdp_files())
def test_parse_sdp_matches_reference_on_valid_files(case):
    lines, _ = case
    _assert_same_sdp("\n".join(lines) + "\n")


@settings(max_examples=250, deadline=None)
@given(mutated_sdp_files())
def test_parse_sdp_matches_reference_on_mutated_files(lines):
    _assert_same_sdp("\n".join(lines) + "\n")


@pytest.mark.parametrize("dup", [None, 4096, 4097, 5000])
def test_parse_sdp_longer_than_one_batch(dup):
    n = 100
    lines = ["100 1 real"] + [f"MATRIX 1 {i} {j} {i - j / 7:.17g}"
                              for i in range(n) for j in range(i, n)] + ["B 2"]
    if dup is not None:  # repeat line 2 at this line number
        lines.insert(dup - 1, lines[1])
    _assert_same_sdp("\n".join(lines))


def _sdp_text(field="complex", notes=False, n=110, m=4):
    """A valid file of (m + 1) n (n + 1) / 2 MATRIX lines, 30,525 by default.

    With notes, the B line comes first, a comment line precedes every 100th
    MATRIX line and every 7th ends in a comment.
    """
    rng = np.random.default_rng(3)
    body = []
    for k in range(m + 1):
        for i in range(n):
            for j in range(i, n):
                re, im = rng.standard_normal(2)
                body.append(f"MATRIX {k} {i} {j} {re:.17g}" + (
                    f" {0.0 if i == j else im:.17g}" if field == "complex" else ""))
    b_line = "B" + " 1" * m
    if not notes:
        return "\n".join([f"{n} {m} {field}"] + body + [b_line]) + "\n"
    lines = [f"{n} {m} {field}", b_line]
    for t, line in enumerate(body):
        if t % 100 == 0:
            lines.append(f"# entries {t} on")
        lines.append(line + ("  # note" if t % 7 == 0 else ""))
    return "\n".join(lines) + "\n"


def _assert_read_in_one_call(text):
    """Every line of a valid file is checked by the masks over one reader
    call, none by ``_sdp_entry``, within a bound on the traced memory peak."""
    with mock.patch.object(formats, "_sdp_entry", wraps=formats._sdp_entry) as entry:
        tracemalloc.start()
        try:
            prob = parse_sdp(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert entry.call_count == 0
    assert prob.k.size == 5 * 110 * 111 // 2
    # the reader that split every line on its own peaked at 9,439,437 bytes
    # on the complex file (Python 3.11, numpy 2.4), and 4,096-line runs of
    # the C reader at 5,236,091.  One reader call over 64 KB blocks of lines
    # peaks at 2,688,636 there, and at 3,580,488 on the CRLF copy of the
    # commented real file, which holds two edited copies of the text at once.
    assert peak <= 1.15 * 3_580_488


def test_parse_sdp_checks_no_valid_line_on_its_own():
    _assert_read_in_one_call(_sdp_text())


def test_parse_sdp_checks_no_valid_line_of_a_commented_real_file_on_its_own():
    # comment lines, trailing comments, CRLF line ends and the B line first
    # are all read by the one reader call
    text = _sdp_text("real", notes=True)
    for copy in [text, text.replace("\n", "\r\n")]:
        _assert_read_in_one_call(copy)
        _assert_same_sdp(copy)


def test_parse_sdp_words_a_bad_b_line_without_reading_lines_on_their_own():
    # every MATRIX line passes the masks, so the B line's error is the first
    text = _sdp_text("real").replace("B 1 1 1 1", "B 1 1 1")
    with mock.patch.object(formats, "_sdp_entry", wraps=formats._sdp_entry) as entry:
        with pytest.raises(SpecFormatError, match=r"^line 30527: B line needs exactly 4 values$"):
            parse_sdp(text)
    assert entry.call_count == 0
    _assert_same_sdp(text)


@settings(max_examples=150, deadline=None)
@given(sdp_files())
def test_format_sdp_matches_the_dense_writer_on_parsed_files(case):
    # explicit zeros and -0.0 are stored but not written, as the dense writer
    # skips every zero slot
    lines, _ = case
    prob = _outcome(parse_sdp, "\n".join(lines) + "\n")
    assume(not isinstance(prob, SpecFormatError))  # a short spelling can round to inf
    assert format_sdp(prob) == reference_format_sdp(prob)


_PARTS = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1 / 3, 5e-324, 1e-300, 1e300, 5e300, -1.7e308])


@st.composite
def dense_problems(draw):
    """An SdpProblem from dense Hermitian matrices whose entries include
    zeros, -0.0 and complex values with one zero part."""
    field = draw(st.sampled_from(["real", "complex"]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    mats = []
    for _ in range(m + 1):
        x = np.zeros((n, n), dtype=complex if field == "complex" else float)
        for i in range(n):
            for j in range(i, n):
                v = draw(_PARTS)
                if field == "complex":
                    v = complex(v, draw(st.sampled_from([0.0, -0.0])) if i == j else draw(_PARTS))
                x[i, j], x[j, i] = v, np.conj(v)
        mats.append(x)
    return SdpProblem(c=mats[0], a=mats[1:], b=[draw(_PARTS) for _ in range(m)], field=field)


@settings(max_examples=150, deadline=None)
@given(dense_problems())
def test_format_sdp_matches_the_dense_writer_on_dense_input(prob):
    text = format_sdp(prob)
    assert text == reference_format_sdp(prob)
    back = parse_sdp(text)
    assert all(np.array_equal(back.matrix(k), prob.matrix(k)) for k in range(prob.m + 1))


_ENTRIES = st.one_of(
    st.integers(-2**70, 2**70), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), -0.0, True, False, None, "1"]))


@st.composite
def image_rows(draw):
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["numbers", "pairs", "mixed", "ragged"]))
    pair = st.lists(_ENTRIES, min_size=2, max_size=2)
    if shape == "pairs":
        if draw(st.booleans()):  # mostly well-formed real pairs
            pair = st.tuples(_ENTRIES, st.sampled_from([0, 0.0, -0.0])).map(list)
        entry = pair
    elif shape == "mixed":
        entry = st.one_of(_ENTRIES, pair, st.lists(_ENTRIES, max_size=3))
    else:
        entry = _ENTRIES
    clean = draw(st.booleans())  # finite numbers only, so most matrices convert
    if clean and shape != "mixed":
        entry = st.one_of(st.integers(-2**70, 2**70),
                          st.floats(allow_nan=False, allow_infinity=False))
        entry = st.lists(entry, min_size=2, max_size=2) if shape == "pairs" else entry
    lengths = [draw(st.integers(0, n + 1)) if shape == "ragged" else n for _ in range(n)]
    return [draw(st.lists(entry, min_size=size, max_size=size)) for size in lengths]


@settings(max_examples=250, deadline=None)
@given(image_rows(), st.sampled_from(["real", "complex"]))
def test_parse_matrix_matches_reference(rows, field):
    want = _outcome(reference_parse_matrix, rows, field, "rep.images[0]")
    got = _outcome(formats._parse_matrix, rows, field, "rep.images[0]")
    if isinstance(want, SpecFormatError):
        assert isinstance(got, SpecFormatError) and str(got) == str(want)
    else:
        assert not isinstance(got, SpecFormatError), str(got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# fuzzing: malformed specs end in SpecFormatError and nothing else
# ---------------------------------------------------------------------------

# Integers stay small: a degree or tensor power is a size the parsers build.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.floats(allow_nan=True),
              st.sampled_from(["natural", "defining", "unitary", "orthogonal", "x"])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "k", "inner", "factors", "terms", "images", "degree",
                         "generators", "compact", "dimension"]), inner, max_size=4),
    max_leaves=12)


def _rep_nodes(depth):
    """Rep spec trees of at most dimension 81 over S3 or U(2)."""
    leaf = st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["natural", "defining", "induced", 3])}),
        st.fixed_dictionaries({"kind": st.just("generator-images"),
                               "images": st.lists(st.one_of(st.just([[1]]), st.just([[-1]]),
                                                            st.just([[0, 1], [1, 0]]),
                                                            st.just([[False, True], [True, False]]),
                                                            _JSON),
                                                  max_size=3)}),
        _JSON)
    if depth == 0:
        return leaf
    sub = _rep_nodes(depth - 1)
    return st.one_of(
        leaf,
        st.fixed_dictionaries({"kind": st.sampled_from(["tensor", "dsum"]),
                               "factors": st.lists(sub, max_size=2),
                               "terms": st.lists(sub, max_size=2)}),
        st.fixed_dictionaries({"kind": st.sampled_from(["conj", "power"]), "inner": sub,
                               "k": st.one_of(st.integers(-1, 2), st.booleans(), st.just("2"),
                                              st.just(2.0))}))


def _holds_bool(doc):
    if isinstance(doc, dict):
        return any(map(_holds_bool, doc.values()))
    return isinstance(doc, bool) or isinstance(doc, list) and any(map(_holds_bool, doc))


# integer slots of the group spec, with booleans drawn into them
_INTS = st.one_of(st.integers(-1, 4), st.booleans())
_GROUPS = st.one_of(
    st.fixed_dictionaries({"degree": _INTS, "generators": st.lists(st.lists(_INTS, max_size=4),
                                                                   max_size=2)}),
    st.fixed_dictionaries({"compact": st.sampled_from(["unitary", "orthogonal"]),
                           "dimension": _INTS}))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_JSON, _GROUPS).map(json.dumps) | st.text(max_size=40))
def test_parse_group_spec_fuzz(text):
    try:
        parse_group_spec(text)
    except SpecFormatError:
        return
    # a spec that parses holds no boolean read as 0 or 1
    assert not _holds_bool(json.loads(text))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rep_nodes(2).map(json.dumps) | st.text(max_size=20),
       st.sampled_from(["s3", "u2"]), st.sampled_from(["real", "complex"]))
def test_parse_rep_spec_fuzz(text, group, field):
    g = (parse_group_spec('{"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}')
         if group == "s3" else CompactGroupHandle("unitary", 2))
    try:
        parse_rep_spec(text, g, field)
    except SpecFormatError:
        return
    assert not _holds_bool(json.loads(text))


_BASIS_LINES = st.one_of(
    st.sampled_from(["BASIS 1", "FIELD real", "FIELD complex", "DIM 2", "DIM ²", "DIM 0",
                     "COMPONENT 1 2 real", "COMPONENT 2 1 complex", "COMPONENT -1 -2 real",
                     "COMPONENT 0 2 real", "COMPONENT 2 0 real", "COMPONENT -1 -1 real",
                     "COMPONENT x 1 real", "ROW 1 0", "ROW 0 1", "ROW 1 0 0 0", "ROW nan 1",
                     "ROW 1e999 0", "# c", "", "FIELD", "DIM", "BASIS"]),
    st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(_BASIS_LINES, max_size=8))
def test_parse_basis_fuzz(magic, lines):
    try:
        _, decomp = parse_basis("\n".join(["BASIS 1"] * magic + lines))
    except SpecFormatError:
        return
    assert all(c.dimension >= 1 and c.multiplicity >= 1 for c in decomp.components)
