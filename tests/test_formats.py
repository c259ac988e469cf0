import numpy as np
import pytest

from repblock import (CompactGroupHandle, PermutationGroup, decompose,
                      natural_perm_rep, sample_commutant, SdpProblem)
from repblock.formats import (SpecFormatError, format_basis, format_group_spec,
                              format_sdp, parse_basis, parse_group_spec,
                              parse_inline_group, parse_rep_spec, parse_sdp)

from conftest import symmetric


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------

def test_group_spec_roundtrip_permutation():
    text = '{"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}\n'
    g = parse_group_spec(text)
    assert isinstance(g, PermutationGroup)
    assert g.order() == 6
    assert format_group_spec(g) == text
    assert format_group_spec(parse_group_spec(format_group_spec(g))) == text


def test_group_spec_roundtrip_compact():
    text = '{"compact": "unitary", "dimension": 3}\n'
    h = parse_group_spec(text)
    assert isinstance(h, CompactGroupHandle)
    assert h.kind == "unitary" and h.dim == 3
    assert format_group_spec(h) == text


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


def test_inline_group():
    h = parse_inline_group("unitary:4")
    assert h.kind == "unitary" and h.dim == 4
    assert parse_inline_group("orthogonal:2").kind == "orthogonal"
    with pytest.raises(SpecFormatError):
        parse_inline_group("unitary:x")
    with pytest.raises(SpecFormatError):
        parse_inline_group("special:3")


# ---------------------------------------------------------------------------
# representation specs
# ---------------------------------------------------------------------------

def test_rep_spec_natural():
    g = symmetric(3)
    rep = parse_rep_spec('{"kind": "natural"}', g, "complex")
    assert rep.dim == 3 and rep.field == "complex"


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
    with pytest.raises(SpecFormatError, match="line 1"):
        parse_rep_spec("not json", g, "complex")


S3_IMAGES = '{"kind": "generator-images", "images": [%s, %s]}'


@pytest.mark.parametrize("first,second,field,msg", [
    ("[[NaN]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry is not finite"),
    ("[[Infinity]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
    ("[[1]]", "[[-Infinity]]", "real", r"rep\.images\[1\]\[0\]\[0\]: matrix entry"),
    ("[[1, 0], [0, NaN]]", "[[1, 0], [0, 1]]", "real",
     r"rep\.images\[0\]\[1\]\[1\]: matrix entry is not finite"),
    ("[[[NaN, 0]]]", "[[1]]", "real", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
    ("[[[1, Infinity]]]", "[[1]]", "complex", r"rep\.images\[0\]\[0\]\[0\]: matrix entry"),
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


@pytest.mark.parametrize("bad,msg", [
    ("nope", "BASIS 1"),
    ("BASIS 1\nDIM 2\nROW 1 0\nROW 0 1", "before FIELD"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1 0", "2 ROW lines"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1\nROW 0 1", "values"),
    ("BASIS 1\nFIELD real\nDIM 1\nCOMPONENT 1 1 sideways\nROW 1", "real_type"),
    ("BASIS 1\nFIELD quaternion\nDIM 1\nROW 1", "FIELD"),
    ("BASIS 1\nFIELD real\nDIM 2\nROW 1 0\nROW nan 1", "line 5: ROW value is not finite"),
])
def test_basis_parse_errors(bad, msg):
    with pytest.raises(SpecFormatError, match=msg):
        parse_basis(bad)
