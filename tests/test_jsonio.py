"""Document round-trips, kind detection, and deterministic text formats."""

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergroups import cli, harmonic
from hypergroups.catalog import cyclic_scheme
from hypergroups.cli import _dual_rows
from hypergroups.errors import ParseError
from hypergroups.families.cosh import CoshFamily, cosh_window_scheme
from hypergroups.generalized import classical_embedding
from hypergroups.groups import cyclic_group, symmetric_group
from hypergroups.harmonic import character_table
from hypergroups.hypergroup import hypergroup_from_scheme
from hypergroups.jsonio import (
    _csv,
    _norm_label,
    cayley_from_json,
    detect_kind,
    dump_report,
    format_complex,
    format_float,
    generalized_from_json,
    generalized_to_json,
    hypergroup_from_json,
    hypergroup_to_json,
    load_document,
    scheme_from_json,
    scheme_to_json,
)
from legacy_stack import stack_document
from ratio_oracle import parse_ratio


def test_format_float_17_digits():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(1.0) == "1"
    assert format_float(-0.25) == "-0.25"
    third = float(format_float(np.pi))
    assert third == np.pi  # lossless round-trip


def test_format_complex_grammar():
    assert format_complex(1 + 2j) == "1+2i"
    assert format_complex(1 - 2j) == "1-2i"
    assert format_complex(0.5 + 0j) == "0.5+0i"
    assert format_complex(-1.5 - 0.25j) == "-1.5-0.25i"
    s = format_complex(0.125 - 8j)
    assert complex(s.replace("i", "j")) == 0.125 - 8j  # machine-parseable


def test_scheme_roundtrip(pentagon, petersen, z4):
    for s in (pentagon, petersen, z4):
        doc = scheme_to_json(s)
        assert detect_kind(doc) == "scheme"
        s2 = scheme_from_json(json.loads(dump_report(doc)))
        np.testing.assert_array_equal(s.relation, s2.relation)
        assert s.classes == s2.classes
        np.testing.assert_array_equal(s.involution, s2.involution)


def test_hypergroup_roundtrip_exact(pentagon):
    h = hypergroup_from_scheme(pentagon)
    doc = hypergroup_to_json(h)
    assert detect_kind(doc) == "hypergroup"
    h2 = hypergroup_from_json(json.loads(dump_report(doc)))
    assert h2.exact
    assert h2.conv.dtype == object
    assert (h2.conv == h.conv).all()
    assert h2.conv[1, 1, 0] == Fraction(1, 2)


@pytest.mark.parametrize("text, value", [
    ("0.5", Fraction(1, 2)), (" 1/2", Fraction(1, 2)), ("-3", Fraction(-3)),
    ("1e-2", Fraction(1, 100)), ("+4/6 ", Fraction(2, 3)), ("7", Fraction(7)),
])
def test_value_strings_follow_the_fraction_grammar(text, value):
    h = hypergroup_from_json(_z2_with(text))
    assert h.exact
    assert h.conv[1, 1, 1] == value and h.conv[1, 1, 0] == 1


def _z2_with(*values) -> dict:
    """Two classes, e the identity and a * a = e + each of ``values`` at a, in turn."""
    return {"classes": ["e", "a"], "conv": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"],
        *([1, 1, 1, v] for v in values)]}


_spaces = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
_digits = st.text(st.sampled_from("0123456789\u0663\uff17"), max_size=6)  # Arabic 3, wide 7
ratio_texts = st.one_of(
    st.builds("{}{}{}{}{}".format, _spaces, st.sampled_from(["", "+", "-", "+-"]), _digits,
              st.one_of(_digits.map("/{}".format),
                        st.sampled_from(["", "/0", "/00", "/-2", "/", ".5", "e3", "E-2", "_0"])),
              _spaces),
    st.text(st.sampled_from("0123456789/ +-.eE_"), max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ratio_texts)
@example("3/0")
@example("2/4")
@example("-0004/0006")
@example("1e3")
@example(" \u0663/\uff17 ")
@example("1" * 4400)
@example("1" * 4400 + "/3")
def test_ratio_strings_read_as_the_oracle_reads_them(text):
    """A value string reads to the oracle's p / q as N over L, or to its error."""
    try:
        p, q = parse_ratio(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            hypergroup_from_json(_z2_with(text))
        assert str(got.value) == str(exc)
        return
    h = hypergroup_from_json(_z2_with(text))
    value = Fraction(p, q)
    assert (int(h.values[1, 1, 1]), h.scale) == (value.numerator, value.denominator)


def test_one_float_row_makes_a_float_document():
    """Overwritten rows count: the last value of [1, 1, 1] is '1/2', read as a float."""
    h = hypergroup_from_json(_z2_with(0.5, "1/2"))
    assert not h.exact and h.values.dtype == np.float64 and h.conv[1, 1, 1] == 0.5


def test_hypergroup_roundtrip_float(pentagon):
    h = hypergroup_from_scheme(pentagon)
    from hypergroups.hypergroup import make_hypergroup

    hf = make_hypergroup(h.classes, h.conv_float)
    doc = hypergroup_to_json(hf)
    h2 = hypergroup_from_json(doc)
    assert not h2.exact
    np.testing.assert_allclose(h2.conv, hf.conv, rtol=0, atol=0)


def test_generalized_roundtrip_embedding(pentagon, petersen, s3_mod_h, s4_mod_s3):
    """Integer and string class labels read back as written."""
    for s in (pentagon, petersen, cyclic_scheme(12), s3_mod_h, s4_mod_s3):
        g = classical_embedding(s)
        doc = generalized_to_json(g)
        assert detect_kind(doc) == "generalized"
        g2 = generalized_from_json(json.loads(dump_report(doc)))
        assert not g2.windowed
        assert g2.classes == g.classes and g2.points == g.points
        np.testing.assert_array_equal(g2.relation, g.relation)
        np.testing.assert_allclose(g2.step, g.step, rtol=0, atol=0)
        g3 = generalized_from_json(json.loads(dump_report(stack_document(g))))
        np.testing.assert_allclose(g3.step, g.step, rtol=0, atol=0)
        np.testing.assert_allclose(g2.p_tilde, g.p_tilde, rtol=0, atol=1e-12)


def test_generalized_roundtrip_windowed():
    g = cosh_window_scheme(CoshFamily(1.0), 4)
    doc = generalized_to_json(g)
    g2 = generalized_from_json(json.loads(dump_report(doc)))
    assert g2.windowed
    np.testing.assert_array_equal(g2.boundary_distance, g.boundary_distance)
    np.testing.assert_array_equal(g2.pair_checked, g.pair_checked)
    np.testing.assert_allclose(g2.vertex_weight, g.vertex_weight, rtol=1e-15)
    np.testing.assert_allclose(
        g2.p_tilde[g2.pair_checked], g.p_tilde[g.pair_checked], rtol=0, atol=1e-12)


def test_documents_missing_their_data_are_parse_errors():
    """The CLI detects neither document without its data key; the readers name it."""
    with pytest.raises(ParseError, match="^cayley document missing 'table'$"):
        cayley_from_json({"elements": [0, 1]})
    doc = generalized_to_json(classical_embedding(cyclic_scheme(3)))
    del doc["step"]
    with pytest.raises(ParseError, match="^generalized document missing 'step'$"):
        generalized_from_json(doc)


def test_cayley_document(tmp_path):
    doc = {
        "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        "elements": [0, 1, 2, 3],
        "subgroup": [0, 2],
    }
    assert detect_kind(doc) == "cayley"
    grp, sub = cayley_from_json(doc)
    assert grp.order == 4
    assert sorted(int(i) for i in sub) == [0, 2]
    ref = cyclic_group(4)
    np.testing.assert_array_equal(grp.mul, ref.mul)
    doc.pop("subgroup")
    grp2, sub2 = cayley_from_json(doc)
    assert [int(i) for i in sub2] == [grp2.identity]


def _recursive_label(v):
    """The reference conversion: each list, at any depth, a tuple; a dict a ParseError."""
    if isinstance(v, list):
        return tuple(_recursive_label(x) for x in v)
    if isinstance(v, dict):
        raise ParseError(f"labels must be numbers, strings or lists, got {v!r}")
    return v


json_scalars = st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=2),
                         st.floats(allow_nan=False))
json_labels = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=1), inner, max_size=1)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(json_labels, max_size=5))
@example([[0, 1], [1, 0]])
@example([[0, [1]], [1, 0]])
@example([[0, 1], [1, {"a": 0}]])
@example([[0, 1], 2, [{"a": 0}]])
def test_labels_convert_as_the_recursion_converts_them(v):
    """Lists of scalars and lists of flat lists convert in one pass; anything deeper by
    recursion: the same tuples, or the same ParseError for the first dict."""
    try:
        want = _recursive_label(v)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _norm_label(v)
        assert str(got.value) == str(exc)
    else:
        got = _norm_label(v)
        assert got == want and repr(got) == repr(want)


def test_detect_kind_priority_and_failure():
    assert detect_kind({"conv": [], "classes": []}) == "hypergroup"
    assert detect_kind({"stoch": [], "relations": []}) == "generalized"
    assert detect_kind({"step": [], "relations": []}) == "generalized"
    with pytest.raises(ParseError):
        detect_kind({"something": 1})


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_document(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_document(str(arr))
    with pytest.raises(ParseError):
        load_document(str(tmp_path / "missing.json"))


def test_dump_report_is_deterministic(pentagon):
    h = hypergroup_from_scheme(pentagon)
    a = dump_report(hypergroup_to_json(h))
    b = dump_report(hypergroup_to_json(h))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)  # valid JSON text


def test_dump_report_sanitizes_numpy_and_fractions():
    text = dump_report({
        "f": Fraction(3, 7),
        "arr": np.arange(3),
        "x": np.float64(0.5),
        "z": 1 + 1j,
        "flag": np.bool_(True),
    })
    obj = json.loads(text)
    assert obj["f"] == "3/7"
    assert obj["arr"] == [0, 1, 2]
    assert obj["x"] == 0.5
    assert obj["z"] == "1+1i"
    assert obj["flag"] is True


def test_chartable_csv_shape(pentagon, tmp_path):
    doc = tmp_path / "pentagon.json"
    doc.write_text(json.dumps(scheme_to_json(pentagon)))
    assert cli.main(["chartable", str(doc), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "chartable.csv").read_text().strip().split("\n")
    assert lines[0].startswith("character,")
    assert lines[0].endswith(",plancherel")
    assert len(lines) == 1 + 3
    cells = lines[1].split(",")
    assert len(cells) == 1 + 3 + 1
    assert float(cells[-1]) == pytest.approx(0.2, abs=1e-9)


def test_dualtable_csv_shape():
    weights = np.array([[[1.0, 0.0], [0.25, 0.75]], [[0.25, 0.75], [0.5, 0.5]]])
    assert list(_csv(["left", "right", "u", "v"], _dual_rows(["u", "v"], weights))) == [
        "left,right,u,v\n",
        "u,u,1,0\n",
        "u,v,0.25,0.75\n",
        "v,u,0.25,0.75\n",
        "v,v,0.5,0.5\n",
    ]


def test_csv_cells_match_recorded_text(monkeypatch, tmp_path):
    """Cell text recorded before the CSV writer was shared: -0.0, nan and a
    large float in both tables, complex cells as a+bi, the chartable's read
    from the report's character texts."""
    nan = float("nan")
    tbl = SimpleNamespace(
        classes=(0, 1), labels=("chi0", "chi1"),
        chars=np.array([[1 + 0j, 0.5 - 0.25j], [complex(-0.0, -0.0), complex(nan, 0.0)]]),
        plancherel=np.array([1.2345678901234567e300, nan]), haar=np.ones(2),
        positive_index=0, residual=0.0)
    monkeypatch.setattr(harmonic, "character_table", lambda h, seed: tbl)
    doc = tmp_path / "z2.json"
    doc.write_text(json.dumps(scheme_to_json(cyclic_scheme(2))))
    assert cli.main(["chartable", str(doc), "--out", str(tmp_path)]) == 2  # nan fails
    assert (tmp_path / "chartable.csv").read_text() == (
        "character,class_0,class_1,plancherel\n"
        "chi0,1+0i,0.5-0.25i,1.2345678901234567e+300\n"
        "chi1,-0+0i,nan+0i,nan\n")
    report = json.loads((tmp_path / "chartable.json").read_text())
    assert report["results"]["characters"] == [["1+0i", "0.5-0.25i"], ["-0+0i", "nan+0i"]]
    weights = np.array([[[1.0, -0.0], [0.5, 0.25]],
                        [[nan, 1.2345678901234567e300], [0.1, 2.0 ** -60]]])
    labels = ["chi0", "chi1"]
    assert "".join(_csv(["left", "right", *labels], _dual_rows(labels, weights))) == (
        "left,right,chi0,chi1\n"
        "chi0,chi0,1,-0\n"
        "chi0,chi1,0.5,0.25\n"
        "chi1,chi0,nan,1.2345678901234567e+300\n"
        "chi1,chi1,0.10000000000000001,8.6736173798840355e-19\n")


def test_dualtable_csv_equals_the_per_cell_table():
    """Each distinct weight is formatted once; the text is _csv's, cell by cell."""
    values = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1 / 3, 0.1, 1.2345678901234567e300,
              0.30000000000000004, float("nan"), 1.0]
    labels = ["chi0", "chi1", "chi2"]
    weights = np.resize(values, (3, 3, 3))  # each value two or three times
    per_cell = _csv(["left", "right", *labels], (
        [labels[a], labels[b], *weights[a, b].tolist()] for a in range(3) for b in range(3)))
    assert list(_csv(["left", "right", *labels], _dual_rows(labels, weights))) == list(per_cell)


def test_s3_cayley_roundtrip_via_json(tmp_path):
    g = symmetric_group(3)
    doc = {
        "elements": [list(e) for e in g.elements],
        "table": g.mul.tolist(),
    }
    path = tmp_path / "s3.json"
    path.write_text(dump_report(doc))
    loaded = load_document(str(path))
    grp, _ = cayley_from_json(loaded)
    assert grp.order == 6
    np.testing.assert_array_equal(grp.mul, g.mul)
