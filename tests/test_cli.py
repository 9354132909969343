"""Command-line entry points: exit codes, report envelopes, and determinism."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from hypergroups.catalog import pentagon_scheme, petersen_scheme
from hypergroups import cli, harmonic, jsonio
from hypergroups.cli import main
from hypergroups.errors import NoInvolution, SupportMismatch
from hypergroups.families import cosh, gab
from hypergroups.generalized import classical_embedding
from hypergroups.harmonic import character_table
from hypergroups.hypergroup import hypergroup_from_scheme, make_hypergroup
from hypergroups.jsonio import (
    dump_report,
    generalized_from_json,
    generalized_to_json,
    hypergroup_to_json,
    scheme_to_json,
)
from hypergroups.schemes import build_scheme
from legacy_stack import stack_document

SCHEMA_PATH = "src/hypergroups/schemas/report.schema.json"


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def docs(tmp_path):
    """Input documents of each kind, written to disk."""
    s = pentagon_scheme()
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(dump_report(obj) if isinstance(obj, dict) else obj)
        paths[name] = str(p)

    put("pentagon.json", scheme_to_json(s))
    put("hg.json", hypergroup_to_json(hypergroup_from_scheme(s)))
    put("gen.json", generalized_to_json(classical_embedding(s)))
    put("gen-stoch.json", stack_document(classical_embedding(s)))
    put("cayley.json", {
        "elements": [0, 1, 2, 3],
        "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        "subgroup": [0, 2],
    })
    put("corrupt.json", "{oops")
    bad = scheme_to_json(s)
    assert bad["relations"][1] == [0, 1, 1]
    bad["relations"][1] = [0, 1, 2]  # (0,1) moved; transpose class breaks
    put("broken.json", bad)

    from hypergroups.groups import scheme_from_group_quotient, symmetric_group
    g3 = symmetric_group(3)
    put("s3reg.json", scheme_to_json(scheme_from_group_quotient(g3, [g3.identity])))

    neg_chars = np.array([
        [1.0, 1.0, 1.0],
        [1.0, 0.4515356339101362, -0.7228151681653499],
        [1.0, -0.15750419611221544, 0.06484801858483283],
    ])
    neg_w = np.array([1.0, 9.314267567317367, 7.202012270481875])
    pi = 1.0 / ((neg_chars ** 2) @ neg_w)
    conv = np.einsum("g,gi,gj,gk->ijk", pi, neg_chars, neg_chars, neg_chars)
    conv = np.maximum(conv * neg_w[None, None, :], 0.0)
    put("negdual.json", hypergroup_to_json(make_hypergroup((0, 1, 2), conv)))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def check_envelope(schema, report, command):
    jsonschema.validate(report, schema)
    assert report["schema"] == "hypergroups-report/1"
    assert report["tool"] == "hypergroups"
    assert report["command"] == command
    assert "seed" in report["parameters"]


def test_verify_scheme_passes(capsys, schema, docs):
    code, rep = run(capsys, "verify", docs["pentagon.json"])
    assert code == 0
    check_envelope(schema, rep, "verify")
    assert rep["status"] == "pass"
    assert rep["results"]["audit"]["all_hold"] is True
    assert rep["results"]["kind"] == "scheme"
    assert rep["results"]["flags"]["commutative"] is True


def test_verify_each_input_kind(capsys, schema, docs):
    for name in ("pentagon.json", "hg.json", "gen.json", "gen-stoch.json", "cayley.json"):
        code, rep = run(capsys, "verify", docs[name])
        assert code == 0, name
        check_envelope(schema, rep, "verify")
        assert rep["status"] == "pass", name


def test_parse_error_exit_code(capsys, docs):
    code, _ = run(capsys, "verify", docs["corrupt.json"])
    assert code == 1


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    code, _ = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1


def test_structural_error_exit_code(capsys, docs):
    code, _ = run(capsys, "verify", docs["broken.json"])
    assert code == 2


def test_not_commutative_exit_code(capsys, docs):
    code, _ = run(capsys, "chartable", docs["s3reg.json"])
    assert code == 3


def test_family_parameter_exit_code(capsys):
    code, _ = run(capsys, "family", "gab", "--a", "1.0", "--b", "3.0")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["--report", "lp-sweep", "--sweep-points", "1"],
    ["--report", "psd-sweep", "--x-step", "0"],
    ["--report", "psd-sweep", "--x-step", "-0.5"],
    ["--report", "psd-sweep", "--x-min", "1", "--x-max", "-1"],
    ["--report", "psd-sweep", "--x-step", "1e-300"],
    ["--report", "psd-sweep", "--x-min=-1e308", "--x-max=1e308", "--x-step", "1e-300"],
    ["--report", "psd-sweep", "--x-max", "inf"],
    ["--report", "psd-sweep", "--radius", "-1"],
    ["--max-degree", "-1"],
    ["--report", "psd-sweep", "--radius", "8"],  # 131071 vertices, past the budget
    # P_n(-1.5) up to degree 1200 overflows float64
    ["--a", "2", "--b", "2", "--report", "psd-sweep", "--radius", "600", "--x-step", "3"],
    ["--report", "lp-sweep", "--moment-order", "100000"],
    ["--report", "lp-sweep", "--moment-order", "65"],
    ["--report", "lp-sweep", "--sweep-points", "101"],
    ["--a", "inf"],  # later options win: a = inf, b = 3
    ["--b", "inf", "--report", "psd-sweep"],
    ["--a", "1e308"],  # s1 is inf / inf
    ["--a", "1e200"],  # (a - 1)^2 overflows in the coefficients of P_3 P_3
])
def test_degenerate_gab_sweep_rejected(capsys, argv):
    code = main(["family", "gab", "--a", "3", "--b", "3", *argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["family", "gab", "--a", "x", "--b", "3"],
    ["family", "gab", "--a", "3", "--b", "3", "--report", "nope"],
    ["family", "gab", "--a", "3", "--b", "3", "--bogus"],
    ["family", "cosh", "--r", "1", "--report", "psd-sweep"],
    ["family"],
    ["chartable", "doc.json", "--seed", "zz"],
    ["verify"],
    [],
])
def test_usage_errors_are_parse_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hypergroups verify")


@pytest.mark.parametrize("r, cause", [("inf", "must be finite"), ("60", "overflows")])
def test_cosh_overflow_rejected(capsys, r, cause):
    code = main(["family", "cosh", "--r", r])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert cause in captured.err


@pytest.mark.parametrize("r", ["18", "19", "20"])
def test_cosh_large_rate_passes_or_names_the_float64_limit(capsys, r):
    code = main(["family", "cosh", "--r", r])
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["status"] == "pass"
    else:
        assert code == 4
        assert "float64" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("vertex_weight", "heavy"), ("vertex_weight", [None]), ("stoch", "x"), ("stoch", [[["p"]]]),
    ("step", "x"), ("step", [["p"]]),
])
def test_non_numeric_generalized_arrays_are_parse_errors(capsys, docs, tmp_path, key, value):
    """'stoch' is edited in the legacy stack document, the rest in the step document."""
    with open(docs["gen-stoch.json" if key == "stoch" else "gen.json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = [value] + doc[key][1:]
    path = tmp_path / "bad_gen.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {key!r}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key, index", [("vertex_weight", (0,)), ("stoch", (1, 0, 0)),
                                        ("step", (1, 0))],
                         ids=["vertex_weight", "stoch", "step"])
def test_generalized_integers_past_the_float_range_are_parse_errors(capsys, docs, tmp_path,
                                                                    key, index):
    """An integer too large for a float (the reader keeps JSON integers exact)
    is a parse error, not an OverflowError traceback; 'stoch' is edited in the
    legacy stack document."""
    with open(docs["gen-stoch.json" if key == "stoch" else "gen.json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    cell = doc[key]
    for i in index[:-1]:
        cell = cell[i]
    cell[index[-1]] = 10**400
    path = tmp_path / "big_gen.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {key!r} must be a rectangular array of finite numbers\n"


@pytest.mark.parametrize("name, key, edit, message", [
    ("gen.json", "step", lambda v: v[:-1], "step must have shape (5, 5), got (4, 5)"),
    ("gen.json", "step", lambda v: [v], "step must have shape (5, 5), got (1, 5, 5)"),
    ("gen-stoch.json", "stoch", lambda v: v[:-1], "stoch must have shape (3, 5, 5), got (2, 5, 5)"),
    ("gen-stoch.json", "stoch", lambda v: v[0], "stoch must have shape (3, 5, 5), got (5, 5)"),
], ids=["step-short", "step-stacked", "stoch-short", "stoch-one-matrix"])
def test_transition_data_of_the_wrong_shape_is_a_parse_error(capsys, docs, tmp_path, name, key,
                                                             edit, message):
    with open(docs[name], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = edit(doc[key])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == f"error: {message}\n"


Z2_TABLE = {"elements": [0, 1], "table": [[0, 1], [1, 0]]}
TWO_POINTS = {"points": [0, 1], "classes": ["e", "a"],
              "relations": [[0, 0, "e"], [0, 1, "a"], [1, 0, "a"], [1, 1, "e"]]}


@pytest.mark.parametrize("command, doc, message", [
    ("chartable", {"elements": [0, 1], "table": 5}, "'table' must be a list, got int"),
    ("chartable", {"elements": [0, 1], "table": [[0, 1], 5]}, "'table' rows must be lists"),
    ("chartable", {**Z2_TABLE, "subgroup": 3}, "'subgroup' must be a list, got int"),
    ("chartable", {"elements": 7, "table": [[0]]}, "'elements' must be a list, got int"),
    ("verify", {**TWO_POINTS, "relations": 4}, "'relations' must be a list, got int"),
    ("verify", {**TWO_POINTS, "points": "01"}, "'points' must be a list, got str"),
    ("verify", {**TWO_POINTS, "involution": 3}, "'involution' must be a list, got int"),
    ("verify", {"classes": ["e", "a"], "conv": 3}, "'conv' must be a list, got int"),
    ("verify", {"classes": {"e": 0}, "conv": []}, "'classes' must be a list, got dict"),
    ("verify", {**TWO_POINTS, "relations": 4, "stoch": []}, "'relations' must be a list, got int"),
    ("verify", {**TWO_POINTS, "relations": 4, "step": []}, "'relations' must be a list, got int"),
])
def test_fields_that_are_not_lists_are_parse_errors(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({"classes": [], "conv": []}, "hypergroup document has no classes"),
    ({"classes": [0], "conv": [[0, 0, 0, "1/0"]]}, "bad fraction '1/0'"),
    ({"classes": [0], "conv": [[0, 0, 0, "abc"]]}, "bad fraction 'abc'"),
    ({"classes": [0], "conv": [[0, 0, 0, 0.5], [0, 0, 0, "1e400"]]},
     "conv value outside the float range"),
    ({"classes": [0], "conv": [[0, 0, 0, 0.5], [0, 0, 0, 10**400]]},
     "conv value outside the float range"),
    ({"classes": [0, 1], "conv": [[True, 0, 0, 1]]}, "conv indices out of range in [True, 0, 0, 1]"),
    ({"classes": [0], "conv": [[0, 0, 0, True]]}, "conv value must be number or 'p/q', got True"),
    ({"classes": [0], "conv": [[0, 0, 0, 1], [0, 0, 0, False]]},
     "conv value must be number or 'p/q', got False"),
    ({"classes": [0], "conv": [[0, 0, 1]]}, "conv rows must be [i, j, k, value], got [0, 0, 1]"),
    ({"classes": [0], "conv": [5]}, "conv rows must be [i, j, k, value], got 5"),
])
def test_malformed_hypergroup_documents_are_parse_errors(capsys, tmp_path, doc, message):
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "hypergroup"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"


def _z2_hypergroup(v10, v11):
    """Z_2 with (delta_1 * delta_1) = v10 delta_0 + v11 delta_1 (a group at 1.0, 0)."""
    return {"classes": [0, 1], "conv": [[0, 0, 0, 1.0], [0, 1, 1, 1.0], [1, 0, 1, 1.0],
                                        [1, 1, 0, v10], [1, 1, 1, v11]]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_hypergroup_values_are_parse_errors(capsys, tmp_path, value):
    """JSON's NaN, Infinity and -Infinity, which Python's reader accepts, are no
    convolution values, for every command that reads a hypergroup."""
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(_z2_hypergroup(value, 0.5)))
    for command in ("verify", "hypergroup", "chartable", "dualtable"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1, command
        assert captured.err == "error: conv value is not a finite number\n", command


@pytest.mark.filterwarnings("error")
def test_overflowing_hypergroup_fails_without_warnings(capsys, tmp_path):
    """Row sums and associativity overflow past the float range: the tensor
    fails its axioms, with nothing on stderr."""
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(_z2_hypergroup(1e308, 1e308)))
    for command in ("verify", "hypergroup"):
        code, rep = run(capsys, command, str(path))
        assert code == 2 and rep["status"] == "fail", command
        assert capsys.readouterr().err == "", command


@pytest.mark.filterwarnings("error")
def test_character_tables_of_overflowing_hypergroups_fail_in_one_line(capsys, tmp_path):
    """Z_2's T = sum_i mu_i M_i stays finite and its eigenvector for the identity class
    vanishes there; with x * y = y * y = 1e308 x + ... the draws of seeds 1 and 2 make T
    overflow float64 before it is diagonalized, and the error names the seed."""
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps(_z2_hypergroup(1e308, 1e308)))
    three = tmp_path / "three.json"
    three.write_text(json.dumps({"classes": [0, 1, 2], "conv": [
        [0, 0, 0, 1.0], [0, 1, 1, 1.0], [0, 2, 2, 1.0], [1, 0, 1, 1.0], [2, 0, 2, 1.0],
        [1, 1, 0, 1.0], [2, 2, 0, 1.0], [1, 2, 1, 1e308], [2, 1, 1, 1e308], [2, 2, 1, 1e308]]}))
    for command in ("chartable", "dualtable"):
        for argv, message in (
            ([str(z2)], "candidate character vanishes at the identity class"),
            ([str(three), "--seed", "1"], "the combination drawn with seed 1 overflows "
                                          "float64; redraw with another seed"),
            ([str(three), "--seed", "2"], "the combination drawn with seed 2 overflows "
                                          "float64; redraw with another seed"),
        ):
            code = main([command, *argv])
            captured = capsys.readouterr()
            assert code == 2, (command, argv)
            assert captured.out == ""
            assert captured.err == f"error: {message}\n", (command, argv)


BIG = 10**400  # an exact integer past float64


def _strict(text: str):
    """The report, read by a JSON reader that refuses NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
def test_non_finite_float_residuals_are_written_as_null(capsys, tmp_path):
    """The associativity residual of x * y = y * y = 1e308 x + ... is nan and its row-sum
    residual infinite: both are null, and the report is strict JSON."""
    path = tmp_path / "z2-overflow.json"
    path.write_text(json.dumps(_z2_hypergroup(1e308, 1e308)))
    for command in ("verify", "hypergroup"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        audit = _strict(captured.out)["results"]["audit"]
        for name in ("associativity", "row_sums"):
            assert audit[name]["holds"] is False and audit[name]["residual"] is None, name


@pytest.mark.filterwarnings("error")
def test_exact_residuals_past_float64_are_written_as_null(capsys, tmp_path):
    """An exact integer entry of 10^400 makes the row-sum residual leave float64: it is
    null, with exit 2 and nothing on stderr; the character table needs the tensor in
    float64 and names the value that overflows."""
    path = tmp_path / "z2-big.json"
    path.write_text('{"classes": [0, 1], "conv": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], '
                    f'[1, 1, 0, {BIG}], [1, 1, 1, {BIG}]]}}')
    for command in ("verify", "hypergroup"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        row_sums = _strict(captured.out)["results"]["audit"]["row_sums"]
        assert row_sums["holds"] is False and row_sums["residual"] is None, command
    for command in ("chartable", "dualtable"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a conv value overflows float64\n", command


@pytest.mark.filterwarnings("error")
def test_exact_haar_weight_past_float64_fails_in_one_line(capsys, tmp_path):
    """x * x = 10^-400 e + (1 - 10^-400) x is an exact hypergroup whose Haar weight of x,
    10^400, leaves float64: it verifies, and its tables end in one error line."""
    path = tmp_path / "z2-tiny.json"
    path.write_text('{"classes": [0, 1], "conv": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], '
                    f'[1, 1, 0, "1/{BIG}"], [1, 1, 1, "{BIG - 1}/{BIG}"]]}}')
    assert main(["verify", str(path)]) == 0
    assert _strict(capsys.readouterr().out)["status"] == "pass"
    for command in ("chartable", "dualtable"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a Haar weight overflows float64\n", command


@pytest.mark.filterwarnings("error")
def test_vertex_weights_leaving_float64_are_refused(capsys, tmp_path):
    """Normalized at the first point, 5e-324, the weight 1e308 is infinite: every command
    on the pentagon's generalized document ends in one error line, with no warning."""
    doc = generalized_to_json(classical_embedding(pentagon_scheme()))
    doc["vertex_weight"] = [5e-324, 1e308, 1.0, 1.0, 1.0]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "hypergroup", "chartable", "dualtable"):
        assert main([command, str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: normalized vertex weight at 1 leaves float64\n", command


@pytest.mark.filterwarnings("error")
def test_window_class_orders_past_int64_do_not_wrap(capsys, tmp_path):
    """A pair whose class orders sum past 2^63 needs more boundary distance than any row
    has, so it stays unchecked, with no overflow warning and no check on rows of the
    window that do not determine it; a class order of -2^63 leaves a row without mass."""
    doc = generalized_to_json(cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 3))
    path = tmp_path / "window.json"
    for order, code, checked in (
        (doc["class_order"], 0, 10),
        ([0, 1, 2, 3, 4, 5, 2**62], 0, 10),
        ([0] + [2**62] * 6, 0, 1),
        ([0, 1, 2, 3, 4, 5, -2**63], 2, None),
    ):
        path.write_text(json.dumps({**doc, "class_order": order}))
        assert main(["verify", str(path)]) == code, order
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: row -2 of class 6 sums to 0.0\n"
        else:
            assert captured.err == ""
            assert json.loads(captured.out)["results"]["pairs_checked"] == checked, order


def test_cayley_booleans_are_labels_or_nothing(capsys, tmp_path):
    """JSON true and false are no element indices and match no number label; they
    count only as boolean labels.  Labels that print alike give duplicate classes."""
    z2 = {"elements": ["e", "a"], "table": [["e", "a"], ["a", "e"]]}
    z2_numbers = {"elements": [0, 1], "table": [[0, 1], [1, 0]]}
    path = tmp_path / "z2.json"
    for doc, code, message in (
        ({**z2, "table": [["e", "a"], ["a", False]]}, 2, "entry False at (1, 1) is no element"),
        ({**z2, "subgroup": ["e", True]}, 1, "unknown group element True"),
        ({**z2_numbers, "table": [[0, 1], [1, False]]}, 2, "entry False at (1, 1) is no element"),
        ({**z2_numbers, "subgroup": [0, True]}, 1, "unknown group element True"),
        ({"elements": [[0, 1], [1, 0]], "table": [[[0, 1], [1, 0]], [[1, 0], [False, True]]]},
         2, "entry (False, True) at (1, 1) is no element"),
        ({"elements": [0, "0"], "table": [[0, "0"], ["0", 0]]}, 1, "duplicate class labels"),
    ):
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    for doc in ({"elements": [False, True], "table": [[False, True], [True, False]],
                 "subgroup": [False, True]},
                {"elements": [[0, 1], [1, 0]], "table": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
                {"elements": [[0, True], [1, False]], "table": [[[0, True], [1, False]],
                                                                [[1, False], [0, True]]]}):
        path.write_text(json.dumps(doc))
        code, rep = run(capsys, "verify", str(path))
        assert code == 0 and rep["status"] == "pass"


@pytest.mark.parametrize("elements, subgroup", [([3, 0, 1, 2], None), ([0, 2, 1, 3], [0, 2])])
def test_cayley_labels_out_of_index_order(capsys, tmp_path, elements, subgroup):
    """Z4 on integer labels not in index order: the subgroup is read by label, once."""
    doc = {"elements": elements, "table": [[(a + b) % 4 for b in elements] for a in elements]}
    if subgroup is not None:
        doc["subgroup"] = subgroup
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(path))
    assert code == 0 and rep["status"] == "pass"
    assert rep["results"]["valencies"] == [1] * (4 // len(subgroup or [0]))


@pytest.mark.parametrize("doc_name", ["pentagon.json", "gen.json"])
@pytest.mark.parametrize("row, message", [
    ([99, 0, 1], "unknown label in relation row [99, 0, 1]"),
    ([0, 99, 1], "unknown label in relation row [0, 99, 1]"),
    ([0, 1, 2], "pair (0, 1) assigned two classes"),
], ids=["unknown-x", "unknown-y", "two-classes"])
def test_relation_rows_are_read_alike_for_both_kinds(capsys, docs, tmp_path, doc_name,
                                                      row, message):
    with open(docs[doc_name], encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [0, 1, 1] in doc["relations"]
    doc["relations"].append(row)
    path = tmp_path / doc_name
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"


def _rename_points(doc, name):
    doc["points"] = [name(x) for x in doc["points"]]
    doc["relations"] = [[name(x), name(y), c] for x, y, c in doc["relations"]]
    if "base_point" in doc:
        doc["base_point"] = name(doc["base_point"])


def _rename_classes(doc, name):
    doc["classes"] = [name(c) for c in doc["classes"]]
    doc["relations"] = [[x, y, name(c)] for x, y, c in doc["relations"]]
    doc["identity"] = name(doc["identity"])
    doc["involution"] = [name(c) for c in doc["involution"]]


def _reverse_classes(doc):
    for key in ("classes", "involution", "stoch"):  # stoch[i] is the matrix of class i
        if key in doc:
            doc[key].reverse()


def _booleans(label):
    """0 and 1 as the JSON labels false and true."""
    return {0: False, 1: True}.get(label, label)


@pytest.mark.parametrize("doc_name, kind", [("pentagon.json", "scheme"),
                                            ("gen.json", "generalized"),
                                            ("gen-stoch.json", "generalized")])
@pytest.mark.parametrize("edit, code, message", [
    (lambda doc: _rename_classes(doc, "c{}".format), 0, None),
    (_reverse_classes, 0, None),
    (lambda doc: (_rename_points(doc, _booleans), _rename_classes(doc, _booleans)), 0, None),
    (lambda doc: doc.update(identity=1), 2, "inferred identity 0 does not match asserted 1"),
    (lambda doc: doc.update(involution=[0, 2, 1]), 2,
     "inferred involution sends 1 to 1, not the asserted 2"),
    (lambda doc: doc["points"].append(0), 1, "duplicate point labels"),
    (lambda doc: doc["relations"].__setitem__(1, [False, True, 1]), 1,
     "unknown label in relation row [False, True, 1]"),
    (lambda doc: doc["relations"].__setitem__(1, [0, 1, True]), 1,
     "unknown label in relation row [0, 1, True]"),
    (lambda doc: doc.update(identity=False), 1, "unknown class False in {kind} document"),
    (lambda doc: doc.update(involution=[0, True, 2]), 1, "unknown class True in {kind} document"),
], ids=["string-classes", "permuted-classes", "boolean-labels", "wrong-identity",
        "wrong-involution", "repeated-point", "boolean-points", "boolean-class",
        "boolean-identity", "boolean-involution"])
def test_scheme_fields_are_read_alike_for_both_kinds(capsys, docs, tmp_path, doc_name, kind,
                                                    edit, code, message):
    """A scheme document and its generalized twin share one reader: class labels
    are any labels, the asserted identity and involution are checked, and JSON
    true and false name only boolean labels."""
    with open(docs[doc_name], encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["identity"] == 0 and doc["involution"] == [0, 1, 2]
    assert doc["relations"][1] == [0, 1, 1]
    edit(doc)
    path = tmp_path / doc_name
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == code
    captured = capsys.readouterr()
    if message is None:
        assert json.loads(captured.out)["status"] == "pass"
    else:
        assert captured.out == "" and captured.err == f"error: {message.format(kind=kind)}\n"


def _z3_boolean_classes():
    """Z3 on the classes 0, 1, true: (x, y) lies in class y - x mod 3."""
    labels = [0, 1, True]
    return build_scheme(range(3), labels, lambda x, y: labels[(y - x) % 3])


def _window_with_true():
    """The window of half-width 2 with its class 2 renamed true."""
    doc = generalized_to_json(cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 2))
    _rename_classes(doc, lambda c: True if c == 2 else c)
    return doc


@pytest.mark.parametrize("make_doc", [
    lambda: {"points": ["a", "b"], "classes": [0, False],
             "relations": [["a", "a", 0], ["b", "b", 0], ["a", "b", False], ["b", "a", False]]},
    lambda: {"points": [1, True], "classes": ["e", "x"],
             "relations": [[1, 1, "e"], [True, True, "e"], [1, True, "x"], [True, 1, "x"]]},
    lambda: {"elements": [1, True], "table": [[1, True], [True, 1]]},
    lambda: scheme_to_json(_z3_boolean_classes()),
    lambda: generalized_to_json(classical_embedding(_z3_boolean_classes())),
    _window_with_true,
], ids=["classes-0-false", "points-1-true", "elements-1-true", "z3-classes-0-1-true",
        "z3-embedding", "window-class-true"])
def test_true_and_false_are_labels_apart_from_1_and_0(capsys, tmp_path, make_doc):
    """Every document kind matches labels under one key, for lookups and duplicate
    checks alike: true and false are distinct from 1 and 0."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc()))
    code, rep = run(capsys, "verify", str(path))
    assert code == 0 and rep["status"] == "pass"


def test_asserted_involution_on_boolean_classes(capsys, tmp_path):
    doc = scheme_to_json(_z3_boolean_classes())
    assert doc["involution"] == [0, True, 1]
    doc["involution"] = [0, 1, True]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: inferred involution sends 1 to True, not the asserted 1\n"


def test_null_labels_can_be_asserted(capsys, tmp_path):
    """A null label names a class or point like any other label: asserted as the
    identity of a scheme whose identity is 0, or as a generalized base point."""
    labels = [0, 1, None]
    doc = scheme_to_json(build_scheme(range(3), labels, lambda x, y: labels[(y - x) % 3]))
    doc["identity"] = None
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inferred identity 0 does not match asserted None\n"

    points = ["a", None, "c"]
    doc = generalized_to_json(classical_embedding(
        build_scheme(points, range(3), lambda x, y: (points.index(y) - points.index(x)) % 3)))
    doc["base_point"] = None
    assert generalized_from_json(doc).base_point == 1


@pytest.mark.parametrize("argv, message", [
    (["chartable", "{doc}", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["dualtable", "{doc}", "--seed=-0x10"], "--seed must be non-negative, got -16"),
    (["dualtable", "{doc}", "--tol", "inf"], "--tol must be finite and positive, got inf"),
    (["verify", "{doc}", "--tol", "nan"], "--tol must be finite and positive, got nan"),
    (["family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep", "--x-step", "1e400"],
     "--x-step must be finite and positive, got inf"),
])
def test_seed_tolerance_and_step_bounds(capsys, docs, argv, message):
    code = main([docs["pentagon.json"] if token == "{doc}" else token for token in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["hypergroup", "chartable", "dualtable"])
def test_generalized_documents_give_their_deformed_hypergroup(capsys, tmp_path, command):
    """The hypergroup commands read a generalized scheme's deformed tensor; a window
    that leaves class pairs undetermined has none."""
    full = tmp_path / "petersen.json"
    full.write_text(dump_report(generalized_to_json(classical_embedding(petersen_scheme()))))
    code, rep = run(capsys, command, str(full))
    assert code == 0 and rep["status"] == "pass"
    window = tmp_path / "window.json"
    window.write_text(dump_report(generalized_to_json(
        cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 4))))
    assert main([command, str(window)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: only 15/81 class pairs are determined by this window\n"


def test_generalized_hypergroup_keeps_the_tolerance_it_was_accepted_under(capsys, tmp_path):
    """Class-1 steps scaled by 1 + 9e-13 move the deformed row sums by about 1.8e-12:
    within the audit's bounds and the 1e-9 the hypergroup is built at, so every
    command passes, and ``hypergroup`` reports the tolerance it verified under."""
    g = classical_embedding(pentagon_scheme())
    doc = generalized_to_json(g)
    step = np.array(doc["step"])
    step[g.relation == 1] *= 1 + 9e-13
    doc["step"] = step.tolist()
    path = tmp_path / "epsilon.json"
    path.write_text(dump_report(doc))
    for command in ("verify", "hypergroup", "chartable", "dualtable"):
        code, rep = run(capsys, command, str(path))
        assert code == 0 and rep["status"] == "pass", command
        if command == "hypergroup":
            assert rep["results"]["audit"]["tol"] == 1e-9
            assert 1e-12 < rep["results"]["audit"]["row_sums"]["residual"] <= 1e-9


def test_decimal_strings_are_exact_values(capsys, tmp_path):
    """Strings outside the int and int/int forms are read as Fraction(str) reads them."""
    doc = {"classes": [0, 1, 2], "conv": [
        [0, 0, 0, "1"], [0, 1, 1, " 1/1"], [0, 2, 2, "1.0"], [1, 0, 1, 1], [2, 0, 2, "1e0"],
        [1, 1, 0, "0.5"], [1, 1, 2, " 1/2 "], [1, 2, 1, "5e-1"], [1, 2, 2, "1/2"],
        [2, 1, 1, "0.5"], [2, 1, 2, "2/4"], [2, 2, 0, "+1/2"], [2, 2, 1, "0.50"]]}
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(path))
    assert code == 0
    assert rep["results"]["audit"]["exact"] is True
    assert rep["results"]["audit"]["all_hold"] is True


@pytest.mark.parametrize("key, value, message", [
    ("identity", "nope", "unknown class 'nope' in windowed document"),
    ("involution", ["nope"], "unknown class 'nope' in windowed document"),
    ("base_point", None, "windowed document missing 'base_point'"),
    ("vertex_weight", None, "windowed document missing 'vertex_weight'"),
    ("involution", lambda v: v[:-1], "involution must list one conjugate per class"),
    ("boundary_distance", lambda v: list(map(str, v)), "'boundary_distance' must list 13 integers"),
    ("boundary_distance", lambda v: v[:-1], "'boundary_distance' must list 13 integers"),
    ("class_order", lambda v: v[:-1], "'class_order' must list 13 integers"),
    ("vertex_weight", lambda v: v[:-1], "vertex_weight must have shape (13,), got (12,)"),
])
def test_malformed_windowed_documents_are_parse_errors(capsys, tmp_path, key, value, message):
    from hypergroups.families.cosh import CoshFamily, cosh_window_scheme

    doc = generalized_to_json(cosh_window_scheme(CoshFamily(1.0), 6))
    if value is None:
        del doc[key]
    else:
        doc[key] = value(doc[key]) if callable(value) else value
    path = tmp_path / "window.json"
    path.write_text(dump_report(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"


def _swap_involution(doc):
    doc["involution"][1:3] = doc["involution"][2:0:-1]


def _move_entry(doc):
    stoch = doc["stoch"][1][0]  # class 1 of point -3: its entry at -2 goes to -1, class 2
    stoch[2], stoch[1] = stoch[1], 0.0


def _negative_outside(doc):
    doc["stoch"][3][0][1] = -0.01  # (-3, -2) is a class-1 pair


def _move_pentagon_entry(doc):
    stoch = doc["stoch"][1][0]  # class 1 of point 0: its mass at 1 goes to 2, class 2
    stoch[2], stoch[1] = stoch[2] + stoch[1], 0.0


def _negative_pentagon_outside(doc):
    doc["stoch"][2][0][1] = -0.01  # (0, 1) is a class-1 pair


def _window():
    return cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 3)


def _window_stack():
    return stack_document(_window())


def _pentagon_stack():
    return stack_document(classical_embedding(pentagon_scheme()))


@pytest.mark.parametrize("source, edit, error, witness, message", [
    (_window_stack, _swap_involution, NoInvolution, 1,
     "involution sends class 1 to 2, which is not its transpose"),
    (_window_stack, _move_entry, SupportMismatch, (1, 0, 2),
     "class 1 transition is nonzero outside its relation"),
    (_window_stack, _negative_outside, SupportMismatch, (3, 0, 1),
     "class 3 transition is nonzero outside its relation"),
    (lambda: generalized_to_json(_window()), _swap_involution, NoInvolution, 1,
     "involution sends class 1 to 2, which is not its transpose"),
    (_pentagon_stack, _move_pentagon_entry, SupportMismatch, (1, 0, 2),
     "class 1 transition is nonzero outside its relation"),
    (_pentagon_stack, _negative_pentagon_outside, SupportMismatch, (2, 0, 1),
     "class 2 transition is nonzero outside its relation"),
], ids=["swapped-involution", "entry-moved-to-another-class", "negative-outside-its-class",
        "step-swapped-involution", "scheme-entry-moved-to-another-class",
        "scheme-negative-outside-its-class"])
def test_windowed_documents_check_the_involution_and_fold_the_stack(capsys, tmp_path, source,
                                                                    edit, error, witness,
                                                                    message):
    """The reader folds a legacy stack into one step matrix, so an entry off its class
    is named, also a negative one, in a window and over a scheme alike; a window's
    involution must send each class to its transpose, whichever format holds it."""
    doc = source()
    edit(doc)
    with pytest.raises(error) as failure:
        generalized_from_json(doc)
    assert failure.value.witness == witness
    path = tmp_path / "window.json"
    path.write_text(dump_report(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("build", [
    lambda: classical_embedding(pentagon_scheme()),
    lambda: cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 4),
    lambda: cosh.cosh_window_scheme(cosh.CoshFamily(1.0), 32),
], ids=["pentagon", "cosh-window-4", "cosh-window-32"])
def test_step_and_stack_documents_give_the_same_report_bytes(capsys, tmp_path, build):
    """A generalized scheme written with 'step' and as a legacy 'stoch' stack, under
    one path (the report echoes it), gives each command's exit code and bytes alike;
    a window is no finite hypergroup, so only verify passes on it."""
    g = build()
    commands = ("verify", "hypergroup", "chartable", "dualtable")
    path, runs = tmp_path / "gen.json", []
    for doc in (generalized_to_json(g), stack_document(g)):
        path.write_text(dump_report(doc))
        runs.append([(main([c, str(path)]), *capsys.readouterr()) for c in commands])
    assert [code for code, _, _ in runs[0]] == [0] + [2 if g.windowed else 0] * 3
    assert runs[0] == runs[1]


def _package_env():
    import hypergroups

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hypergroups.__file__))
    return env


def test_no_module_imports_scipy(docs):
    import hypergroups

    package = os.path.dirname(hypergroups.__file__)
    for folder, _, names in os.walk(package):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                imported = [alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.Import) for alias in node.names]
                imported += [node.module or "" for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom)]
                assert not [m for m in imported if m.split(".")[0] == "scipy"], name
    env = _package_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, hypergroups; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
    # -X importtime lists every module a command imports on stderr
    for argv in (["verify", docs["pentagon.json"]],
                 ["family", "gab", "--a", "3", "--b", "3", "--report", "lp-sweep"]):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "hypergroups", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, argv
        assert "hypergroups.cli" in done.stderr
        assert "scipy" not in done.stderr, argv


# run in a fresh interpreter: the modules that a bare ``import hypergroups`` (no
# arguments) or ``cli.main`` of the JSON argument list loads, printed as JSON
LOADED_SNIPPET = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv:\n"
    "    from hypergroups.cli import main\n"
    "    assert main(argv) == 0\n"
    "else:\n"
    "    import hypergroups\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def _loaded(*argv) -> set:
    """The package modules, fractions and decimal among the modules that argv loads."""
    done = subprocess.run([sys.executable, "-c", LOADED_SNIPPET, json.dumps(argv)],
                          env=_package_env(), capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    return {m for m in loaded if m.startswith("hypergroups.") or m in ("fractions", "decimal")}


def test_each_command_loads_only_the_modules_it_runs(docs, tmp_path):
    assert _loaded() == {"hypergroups.errors"}
    assert _loaded("verify", docs["pentagon.json"], "--out", str(tmp_path)) == {
        "hypergroups.cli", "hypergroups.errors", "hypergroups.jsonio", "hypergroups.schemes"}
    assert _loaded("family", "gab", "--a", "3", "--b", "3", "--report", "linearization",
                   "--out", str(tmp_path)) == {
        "hypergroups.cli", "hypergroups.errors", "hypergroups.jsonio", "hypergroups.families",
        "hypergroups.families.gab"}


def test_nested_point_labels(capsys, schema, tmp_path):
    pts = [[[0]], [[1]], [[2]]]
    doc = {"points": pts, "classes": [0, 1, 2],
           "relations": [[x, y, (b - a) % 3] for a, x in enumerate(pts)
                         for b, y in enumerate(pts)]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(path))
    assert code == 0
    check_envelope(schema, rep, "verify")
    assert rep["results"]["audit"]["all_hold"] is True

    doc["points"][0] = {"x": 0}
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bad_tolerance_rejected(capsys, docs):
    code, _ = run(capsys, "verify", docs["pentagon.json"], "--tol", "-1")
    assert code == 4


def test_hypergroup_command_emits_loadable_tensor(capsys, schema, docs, tmp_path):
    code, rep = run(capsys, "hypergroup", docs["pentagon.json"])
    assert code == 0
    check_envelope(schema, rep, "hypergroup")
    doc = rep["results"]["hypergroup"]
    from hypergroups.jsonio import hypergroup_from_json
    h = hypergroup_from_json(doc)
    assert h.exact
    assert h.conv[1, 1, 0] == pytest.approx(0.5)


def test_chartable_stdout_and_files(capsys, schema, docs, tmp_path):
    code, rep = run(capsys, "chartable", docs["pentagon.json"])
    assert code == 0
    check_envelope(schema, rep, "chartable")
    res = rep["results"]
    assert len(res["characters"]) == 3
    assert res["residual"] <= 1e-8
    assert res["orthogonality_residual"] <= 1e-8
    assert len(res["characters"]) == 3
    assert res["plancherel"][res["positive_index"]] == pytest.approx(0.2, abs=1e-9)

    out = tmp_path / "rep"
    code2 = main(["chartable", docs["pentagon.json"], "--out", str(out)])
    capsys.readouterr()
    assert code2 == 0
    assert (out / "chartable.json").exists()
    csv = (out / "chartable.csv").read_text()
    assert len(csv.strip().split("\n")) == 4


def test_chartable_fails_when_the_characters_are_not_orthogonal(capsys, schema, docs,
                                                                 monkeypatch):
    # the pentagon's Gram matrix has largest entry 5, so the bound is 5e-8: 1.0 fails
    monkeypatch.setattr(harmonic, "orthogonality_residual", lambda tbl: 1.0)
    code, rep = run(capsys, "chartable", docs["pentagon.json"])
    assert code == 2
    check_envelope(schema, rep, "chartable")
    assert rep["status"] == "fail"
    assert rep["results"]["orthogonality_residual"] == 1.0


@pytest.mark.parametrize("argv", [
    ["chartable", "pentagon.json"],
    ["dualtable", "cayley.json"],
    ["family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep"],
])
def test_stdout_runs_format_no_csv(capsys, docs, monkeypatch, argv):
    """A CSV table is formatted only into an --out file: without --out the report on
    stdout is the same when formatting one fails."""
    argv = [docs.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def refuse(header, rows):
        raise AssertionError("a CSV table was formatted")

    monkeypatch.setattr(jsonio, "_csv", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def test_dualtable_pass_and_fail(capsys, schema, docs):
    code, rep = run(capsys, "dualtable", docs["pentagon.json"])
    assert code == 0
    check_envelope(schema, rep, "dualtable")
    assert rep["results"]["nonnegative"] is True
    assert rep["results"]["min_raw_coefficient"] >= -1e-9

    code, rep = run(capsys, "dualtable", docs["negdual.json"])
    assert code == 2
    assert rep["status"] == "fail"
    assert rep["results"]["nonnegative"] is False
    assert rep["results"]["min_raw_coefficient"] < -0.1


def test_seed_flag_accepts_hex(capsys, schema, docs):
    code, rep = run(capsys, "chartable", docs["pentagon.json"],
                    "--seed", "0xC0FFEE")
    assert code == 0
    assert rep["parameters"]["seed"] == 0xC0FFEE


GAB = ["family", "gab", "--a", "3", "--b", "3"]
FAMILY_GAB = {"inputs": [], "seed": 0xC0FFEE, "family": "gab", "a": 3.0, "b": 3.0}
FAMILY_COSH = {"inputs": [], "seed": 0xC0FFEE, "family": "cosh", "report": "window-audit",
               "r": 0.5}
OVERRIDES = ["--tol", "1e-3", "--seed", "0x10"]
GAB_OVERRIDES = ["--moment-order", "4", "--vertex-budget", "200"]
GIVEN = {"tol": 1e-3, "seed": 16}
GAB_GIVEN = {"moment_order": 4, "vertex_budget": 200}


@pytest.mark.parametrize("argv, expected", [
    (GAB, {**FAMILY_GAB, "report": "linearization", "max_degree": 8}),
    (GAB + ["--max-degree", "2"] + GAB_OVERRIDES + OVERRIDES,
     {**FAMILY_GAB, "report": "linearization", "max_degree": 2, **GAB_GIVEN, **GIVEN}),
    (GAB + ["--report", "psd-sweep"],
     {**FAMILY_GAB, "report": "psd-sweep", "x_min": -1.5, "x_max": 1.5, "x_step": 0.05,
      "radius": 3}),
    (GAB + ["--report", "psd-sweep", "--radius", "2", "--x-min", "-1", "--x-max", "1",
            "--x-step", "0.5"] + GAB_OVERRIDES + OVERRIDES,
     {**FAMILY_GAB, "report": "psd-sweep", "x_min": -1.0, "x_max": 1.0, "x_step": 0.5,
      "radius": 2, **GAB_GIVEN, **GIVEN}),
    (GAB + ["--report", "lp-sweep"], {**FAMILY_GAB, "report": "lp-sweep", "sweep_points": 5}),
    (GAB + ["--report", "lp-sweep", "--sweep-points", "2"] + GAB_OVERRIDES + OVERRIDES,
     {**FAMILY_GAB, "report": "lp-sweep", "sweep_points": 2, **GAB_GIVEN, **GIVEN}),
    (["family", "cosh", "--r", "0.5"], {**FAMILY_COSH, "window": 8}),
    (["family", "cosh", "--r", "0.5", "--report", "window-audit", "--window", "4"] + OVERRIDES,
     {**FAMILY_COSH, "window": 4, **GIVEN}),
])
def test_family_parameters_block(capsys, argv, expected):
    code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["parameters"] == expected


@pytest.mark.parametrize("command", ["verify", "hypergroup", "chartable", "dualtable"])
def test_document_parameters_block(capsys, docs, command):
    path = docs["pentagon.json"]
    code, rep = run(capsys, command, path)
    assert code == 0
    assert rep["parameters"] == {"inputs": [path], "seed": 0xC0FFEE}
    code, rep = run(capsys, command, path, *OVERRIDES)
    assert code == 0
    assert rep["parameters"] == {"inputs": [path], **GIVEN}


def test_family_gab_linearization(capsys, schema, tmp_path):
    out = tmp_path / "gab"
    code = main(["family", "gab", "--a", "3", "--b", "3",
                 "--max-degree", "4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads((out / "family_gab_linearization.json").read_text())
    check_envelope(schema, rep, "family")
    csv = (out / "family_gab_linearization.csv").read_text()
    header, *rows = csv.strip().split("\n")
    assert header == "m,n,k,g"
    assert all(float(r.split(",")[3]) >= 0 for r in rows)


def test_family_gab_psd_sweep(capsys, schema):
    code, rep = run(capsys, "family", "gab", "--a", "3", "--b", "3",
                    "--report", "psd-sweep", "--radius", "2",
                    "--x-min", "-1.2", "--x-max", "1.25", "--x-step", "0.35")
    assert code == 0  # inside points psd, outside flagged but report passes
    check_envelope(schema, rep, "family")
    rows = rep["results"]["rows"]
    assert any(not r["psd"] for r in rows)
    assert any(r["psd"] for r in rows)


def test_family_gab_psd_sweep_fails_on_an_inside_point(capsys, schema, monkeypatch):
    # a kernel that is not psd at a point of [s0, s1] contradicts the family's
    # positive definiteness there, so the sweep fails
    def rows(fam, xs, radius, budget, tol):
        return [{"x": float(x), "radius": radius, "n_vertices": 1,
                 "min_eigenvalue": -1.0 if x == 0 else 1.0, "psd": x != 0} for x in xs]

    monkeypatch.setattr(gab, "_psd_rows", rows)
    code, rep = run(capsys, "family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep",
                    "--x-min", "-0.5", "--x-max", "0.5", "--x-step", "0.5")
    assert code == 2
    check_envelope(schema, rep, "family")
    assert rep["status"] == "fail"
    assert [r["psd"] for r in rep["results"]["rows"]] == [True, False, True]


def test_family_gab_lp_sweep(capsys, schema):
    code, rep = run(capsys, "family", "gab", "--a", "3", "--b", "3",
                    "--report", "lp-sweep", "--sweep-points", "3",
                    "--moment-order", "6")
    assert code == 0
    check_envelope(schema, rep, "family")
    rows = rep["results"]["rows"]
    assert len(rows) == 9
    assert all(r["feasible"] for r in rows)
    assert max(r["max_violation"] for r in rows) <= 1e-8


def test_family_gab_lp_sweep_chebyshev_case(capsys, schema):
    """At a = b = 2 each product formula has two atoms, off any fixed grid."""
    code, rep = run(capsys, "family", "gab", "--a", "2", "--b", "2", "--report", "lp-sweep")
    assert code == 0
    check_envelope(schema, rep, "family")
    res = rep["results"]
    assert res["pairs"] == res["feasible_count"] == 25
    assert max(r["max_violation"] for r in res["rows"]) <= 1e-8


@pytest.mark.parametrize("argv", [
    ["gab", "--a", "3", "--b", "3", "--report", "psd-sweep", "--radius", "100000000",
     "--x-step", "1"],
    ["gab", "--a", "2", "--b", "2", "--report", "psd-sweep", "--radius", "2500"],
    ["gab", "--a", "3", "--b", "3", "--max-degree", "100000"],
    ["gab", "--a", "3", "--b", "3", "--max-degree", str(cli.LINEARIZATION_MAX_DEGREE + 1)],
    ["cosh", "--r", "1", "--window", str(cosh.WINDOW_MAX_HALF_WIDTH + 1)],
])
def test_unbounded_sizes_are_refused_up_front(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the size check must come before any work")

    monkeypatch.setattr(gab, "_ball_size", no_work)
    monkeypatch.setattr(gab, "gab_linearization", no_work)
    monkeypatch.setattr(cosh, "build_windowed", no_work)
    code = main(["family", *argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("radius", ["7000", "8000"])
def test_huge_balls_are_refused_in_one_short_line(capsys, radius):
    """The refusal names the radius and the budget; the ball's size has thousands of digits."""
    code = main(["family", "gab", "--a", "3", "--b", "3", "--report", "psd-sweep",
                 "--radius", radius, "--vertex-budget", "20000"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def test_family_cosh_window_audit(capsys, schema):
    code, rep = run(capsys, "family", "cosh", "--r", "1.0", "--window", "6")
    assert code == 0
    check_envelope(schema, rep, "family")
    res = rep["results"]
    assert res["audit"]["detailed_balance_residual"] <= 1e-10
    assert res["closed_form_deviation"] <= 1e-12
    assert all(row["multiplicativity_residual"] <= 1e-8 for row in res["characters"])


def test_reports_are_byte_identical_across_runs(capsys, docs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        for args in (
            ["verify", docs["pentagon.json"]],
            ["chartable", docs["pentagon.json"]],
            ["dualtable", docs["pentagon.json"]],
            ["family", "gab", "--a", "3", "--b", "3", "--max-degree", "3"],
            ["family", "cosh", "--r", "0.5", "--window", "4"],
        ):
            assert main(args + ["--out", str(out)]) == 0
            capsys.readouterr()
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# documents whose verify and hypergroup reports involve no LAPACK or libm
# rounding: exact integer and fraction arithmetic, and the gab family at
# a = b = 3, where every power is a power of 2.  Their chartable and
# dualtable reports go through LAPACK's eig, the generalized pentagon's verify
# report through LAPACK's SVD (its operator norms), and the cosh window's report
# through libm's cosh and exp and LAPACK's SVD, so those digests hold for the
# numpy and OpenBLAS build they were recorded with (numpy 2.4, OpenBLAS 0.3.31).
PINNED_DOCS = {
    "pentagon.json": {
        "points": [0, 1, 2, 3, 4], "classes": [0, 1, 2],
        "relations": [[x, y, min((x - y) % 5, (y - x) % 5)] for x in range(5) for y in range(5)],
    },
    "s3.json": {
        "elements": ["e", "a", "b", "c", "d", "f"],
        "table": [[["e", "a", "b", "c", "d", "f"][k] for k in row] for row in (
            [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0])],
        "subgroup": ["e", "a"],
    },
    "hg.json": {
        "classes": ["e", "x", "y"],
        "conv": [[0, 0, 0, 1], [0, 1, 1, "1/1"], [0, 2, 2, 1], [1, 0, 1, 1], [2, 0, 2, 1],
                 [1, 1, 0, "1/2"], [1, 1, 2, "1/2"], [1, 2, 1, "1/2"], [1, 2, 2, "1/2"],
                 [2, 1, 1, "1/2"], [2, 1, 2, "1/2"], [2, 2, 0, "1/2"], [2, 2, 1, "1/2"]],
    },
    # Z_5 on string labels out of index order: its characters are complex
    "z5.json": {
        "elements": ["g2", "g0", "g4", "g1", "g3"],
        "table": [[f"g{(a + b) % 5}" for b in (2, 0, 4, 1, 3)] for a in (2, 0, 4, 1, 3)],
    },
    # the pentagon as a generalized scheme, S_i = A_i / k_i: verified only
    "pentagon-gen.json": {
        "points": [0, 1, 2, 3, 4], "classes": [0, 1, 2],
        "relations": [[x, y, min((x - y) % 5, (y - x) % 5)] for x in range(5) for y in range(5)],
        "stoch": [[[(min((x - y) % 5, (y - x) % 5) == i) / (1, 2, 2)[i] for y in range(5)]
                   for x in range(5)] for i in range(3)],
    },
    # the same scheme in the step format: step[x][y] = S_i(x, y) for the class i of (x, y)
    "pentagon-gen-step.json": {
        "points": [0, 1, 2, 3, 4], "classes": [0, 1, 2],
        "relations": [[x, y, min((x - y) % 5, (y - x) % 5)] for x in range(5) for y in range(5)],
        "step": [[1 / (1, 2, 2)[min((x - y) % 5, (y - x) % 5)] for y in range(5)]
                 for x in range(5)],
    },
}

# sha256 of each report file, recorded before the report writer was reworked
PINNED_DIGESTS = {
    "verify pentagon.json -> verify.json":
        "9ecdb255e8a24e57e0e4e5f6bf3afe828e84b6de5b36bb79d5ae10329dda0d75",
    "hypergroup pentagon.json -> hypergroup.json":
        "3824afd2ee0e0ca2201e45d42ef7aa8c26354c76ae160348c2e3b7cd0727e721",
    "verify s3.json -> verify.json":
        "818d0e094023e1f0e865726fa9678c1feeef6cbd836ac077cf717d7c5b7f3139",
    "hypergroup s3.json -> hypergroup.json":
        "323cfdfff7be05b9b083a9ee825e778140a7d9579d94181e8443f8f84e4631aa",
    "verify hg.json -> verify.json":
        "d6625bfefd732856294019a684af1a9ed655d7a7c1859d812fb3e74d6ab223c9",
    "hypergroup hg.json -> hypergroup.json":
        "c77fe20653298d59309ec48c2080089f7f6ca78fd4545b3b2c267e48cf73869d",
    "family gab --a 3 --b 3 --max-degree 3 -> family_gab_linearization.csv":
        "1b4b03786402634940f0b4e2b24702e9d159cc43d88df7a15b460c73f5b57a3e",
    "family gab --a 3 --b 3 --max-degree 3 -> family_gab_linearization.json":
        "b1193652aeda06469d4eb854337287ac6fdb2b679c19e7d7a8fdfe47086899ae",
    # recorded before the character table lost its recursive cluster splitter
    "chartable pentagon.json -> chartable.csv":
        "d3f2016460084efefc04bff453bc4825cd81723ffeaea5f8a461cf98e699a62c",
    "chartable pentagon.json -> chartable.json":
        "166e5ce1c4a2ad100a41ce0716e9ab9ff5c4da8cc09fcf2477048ee4dec9df1d",
    "dualtable pentagon.json -> dualtable.csv":
        "d45f9cd333e66d493930e5720bb31a49ee73d5fec86be856a5f1a13d19752bdf",
    "dualtable pentagon.json -> dualtable.json":
        "d46998b9021dd479ea627342a638f0efebeaa7c36b5981c3cd31c7fcfed107ad",
    "chartable s3.json -> chartable.csv":
        "d7e36738824d2148c3ac2a21367b0805efd5782892e3f17cb881710927b2e8d0",
    "chartable s3.json -> chartable.json":
        "3fd5444e39b37202e58ff5acd5991751b87d631dc7fc0e084f2a76a58dae9d92",
    "dualtable s3.json -> dualtable.csv":
        "938360e5a841af2b250d757475bfe5650ebe260a3c6d231e9d87c3a402da3359",
    "dualtable s3.json -> dualtable.json":
        "f5888c2b5c7ed5d243c7fcb4bda794460b6faaa88756035f44e41443218d4015",
    "chartable hg.json -> chartable.csv":
        "d3f2016460084efefc04bff453bc4825cd81723ffeaea5f8a461cf98e699a62c",
    "chartable hg.json -> chartable.json":
        "ba1413401389f73013847a029569c7af142a3a3a47e90c8bdf57e9279e1efe66",
    "dualtable hg.json -> dualtable.csv":
        "d45f9cd333e66d493930e5720bb31a49ee73d5fec86be856a5f1a13d19752bdf",
    "dualtable hg.json -> dualtable.json":
        "6f424e732250ae83561ae737c4b2b658e0ac5cd431babaa320002f76c72872eb",
    "verify z5.json -> verify.json":
        "e6ddb07105bacd25f2bbabe9e565ae8a26240921fab98c3d9966bc60b342e9f3",
    "hypergroup z5.json -> hypergroup.json":
        "59fa6d9f3770bcd88c11e07c573b6540068962381cec67803f71b9e9a32414dc",
    "chartable z5.json -> chartable.csv":
        "5b35737678cc84b59165bf53fe0ae7a6a12e309510913da74d9a47202ad311af",
    "chartable z5.json -> chartable.json":
        "45ad3df25fb695d092422fe596be4f5d255bd34efb58ad12dc0f362b21fa1bb5",
    "dualtable z5.json -> dualtable.csv":
        "e788e50ea41de88f1b143ee0e15c9dcf5a5d2177511536184cc3f420152c36a0",
    "dualtable z5.json -> dualtable.json":
        "558772ce0b9f6e37cc616700e301c6a736f2cf2c8bc4b50e49d10db1642e5260",
    # recorded before the report writer formatted each container's values up front
    "family cosh --r 0.5 --window 4 -> family_cosh_window_audit.json":
        "a18249ad48b4c9e1dce61f114d4413cd71e64f57a5bd0351164b1d8b2ab6b52e",
    "verify pentagon-gen.json -> verify.json":
        "e4ae2cbaa8ccbbbc8ac36656538eb5a59aa89ee2b584f8060f537512f4b06a21",
    # recorded with the step reader; the report is the stack's but for the file name
    "verify pentagon-gen-step.json -> verify.json":
        "9a6b6f5f0e393d7186a25403e1588bc3a732d8b291b9fecb4476b124715d85bb",
}


def test_reports_match_recorded_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in PINNED_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    runs = [[command, name] for name in PINNED_DOCS if "-gen" not in name
            for command in ("verify", "hypergroup", "chartable", "dualtable")]
    runs.append(["family", "gab", "--a", "3", "--b", "3", "--max-degree", "3"])
    runs.append(["family", "cosh", "--r", "0.5", "--window", "4"])
    runs += [["verify", name] for name in PINNED_DOCS if "-gen" in name]
    found = {}
    for argv in runs:
        assert main(argv) == 0, argv
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", "rep"]) == 0, argv
        assert capsys.readouterr().out == ""
        for path in sorted((tmp_path / "rep").iterdir()):
            key = f"{' '.join(argv)} -> {path.name}"
            found[key] = hashlib.sha256(path.read_bytes()).hexdigest()
            if path.suffix == ".json":
                assert path.read_text() == stdout, key
            path.unlink()
    assert found == PINNED_DIGESTS


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code = main(["family", "cosh", "--r", "0.5", "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the report: ")
    assert captured.err.count("\n") == 1
    assert taken.read_text() == "not a directory"


def test_exit_zero_quiet_with_out_dir(capsys, docs, tmp_path):
    code = main(["verify", docs["pentagon.json"], "--out", str(tmp_path / "q")])
    assert code == 0
    assert capsys.readouterr().out == ""
