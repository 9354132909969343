"""Odd input never ends in a traceback: edited documents of every kind, through the CLI.

Small documents of each kind (scheme, Cayley table, hypergroup, generalized
scheme, window) get up to three edits: a value anywhere in the tree is
replaced, deleted, or joined by a new list entry or field, drawn from
numbers, booleans, null, strings, lists and dicts.  Every document command
must then end in an exit code 0-4 with nothing on stderr or exactly one
``error:`` line, and no exception may escape ``cli.main``.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import catalog
from hypergroups.cli import main
from hypergroups.families.cosh import CoshFamily, cosh_window_scheme
from hypergroups.generalized import classical_embedding
from hypergroups.hypergroup import hypergroup_from_scheme
from hypergroups.jsonio import generalized_to_json, hypergroup_to_json, scheme_to_json

Z3 = catalog.cyclic_scheme(3)
BASES = {
    "scheme": scheme_to_json(Z3),
    "cayley": {"elements": [0, 1, 2, 3], "table": [[(i + j) % 4 for j in range(4)]
                                                   for i in range(4)], "subgroup": [0, 2]},
    "hypergroup": hypergroup_to_json(hypergroup_from_scheme(Z3)),
    "generalized": generalized_to_json(classical_embedding(Z3)),
    "windowed": generalized_to_json(cosh_window_scheme(CoshFamily(1.0), 1)),
}
FIELDS = sorted({key for doc in BASES.values() for key in doc})

# numbers stay small or are edge values, so no edit asks for a large allocation
numbers = st.one_of(st.integers(-2, 4), st.floats(-2.0, 2.0),
                    st.sampled_from([2**63, -2**63 - 1, 10**400, 1e300, -0.0,
                                     float("inf"), float("nan")]))
scalars = st.one_of(numbers, st.booleans(), st.none(), st.sampled_from(["", "0", "e", "1/2"]))
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(FIELDS), inner, max_size=2)),
    max_leaves=6)


@st.composite
def edited_documents(draw):
    kind = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[kind])
    for _ in range(draw(st.integers(0, 3))):
        # a walk of one to four steps down from the top-level object
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 4))):
            if not (isinstance(node, (list, dict)) and node):
                break
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "insert" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), draw(values))
        elif edit == "insert" and isinstance(node, dict):
            node[draw(st.sampled_from(FIELDS))] = draw(values)
        elif parent is None:  # an empty top-level object
            doc = draw(values)
        elif edit == "delete":
            del parent[key]
        else:
            parent[key] = draw(values)
    return kind, doc


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(edited_documents())
def test_edited_documents_end_in_an_exit_code_and_one_line(tmp_path_factory, case):
    _, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "hypergroup", "chartable", "dualtable"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        assert 0 <= code <= 4
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
