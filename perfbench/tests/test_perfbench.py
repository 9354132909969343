"""Tests of the benchmark itself: oracles, span arithmetic, seeded inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import hypergroups as hg  # noqa: E402
from hypergroups import catalog, jsonio  # noqa: E402


def library_table(adj):
    s = hg.scheme_from_distance_regular_graph(adj)
    return s, hg.character_table(hg.hypergroup_from_scheme(s))


def assert_table(tbl, chars, weights):
    perm = oracles.match_characters(tbl.chars, chars)
    assert perm is not None
    assert oracles.plancherel_ok(tbl.plancherel, weights[perm])


# ---------------------------------------------------------------------------
# oracles agree with the package on small fixtures


@pytest.mark.parametrize("D,q", [(3, 2), (2, 3), (3, 3)])
def test_krawtchouk_and_counts_match_hamming(D, q):
    adj = inputs.hamming(D, q)
    s, tbl = library_table(adj)
    assert np.array_equal(s.p, oracles.graph_tensor(adj))
    assert_table(tbl, *oracles.krawtchouk_table(D, q))


@pytest.mark.parametrize("v,k", [(6, 2), (7, 3), (8, 3)])
def test_eberlein_and_counts_match_johnson(v, k):
    adj = inputs.johnson(v, k)
    s, tbl = library_table(adj)
    assert np.array_equal(s.p, oracles.graph_tensor(adj))
    assert_table(tbl, *oracles.eberlein_table(v, k))


def test_petersen_table_matches_catalog():
    s = catalog.petersen_scheme()
    assert np.array_equal(s.p, oracles.graph_tensor(inputs.petersen()))
    tbl = hg.character_table(hg.hypergroup_from_scheme(s))
    assert_table(tbl, *oracles.petersen_table())


@pytest.mark.parametrize("group", [inputs.abelian(6), inputs.abelian(2, 3), inputs.dihedral(3)])
def test_group_law_and_dft_match_regular_scheme(group):
    ci = inputs.cayley_input(group, np.random.default_rng(5))
    g = hg.group_from_table(ci.elements, ci.table)
    s = hg.scheme_from_group_quotient(g, ci.subgroup)
    index = {lab: i for i, lab in enumerate(group.labels)}
    classes = [index[c[1:-1]] for c in s.classes]
    assert classes == [int(i) for i in ci.order]
    assert np.array_equal(s.p, oracles.group_law_tensor(group.mul, classes))
    h = hg.hypergroup_from_scheme(s)
    if not group.commutative:
        with pytest.raises(hg.NotCommutative):
            hg.character_table(h)
        return
    tbl = hg.character_table(h)
    chars, weights = oracles.dft_table(group, classes)
    assert_table(tbl, chars, weights)
    perm = oracles.match_characters(tbl.chars, chars)
    for a in range(len(perm)):
        for b in range(len(perm)):
            want = oracles.dual_coefficients(chars[perm], weights[perm],
                                              np.ones(len(perm)), a, b)
            got = hg.dual_convolution(h, tbl, a, b).weights
            assert np.abs(got - want).max() <= oracles.DUAL_TOL


@pytest.mark.parametrize("n", [4, 5])
def test_complete_graph_oracle_matches_symmetric_quotient(n):
    group = inputs.symmetric_mod_stabilizer(n)
    ci = inputs.cayley_input(group, np.random.default_rng(n))
    s = hg.scheme_from_group_quotient(hg.group_from_table(ci.elements, ci.table), ci.subgroup)
    assert np.array_equal(s.p, oracles.complete_graph_tensor(n, s.identity))
    tbl = hg.character_table(hg.hypergroup_from_scheme(s))
    assert_table(tbl, *oracles.complete_graph_table(n, s.identity))


def test_petersen_dual_coefficients_match_package():
    h = hg.hypergroup_from_scheme(catalog.petersen_scheme())
    tbl = hg.character_table(h)
    chars, weights = oracles.petersen_table()
    perm = oracles.match_characters(tbl.chars, chars)
    haar = np.array([1.0, 3.0, 6.0])
    for a in range(3):
        for b in range(3):
            want = oracles.dual_coefficients(chars[perm], weights[perm], haar, a, b)
            assert np.abs(hg.dual_convolution(h, tbl, a, b).weights - want).max() <= 1e-10


@pytest.mark.parametrize("z", [1 + 0j, -0.5 + 0.8660254037844386j, 1.5e-05 - 3e-07j, -2 - 1e-20j])
def test_parse_complex_inverts_report_format(z):
    assert oracles.parse_complex(jsonio.format_complex(z)) == z


def test_switched_graph_is_rejected_by_package():
    adj = inputs.switch_edges(inputs.hamming(4, 2), np.random.default_rng(0))
    with pytest.raises(hg.NotDistanceRegular) as info:
        hg.scheme_from_distance_regular_graph(adj)
    assert info.value.witness is not None
    assert (adj.sum(axis=1) == 4).all()


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_on_nested_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    tree = [spans.Span("root", 0.0, 10.0), spans.Span("a", 1.0, 4.0, parent=0),
            spans.Span("a1", 2.0, 3.0, parent=1), spans.Span("b", 5.0, 9.0, parent=0)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    # a slice starting at a child ignores the parent outside it
    assert spans.self_times(tree, first=1) == [2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_time_and_count_distinct_inputs():
    tree = [spans.Span("cli.cmd_verify", 0.0, 10.0),
            spans.Span("jsonio.load_document", 1.0, 2.0, parent=0),
            spans.Span("hypergroup.hypergroup_from_scheme", 3.0, 5.0, parent=0, key=("s1",)),
            spans.Span("hypergroup.hypergroup_from_scheme", 5.0, 6.0, parent=0, key=("s1",)),
            spans.Span("schemes.build_scheme", 6.0, 7.0, parent=0, error=True),
            spans.Span("jsonio.dump_report", 8.0, 9.5, parent=0, out_bytes=42)]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["jsonio.parse.self_s"] == pytest.approx(1.0)
    assert m["jsonio.parse.calls"] == 1
    assert m["jsonio.emit.self_s"] == pytest.approx(1.5)
    assert m["jsonio.emit.bytes"] == 42
    assert m["hypergroup.hypergroup_from_scheme.calls"] == 2
    assert m["hypergroup.hypergroup_from_scheme.distinct_ratio"] == 0.5
    assert m["schemes.build_scheme.rejected"] == 1
    assert m["families.gab.gab_ball.distinct_ratio"] == 0.0


def test_instrument_replaces_bindings_imported_by_name():
    from hypergroups import cli, groups
    rec = spans.Recorder(active=True)
    try:
        assert spans.instrument(rec) > 0
        assert hasattr(cli.scheme_from_group_quotient, "__wrapped_by_perfbench__")
        assert hasattr(jsonio.group_from_table, "__wrapped_by_perfbench__")
        assert hasattr(cli.HANDLERS["verify"], "__wrapped_by_perfbench__")
        assert jsonio.format_float.__name__ == "format_float"
        assert not hasattr(jsonio.format_float, "__wrapped_by_perfbench__")
        g = groups.cyclic_group(4)
        hg.verify_hypergroup(hg.hypergroup_from_scheme(
            groups.scheme_from_group_quotient(g, [0])))
        names = [s.name for s in rec.spans]
        assert "groups.scheme_from_group_quotient" in names
        assert "schemes.build_scheme" in names
        assert "hypergroup.verify_hypergroup.exact" in names
        build = names.index("schemes.build_scheme")
        assert rec.spans[rec.spans[build].parent].name == "groups.scheme_from_group_quotient"
    finally:
        for name, mod in list(sys.modules.items()):
            if name.startswith("hypergroups"):
                for attr, obj in list(vars(mod).items()):
                    if hasattr(obj, "__wrapped_by_perfbench__"):
                        setattr(mod, attr, obj.__wrapped_by_perfbench__)
                    elif isinstance(obj, dict):
                        for k, v in list(obj.items()):
                            if hasattr(v, "__wrapped_by_perfbench__"):
                                obj[k] = v.__wrapped_by_perfbench__


def test_hd_median():
    assert run.hd_median([7.0]) == pytest.approx(7.0)
    assert run.hd_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert run.hd_median(list(range(10))) == pytest.approx(4.5)
    assert run.hd_median([5.0] * 6) == pytest.approx(5.0)
    skewed = [1.0] * 10 + [2.0] * 10 + [100.0]
    assert 1.0 < run.hd_median(skewed) < 2.0


def test_slowest_quarter_and_per_job_medians():
    assert run.slowest_quarter(list(range(40))) == list(range(30, 40))
    assert run.slowest_quarter([3.0, 1.0, 2.0]) == [3.0]
    a_job = type("J", (), {"name": "a"})()
    b_job = type("J", (), {"name": "b"})()
    results = [(a_job, 1.0, None), (b_job, 5.0, None), (a_job, 3.0, None),
               (a_job, 2.0, None)]
    assert run.per_job_medians(results) == {"a": 2.0, "b": 5.0}
    assert run.failures_of([(a_job, 1.0, "wrong"), (b_job, 1.0, None)]) == ["a: wrong"]


# ---------------------------------------------------------------------------
# seeded inputs


def make_inputs(seed):
    rng = np.random.default_rng(seed)
    ci = inputs.cayley_input(inputs.dihedral(5), rng)
    adj = inputs.relabel(inputs.johnson(7, 3), rng)
    switched = inputs.switch_edges(inputs.hamming(4, 2), rng)
    docs = (inputs.scheme_doc(inputs.distances(inputs.petersen()), rng),
            inputs.hypergroup_doc(inputs.abelian(6), rng),
            inputs.generalized_doc(inputs.petersen(), rng))
    return ci.elements, ci.table, adj, switched, docs


def same(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inputs_are_deterministic_per_seed(seed):
    assert same(make_inputs(seed), make_inputs(seed))
    assert not same(make_inputs(seed), make_inputs(seed + 1))


def test_seed_changes_labels_not_sizes():
    a, b = make_inputs(3), make_inputs(4)
    assert sorted(a[0]) == sorted(b[0])
    assert a[2].sum() == b[2].sum() and a[3].sum() == b[3].sum()
    assert len(a[4][0]["relations"]) == len(b[4][0]["relations"])
