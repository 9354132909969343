"""The window audit on one step matrix, held to the stack audit it replaced
(``window_oracle``), and its memory on a large clique-tree window."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import catalog
from hypergroups.errors import (
    DetailedBalanceViolation,
    NoInvolution,
    NotStochastic,
    SchemeError,
    SupportMismatch,
)
from hypergroups.families.cosh import CoshFamily, cosh_window_scheme
from hypergroups.families.gab import GabFamily, gab_ball, gab_haar
from hypergroups.generalized import build_generalized, build_windowed, classical_embedding
from window_oracle import audit_scheme, audit_window

FIELDS = ("points", "classes", "relation", "identity", "involution", "step", "vertex_weight",
          "base_point", "boundary_distance", "class_order")
SCHEMES = (catalog.pentagon_scheme(), catalog.petersen_scheme(), catalog.k4_scheme(),
           catalog.cyclic_scheme(6), catalog.s3_mod_transposition(), catalog.s4_mod_s3(),
           catalog.s3_regular())
KINDS = ("none", "negative", "zero", "full-row", "boundary-row", "balance", "closure")


def clique_window(a: int, b: int, radius: int) -> dict:
    """The undeformed window of the clique tree: S_k = A_k / (sphere size) on the
    radius-ball, boundary distance radius - depth and class order the distance."""
    fam = GabFamily(a, b)
    dist, depth = gab_ball(fam, radius)
    n, d = len(dist), 2 * radius + 1
    haar = np.array([gab_haar(fam, k) for k in range(d)])
    return {"points": range(n), "classes": range(d), "relation": dist, "identity": 0,
            "involution": np.arange(d), "step": 1.0 / haar[dist], "vertex_weight": np.ones(n),
            "base_point": 0, "boundary_distance": radius - depth, "class_order": np.arange(d)}


@functools.lru_cache(maxsize=None)
def _cosh(r: float, m: int) -> dict:
    g = cosh_window_scheme(CoshFamily(r), m)
    return {name: getattr(g, name) for name in FIELDS}


@functools.lru_cache(maxsize=None)
def _clique(a: int, b: int, radius: int) -> dict:
    return clique_window(a, b, radius)


def _scheme(s) -> dict:
    """A catalog scheme's embedding, as build_generalized audits it."""
    n, d = s.n_points, s.n_classes
    return {"scheme": s, "classes": s.classes, "relation": s.relation, "identity": s.identity,
            "step": classical_embedding(s).step, "vertex_weight": np.ones(n),
            "boundary_distance": np.full(n, n + d), "class_order": np.zeros(d, dtype=np.int64)}


def _stack(step, relation, d):
    n = len(step)
    stack = np.zeros((d, n, n))
    stack[relation, np.arange(n)[:, None], np.arange(n)] = step
    return stack


def _four_cycle(relation, identity, pick):
    """x1 x2 x3 x4 with every (x_t, x_t+1) in one non-identity class, or None."""
    for k in np.roll(np.setdiff1d(np.unique(relation), [identity]), pick):
        adj = (relation == k).astype(np.int64)
        common = adj @ adj
        np.fill_diagonal(common, 0)
        ends = np.argwhere(common >= 2)
        if len(ends):
            x1, x3 = ends[pick % len(ends)]
            x2, x4 = np.flatnonzero(adj[x1] & adj[x3])[:2]
            return x1, x2, x3, x4
    return None


def corrupt(inputs: dict, kind: str, picks: list, size: float) -> np.ndarray:
    """A copy of the step matrix with cells broken as ``kind`` says, the pick-th of
    those the kind may break for each pick (two picks make ties, whose witness is the
    first in (class, x, y) order); a closure break moves mass around a 4-cycle of one
    class, so rows and balance still hold.  An input with no such cell is kept."""
    step = np.array(inputs["step"], dtype=np.float64)
    rel, n = inputs["relation"], len(step)
    full = (np.asarray(inputs["boundary_distance"])[:, None]
            >= np.asarray(inputs["class_order"])[rel])
    off = rel != inputs["identity"]
    weight = np.asarray(inputs["vertex_weight"], dtype=np.float64)
    if kind == "closure":
        cycle = _four_cycle(rel, inputs["identity"], picks[0])
        if cycle is not None:
            # conductances weight[x] step[x, y] change by +-e around the cycle
            x1, x2, x3, x4 = cycle
            cond = weight[:, None] * step
            e = size * 0.5 * min(cond[x2, x3], cond[x4, x1])
            for (x, y), sign in zip(((x1, x2), (x2, x3), (x3, x4), (x4, x1)), (1, -1, 1, -1)):
                step[x, y] += sign * e / weight[x]
                step[y, x] += sign * e / weight[y]
        return step
    cells = {"none": np.zeros_like(off), "negative": np.ones_like(off), "zero": off,
             "full-row": full & off, "boundary-row": ~full, "balance": ~full & off}[kind]
    cells = np.flatnonzero(cells)
    for pick in picks if cells.size else ():
        x, y = divmod(int(cells[pick % cells.size]), n)
        step[x, y] = {"negative": -size, "zero": 0.0, "full-row": step[x, y] * (1.0 + size),
                      "boundary-row": step[x, y] + 1.0, "balance": step[x, y] * (1.0 - size)}[kind]
    return step


@st.composite
def audit_cases(draw):
    source = draw(st.sampled_from(["cosh", "clique", "catalog"]))
    if source == "cosh":
        inputs = _cosh(draw(st.sampled_from([0.25, 0.7, 1.5])), draw(st.integers(1, 6)))
    elif source == "clique":
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        radius = draw(st.integers(1, 3))
        while (a * (b - 1)) * ((a - 1) * (b - 1)) ** (radius - 1) > 120:
            radius -= 1
        inputs = _clique(a, b, radius)
    else:
        inputs = _scheme(draw(st.sampled_from(SCHEMES)))
    kind = draw(st.sampled_from(KINDS))
    step = corrupt(inputs, kind, draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=2)),
                   draw(st.sampled_from([1e-3, 0.1, 0.5])))
    return inputs, step


def _outcome(audit):
    try:
        report, p_tilde, pair_checked = audit()
    except SchemeError as exc:
        return type(exc), exc.witness
    return report, p_tilde.tobytes(), pair_checked.tobytes()


def _audit(inputs, step):
    """(build, oracle) outcomes of one case: the step matrix audited as a window, or
    over its catalog scheme as the stack build_generalized folds."""
    def fields(g):
        return g.report, g.p_tilde, g.pair_checked

    stoch = _stack(step, inputs["relation"], len(inputs["classes"]))
    if "scheme" in inputs:
        s = inputs["scheme"]
        return (_outcome(lambda: fields(build_generalized(s, stoch))),
                _outcome(lambda: audit_scheme(s, stoch)))
    others = {name: value for name, value in inputs.items() if name != "step"}
    return (_outcome(lambda: fields(build_windowed(**others, step=step))),
            _outcome(lambda: audit_window(**others, stoch=stoch)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(audit_cases())
def test_step_audit_matches_the_stack_oracle(case):
    """Equal reports, p_tilde and pair_checked bit for bit, or the same first failure
    and witness, (class, x, y) for an entry, as the audit of the (d, n, n) stack."""
    built, oracle = _audit(*case)
    assert built == oracle


def test_each_corruption_is_caught_as_the_oracle_names_it():
    """Each kind of corruption raises what it is named for on some input, as the
    oracle does."""
    caught = {kind: set() for kind in KINDS[1:]}
    for inputs in (_cosh(0.7, 4), _clique(3, 3, 2), _clique(2, 4, 2), _scheme(SCHEMES[1])):
        for kind in KINDS[1:]:
            for pick in range(5):
                built, oracle = _audit(inputs, corrupt(inputs, kind, [pick], 0.1))
                assert built == oracle, (kind, pick)
                if isinstance(built[0], type):
                    caught[kind].add(built[0].__name__)
    named = {"negative": "NotStochastic", "zero": "SupportMismatch", "full-row": "NotStochastic",
             "boundary-row": "NotStochastic", "balance": "DetailedBalanceViolation",
             "closure": "ClosureResidual"}
    assert all(named[kind] in caught[kind] for kind in named), caught


@pytest.mark.parametrize("cells, value, error, witness", [
    (((0, 3), (1, 2)), -0.1, NotStochastic, (1, 1, 2)),
    (((0, 5), (1, 4)), 0.0, SupportMismatch, (3, 1, 4)),
], ids=["negative", "vanishing"])
def test_ties_name_the_first_cell_in_class_order(cells, value, error, witness):
    """Of two broken cells the witness is the one in the lower class, not the first
    in C order, as in the stack the oracle audits."""
    inputs = _cosh(0.7, 3)
    step = np.array(inputs["step"])
    for cell in cells:
        step[cell] = value
    assert _audit(inputs, step) == ((error, witness),) * 2


def test_an_involution_off_an_empty_class_is_named():
    """A class no pair lies in has no transpose to compare, so the involution must
    also be its own inverse: a window class that pairs with class 1, which pairs with
    itself, is NoInvolution (the stack audit read it as a balance break)."""
    inputs = dict(_cosh(0.7, 3))
    d = len(inputs["classes"])
    inputs.update(classes=(*inputs["classes"], "empty"),
                  involution=np.append(inputs["involution"], 1),
                  class_order=np.append(inputs["class_order"], 4))
    with pytest.raises(NoInvolution, match="^involution sends class 'empty' to 1, ") as failure:
        build_windowed(**inputs)
    assert failure.value.witness == d
    stoch = _stack(inputs["step"], inputs["relation"], d + 1)
    with pytest.raises(DetailedBalanceViolation):
        audit_window(**{k: v for k, v in inputs.items() if k != "step"}, stoch=stoch)


def test_clique_window_audit_peak_memory():
    """The a = b = 3, radius-4 clique-tree window (n = 511, d = 9) audits within
    16 n x n float64 arrays, as no (d, n, n) array is built."""
    inputs = clique_window(3, 3, 4)
    n = len(inputs["relation"])
    assert (n, len(inputs["classes"])) == (511, 9)
    tracemalloc.start()
    try:
        g = build_windowed(**inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.report["deformed_support_matches"] and g.report["pairs_checked"] == 15
    assert peak <= 16 * n * n * 8, peak
