"""Exact tensors as integer numerators over one denominator, against Fraction oracles.

Random exact tensors, some with denominators whose lcm passes 2**62 (the
numerators are then Python ints) and some whose d * max|N|**2 passes
2**53 (verification then runs on Python ints), go through the document
round trip, the float view and the axiom report; each is compared with
the same quantity computed entry by entry in Fraction arithmetic.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups.hypergroup import DEFAULT_TOL, make_hypergroup, verify_hypergroup
from hypergroups.jsonio import dump_report, hypergroup_from_json, hypergroup_to_json

# small denominators, and large ones whose products pass 2**53 and 2**62
DENOMINATORS = [1, 2, 3, 4, 6, 7, 2**25 - 39, 2**27 - 39, 2**40 + 15, 3**30, 5**20, 2**61 - 1]

fractions = st.builds(Fraction, st.integers(-3, 5), st.sampled_from(DENOMINATORS))


@st.composite
def framed_tensors(draw):
    """Class 0 is a two-sided unit and the positive entries at class 0 pair
    the classes by an involution; every other entry is random."""
    d = draw(st.integers(1, 4))
    rest = list(range(1, d))
    tau = list(range(d))
    while rest:
        i = rest.pop(draw(st.integers(0, len(rest) - 1)))
        j = rest.pop(draw(st.integers(0, len(rest) - 1))) if rest and draw(st.booleans()) else i
        tau[i], tau[j] = j, i
    conv = np.empty((d, d, d), dtype=object)
    for i, j, k in np.ndindex(d, d, d):
        if i == 0 or j == 0:
            conv[i, j, k] = int(k == i + j)
        elif k == 0:
            value = draw(fractions)
            conv[i, j, k] = abs(value) + Fraction(1, 7) if j == tau[i] else -abs(value)
        else:
            conv[i, j, k] = draw(fractions)
    return conv


@st.composite
def product_tensors(draw):
    """Product of two order-2 hypergroups, delta_1 * delta_1 = q delta_0 + (1 - q) delta_1:
    every axiom holds."""
    factors = []
    for _ in range(2):
        q = Fraction(draw(st.integers(1, 5)), 5) / draw(st.sampled_from(DENOMINATORS))
        two = np.empty((2, 2, 2), dtype=object)
        two[0] = [[1, 0], [0, 1]]
        two[1] = [[0, 1], [q, 1 - q]]
        factors.append(two)
    a, b = factors
    conv = np.empty((4, 4, 4), dtype=object)
    for (i, j, k), (p, q, r) in itertools.product(np.ndindex(2, 2, 2), repeat=2):
        conv[2 * i + p, 2 * j + q, 2 * k + r] = a[i, j, k] * b[p, q, r]
    return conv


def fraction_report(conv, e, tau, tol):
    """verify_hypergroup's report for an exact tensor, recomputed entry by entry."""
    d = conv.shape[0]
    report = {"exact": True, "tol": tol}

    def entry(name, holds, witness=None, residual=None):
        report[name] = {"holds": holds, "witness": witness, "residual": residual}

    def first(shape, test):
        return next((ix for ix in np.ndindex(*shape) if test(*ix)), None)

    neg = first((d, d, d), lambda i, j, k: conv[i, j, k] < 0)
    entry("nonnegative", neg is None, neg, float(conv[neg]) if neg else 0.0)
    off = first((d, d), lambda i, j: sum(conv[i, j]) != 1)
    entry("row_sums", off is None, off, float(sum(conv[off]) - 1) if off else 0.0)
    unit = np.eye(d, dtype=int)
    ids = [c for c in range(d) if (conv[c] == unit).all() and (conv[:, c] == unit).all()]
    entry("identity_unique", ids == [e], None if ids == [e] else ids)
    miss = first((d, d), lambda i, j: (conv[i, j, e] > 0) != (j == tau[i]))
    entry("identity_support", miss is None, miss)
    bad = first((d, d, d), lambda i, j, k: conv[i, j, tau[k]] != conv[tau[j], tau[i], k])
    entry("involution_antihomomorphism", bad is None, bad, None if bad else 0.0)
    gap = first((d, d, d, d), lambda i, j, k, m: (
        sum(conv[i, j, l] * conv[l, k, m] for l in range(d))
        != sum(conv[j, k, l] * conv[i, l, m] for l in range(d))))
    entry("associativity", gap is None, gap)
    entry("haar_consistency", all(conv[tau[i], i, e] > 0 for i in range(d)))
    report["all_hold"] = all(v["holds"] for v in report.values() if isinstance(v, dict))
    return report


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(framed_tensors(), product_tensors()))
def test_integer_form_matches_fractions(conv):
    h = make_hypergroup(range(conv.shape[0]), conv)
    assert h.exact
    assert h.scale == math.lcm(*(Fraction(v).denominator for v in conv.flat))
    top = max(abs(Fraction(v).numerator) for v in conv.flat)
    assert h.values.dtype == (np.int64 if h.scale * top < 2**62 else object)
    assert h.conv.tolist() == conv.tolist()

    text = dump_report(hypergroup_to_json(h))
    h2 = hypergroup_from_json(json.loads(text))
    assert h2.scale == h.scale and h2.values.dtype == h.values.dtype
    assert h2.values.tolist() == h.values.tolist()
    assert dump_report(hypergroup_to_json(h2)) == text

    want = np.array([float(Fraction(v)) for v in conv.flat]).reshape(conv.shape)
    assert h.conv_float.dtype == np.float64
    assert h.conv_float.tobytes() == want.tobytes()
    haar = np.array([float(1 / Fraction(conv[t, i, h.identity]))
                     for i, t in enumerate(h.involution)])
    assert h.haar_float.tobytes() == haar.tobytes()

    assert verify_hypergroup(h) == fraction_report(conv, h.identity, h.involution, DEFAULT_TOL)
