"""The report writer against the reference encoder in ``report_oracle``.

``jsonio.dump_report`` formats numeric leaves in bulk; its bytes must equal
``json.dumps(plain(obj), sort_keys=True, indent=2, ensure_ascii=False)``
for every report value: nested containers, numpy arrays of every shape
(0-d and empty ones included), complex arrays with and without imaginary
parts, non-finite floats, big integers, unicode and non-str dict keys.  The
chunks it hands to a file join to the same text, whether or not a container
crosses a block, and hold ``jsonio.CHUNK`` characters each but the last, even
where one scalar is longer.
"""

import contextlib
import io
import json
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypergroups import catalog, cli, jsonio
from hypergroups.jsonio import dump_report, format_complex, scheme_to_json
from report_oracle import format_complex as reference_complex
from report_oracle import reference_report

EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e300,
               0.1, -2.5, 2.0 ** 60]
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
ints = st.one_of(st.integers(-2**70, 2**70), st.sampled_from([2**63, -2**63 - 1, 10**30]))
# imaginary parts of 0, -0.0 and nan take the two branches of the complex rule
complexes = st.builds(complex, floats, st.one_of(floats, st.sampled_from([0.0, -0.0])))
labels = st.one_of(st.text(max_size=4), ints, floats, st.booleans(), st.none())
scalars = st.one_of(
    labels, complexes, st.fractions(max_denominator=10**20),
    st.builds(np.float64, floats), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.bool_, st.booleans()), st.builds(np.complex128, complexes))

DTYPES = [np.int64, np.uint64, np.int32, np.int8, np.uint8, np.float64, np.float32,
          np.float16, np.bool_, np.complex128, np.complex64]
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


@st.composite
def arrays(draw, dtype=None, shape=None):
    dtype = np.dtype(draw(st.sampled_from(DTYPES))) if dtype is None else dtype
    shape = draw(shapes) if shape is None else shape
    if dtype.kind in "iu":  # values in and far beyond a short range
        info = np.iinfo(dtype)
        elements = st.one_of(st.integers(-2, 3), st.integers(info.min, info.max))
        return draw(hnp.arrays(dtype, shape, elements=elements.filter(
            lambda v: info.min <= v <= info.max)))
    if dtype.kind == "b":
        return draw(hnp.arrays(dtype, shape))
    # narrower float and complex entries are float64 ones rounded, overflowing to inf
    wide = np.complex128 if dtype.kind == "c" else np.float64
    values = draw(hnp.arrays(wide, shape, elements=complexes if dtype.kind == "c" else floats))
    with np.errstate(over="ignore"):
        return values.astype(dtype)


@st.composite
def array_lists(draw):
    """Arrays of one dtype and shape, as a report's dict or list of rows holds them."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(shapes)
    return draw(st.lists(arrays(dtype, shape), min_size=1, max_size=4))


reports = st.recursive(
    st.one_of(scalars, arrays(), array_lists(), st.lists(floats), st.lists(ints),
              st.lists(st.text())),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(labels, st.tuples(ints, st.text(max_size=2))), inner,
                        max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(reports)
def test_writer_matches_the_reference_encoder(obj):
    assert dump_report(obj) == reference_report(obj)


def _chunks(obj) -> list:
    """The chunks dump_report hands to a file for ``obj``."""
    chunks = []
    assert dump_report(obj, types.SimpleNamespace(write=chunks.append)) is None
    return chunks


def _check_chunks(chunks: list, text: str):
    """The chunks join to ``text``, each CHUNK characters long but the last."""
    assert "".join(chunks) == text
    assert all(len(chunk) == jsonio.CHUNK for chunk in chunks[:-1])
    assert 0 < len(chunks[-1]) <= jsonio.CHUNK


# entries drawn from pools with repeats, so each block meets both new and seen values
POOLS = {
    "i": lambda rng, n: np.where(rng.random(n) < 0.5, rng.integers(-3, 4, n),
                                 rng.integers(-2**63, 2**63, n, dtype=np.int64)),
    "b": lambda rng, n: rng.random(n) < 0.5,
    "f": lambda rng, n: np.where(rng.random(n) < 0.3, rng.choice(EDGE_FLOATS, n),
                                 rng.normal(size=n).round(rng.integers(1, 18))),
    "c": lambda rng, n: POOLS["f"](rng, n) + 1j * np.where(
        rng.random(n) < 0.5, rng.choice([0.0, -0.0, math.nan, 1.0, -2.5], n), rng.normal(size=n)),
}
BLOCK = jsonio.BLOCK
# the item shapes of containers whose entries cross a block: leading axes of 1
# and of more than one block, and rows that a block boundary cuts
LONG_SHAPES = [(BLOCK + 7,), (1, BLOCK + 3), (BLOCK + 1, 2), (1, 1, BLOCK + 2),
               (BLOCK + 2, 1, 1), (2, 3, BLOCK // 5), (3, BLOCK // 2 + 1, 1)]
ITEM_SHAPES = [(), (48,), (2, 3), (5, 1, 7)]


@st.composite
def long_values(draw):
    """An array, a dict or list of same-shape arrays, or a list of rows of Python
    scalars of one length (as a hypergroup's 'conv' rows), whose entries cross BLOCK."""
    kind = draw(st.sampled_from(sorted(POOLS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["array", "dict", "list", "rows"]))
    if form == "array":
        shape = draw(st.sampled_from(LONG_SHAPES))
        return POOLS[kind](rng, math.prod(shape)).reshape(shape)
    shape = draw(st.sampled_from(ITEM_SHAPES))
    count = BLOCK // math.prod(shape) + draw(st.integers(1, 40))
    values = POOLS[kind](rng, count * math.prod(shape)).reshape((count, *shape))
    if form == "rows":
        return [[*values[k].ravel().tolist(), f"{k}/7"] for k in range(count)]
    items = [values[k, ...] for k in range(count)]  # 0-d arrays, not numpy scalars
    return dict(zip(map(str, range(count)), items)) if form == "dict" else items


huge_string = st.just("é" * (jsonio.CHUNK + 5))
streamed = st.one_of(long_values(), reports,
                     st.lists(st.one_of(long_values(), reports, huge_string), max_size=3),
                     st.dictionaries(st.text(max_size=3), st.one_of(long_values(), reports),
                                     max_size=3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(streamed)
def test_streamed_report_matches_the_reference_in_bounded_chunks(obj):
    text = reference_report(obj)
    assert dump_report(obj) == text
    _check_chunks(_chunks(obj), text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reports, st.integers(1, 9), st.integers(1, 4000))
def test_every_block_and_chunk_seam_keeps_the_bytes(obj, block, chunk):
    """Blocks of a few entries cut rows, complex runs and a value's uses at every place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "BLOCK", block)
        mp.setattr(jsonio, "CHUNK", chunk)
        _check_chunks(_chunks(obj), reference_report(obj))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(complexes)
def test_format_complex_matches_the_reference(z):
    assert format_complex(z) == reference_complex(z)


def test_unknown_types_are_refused():
    for value in ({"x": object()}, [1, {2, 3}], np.array([object()])):
        with pytest.raises(TypeError):
            reference_report(value)
        with pytest.raises(TypeError):
            dump_report(value)


def test_fixed_cases():
    """Key collisions after str(), 0.0 next to -0.0 (equal, but printed apart),
    small integer types whose range exceeds their own maximum, and masked arrays,
    an ndarray subclass written as its base array."""
    obj = {1: [Fraction(-3, 4), 2.5 + 0j], "1.0": np.zeros((2, 0)), (0, "a"): "é\u0001\"",
           True: np.array(1 - 0j), None: np.array([[math.nan, -0.0]]), "big": 2**64,
           "1": "kept", "int8": np.tile(np.array([-128, 100], dtype=np.int8), 150),
           "int16": np.arange(-2**15, 2**15 - 100, dtype=np.int16),
           "zeros": [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 1.0])],
           "complex zeros": np.array([0.0 - 0.0j, -0.0 + 1j, 0.0 - 1j, -0.0 - 0.0j]),
           "masked": [np.ma.array(np.arange(4.0).reshape(2, 2)), [np.ma.array([1, 2])] * 2]}
    assert dump_report(obj) == reference_report(obj)


def _report_of(argv):
    """The report object ``cli.main`` hands to dump_report, and the text it wrote."""
    seen = []

    def capture(obj, file=None):
        seen.append(obj)
        return dump_report(obj, file)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(jsonio, "dump_report", capture)
        assert cli.main(argv) == 0
    return seen[0], out.getvalue()


def test_large_reports_match_the_reference(tmp_path):
    """A 3-D int tensor (verify of Z_16) and a dict of complex arrays with noise
    imaginary parts (dualtable of a Z_12 Cayley table), through the bulk paths."""
    z16 = tmp_path / "z16.json"
    z16.write_text(dump_report(scheme_to_json(catalog.cyclic_scheme(16))))
    z12 = tmp_path / "z12.json"
    z12.write_text(dump_report({"elements": list(range(12)),
                                "table": [[(i + j) % 12 for j in range(12)] for i in range(12)]}))
    obj, text = _report_of(["verify", str(z16)])
    assert obj["results"]["intersection_tensor"].shape == (16, 16, 16)
    assert text == reference_report(obj)
    obj, text = _report_of(["dualtable", str(z12)])
    raw = np.stack(list(obj["results"]["raw_coefficients"].values()))
    assert raw.dtype.kind == "c" and (raw.imag != 0).any()
    assert text == reference_report(obj)


def test_z48_dual_table_streams_in_bounded_memory(tmp_path):
    """The dual table of Z_48 (an 8.9 MB report, nearly every value distinct) is
    written to a file that keeps nothing with a tracemalloc peak of at most 16 MiB."""
    order = np.random.default_rng(1).permutation(48)
    labels = [f"{g}.0" for g in order.tolist()]
    z48 = tmp_path / "z48.json"
    z48.write_text(json.dumps({"elements": labels, "table": [
        [f"{(g + h) % 48}.0" for h in order.tolist()] for g in order.tolist()]}))
    obj, _ = _report_of(["dualtable", str(z48)])
    sink = types.SimpleNamespace(write=lambda chunk: None)
    tracemalloc.start()
    try:
        dump_report(obj, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
