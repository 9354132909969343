"""File formats: scheme/group/hypergroup documents and deterministic reports.

``dump_report`` streams json.dumps(sort_keys=True, indent=2) of a report's JSON
form to a file piece by piece: a container's numeric arrays (stacked into
one) are formatted once per distinct value, up front, and nested into text a
block of at most 2^13 entries at a time.  ``_csv`` yields a CSV table line by
line, at 17 significant digits.  Complex values are ``a+bi`` strings (JSON: the
real part when the imaginary part is 0); exact hypergroup values are read by
``make_hypergroup``'s reader and written by the ``Fraction`` rule.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from .errors import ParseError
from .generalized import GeneralizedScheme, _fold, build_generalized, build_windowed
from .groups import FiniteGroup, group_from_table
from .hypergroup import FiniteHypergroup, _fractions, _stored, make_hypergroup
from .schemes import _UNDEFINED, Scheme, _key, _label_index, _relation_matrix, build_scheme

# ---------------------------------------------------------------------------
# scalar formatting


def format_complex(z: complex) -> str:
    """a+bi at 17 significant digits; a nan or -0.0 imaginary part takes +."""
    return "%.17g%+.17gi" % (z.real, z.imag + 0.0)  # -0.0 + 0.0 is 0.0


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# report writer: json.dumps(sort_keys=True, indent=2, ensure_ascii=False) of the
# report's JSON form, byte for byte, in pieces

BLOCK = 1 << 13  # entries of a container formatted and nested at once

# the JSON scalar types, matched by exact type before any ABC check
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "True": "true",
          "False": "false", "None": "null"}


def _scalars(values, kind: type | None) -> list:
    """JSON texts of scalars of one exact type, or of mixed ones for None: repr, or
    json's word for it."""
    if kind is None:
        return [_scalars((v,), type(v))[0] for v in values]
    texts = list(map(encode_basestring if kind is str else kind.__repr__, values))
    if kind is not str and not _WORDS.keys().isdisjoint(texts):
        texts = [_WORDS.get(t, t) for t in texts]
    return texts


def _distinct(flat: np.ndarray, text):
    """take(a, b): the texts of a 1-D array's entries a to b, each distinct bit pattern
    formatted once, up front (by _scalars for a type, else by a %-format).  A complex entry
    is its real part where its imaginary part is 0, else '"a+bi"'."""
    if flat.dtype.kind == "c":
        zero = flat.imag == 0.0
        real = _distinct(np.where(zero, flat.real, 0.0), float)  # unused: one value, 0.0
        re = _distinct(np.where(zero, 0.0, flat.real), '"%.17g')
        im = _distinct(flat.imag, '%+.17gi"')
        return lambda a, b: np.where(zero[a:b], real(a, b), re(a, b) + im(a, b))
    bits, at = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    values = bits.view(flat.dtype).tolist()
    texts = np.array(_scalars(values, text) if isinstance(text, type)
                     else [text % v for v in values], dtype=object)
    return lambda a, b: texts[at[a:b]]


def _nest(texts: list, shape: tuple, level: int) -> list:
    """Texts of the arrays of ``shape`` at ``level`` whose entries read ``texts`` in C order."""
    for depth in reversed(range(len(shape))):
        n, inner = shape[depth], "\n" + "  " * (level + depth + 1)
        head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
        texts = [head + sep.join(texts[i:i + n]) + tail for i in range(0, len(texts), n)]
    return texts


def _items(values, level: int, brackets: str, keys=None):
    """Pieces of a nonempty container's values at ``level`` inside ``brackets``, each
    after its key when ``keys`` are given.  Rows of one shape form a table: numeric arrays
    of one dtype (stacked into one, or an array's own rows), or lists of JSON scalars of
    one length.  JSON scalars, and a table whose rows hold at most BLOCK entries, are
    formatted and nested a block of at most BLOCK entries at a time; other values one by one."""
    inner, n, shape = "\n" + "  " * level, len(values), ()
    values = np.asarray(values) if isinstance(values, np.ndarray) else values  # no subclass
    kinds = set() if isinstance(values, np.ndarray) else set(map(type, values))
    if (kinds == {np.ndarray} and len({(v.dtype, v.shape) for v in values}) == 1
            and values[0].dtype.kind in "biufc" and values[0].size):
        values = np.stack(values)
    elif (kinds and kinds <= {list, tuple} and len({len(v) for v in values}) == 1
          and 0 < len(values[0]) <= BLOCK):
        flat = [x for row in values for x in row]
        if (types := set(map(type, flat))) <= _JSON_SCALARS:
            values, shape, kinds = flat, (len(values[0]),), types
    shape = values.shape[1:] if isinstance(values, np.ndarray) else shape
    size = math.prod(shape)
    step, take = max(1, BLOCK // size), None
    if isinstance(values, np.ndarray) and size <= BLOCK:
        take = _distinct(values.ravel(), type(values.flat[0].item()))
    elif kinds and kinds <= _JSON_SCALARS:
        kind = next(iter(kinds)) if len(kinds) == 1 else None
        take = lambda a, b: _scalars(values[a:b], kind)
    for i in range(0, n, step):
        before = [("," if r else brackets[0]) + inner + (keys[r] if keys else "")
                  for r in range(i, min(i + step, n))]
        if take is None:  # one by one
            for prefix, value in zip(before, values[i:i + step]):
                yield prefix
                yield from _texts(value, level)
        else:
            texts = take(i * size, (i + len(before)) * size)
            yield "".join(map(str.__add__, before, _nest(list(texts), shape, level)))
    yield inner[:-2] + brackets[1]


def _texts(value: Any, level: int):
    """Pieces of the JSON text of a report value that starts at indentation ``level``."""
    if type(value) in _JSON_SCALARS:
        yield _scalars((value,), type(value))[0]
    elif isinstance(value, (np.ndarray, np.generic)) and (
            value.ndim == 0 or value.dtype.kind not in "biufc" or not value.size):
        yield from _texts(value.tolist(), level)
    elif isinstance(value, dict) and value:
        keys, values = zip(*sorted({str(k): v for k, v in value.items()}.items()))
        yield from _items(values, level + 1, "{}", [k + ": " for k in _scalars(keys, str)])
    elif isinstance(value, (list, tuple, np.ndarray)) and len(value):
        yield from _items(value, level + 1, "[]")
    elif isinstance(value, (dict, list, tuple)):
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, complex):
        yield f'"{format_complex(value)}"' if value.imag else _scalars((value.real,), float)[0]
    elif isinstance(value, Fraction):
        yield f'"{value.numerator}/{value.denominator}"'
    elif isinstance(value, (str, int, float)):  # subclasses, written as json writes them
        yield _scalars((value,), next(k for k in (str, int, float) if isinstance(value, k)))[0]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_report(obj: Any, file=None) -> str | None:
    """Canonical JSON text for a report object (trailing newline included), handed to
    ``file.write`` piece by piece (each holds at most a block of BLOCK entries or one
    scalar), or their join."""
    pieces = itertools.chain(_texts(obj, 0), "\n")
    if file is None:
        return "".join(pieces)
    for piece in pieces:
        file.write(piece)


def _json_value(value: Any) -> Any:
    """The JSON value that dump_report writes for ``value``."""
    return json.loads(dump_report(value))


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON document {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def detect_kind(doc: dict) -> str:
    if "table" in doc:
        return "cayley"
    if "step" in doc or "stoch" in doc:
        return "generalized"
    if "conv" in doc:
        return "hypergroup"
    if "relations" in doc:
        return "scheme"
    raise ParseError(
        "document is none of: scheme (relations), cayley (table), "
        "hypergroup (conv), generalized (step)"
    )


# ---------------------------------------------------------------------------
# schemes


def scheme_to_json(s: Scheme) -> dict:
    """Points, classes, one [x, y, class] row per ordered pair, identity and
    involution: also the first fields of a generalized scheme's document."""
    points = _json_value(s.points)
    classes = _json_value(s.classes)
    return {
        "points": points,
        "classes": classes,
        "relations": [[x, y, classes[c]] for x, row in zip(points, s.relation.tolist())
                      for y, c in zip(points, row)],
        "identity": classes[s.identity],
        "involution": [classes[c] for c in s.involution.tolist()],
    }


def _norm_label(v: Any) -> Any:
    """Hashable form of a JSON label: lists, nested to any depth, become tuples."""
    if isinstance(v, list):  # in one pass when v holds scalars, or lists of scalars
        flat = tuple(map(tuple, v)) if set(map(type, v)) == {list} else tuple(v)
        try:
            hash(flat)
        except TypeError:  # a list or dict below: converted, or named, one entry at a time
            return tuple(map(_norm_label, v))
        return flat
    if isinstance(v, dict):
        raise ParseError(f"labels must be numbers, strings or lists, got {v!r}")
    return v


def _list(doc: dict, key: str) -> list:
    """doc[key], which must be a JSON list."""
    value = doc[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


# the keys of each document kind read by _scheme_fields, in the order they are checked
_REQUIRED = {
    "scheme": ("points", "classes", "relations"),
    "generalized": ("points", "classes", "relations"),
    "windowed": ("points", "classes", "relations", "identity", "involution",
                 "boundary_distance", "class_order", "vertex_weight", "base_point"),
}


def _scheme_fields(doc: dict, kind: str) -> tuple:
    """Points, classes, the 'relations' rows as a table of class labels aligned
    with the points (_UNDEFINED where no row names a pair), and the positions of
    the asserted identity, of each class's asserted conjugate (None where absent)
    and of a generalized document's base point (0 where absent), read alike for
    scheme and generalized documents.  A label names the entry of 'points' or
    'classes' with its _key, and no ordered pair gets two classes."""
    for key in _REQUIRED[kind]:
        if key not in doc:
            raise ParseError(f"{kind} document missing {key!r}")
    points = [_norm_label(p) for p in _list(doc, "points")]
    classes = [_norm_label(c) for c in _list(doc, "classes")]
    class_at = _label_index(classes, "class")
    point_at = _label_index(points, "point")
    table = [[_UNDEFINED] * len(points) for _ in points]
    for row in _list(doc, "relations"):
        if not (isinstance(row, list) and len(row) == 3):
            raise ParseError(f"relation rows must be [x, y, class], got {row!r}")
        x, y, c = (_key(_norm_label(v)) for v in row)
        if not (x in point_at and y in point_at and c in class_at):
            raise ParseError(f"unknown label in relation row {row!r}")
        a, b, c = point_at[x], point_at[y], classes[class_at[c]]
        if table[a][b] is not _UNDEFINED and table[a][b] is not c:
            raise ParseError(f"pair {(points[a], points[b])!r} assigned two classes")
        table[a][b] = c

    def at(index, label, unknown):
        key = _key(_norm_label(label))
        if key not in index:
            raise ParseError(unknown.format(_norm_label(label)))
        return index[key]

    unknown_class = "unknown class {!r} in " + kind + " document"
    identity = at(class_at, doc["identity"], unknown_class) if "identity" in doc else None
    involution = None
    if "involution" in doc:
        involution = [at(class_at, c, unknown_class) for c in _list(doc, "involution")]
        if len(involution) != len(classes):
            raise ParseError("involution must list one conjugate per class")
    base_point = 0
    if kind != "scheme" and "base_point" in doc:
        base_point = at(point_at, doc["base_point"], "unknown base point {!r}")
    return points, classes, table, identity, involution, base_point


def _base_scheme(points, classes, table, e, tau) -> Scheme:
    """build_scheme of the fields, asserting the identity and involution read by position."""
    return build_scheme(points, classes, table, identity=_UNDEFINED if e is None else classes[e],
                        involution=None if tau is None else [
                            (c, classes[j]) for c, j in zip(classes, tau)])


def scheme_from_json(doc: dict) -> Scheme:
    return _base_scheme(*_scheme_fields(doc, "scheme")[:5])


# ---------------------------------------------------------------------------
# groups given by Cayley tables


def cayley_from_json(doc: dict) -> tuple[FiniteGroup, list]:
    """The group and the subgroup's labels as the document names them (the
    identity's label when it names none), left for the quotient to check."""
    for key in ("elements", "table"):
        if key not in doc:
            raise ParseError(f"cayley document missing {key!r}")
    elements = [_norm_label(e) for e in _list(doc, "elements")]
    table = _list(doc, "table")
    if not all(isinstance(row, list) for row in table):
        raise ParseError("'table' rows must be lists")
    group = group_from_table(elements, _norm_label(table))
    if doc.get("subgroup") is None:
        return group, [group.elements[group.identity]]
    return group, [_norm_label(e) for e in _list(doc, "subgroup")]


# ---------------------------------------------------------------------------
# hypergroups


def hypergroup_to_json(h: FiniteHypergroup) -> dict:
    support = np.argwhere(h.values != 0)
    entries = h.values[tuple(support.T)]
    cells = _json_value(_fractions(entries, h.scale)) if h.exact else entries.tolist()
    return {
        "classes": _json_value(h.classes),
        "identity": int(h.identity),
        "involution": h.involution.tolist(),
        "conv": [[i, j, k, v] for (i, j, k), v in zip(support.tolist(), cells)],
        "haar": _json_value(h.haar),
    }


def hypergroup_from_json(doc: dict) -> FiniteHypergroup:
    """Exact unless some row holds a JSON float: ints and the strings Fraction
    reads become integer numerators over one denominator; float otherwise.  A
    repeated [i, j, k] keeps its last value."""
    for key in ("classes", "conv"):
        if key not in doc:
            raise ParseError(f"hypergroup document missing {key!r}")
    classes = [_norm_label(c) for c in _list(doc, "classes")]
    d = len(classes)
    if d == 0:
        raise ParseError("hypergroup document has no classes")
    entries = {}  # flat index -> int, float or Fraction
    exact = True
    for row in _list(doc, "conv"):
        if not (isinstance(row, list) and len(row) == 4):
            raise ParseError(f"conv rows must be [i, j, k, value], got {row!r}")
        i, j, k, v = row
        if not all(type(t) is int and 0 <= t < d for t in (i, j, k)):  # true is no index
            raise ParseError(f"conv indices out of range in {row!r}")
        if isinstance(v, str):
            try:
                v = Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad fraction {v!r}") from exc
        elif type(v) not in (int, float):
            raise ParseError(f"conv value must be number or 'p/q', got {v!r}")
        exact = exact and type(v) is not float
        entries[(i * d + j) * d + k] = v
    flat = np.fromiter(entries, dtype=np.int64, count=len(entries))
    kept = np.array(list(entries.values()), dtype=object)
    if exact:
        values, scale = _stored(kept, None)
    else:
        try:
            values, scale = kept.astype(np.float64), None
        except OverflowError as exc:
            raise ParseError("conv value outside the float range") from exc
        if not np.isfinite(values).all():
            raise ParseError("conv value is not a finite number")
    conv = np.zeros((d, d, d), dtype=values.dtype)
    conv.flat[flat] = values
    return make_hypergroup(classes, conv, scale=scale)


# ---------------------------------------------------------------------------
# generalized schemes


def generalized_to_json(g: GeneralizedScheme) -> dict:
    doc = scheme_to_json(g)
    doc["step"] = g.step.tolist()
    doc["vertex_weight"] = g.vertex_weight.tolist()
    doc["base_point"] = doc["points"][g.base_point]
    if g.windowed:
        doc["boundary_distance"] = g.boundary_distance.tolist()
        doc["class_order"] = g.class_order.tolist()
    return doc


def _float_array(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array: strings, nulls, ragged nesting and non-finite
    values are a ParseError, not a numpy error."""
    try:
        raw = np.asarray(doc[key])
        values = raw.astype(float) if raw.dtype.kind in "biufO" else None
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or not np.isfinite(values).all():
        raise ParseError(f"{key!r} must be a rectangular array of finite numbers")
    return values


def _int_array(doc: dict, key: str, length: int) -> np.ndarray:
    """doc[key] as an int64 array, which must hold ``length`` JSON integers."""
    values = _list(doc, key)
    if len(values) != length or not all(type(v) is int and -2**63 <= v < 2**63 for v in values):
        raise ParseError(f"{key!r} must list {length} integers")
    return np.array(values, dtype=np.int64)


def generalized_from_json(doc: dict) -> GeneralizedScheme:
    """The scheme fields, read as :func:`scheme_from_json` reads them, and the (n, n)
    'step' matrix, or without it a legacy (d, n, n) 'stoch' stack, folded into one.  A
    document with 'boundary_distance' or 'class_order' is a window: it must hold every
    field :func:`generalized_to_json` writes, and its relation needs no scheme; any
    other is audited over its base scheme."""
    kind = "windowed" if "boundary_distance" in doc or "class_order" in doc else "generalized"
    points, classes, table, identity, involution, base_point = _scheme_fields(doc, kind)
    if kind == "windowed":
        relation = _relation_matrix(points, classes, table)
    else:
        base = _base_scheme(points, classes, table, identity, involution)
        relation = base.relation
    n, d = len(points), len(classes)
    key = "stoch" if "stoch" in doc and "step" not in doc else "step"
    if key not in doc:
        raise ParseError(f"{kind} document missing 'step'")
    step, shape = _float_array(doc, key), (n, n) if key == "step" else (d, n, n)
    if step.shape != shape:
        raise ParseError(f"{key} must have shape {shape}, got {step.shape}")
    weight = None
    if "vertex_weight" in doc:
        weight = _float_array(doc, "vertex_weight")
        if weight.shape != (n,):
            raise ParseError(f"vertex_weight must have shape ({n},), got {weight.shape}")
    if key == "stoch":
        step = _fold(step, relation, classes)

    if kind == "generalized":
        return build_generalized(base, step, vertex_weight=weight, base_point=points[base_point])
    return build_windowed(points, classes, relation, identity, involution, step, weight,
                          base_point, _int_array(doc, "boundary_distance", n),
                          _int_array(doc, "class_order", d))


# ---------------------------------------------------------------------------
# CSV tables


# text of a CSV cell by its exact type (callers pass Python scalars, so numpy
# arrays go in as .tolist()); anything else (labels, ints, texts) prints with str
_CELL = {float: "%.17g".__mod__, complex: format_complex, bool: "%d".__mod__}


def _csv(header, rows):
    """A CSV table, one line at a time: the header names, then one line per row of cells."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join([_CELL.get(type(v), str)(v) for v in row]) + "\n"
