"""File formats: scheme/group/hypergroup documents and deterministic reports.

``dump_report`` writes json.dumps(sort_keys=True, indent=2) of a report's JSON
form in one walk, formatting a list of scalars with one ``map`` and a numeric
array (and a dual table's CSV weights) once per distinct value; CSV uses 17
significant digits.  Complex values are ``a+bi`` strings (JSON: the real part
when the imaginary part is 0); exact hypergroup values are read by
``make_hypergroup``'s reader and written by the ``Fraction`` rule.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from .errors import ParseError
from .generalized import GeneralizedScheme, build_generalized, build_windowed
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
# report's JSON form, byte for byte, with the numeric leaves formatted in bulk

# the JSON scalar types, matched by exact type before any ABC check
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "True": "true",
          "False": "false", "None": "null"}
_KIND = {"b": bool, "i": int, "u": int, "f": float}


def _scalars(values, kind: type) -> list:
    """JSON texts of scalars of one exact type: repr, or json's word for it."""
    texts = list(map(encode_basestring if kind is str else kind.__repr__, values))
    if kind is not str and not _WORDS.keys().isdisjoint(texts):
        texts = [_WORDS.get(t, t) for t in texts]
    return texts


def _nest(texts: list, shape: tuple, level: int) -> list:
    """Texts of the arrays of ``shape`` at ``level`` whose entries read ``texts`` in C order."""
    for depth in reversed(range(len(shape))):
        n, inner = shape[depth], "\n" + "  " * (level + depth + 1)
        head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
        texts = [head + sep.join(texts[i:i + n]) + tail for i in range(0, len(texts), n)]
    return texts


def _distinct(flat: np.ndarray, text) -> np.ndarray:
    """Object array of the texts of a 1-D array's entries, each distinct bit
    pattern formatted once: by _scalars for a type, else by a %-format."""
    bits, at = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    values = bits.view(flat.dtype).tolist()
    texts = _scalars(values, text) if isinstance(text, type) else list(map(text.__mod__, values))
    return np.array(texts, dtype=object)[at]


def _items(values, level: int) -> list:
    """Texts of a container's values at ``level``, in one pass for scalars of one
    type and for nonempty numeric arrays of one dtype and shape.  A complex entry
    is its real part when its imaginary part is 0, else 'a+bi'."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _JSON_SCALARS:
        return _scalars(values, kind)
    if not (kind is np.ndarray and len({(v.dtype, v.shape) for v in values}) == 1
            and values[0].dtype.kind in "biufc" and values[0].size):
        return [_text(v, level) for v in values]
    flat = np.stack(values).ravel()
    if flat.dtype.kind != "c":
        texts = _distinct(flat, _KIND[flat.dtype.kind])
    else:
        zero, texts = flat.imag == 0.0, np.empty(flat.size, dtype=object)
        texts[zero] = _distinct(flat.real[zero], float)
        rest = flat[~zero]  # the two halves of '"' + format_complex(z) + '"'
        texts[~zero] = _distinct(rest.real, '"%.17g') + _distinct(rest.imag, '%+.17gi"')
    return _nest(texts.tolist(), values[0].shape, level)


def _text(value: Any, level: int) -> str:
    """JSON text of a report value that starts at indentation ``level``."""
    if type(value) in _JSON_SCALARS:
        return _scalars((value,), type(value))[0]
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys, values = zip(*sorted({str(k): v for k, v in value.items()}.items()))
        inner = "\n" + "  " * (level + 1)
        return "{" + inner + ("," + inner).join(map(
            "{}: {}".format, _scalars(keys, str), _items(values, level + 1))) + inner[:-2] + "}"
    if isinstance(value, (list, tuple)):
        return _nest(_items(value, level + 1), (len(value),), level)[0] if value else "[]"
    if isinstance(value, (np.ndarray, np.generic, complex)):
        arr = np.asarray(value)
        numeric = arr.dtype.kind in "biufc" and arr.size
        return _items([arr], level)[0] if numeric else _text(arr.tolist(), level)
    if isinstance(value, Fraction):
        return f'"{value.numerator}/{value.denominator}"'
    for kind in (str, int, float):  # subclasses, written as json writes them
        if isinstance(value, kind):
            return _scalars((value,), kind)[0]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_report(obj: Any) -> str:
    """Canonical JSON text for a report object (trailing newline included)."""
    return _text(obj, 0) + "\n"


def _json_value(value: Any) -> Any:
    """The JSON value that dump_report writes for ``value``."""
    return json.loads(_text(value, 0))


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
    if "stoch" in doc:
        return "generalized"
    if "conv" in doc:
        return "hypergroup"
    if "relations" in doc:
        return "scheme"
    raise ParseError(
        "document is none of: scheme (relations), cayley (table), "
        "hypergroup (conv), generalized (stoch)"
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
    if isinstance(v, list):
        return tuple(_norm_label(x) for x in v)
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
    "generalized": ("points", "classes", "relations", "stoch"),
    "windowed": ("points", "classes", "relations", "stoch", "identity", "involution",
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
    conv = np.zeros((d, d, d), dtype=values.dtype)
    conv.flat[flat] = values
    return make_hypergroup(classes, conv, scale=scale)


# ---------------------------------------------------------------------------
# generalized schemes


def generalized_to_json(g: GeneralizedScheme) -> dict:
    doc = scheme_to_json(g)
    doc["stoch"] = g.stoch.tolist()
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
    except (TypeError, ValueError):
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
    """The scheme fields, read as :func:`scheme_from_json` reads them, and the
    transition stack.  A document with 'boundary_distance' or 'class_order' is
    a window: it must hold every field :func:`generalized_to_json` writes, and
    its relation needs no scheme; any other is audited over its base scheme."""
    kind = "windowed" if "boundary_distance" in doc or "class_order" in doc else "generalized"
    points, classes, table, identity, involution, base_point = _scheme_fields(doc, kind)
    if kind == "windowed":
        relation = _relation_matrix(points, classes, table)
    else:
        base = _base_scheme(points, classes, table, identity, involution)
    n, d = len(points), len(classes)
    stoch = _float_array(doc, "stoch")
    if stoch.shape != (d, n, n):
        raise ParseError(f"stoch must have shape ({d}, {n}, {n}), got {stoch.shape}")
    weight = None
    if "vertex_weight" in doc:
        weight = _float_array(doc, "vertex_weight")
        if weight.shape != (n,):
            raise ParseError(f"vertex_weight must have shape ({n},), got {weight.shape}")

    if kind == "generalized":
        return build_generalized(base, stoch, vertex_weight=weight, base_point=points[base_point])
    return build_windowed(points, classes, relation, identity, involution, stoch, weight,
                          base_point, _int_array(doc, "boundary_distance", n),
                          _int_array(doc, "class_order", d))


# ---------------------------------------------------------------------------
# CSV tables


# text of a CSV cell by its exact type (callers pass Python scalars, so numpy
# arrays go in as .tolist()); anything else (labels, ints) prints with str
_CELL = {float: "%.17g".__mod__, complex: format_complex, bool: "%d".__mod__}


def _csv(header, rows) -> str:
    """A CSV table: the header names, then one line per row of cells."""
    lines = [",".join(header)]
    lines += [",".join([_CELL.get(type(v), str)(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def chartable_to_csv(tbl) -> str:
    header = ["character", *(f"class_{i}" for i in range(len(tbl.classes))), "plancherel"]
    rows = zip(tbl.labels, tbl.chars.tolist(), tbl.plancherel.tolist())
    return _csv(header, ([label, *chars, w] for label, chars, w in rows))


def dualtable_to_csv(labels, weights) -> str:
    """weights: mapping (a, b) -> vector of real dual coefficients, each distinct
    value formatted once, as _csv formats a float."""
    d = len(labels)
    block = np.array([weights[a, b] for a in range(d) for b in range(d)], dtype=np.float64)
    cells = _distinct(block.ravel(), "%.17g").reshape(block.shape).tolist()
    return _csv(["left", "right", *labels], (
        [labels[k // d], labels[k % d], *row] for k, row in enumerate(cells)))
