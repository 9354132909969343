"""File formats: scheme/group/hypergroup documents and deterministic reports.

All emitters are byte-deterministic: JSON is dumped with sorted keys and
fixed indentation, floats use shortest round-trip repr, CSV uses 17
significant digits, and complex values are rendered as ``a+bi`` strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import ParseError
from .generalized import GeneralizedScheme, build_generalized, build_windowed
from .groups import FiniteGroup, check_subgroup, group_from_table
from .hypergroup import FiniteHypergroup, _integer_form, make_hypergroup
from .schemes import Scheme, build_scheme

# ---------------------------------------------------------------------------
# scalar formatting


def format_complex(z: complex) -> str:
    re = f"{z.real:.17g}"
    im = f"{abs(z.imag):.17g}"
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{re}{sign}{im}i"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


# values that are already JSON-safe, matched by exact type before any ABC check
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """Recursively convert numpy/Fraction/complex values to JSON-safe ones."""
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        if z.imag == 0.0:
            return z.real
        return format_complex(z)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def dump_report(obj: Any) -> str:
    """Canonical JSON text for a report object (trailing newline included)."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
    relations = []
    for xi, x in enumerate(s.points):
        for yi, y in enumerate(s.points):
            relations.append([_plain(x), _plain(y), _plain(s.classes[s.relation[xi, yi]])])
    doc = {
        "points": [_plain(p) for p in s.points],
        "classes": [_plain(c) for c in s.classes],
        "relations": relations,
        "identity": _plain(s.classes[s.identity]),
        "involution": [_plain(s.classes[s.involution[i]]) for i in range(s.n_classes)],
    }
    return doc


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


def scheme_from_json(doc: dict) -> Scheme:
    for key in ("points", "classes", "relations"):
        if key not in doc:
            raise ParseError(f"scheme document missing {key!r}")
    points = [_norm_label(p) for p in _list(doc, "points")]
    classes = [_norm_label(c) for c in _list(doc, "classes")]
    mapping = {}
    for row in _list(doc, "relations"):
        if not (isinstance(row, list) and len(row) == 3):
            raise ParseError(f"relation rows must be [x, y, class], got {row!r}")
        x, y, c = (_norm_label(v) for v in row)
        key = (x, y)
        if key in mapping and mapping[key] != c:
            raise ParseError(f"pair {key!r} assigned two classes")
        mapping[key] = c
    identity = _norm_label(doc["identity"]) if "identity" in doc else None
    involution = None
    if "involution" in doc:
        conjugates = [_norm_label(v) for v in _list(doc, "involution")]
        if len(conjugates) != len(classes):
            raise ParseError("involution must list one conjugate per class")
        involution = dict(zip(classes, conjugates))
    return build_scheme(points, classes, mapping, identity=identity, involution=involution)


# ---------------------------------------------------------------------------
# groups given by Cayley tables


def cayley_from_json(doc: dict) -> tuple[FiniteGroup, np.ndarray]:
    for key in ("elements", "table"):
        if key not in doc:
            raise ParseError(f"cayley document missing {key!r}")
    elements = [_norm_label(e) for e in _list(doc, "elements")]
    table = _list(doc, "table")
    if not all(isinstance(row, list) for row in table):
        raise ParseError("'table' rows must be lists")
    group = group_from_table(elements, _norm_label(table))
    if doc.get("subgroup") is None:
        sub = np.array([group.identity], dtype=np.int64)
    else:
        sub = check_subgroup(group, [_norm_label(e) for e in _list(doc, "subgroup")])
    return group, sub


# ---------------------------------------------------------------------------
# hypergroups


def hypergroup_to_json(h: FiniteHypergroup) -> dict:
    support = np.argwhere(h.values != 0)
    entries = h.values[tuple(support.T)]
    if h.exact:  # 'p/q' in lowest terms
        common = np.gcd(entries, h.scale)
        cells = list(map("{}/{}".format, (entries // common).tolist(),
                         (h.scale // common).tolist()))
    else:
        cells = [float(v) for v in entries.tolist()]
    return {
        "classes": [_plain(c) for c in h.classes],
        "identity": int(h.identity),
        "involution": [int(v) for v in h.involution],
        "conv": [[i, j, k, v] for (i, j, k), v in zip(support.tolist(), cells)],
        "haar": [_plain(w) for w in h.haar],
    }


# an integer, or a ratio of integers with a nonzero denominator; other strings,
# "1/0" among them, are read by Fraction()
_RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d*[1-9]\d*))?\s*")


def _parse_ratio(text: str) -> tuple:
    """(p, q) with p / q the value of Fraction(text), q > 0."""
    match = _RATIO.fullmatch(text)
    try:
        return (int(match[1]), int(match[2] or 1)) if match else Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}") from exc


def hypergroup_from_json(doc: dict) -> FiniteHypergroup:
    """Exact when every value is an int or a 'p/q' string, read into integer
    numerators over one denominator; float otherwise.  A repeated [i, j, k]
    keeps its last value."""
    for key in ("classes", "conv"):
        if key not in doc:
            raise ParseError(f"hypergroup document missing {key!r}")
    classes = [_norm_label(c) for c in _list(doc, "classes")]
    d = len(classes)
    if d == 0:
        raise ParseError("hypergroup document has no classes")
    entries = {}  # flat index -> (p, q)
    exact = True
    for row in _list(doc, "conv"):
        if not (isinstance(row, list) and len(row) == 4):
            raise ParseError(f"conv rows must be [i, j, k, value], got {row!r}")
        i, j, k, v = row
        if not all(isinstance(t, int) and 0 <= t < d for t in (i, j, k)):
            raise ParseError(f"conv indices out of range in {row!r}")
        if isinstance(v, str):
            entries[(i * d + j) * d + k] = _parse_ratio(v)
        elif isinstance(v, (int, float)):
            entries[(i * d + j) * d + k] = (v, 1)
            exact = exact and isinstance(v, int)
        else:
            raise ParseError(f"conv value must be number or 'p/q', got {v!r}")
    flat = np.fromiter(entries, dtype=np.int64, count=len(entries))
    nums, dens = np.array(list(entries.values()), dtype=object).reshape(-1, 2).T
    if not exact:
        conv = np.zeros((d, d, d))
        try:
            conv.flat[flat] = (nums / dens).astype(np.float64)  # int / int rounds as float(Fraction)
        except OverflowError as exc:
            raise ParseError("conv value outside the float range") from exc
        return make_hypergroup(classes, conv)
    values, scale = _integer_form(nums, dens)
    conv = np.zeros((d, d, d), dtype=values.dtype)
    conv.flat[flat] = values
    return make_hypergroup(classes, conv, scale=scale)


# ---------------------------------------------------------------------------
# generalized schemes


def generalized_to_json(g: GeneralizedScheme) -> dict:
    doc = {
        "points": [_plain(p) for p in g.points],
        "classes": [_plain(c) for c in g.classes],
        "relations": [
            [_plain(g.points[xi]), _plain(g.points[yi]), _plain(g.classes[g.relation[xi, yi]])]
            for xi in range(g.n_points)
            for yi in range(g.n_points)
        ],
        "identity": _plain(g.classes[g.identity]),
        "involution": [_plain(g.classes[g.involution[i]]) for i in range(g.n_classes)],
        "stoch": [[[float(v) for v in row] for row in mat] for mat in g.stoch],
        "vertex_weight": [float(w) for w in g.vertex_weight],
        "base_point": _plain(g.points[g.base_point]),
    }
    if g.windowed:
        doc["boundary_distance"] = [int(v) for v in g.boundary_distance]
        doc["class_order"] = [int(v) for v in g.class_order]
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
    for key in ("points", "classes", "relations", "stoch"):
        if key not in doc:
            raise ParseError(f"generalized document missing {key!r}")
    points = [_norm_label(p) for p in _list(doc, "points")]
    classes = [_norm_label(c) for c in _list(doc, "classes")]
    point_index = {p: i for i, p in enumerate(points)}
    class_index = {c: i for i, c in enumerate(classes)}
    n, d = len(points), len(classes)
    relation = np.full((n, n), -1, dtype=np.int64)
    for row in _list(doc, "relations"):
        if not (isinstance(row, list) and len(row) == 3):
            raise ParseError(f"relation rows must be [x, y, class], got {row!r}")
        x, y, c = (_norm_label(v) for v in row)
        try:
            relation[point_index[x], point_index[y]] = class_index[c]
        except KeyError as exc:
            raise ParseError(f"unknown label in relation row {row!r}") from exc
    if (relation < 0).any():
        raise ParseError("relation does not cover all ordered pairs")
    stoch = _float_array(doc, "stoch")
    if stoch.shape != (d, n, n):
        raise ParseError(
            f"stoch must have shape ({d}, {n}, {n}), got {stoch.shape}"
        )
    weight = None
    if "vertex_weight" in doc:
        weight = _float_array(doc, "vertex_weight")
        if weight.shape != (n,):
            raise ParseError(f"vertex_weight must have shape ({n},), got {weight.shape}")
    base_point = None
    if "base_point" in doc:
        label = _norm_label(doc["base_point"])
        if label not in point_index:
            raise ParseError(f"unknown base point {label!r}")
        base_point = point_index[label]

    if "boundary_distance" in doc or "class_order" in doc:
        for key in ("identity", "involution", "boundary_distance", "class_order",
                    "vertex_weight", "base_point"):
            if key not in doc:
                raise ParseError(f"windowed document missing {key!r}")
        try:
            identity = class_index[_norm_label(doc["identity"])]
            involution = np.array(
                [class_index[_norm_label(c)] for c in _list(doc, "involution")], dtype=np.int64
            )
        except KeyError as exc:
            raise ParseError(f"unknown class {exc.args[0]!r} in windowed document") from exc
        if len(involution) != d:
            raise ParseError("involution must list one conjugate per class")
        return build_windowed(
            points=points,
            classes=classes,
            relation=relation,
            identity=identity,
            involution=involution,
            stoch=stoch,
            vertex_weight=weight,
            base_point=base_point,
            boundary_distance=_int_array(doc, "boundary_distance", n),
            class_order=_int_array(doc, "class_order", d),
        )

    base = build_scheme(points, classes, relation)
    return build_generalized(base, stoch, vertex_weight=weight, base_point=base_point)


# ---------------------------------------------------------------------------
# CSV tables


def chartable_to_csv(tbl) -> str:
    d = len(tbl.classes)
    lines = ["character," + ",".join(f"class_{i}" for i in range(d)) + ",plancherel"]
    for r, label in enumerate(tbl.labels):
        cells = [format_complex(complex(v)) for v in tbl.chars[r]]
        lines.append(f"{label}," + ",".join(cells) + f",{format_float(tbl.plancherel[r])}")
    return "\n".join(lines) + "\n"


def dualtable_to_csv(labels, weights) -> str:
    """weights: mapping (a, b) -> vector of dual coefficients."""
    m = len(labels)
    lines = ["left,right," + ",".join(labels)]
    for a in range(m):
        for b in range(m):
            vec = weights[(a, b)]
            cells = [format_float(v) for v in vec]
            lines.append(f"{labels[a]},{labels[b]}," + ",".join(cells))
    return "\n".join(lines) + "\n"
