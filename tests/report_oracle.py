"""Reference report encoder: the one ``jsonio.dump_report`` is checked against.

The report's JSON form is built value by value (numpy arrays and scalars
through one ``tolist()``, a ``Fraction`` as ``'p/q'``, a complex its real
part when the imaginary part is 0 and ``a+bi`` otherwise), then written by
``json.dumps`` with sorted keys and a 2-space indent.
"""

import json
from fractions import Fraction

import numpy as np

# values that are already JSON-safe, matched by exact type before any ABC check
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def format_complex(z: complex) -> str:
    im = z.imag
    return f"{z.real:.17g}{'-' if im < 0 else '+'}{abs(im):.17g}i"  # nan and -0.0 take +


def plain(value):
    """The JSON form of a report value, converted recursively."""
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist() if value.dtype.kind in "biuf" else plain(value.tolist())
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else format_complex(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def reference_report(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
