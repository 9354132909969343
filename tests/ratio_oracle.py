"""Reference reader of a hypergroup document's ratio strings: the one
``jsonio.hypergroup_from_json`` is checked against.

An integer, or a ratio of integers with a nonzero denominator, is matched by
its own grammar; every other string, "1/0" among them, is read by Fraction().
"""

import re
from fractions import Fraction

from hypergroups.errors import ParseError

RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d*[1-9]\d*))?\s*")


def parse_ratio(text: str) -> tuple:
    """(p, q) with p / q the value of Fraction(text), q > 0."""
    match = RATIO.fullmatch(text)
    try:
        return (int(match[1]), int(match[2] or 1)) if match else Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}") from exc
