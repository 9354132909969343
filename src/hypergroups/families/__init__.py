"""Concrete one-parameter and two-parameter families with closed forms.

Each public name loads its family's module on first access (PEP 562).
"""

import importlib

# the public names of each family's module
_EXPORTS = {
    "gab": (
        "GabFamily", "MomentResult", "gab_ball", "gab_dual_measure", "gab_eval_all",
        "gab_haar", "gab_kernel_psd", "gab_linearization",
    ),
    "cosh": (
        "CoshFamily", "cosh_base_product", "cosh_character", "cosh_convolution",
        "cosh_parameter_in_dual", "cosh_window_scheme", "window_character",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the family module that defines a public name, and keep the name bound here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(
        importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
