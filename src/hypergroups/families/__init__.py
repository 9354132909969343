"""Concrete one-parameter and two-parameter families with closed forms."""

from .gab import (  # noqa: F401
    GabFamily,
    MomentResult,
    gab_ball,
    gab_dual_measure,
    gab_eval,
    gab_eval_all,
    gab_eval_closed_form,
    gab_haar,
    gab_kernel_psd,
    gab_linearization,
    gab_orthogonality_measure,
)
from .cosh import (  # noqa: F401
    CoshFamily,
    cosh_base_product,
    cosh_character,
    cosh_connection_quadrature,
    cosh_convolution,
    cosh_parameter_in_dual,
    cosh_window_scheme,
    window_character,
)
