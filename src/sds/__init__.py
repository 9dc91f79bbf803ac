"""Exact nonnegativity decision for forms on the nonnegative orthant.

Successive weighted difference substitutions either turn every branch of
the substitution tree trivially positive (a nonnegativity certificate) or
expose a trivially negative branch (an exact rational counterexample).
"""

from .engine import (
    Counterexample,
    EngineConfig,
    EngineStats,
    Inconclusive,
    PositiveSemidefinite,
    Verdict,
    verify_certificate,
    yys_decide,
)
from .forms import (
    Form,
    FormError,
    ParseError,
    evaluate,
    in_simplex,
    is_trivially_negative,
    is_trivially_positive,
    parse_form,
    substitute_linear,
    substitute_pwn,
)
from .geometry import Cell, cell_of_chain, locate_point, max_diameter_at_depth, squared_diameter
from .matrices import barycenter_image
from .oracle import GridSpec, grid_min, random_negative_search

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "Counterexample",
    "EngineConfig",
    "EngineStats",
    "Form",
    "FormError",
    "GridSpec",
    "Inconclusive",
    "ParseError",
    "PositiveSemidefinite",
    "Verdict",
    "barycenter_image",
    "cell_of_chain",
    "evaluate",
    "grid_min",
    "in_simplex",
    "is_trivially_negative",
    "is_trivially_positive",
    "locate_point",
    "max_diameter_at_depth",
    "parse_form",
    "random_negative_search",
    "squared_diameter",
    "substitute_linear",
    "substitute_pwn",
    "verify_certificate",
    "yys_decide",
]
