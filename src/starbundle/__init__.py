"""Exact symbolic star and bullet products on prequantized flat phase spaces.

The package computes, with exact Gaussian-rational scalars and a formal
invertible hbar, the bracket geometry of the prequantum circle bundle
over flat bi-polarized phase spaces, the exponential star products
driven by decomposed 2-tensors, their horizontal lifts (bullet
products), and the quantum operators these induce on polarized wave
functions.
"""

from .algebra import (
    Derivation,
    EquivariantFunction,
    Monomial,
    WeightFactor,
    substitute_jets,
)
from .errors import (
    ChartError,
    ConfigError,
    ExtractionError,
    LimitError,
    ObservableError,
    ParseError,
    PolarizationError,
    StarBundleError,
    WeightFactorError,
)
from .geometry import (
    AffineMap,
    Chart,
    Polarization,
    bargmann_gaussian,
    bargmann_wave,
    hamiltonian_vector_field,
    horizontal_lift,
    is_polarized,
    jacobiator,
    momentum_phase,
    momentum_wave,
    position_wave,
    prequantum_wave,
    souriau_bracket,
)
from .operators import (
    DiffOperator,
    Representation,
    extract_operator,
)
from .parser import lower_expression
from .products import (
    DriverTensor,
    StarKind,
    agarwal_transform,
    bullet_product,
    driver_tensor,
    prequantize,
    quantize,
    quantize_inverse_p,
    star_product,
    yano_laplacian,
)
from .render import format_function, format_operator
from .scalars import Coefficient

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Chart",
    "ChartError",
    "Coefficient",
    "ConfigError",
    "Derivation",
    "DiffOperator",
    "DriverTensor",
    "EquivariantFunction",
    "ExtractionError",
    "LimitError",
    "Monomial",
    "ObservableError",
    "ParseError",
    "Polarization",
    "PolarizationError",
    "Representation",
    "StarBundleError",
    "StarKind",
    "WeightFactor",
    "WeightFactorError",
    "agarwal_transform",
    "bargmann_gaussian",
    "bargmann_wave",
    "bullet_product",
    "driver_tensor",
    "extract_operator",
    "format_function",
    "format_operator",
    "hamiltonian_vector_field",
    "horizontal_lift",
    "is_polarized",
    "jacobiator",
    "lower_expression",
    "momentum_phase",
    "momentum_wave",
    "position_wave",
    "prequantize",
    "prequantum_wave",
    "quantize",
    "quantize_inverse_p",
    "souriau_bracket",
    "star_product",
    "substitute_jets",
    "yano_laplacian",
]
