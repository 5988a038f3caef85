"""Exact high-order derivatives of arctan, cross-checked four ways, with
exact binomial and terminating-hypergeometric identity sweeps.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere in the core.
"""

from .arctan import (
    DEFAULT_SAMPLE_POINTS,
    arctan_derivative_closed,
    arctan_derivative_expanded,
    arctan_derivative_oracle,
    arctan_derivative_pointwise,
    crosscheck,
    expansion_coefficient,
    expansion_coefficients,
    q_polynomial,
)
from .combinatorics import binomial, pochhammer
from .composition import (
    DerivativeJet,
    MultiplicityVector,
    faa_di_bruno,
    multiplicity_vectors,
    square_chain_coefficients,
    square_chain_rule,
)
from .identities import (
    NonTerminatingSeriesError,
    alternating_binomial_closed_form,
    alternating_binomial_sum,
    check_binomial_identity,
    check_hypergeometric_form,
    check_hypergeometric_sweep,
    check_weighted_identity,
    terminating_2f1,
    truncation_index,
    weighted_binomial_closed_form,
    weighted_binomial_sum,
)
from .polynomial import ONE_PLUS_X2, ArctanRational, Polynomial
from .reports import CheckReport

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SAMPLE_POINTS",
    "arctan_derivative_closed",
    "arctan_derivative_expanded",
    "arctan_derivative_oracle",
    "arctan_derivative_pointwise",
    "crosscheck",
    "expansion_coefficient",
    "expansion_coefficients",
    "q_polynomial",
    "binomial",
    "pochhammer",
    "DerivativeJet",
    "MultiplicityVector",
    "faa_di_bruno",
    "multiplicity_vectors",
    "square_chain_coefficients",
    "square_chain_rule",
    "NonTerminatingSeriesError",
    "alternating_binomial_closed_form",
    "alternating_binomial_sum",
    "check_binomial_identity",
    "check_hypergeometric_form",
    "check_hypergeometric_sweep",
    "check_weighted_identity",
    "terminating_2f1",
    "truncation_index",
    "weighted_binomial_closed_form",
    "weighted_binomial_sum",
    "ONE_PLUS_X2",
    "ArctanRational",
    "Polynomial",
    "CheckReport",
]
