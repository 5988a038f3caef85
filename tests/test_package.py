from decimal import Decimal
from fractions import Fraction

import pytest

import arctanderiv
from arctanderiv import (
    DerivativeJet,
    Polynomial,
    arctan,
    arctan_derivative_closed,
    arctan_derivative_pointwise,
    combinatorics,
    composition,
    crosscheck,
    identities,
    polynomial,
    reports,
    square_chain_rule,
    terminating_2f1,
    truncation_index,
)

LIBRARY_MODULES = (arctan, combinatorics, composition, identities, polynomial, reports)


def test_package_exports_every_module_name_once():
    names = arctanderiv.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in LIBRARY_MODULES for name in module.__all__}
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(arctanderiv, name) is getattr(module, name), name
    assert "FAILURES_KEPT" in names


# Every place where a caller's rational point, ratio, value or series
# parameter enters the library, as a function of that one number.
ENTRY_POINTS = {
    "Polynomial.evaluate": lambda x: Polynomial((1, 0, 1)).evaluate(x),
    "ArctanRational.evaluate": lambda x: arctan_derivative_closed(3).evaluate(x),
    "DerivativeJet point": lambda x: DerivativeJet(x, (1, 2), Fraction(1, 3)),
    "DerivativeJet ratio": lambda x: DerivativeJet(Fraction(1, 3), (1, 2), x),
    "DerivativeJet.of_values point": lambda x: DerivativeJet.of_values(x, (1, Fraction(1, 2))),
    "DerivativeJet.of_values value": lambda x: DerivativeJet.of_values(1, (Fraction(1, 2), x)),
    "DerivativeJet.of_polynomial": lambda x: DerivativeJet.of_polynomial(Polynomial((1, 2, 3)), x, 2),
    "DerivativeJet.of_reciprocal": lambda x: DerivativeJet.of_reciprocal(x, 3),
    "square_chain_rule": lambda x: square_chain_rule(2, x, DerivativeJet.of_reciprocal(5, 2)),
    "arctan_derivative_pointwise": lambda x: arctan_derivative_pointwise(3, x),
    "crosscheck": lambda x: crosscheck(3, (x,)).to_dict(),
    "truncation_index": lambda x: truncation_index(x, -2),
    "terminating_2f1 a": lambda x: terminating_2f1(x, -2, 1),
    "terminating_2f1 b": lambda x: terminating_2f1(-2, x, 1),
    "terminating_2f1 c": lambda x: terminating_2f1(-2, 1, x),
}


@pytest.mark.parametrize("bad", [0.5, "1/3", Decimal("0.5"), True], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rational_inputs_reject_other_types(entry, bad):
    with pytest.raises(TypeError, match="must be int or Fraction"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_int_inputs_equal_their_fractions(entry):
    assert ENTRY_POINTS[entry](2) == ENTRY_POINTS[entry](Fraction(2))
