import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import arctanderiv
from arctanderiv import (
    DerivativeJet,
    arctan,
    arctan_derivative_closed,
    arctan_derivative_pointwise,
    combinatorics,
    composition,
    crosscheck,
    digits,
    exact_str,
    faa_di_bruno,
    hypergeometric,
    identities,
    polynomial,
    reports,
    square_chain_rule,
    terminating_2f1,
    truncation_index,
    weighted_binomial_closed_form,
    weighted_binomial_sum,
)

LIBRARY_MODULES = (
    arctan,
    combinatorics,
    composition,
    digits,
    hypergeometric,
    identities,
    polynomial,
    reports,
)


def test_the_package_is_its_library_modules_and_the_cli():
    # A library module left out of the root's re-export, or a CLI split into
    # another module, fails here.
    files = {source.stem for source in Path(arctanderiv.__file__).parent.glob("*.py")}
    assert files == {*arctanderiv._MODULES, "cli", "commands", "__main__", "__init__"}
    names = tuple(module.__name__.rsplit(".", 1)[-1] for module in LIBRARY_MODULES)
    assert arctanderiv._MODULES == names


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
    "ArctanRational.evaluate": lambda x: arctan_derivative_closed(3).evaluate(x),
    "DerivativeJet point": lambda x: DerivativeJet(x, (1, 2), Fraction(1, 3)),
    "DerivativeJet ratio": lambda x: DerivativeJet(Fraction(1, 3), (1, 2), x),
    "DerivativeJet.of_values point": lambda x: DerivativeJet.of_values(x, (1, Fraction(1, 2))),
    "DerivativeJet.of_values value": lambda x: DerivativeJet.of_values(1, (Fraction(1, 2), x)),
    "DerivativeJet.of_reciprocal": lambda x: DerivativeJet.of_reciprocal(x, 3),
    "square_chain_rule": lambda x: square_chain_rule(2, x, DerivativeJet.of_reciprocal(5, 2)),
    "arctan_derivative_pointwise": lambda x: arctan_derivative_pointwise(3, x),
    "crosscheck": lambda x: crosscheck(3, (x,)).to_dict(),
    "truncation_index": lambda x: truncation_index(x, -2),
    "terminating_2f1 a": lambda x: terminating_2f1(x, -2, 1),
    "terminating_2f1 b": lambda x: terminating_2f1(-2, x, 1),
    "terminating_2f1 c": lambda x: terminating_2f1(-2, 1, x),
    "exact_str": exact_str,
}


@pytest.mark.parametrize("bad", [0.5, "1/3", Decimal("0.5"), True], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rational_inputs_reject_other_types(entry, bad):
    with pytest.raises(TypeError, match="must be int or Fraction"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_int_inputs_equal_their_fractions(entry):
    assert ENTRY_POINTS[entry](2) == ENTRY_POINTS[entry](Fraction(2))


# Functions of an order n >= 0, each with arguments that pass its other
# checks at n = -1, so only the order guard can raise.
_JET = DerivativeJet.of_reciprocal(5, 3)
NEGATIVE_ORDERS = {
    "faa_di_bruno": lambda n: faa_di_bruno(n, _JET, DerivativeJet.of_values(0, (5, 1, 0, 0))),
    "square_chain_rule": lambda n: square_chain_rule(n, 2, _JET),
    "weighted_binomial_sum": weighted_binomial_sum,
    "weighted_binomial_closed_form": weighted_binomial_closed_form,
}


@pytest.mark.parametrize("entry", NEGATIVE_ORDERS)
def test_negative_orders_raise(entry):
    with pytest.raises(ValueError, match=">= 0"):
        NEGATIVE_ORDERS[entry](-1)
    NEGATIVE_ORDERS[entry](0)


def runtime_imports(node):
    """The modules that ``node`` imports, outside ``if TYPE_CHECKING:`` blocks."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield node.module
    type_checking = isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    for child in node.orelse if type_checking else ast.iter_child_nodes(node):
        yield from runtime_imports(child)


def test_only_digits_imports_fractions():
    # Every Fraction is read or built by digits._pair and digits._fraction.
    sources = Path(arctanderiv.__file__).parent.glob("*.py")
    importers = {
        source.name
        for source in sources
        if "fractions" in runtime_imports(ast.parse(source.read_text()))
    }
    assert importers == {"digits.py"}


def named(tree):
    """Every name that ``tree`` reads, binds, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


PRINTER = {"_decimal", "_exact", "_two_power", "_DIRECT_BITS", "_RATIO_BITS", "_DIGIT_RUN"}


def test_only_digits_turns_an_int_into_decimal_digits():
    # Every int wider than digits._DIRECT_BITS, and every row of numerator
    # coefficients, is printed by digits._product_strs, and every integer
    # text is read by digits._integer: no other module knows the digit limit.
    sources = Path(arctanderiv.__file__).parent.glob("*.py")
    namers = {
        source.name
        for source in sources
        if PRINTER & set(named(ast.parse(source.read_text())))
    }
    assert namers == {"digits.py"}


def test_no_two_private_functions_share_a_name():
    # A private name means one contract across the package.
    homes = {}
    for source in sorted(Path(arctanderiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                if not node.name.endswith("__"):
                    homes.setdefault(node.name, []).append(source.stem)
    assert {name: stems for name, stems in homes.items() if len(stems) > 1} == {}


def test_the_checks_build_no_fraction():
    # The checks compare and report int pairs: in the modules they run, a
    # Fraction is built only by a public function that returns one.
    callers = {
        f"{module.__name__.rsplit('.', 1)[-1]}.{node.name}"
        for module in (arctan, combinatorics, hypergeometric, identities, reports)
        for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(name, ast.Name) and name.id == "_fraction" for name in ast.walk(node))
    }
    assert callers == {
        "identities.alternating_binomial_sum",
        "identities.alternating_binomial_closed_form",
        "identities.weighted_binomial_sum",
        "identities.weighted_binomial_closed_form",
        "hypergeometric.terminating_2f1",
        "arctan.arctan_derivative_pointwise",
    }


MAX_NODES = 1800


def test_no_module_exceeds_the_node_bound():
    # A process that compiles the package from source peaks while it
    # compiles its largest module, and the compile's working memory grows
    # with the module's syntax tree: no module may pass MAX_NODES nodes.
    sizes = {
        source.stem: sum(1 for _ in ast.walk(ast.parse(source.read_text())))
        for source in Path(arctanderiv.__file__).parent.glob("*.py")
    }
    assert {name: size for name, size in sizes.items() if size > MAX_NODES} == {}
