"""Witness independence as a static contract.

Each check holds a route or a literal sum against a witness built another
way, and the checks prove something only while the two sides share no code.
This test builds the package's call graph from its source with ``ast`` and
requires that, for each row of ``WITNESSES``, the code reachable from one
side does not meet the code reachable from the other, except for the
entries of ``ALLOWED``, each shared on purpose.

The graph is a static over-approximation.  A function's node has an edge to
every package function or class that its body (nested definitions included)
names: a bare name, resolved through the module's own definitions and its
``from .module import name`` imports, or an attribute of a package module
bound by ``from . import module``.  A class stands for its ``__init__``, and
``cls`` in a class for that class.  An attribute of any other object, a
method call such as ``value.derivative()`` or a property read such as
``jet.values``, has an edge to every method of that name in the package.
"""

import ast
from pathlib import Path

import pytest

import arctanderiv

PACKAGE = Path(arctanderiv.__file__).parent


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module, modules) -> tuple[dict[str, str], dict[str, str]]:
    """The package modules and the package names that a module binds by
    relative imports, in any scope: local name -> module, and local name ->
    "module.name"."""
    bound_modules, bound_names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    bound_modules[local] = alias.name
                elif node.module in modules:
                    bound_names[local] = f"{node.module}.{alias.name}"
    return bound_modules, bound_names


def _definitions(tree: ast.Module, module: str):
    """(qualified name, class name or None, node) for every top-level
    function, every method and every class of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", None, node
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", node.name, item


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Qualified function, method and class name -> the names it reaches in
    one step, over the modules in ``sources`` (module name -> source)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    definitions = [found for module, tree in trees.items() for found in _definitions(tree, module)]
    nodes = {name for name, _, _ in definitions}
    classes = {name for name, _, node in definitions if isinstance(node, ast.ClassDef)}
    methods: dict[str, set[str]] = {}
    for name, owner, node in definitions:
        if owner is not None and not isinstance(node, ast.ClassDef):
            methods.setdefault(node.name, set()).add(name)

    def targets(module, owner, bound_modules, bound_names, inner) -> set[str]:
        """The package names that one expression node stands for."""
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
            if inner.id == "cls" and owner is not None:
                return {f"{module}.{owner}"}
            return {f"{module}.{inner.id}", bound_names.get(inner.id)}
        if isinstance(inner, ast.Attribute):
            receiver = inner.value
            if isinstance(receiver, ast.Name) and receiver.id in bound_modules:
                return {f"{bound_modules[receiver.id]}.{inner.attr}"}
            return methods.get(inner.attr, set())
        return set()

    graph: dict[str, set[str]] = {}
    for module, tree in trees.items():
        bound = _imports(tree, trees)
        for name, owner, node in _definitions(tree, module):
            edges = graph[name] = set()
            if isinstance(node, ast.ClassDef):
                continue  # its methods are nodes of their own
            for inner in ast.walk(node):
                for target in targets(module, owner, *bound, inner) & nodes:
                    init = f"{target}.__init__"
                    edges.add(init if target in classes and init in nodes else target)
    return graph


def reachable(graph: dict[str, set[str]], roots) -> set[str]:
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return seen


# Each row: the code of one side, the code of its witness, and the check
# that holds them against each other.  The roots are what each side runs.  A
# row of two module names says that the first imports nothing from the
# second, in any scope, so that none of its code reaches the second's.
WITNESSES = {
    "closed's q_n vs the quotient rule (crosscheck)": (
        ("arctan.q_polynomial",),
        ("polynomial.ArctanRational.derivative",),
    ),
    "prop12 vs the oracle (crosscheck)": (
        ("arctan.arctan_derivative_expanded", "arctan._prop12_orders", "arctan._expanded"),
        ("arctan.arctan_derivative_oracle", "arctan._oracle_orders"),
    ),
    "the jet route vs the oracle's value (crosscheck)": (
        (
            "arctan._pointwise",
            "composition._reciprocal_square_jets",
            "composition._chain_weights",
            "composition._square_chain_rule",
        ),
        ("polynomial.ArctanRational._evaluate", "polynomial._homogeneous"),
    ),
    "literal sums vs Pascal rows (check-identity)": (
        ("identities._sweep_numerators",),
        ("identities._pascal_rows", "identities._closed_form_numerator"),
    ),
    "literal sums vs the terminating series (check-2f1)": (
        ("identities._sweep_numerators",),
        (
            "identities._hypergeometric_case",
            "identities._terminating_2f1",
            "identities._upper_parameters",
            "identities._truncation_index",
        ),
    ),
    "weighted moments vs the parity closed form (check-corollary)": (
        ("identities._weighted_moments",),
        ("identities._weighted_closed_numerator",),
    ),
    "chain-rule weights vs the binomial rows that the sweeps check": ("composition", "identities"),
}
FUNCTION_ROWS = [row for row, (left, _) in WITNESSES.items() if type(left) is tuple]
MODULE_ROWS = [row for row, (left, _) in WITNESSES.items() if type(left) is str]

# Code that both sides of a row may run, and why sharing it proves nothing
# false.
ALLOWED = {
    "arctan._require_order": "the n >= 1 guard: it raises or returns, and computes no value",
    "arctan._order": (
        "the selection of order n from a route's stream, by which derive prints "
        "prop12 and the oracle: it picks an order and computes no value"
    ),
    "polynomial.ArctanRational.__init__": (
        "the one canonical form, shared on purpose so that equal values compare "
        "equal; crosscheck's pointwise cases see a fault in it, since the jet "
        "route builds no ArctanRational"
    ),
    "polynomial._ints": "the int check of ArctanRational's arguments, which it returns as a list",
}


def shared(graph, row):
    left, right = WITNESSES[row]
    return reachable(graph, left) & reachable(graph, right)


@pytest.fixture(scope="module")
def graph():
    return call_graph(package_sources())


@pytest.mark.parametrize("row", FUNCTION_ROWS)
def test_witnesses_share_no_code(graph, row):
    left, right = WITNESSES[row]
    assert set(left + right) <= graph.keys(), "a root is not a package function"
    assert shared(graph, row) - ALLOWED.keys() == set()


@pytest.mark.parametrize("row", MODULE_ROWS)
def test_a_module_imports_nothing_from_its_witness(graph, row):
    importer, witness = WITNESSES[row]
    tree = ast.parse((PACKAGE / f"{importer}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if name.split(".")[-1] == witness}
    code = reachable(graph, [name for name in graph if name.startswith(f"{importer}.")])
    assert not {name for name in code if name.startswith(f"{witness}.")}


def test_every_allowed_entry_is_shared_by_a_row(graph):
    used = set().union(*(shared(graph, row) for row in FUNCTION_ROWS))
    assert ALLOWED.keys() <= used


# The routes that derive prints from one order stream each, and the kernels
# that only those streams step.
STREAMS = {
    "arctan.arctan_derivative_oracle": "arctan._oracle_orders",
    "arctan.arctan_derivative_expanded": "arctan._prop12_orders",
}
STREAM_KERNELS = {"polynomial.ArctanRational.derivative", "identities._sweep_numerators"}


def test_crosscheck_runs_the_streams_that_derive_prints(graph):
    # A second copy of a stream, in crosscheck or in a printed route, steps
    # a kernel itself: the check would then hold a copy, not what derive prints.
    checked = reachable(graph, ["arctan.crosscheck"])
    for route, stream in STREAMS.items():
        assert stream in checked, stream
        assert stream in reachable(graph, [route]), route
    for caller in ("arctan.crosscheck", *STREAMS):
        assert not graph[caller] & STREAM_KERNELS, caller


def test_the_graph_sees_a_witness_joined_to_its_route():
    # _square_chain_rule computing through the oracle's evaluation kernel,
    # by a module attribute or by an imported name, breaks the jet row.
    sources = package_sources()
    kernel = "def _square_chain_rule("
    assert kernel in sources["composition"]
    joins = {
        "module attribute": "from . import polynomial\n    polynomial._homogeneous((1,), 1, 1)",
        "imported name": "from .polynomial import _homogeneous\n    _homogeneous((1,), 1, 1)",
    }
    row = "the jet route vs the oracle's value (crosscheck)"
    for how, join in joins.items():
        head, tail = sources["composition"].split(kernel)
        signature, body = tail.split(":\n", 1)
        mutated = {**sources, "composition": f"{head}{kernel}{signature}:\n    {join}\n{body}"}
        assert "polynomial._homogeneous" in shared(call_graph(mutated), row), how
