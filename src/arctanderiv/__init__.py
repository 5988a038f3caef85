"""Exact high-order derivatives of arctan, cross-checked four ways, with
exact binomial and terminating-hypergeometric identity sweeps.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere in the core.  The package re-exports the public
names (``__all__``) of each module below.

The re-export is lazy (PEP 562 module ``__getattr__``), so that a CLI
command compiles only the modules it runs.  Importing the package loads
none of them.  The name of a library module, such as ``arctanderiv.arctan``,
imports just that module.  Any other name first imports all eight, binds
their public names here and sets ``__all__``, in the order of ``_MODULES``.
"""

import importlib

__version__ = "0.1.0"

# The one table of the routes to arctan^(n), by the name that derive's
# --method takes, in the order of its help, of bench and of crosscheck's
# cases: symbolic or pointwise, and the name of what it runs in ``arctan``.
# A symbolic route runs an order stream (n_max, first=1) of (n, arctan^(n)),
# n = first..n_max; a pointwise one (n, points), an int pair per point.
ROUTES = {
    "closed": ("symbolic", "_closed_orders"),
    "prop12": ("symbolic", "_prop12_orders"),
    "oracle": ("symbolic", "_oracle_orders"),
    "fdb": ("pointwise", "_pointwise"),
}

_MODULES = (
    "arctan",
    "combinatorics",
    "composition",
    "digits",
    "hypergeometric",
    "identities",
    "polynomial",
    "reports",
)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    global __all__
    namespace, names = globals(), []
    for module in (importlib.import_module(f"{__name__}.{m}") for m in _MODULES):
        namespace.update((public, getattr(module, public)) for public in module.__all__)
        names += module.__all__
    __all__ = names
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
