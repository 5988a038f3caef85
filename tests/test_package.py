import arctanderiv
from arctanderiv import arctan, combinatorics, composition, identities, polynomial, reports

LIBRARY_MODULES = (arctan, combinatorics, composition, identities, polynomial, reports)


def test_package_exports_every_module_name_once():
    names = arctanderiv.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in LIBRARY_MODULES for name in module.__all__}
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(arctanderiv, name) is getattr(module, name), name
    assert "FAILURES_KEPT" in names
