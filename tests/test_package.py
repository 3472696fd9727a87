"""The package's exported names."""

import dnls
from dnls import certificate, degree, errors, lattice, operators, potentials, solver

MODULES = (certificate, degree, errors, lattice, operators, potentials, solver)


def test_package_exports_each_module_all():
    assert len(dnls.__all__) == len(set(dnls.__all__))
    assert set(dnls.__all__) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dnls, name) is getattr(module, name), (module.__name__, name)


def test_errors_all_lists_every_exception_class():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert set(errors.__all__) == classes
