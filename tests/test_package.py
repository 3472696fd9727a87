"""The package's exported names."""

import os
import subprocess
import sys
from pathlib import Path

import dnls
from dnls import certificate, degree, errors, lattice, operators, potentials, solver

MODULES = (certificate, degree, errors, lattice, operators, potentials, solver)

#: every public name; adding one is a deliberate edit here
PUBLIC = {
    # certificate
    "BoundaryEvidence", "ExistenceCertificate", "build_certificate", "compute_ball_radius",
    "compute_forcing_sup", "compute_threshold_radius", "sphere_samples", "verify_boundary",
    # degree
    "DegenerateRecord", "DegreeReport", "ZeroRecord", "estimate_degree",
    # errors
    "CertificateInvalid", "CertificateOverflow", "ConfigError", "DimensionMismatch",
    "DnlsError", "EmptyCoefficients", "InvalidExponent", "NoThresholdFound",
    "PeriodMismatch", "SingularShift", "SolveFailed",
    # lattice
    "LatticeParams", "check_period", "sup_norm",
    # operators
    "ShiftedOperator", "build_shifted",
    # potentials
    "Potential", "bounded_potential", "constant_potential", "power_law", "zero_potential",
    # solver
    "SolveReport", "complexify", "homotopy_solve", "multi_start", "realify",
    "residual_direct", "steady_state_solve",
}


def test_package_exports_each_module_all():
    assert len(dnls.__all__) == len(set(dnls.__all__))
    assert set(dnls.__all__) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dnls, name) is getattr(module, name), (module.__name__, name)


def test_public_names_are_exactly_the_listed_ones():
    assert set(dnls.__all__) == PUBLIC


def test_importing_dnls_does_not_import_the_test_oracles():
    # the dense reference matrices live in tests/oracles.py, for the tests
    # only: importable in the child below, and still not imported
    package = Path(dnls.__file__).resolve().parent
    path = os.pathsep.join([str(package.parent), str(Path(__file__).resolve().parent)])
    code = "import sys, dnls, dnls.cli; print('oracles' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
    for source in package.glob("*.py"):
        assert "oracles" not in source.read_text(), source.name


def test_errors_all_lists_every_exception_class():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert set(errors.__all__) == classes
