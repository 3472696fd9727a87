"""Zero enumeration, sign bookkeeping, and the degree parity cross-check.

The T = 1, K = 2 unforced instance is solvable by hand, which makes it the
anchor oracle here.  Writing phi = (a, b), the odd-route zeros satisfy
(L - 6I)phi + |phi|^2 phi = 0 and come in four families: the origin plus three
phase circles with sup norms sqrt(6) (in-phase), sqrt(10) (anti-phase), and
sqrt(3) + 1 (mixed).  The full equation L phi + |phi|^2 phi = 0 has the origin
plus one circle of sup norm 2.  Every circle is a continuum, hence degenerate;
only the origin carries a well-defined sign or local index.
"""

import numpy as np
import pytest

from dnls import (
    CertificateInvalid,
    DegenerateZero,
    LatticeParams,
    build_certificate,
    build_shifted,
    estimate_degree,
    homotopy_solve,
    multi_start,
    power_law,
    zero_potential,
    zero_sign,
)
from dnls import degree

ODD_CIRCLE_SUPS = (np.sqrt(6.0), np.sqrt(10.0), np.sqrt(3.0) + 1.0)
FULL_CIRCLE_SUPS = (2.0,)


def _setup(g=None, seed=0):
    params = LatticeParams(T=1, K=2, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = g if g is not None else zero_potential()
    cert = build_certificate(op, g, samples=2000, seed=seed)
    assert cert.valid
    return op, g, cert


# ---------------------------------------------------------------------------
# signs


def test_zero_sign_of_definite_jacobians():
    assert zero_sign(np.eye(6)) == 1
    flipped = np.diag([1.0, 1.0, -1.0, 1.0])
    assert zero_sign(flipped) == -1
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # det +1, no real eigenvalues
    assert zero_sign(rot) == 1


def test_zero_sign_rejects_singular():
    with pytest.raises(DegenerateZero):
        zero_sign(np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# odd route


def test_unforced_odd_route_enumeration():
    op, g, cert = _setup()
    report = estimate_degree("odd", op, g, cert, n_starts=32, seed=0)
    assert report.target == "odd"
    assert report.degree_estimate == 1
    assert report.parity_ok is True
    assert report.completeness == "heuristic"
    assert not report.origin_perturbed

    # the origin is the only regular zero and carries sign +1
    assert len(report.zeros) == 1
    origin = report.zeros[0]
    assert np.max(np.abs(origin.field)) <= 1e-9
    assert origin.sign == 1
    assert origin.residual <= 1e-9

    # every degenerate record sits on one of the three known circles
    assert report.degenerate
    for rec in report.degenerate:
        sup = np.max(np.abs(rec.field))
        assert min(abs(sup - known) for known in ODD_CIRCLE_SUPS) <= 1e-6
        assert rec.residual <= degree.ENUM_TOL
        assert rec.sigma_ratio <= 1e-8
        assert rec.local_index is None
        assert sup < cert.radius


def test_unforced_full_route_uses_origin_local_index():
    op, g, cert = _setup()
    report = estimate_degree("full", op, g, cert, n_starts=32, seed=0)
    assert report.degree_estimate == 1
    assert report.origin_perturbed
    assert report.parity_ok is None
    # the origin is singular for the full route, so no regular zeros exist
    assert len(report.zeros) == 0
    sups = sorted(np.max(np.abs(rec.field)) for rec in report.degenerate)
    assert sups[0] <= 1e-9  # the origin itself
    for sup in sups[1:]:
        assert min(abs(sup - known) for known in FULL_CIRCLE_SUPS) <= 1e-6


def test_degree_is_sum_of_signs_and_local_indices():
    op, g, cert = _setup()
    for target in ("odd", "full"):
        report = estimate_degree(target, op, g, cert, n_starts=24, seed=1)
        total = sum(z.sign for z in report.zeros)
        total += sum(
            rec.local_index for rec in report.degenerate if rec.local_index is not None
        )
        assert report.degree_estimate == total


def test_estimates_agree_unforced():
    op, g, cert = _setup()
    odd = estimate_degree("odd", op, g, cert, n_starts=24, seed=0)
    full = estimate_degree("full", op, g, cert, n_starts=24, seed=0)
    assert odd.degree_estimate == full.degree_estimate == 1


def test_estimates_agree_power_law():
    g = power_law([0.2], 2.0)
    op, _, cert = _setup(g=g)
    odd = estimate_degree("odd", op, g, cert, n_starts=24, seed=0)
    full = estimate_degree("full", op, g, cert, n_starts=24, seed=0)
    assert odd.parity_ok is True
    assert odd.degree_estimate == full.degree_estimate == 1


def test_estimate_stable_across_seeds():
    op, g, cert = _setup()
    values = {
        estimate_degree("full", op, g, cert, n_starts=16, seed=s).degree_estimate
        for s in (0, 1, 2)
    }
    assert values == {1}


def test_estimate_radius_matches_certificate():
    op, g, cert = _setup()
    report = estimate_degree("odd", op, g, cert, n_starts=8, seed=0)
    assert report.radius == cert.radius


# ---------------------------------------------------------------------------
# guard rails


def test_estimate_requires_valid_certificate():
    op, g, _ = _setup()
    invalid = build_certificate(op, g, samples=0)
    with pytest.raises(CertificateInvalid):
        estimate_degree("odd", op, g, invalid)


def test_invalid_certificate_message_is_shared():
    # estimate_degree, homotopy_solve and multi_start raise one wording
    op, g, _ = _setup()
    invalid = build_certificate(op, g, samples=0)
    for call in (
        lambda: estimate_degree("full", op, g, invalid),
        lambda: homotopy_solve(op, g, invalid),
        lambda: multi_start(op, g, invalid, n_starts=1),
    ):
        with pytest.raises(CertificateInvalid, match="failed its boundary check"):
            call()


def test_estimate_rejects_unknown_target():
    op, g, cert = _setup()
    with pytest.raises(ValueError):
        estimate_degree("both", op, g, cert)
