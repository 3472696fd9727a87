"""Zero enumeration, sign bookkeeping, and the theorem behind the odd map's
degree, checked against the odd map's enumeration (``oracles.odd_map_zeros``).

The T = 1, K = 2 unforced instance is solvable by hand, which makes it the
anchor oracle here.  Writing phi = (a, b), the odd-map zeros satisfy
(L - 6I)phi + |phi|^2 phi = 0 and come in four families: the origin plus three
phase circles with sup norms sqrt(6) (in-phase), sqrt(10) (anti-phase), and
sqrt(3) + 1 (mixed).  The full equation L phi + |phi|^2 phi = 0 has the origin
plus one circle of sup norm 2.  Every circle is a continuum, hence degenerate;
only the origin carries a well-defined sign or local index.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dnls import (
    CertificateInvalid,
    LatticeParams,
    build_certificate,
    build_shifted,
    estimate_degree,
    homotopy_solve,
    multi_start,
    power_law,
    sup_norm,
    zero_potential,
)
from dnls import cli, degree, solver
from dnls.solver import _slice_jacobian
from oracles import odd_map_zeros, perturbed_origin_index, reference_jacobian, reference_residual

CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "tools" / "parity_corpus.json").read_text()
)
CORPUS_CONFIGS = {e["name"]: e["config"] for e in CORPUS["entries"]}
#: degree command configs: two corpus entries, whose zeros all sign +1, and a
#: forcing without phase symmetry, whose full map has zeros of both signs
SIGN_CONFIGS = {
    name: CORPUS_CONFIGS[name] for name in ("bench-degree-4x8", "degree-bounded-2x4")
} | {
    "constant-2x2": {"T": 2, "K": 2, "beta": 1.0, "epsilon": 1.0, "gamma": 1.0,
                     "potential": {"kind": "constant", "coefficients": [[2.0, 0.0]]}},
}

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


def _alone(flat, op, g, tau):
    # the determinant sign of the slice Jacobian built for one zero alone
    return int(np.linalg.slogdet(_slice_jacobian(flat, op, g, tau))[0])


def _odd_theorem_holds(op, radius, n_starts, seed):
    """Checks the odd map's enumeration against its theorem: the origin is
    the only regular zero, with sign +1, and every other zero sits on a
    degenerate phase circle.  Returns the enumerated zeros."""
    zeros = odd_map_zeros(op, radius, n_starts, seed)
    assert zeros[0].flat.tobytes() == np.zeros(op.dim, dtype=complex).tobytes()
    assert (zeros[0].residual, zeros[0].sigma_ratio) == (0.0, 1.0)
    assert np.linalg.slogdet(reference_jacobian(zeros[0].flat, op, None, 0.0))[0] == 1.0
    for z in zeros[1:]:
        assert z.sigma_ratio <= degree.SIGMA_RATIO_DEGENERATE
        assert z.residual <= degree.ENUM_TOL
        # the rotated zero is a zero: the record lies on a circle of them
        turned = reference_residual(np.exp(0.7j) * z.flat, op, None, 0.0)
        assert np.abs(turned).max() <= 1e3 * degree.ENUM_TOL
    return zeros


@pytest.mark.parametrize("seed", CORPUS["seeds"])
@pytest.mark.parametrize("name", list(SIGN_CONFIGS))
def test_stacked_signs_are_each_zero_alone(monkeypatch, name, seed):
    # the degree command's pipeline; the enumeration's stacked slogdet signs
    # each zero as a one-zero slogdet of M does, the regular records carry
    # those signs, a degenerate origin's index is the theorem's 1, which the
    # perturbation count of the oracle confirms, and the odd map's theorem
    # report matches its enumeration
    config = cli.parse_config(SIGN_CONFIGS[name])
    g, op, cert = cli._certified_pipeline(config, seed)
    passes, collect = [], degree._collect_zeros

    def recording(*args, **kwargs):
        found = collect(*args, **kwargs)
        passes.append(found)
        return found

    monkeypatch.setattr(degree, "_collect_zeros", recording)
    report = estimate_degree("full", op, g, cert, n_starts=config.n_starts, seed=seed)
    (found,) = passes
    for z in found:
        assert z.sign == _alone(z.flat, op, g, 1.0)
    regular = [z for z in found if z.sigma_ratio > degree.SIGMA_RATIO_DEGENERATE]
    assert [z.sign for z in report.zeros] == [z.sign for z in regular]
    for z in report.zeros:
        assert z.sign in (-1, 1)
    origins = [d.local_index for d in report.degenerate if d.local_index is not None]
    for local_index in origins:
        assert local_index == 1
        assert perturbed_origin_index(op, g, 1.0, cert.radius, seed) == 1
    if name == "bench-degree-4x8":
        # r = 2 has a zero derivative at 0, so the full map's origin is
        # degenerate and carries the index
        assert origins
    if name == "constant-2x2":
        assert {z.sign for z in report.zeros} == {-1, 1}

    passes.clear()
    odd = estimate_degree("odd", op, g, cert, n_starts=config.n_starts, seed=seed)
    assert not passes
    (origin,) = odd.zeros
    assert (origin.residual, origin.sign, origin.sigma_ratio) == (0.0, 1, 1.0)
    _odd_theorem_holds(op, cert.radius, config.n_starts, seed)


@pytest.mark.parametrize("seed", CORPUS["seeds"])
@pytest.mark.parametrize("name", ["bench-degree-4x8", "degree-zero-2x2"])
def test_perturbation_count_gives_the_theorems_origin_index(name, seed):
    # r_1 = w for a small generic w has preimages near the full map's
    # degenerate origin whose signs sum to its index, 1 by the S^1 theorem
    config = cli.parse_config(CORPUS_CONFIGS[name])
    g, op, cert = cli._certified_pipeline(config, seed)
    report = estimate_degree("full", op, g, cert, n_starts=0, seed=seed)
    (origin,) = report.degenerate
    assert origin.local_index == 1
    assert perturbed_origin_index(op, g, 1.0, cert.radius, seed) == 1


@pytest.mark.parametrize("seed", [0, *CORPUS["seeds"]])
def test_power_law_2_5_origin_index_is_one_at_every_seed(tmp_path, capsys, seed):
    # the perturbation count once gave this origin index 2 at seed 0, so
    # degree exited 4 (INCOMPLETE-ENUMERATION); the theorem gives 1
    config = cli.parse_config(CORPUS_CONFIGS["degree-power-2.5-2x2"])
    assert cli.cmd_degree(config, seed, tmp_path) == 0
    capsys.readouterr()
    full = json.loads((tmp_path / "degree.json").read_text())["full"]
    origins = [d for d in full["degenerate"] if d["sup_norm"] <= 1e-9]
    assert [d["local_index"] for d in origins] == [1]
    assert full["degree_estimate"] == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "degree on 2x2 with constant [2.0] (beta = epsilon = gamma = 1) exits 4 with "
    "INCOMPLETE-ENUMERATION at seeds 4 and 1001: the odd map's estimate is 1, but the "
    "full map's regular zeros sum to -1 and -3 over 11 zeros each, so zeros of sign +1 "
    "are missed"))
def test_constant_forcing_on_2x2_estimates_agree(tmp_path, capsys):
    for seed in CORPUS["seeds"]:
        config = cli.parse_config(SIGN_CONFIGS["constant-2x2"])
        assert cli.cmd_degree(config, seed, tmp_path) == 0, f"seed {seed}"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# odd route


def test_unforced_odd_route_enumeration():
    # the theorem's report, and the enumeration it replaced finds only the
    # origin as a regular zero, plus the three known circles
    op, g, cert = _setup()
    report = estimate_degree("odd", op, g, cert, n_starts=32, seed=0)
    assert report.target == "odd"
    assert report.degree_estimate == 1
    assert report.parity_ok is True
    assert report.completeness == "theorem"
    assert report.degenerate == ()
    (origin,) = report.zeros
    assert np.max(np.abs(origin.field)) == 0.0
    assert (origin.residual, origin.sign, origin.sigma_ratio) == (0.0, 1, 1.0)
    assert not origin.field.flags.writeable

    circles = _odd_theorem_holds(op, cert.radius, 32, 0)[1:]
    assert circles
    for rec in circles:
        sup = sup_norm(rec.flat)
        assert min(abs(sup - known) for known in ODD_CIRCLE_SUPS) <= 1e-6
        assert sup < cert.radius


def test_odd_route_runs_no_newton(monkeypatch):
    op, g, cert = _setup()

    def forbidden(*args, **kwargs):
        raise AssertionError("the odd map's report needs no Newton, SVD or sign pass")

    monkeypatch.setattr(solver, "_damped_newton", forbidden)
    monkeypatch.setattr(degree, "_collect_zeros", forbidden)
    monkeypatch.setattr(np.linalg, "slogdet", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    report = estimate_degree("odd", op, g, cert, n_starts=32, seed=0)
    assert report.degree_estimate == 1


def test_unforced_full_route_uses_origin_local_index():
    op, g, cert = _setup()
    report = estimate_degree("full", op, g, cert, n_starts=32, seed=0)
    assert report.degree_estimate == 1
    assert report.parity_ok is None
    assert report.completeness == "heuristic"
    # the origin is singular for the full route, so no regular zeros exist
    assert len(report.zeros) == 0
    sups = sorted(np.max(np.abs(rec.field)) for rec in report.degenerate)
    assert sups[0] <= 1e-9  # the origin itself
    for sup in sups[1:]:
        assert min(abs(sup - known) for known in FULL_CIRCLE_SUPS) <= 1e-6
    indices = [rec.local_index for rec in report.degenerate]
    assert indices == [1] + [None] * (len(indices) - 1)


@pytest.mark.parametrize("equivariant", [True, False])
def test_origin_index_needs_phase_equivariance(equivariant):
    # the same forcing, declared without its symmetry: the theorem does not
    # apply, so the degenerate origin has no index and counts for nothing
    g = replace(power_law([0.2], 2.0), phase_equivariant=equivariant)
    op, _, cert = _setup(g=g)
    report = estimate_degree("full", op, g, cert, n_starts=24, seed=0)
    (origin,) = [rec for rec in report.degenerate if np.max(np.abs(rec.field)) <= 1e-9]
    assert origin.local_index == (1 if equivariant else None)
    assert report.degree_estimate == (1 if equivariant else 0)


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
