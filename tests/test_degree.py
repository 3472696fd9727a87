"""Zero enumeration, sign bookkeeping, and the degree parity cross-check.

The T = 1, K = 2 unforced instance is solvable by hand, which makes it the
anchor oracle here.  Writing phi = (a, b), the odd-route zeros satisfy
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
    zero_potential,
)
from dnls import cli, degree
from dnls.solver import _slice_jacobian
from oracles import perturbed_origin_index

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


@pytest.mark.parametrize("seed", CORPUS["seeds"])
@pytest.mark.parametrize("name", list(SIGN_CONFIGS))
def test_stacked_signs_are_each_zero_alone(monkeypatch, name, seed):
    # the degree command's pipeline; the one stacked sign pass per target
    # signs the regular zeros, and a degenerate origin's index is the
    # theorem's 1, which the perturbation count of the oracle confirms
    config = replace(cli.parse_config(SIGN_CONFIGS[name]), seed=seed)
    g, op, cert = cli._certified_pipeline(config)
    passes, stacked = [], degree._signs

    def recording(zeros, op, g, tau):
        signs = stacked(zeros, op, g, tau)
        passes.append(signs)
        return signs

    monkeypatch.setattr(degree, "_signs", recording)
    indices, signs_seen = 0, set()
    for target, tau in (("odd", 0.0), ("full", 1.0)):
        passes.clear()
        report = estimate_degree(target, op, g, cert, n_starts=config.n_starts, seed=seed)
        signs_seen.update(z.sign for z in report.zeros)
        assert passes == [[z.sign for z in report.zeros]]
        for z in report.zeros:
            assert z.sign in (-1, 1)
            assert z.sign == _alone(z.field.ravel(), op, g, tau)
        origins = [d.local_index for d in report.degenerate if d.local_index is not None]
        for local_index in origins:
            assert local_index == 1
            assert perturbed_origin_index(op, g, tau, cert.radius, seed) == 1
        indices += len(origins)
    if name == "bench-degree-4x8":
        # r = 2 has a zero derivative at 0, so the full map's origin is
        # degenerate and carries the index
        assert indices >= 1
    if name == "constant-2x2":
        assert signs_seen == {-1, 1}


@pytest.mark.parametrize("seed", CORPUS["seeds"])
@pytest.mark.parametrize("name", ["bench-degree-4x8", "degree-zero-2x2"])
def test_perturbation_count_gives_the_theorems_origin_index(name, seed):
    # r_1 = w for a small generic w has preimages near the full map's
    # degenerate origin whose signs sum to its index, 1 by the S^1 theorem
    config = replace(cli.parse_config(CORPUS_CONFIGS[name]), seed=seed)
    g, op, cert = cli._certified_pipeline(config)
    report = estimate_degree("full", op, g, cert, n_starts=0, seed=seed)
    (origin,) = report.degenerate
    assert origin.local_index == 1
    assert perturbed_origin_index(op, g, 1.0, cert.radius, seed) == 1


@pytest.mark.parametrize("seed", [0, *CORPUS["seeds"]])
def test_power_law_2_5_origin_index_is_one_at_every_seed(tmp_path, capsys, seed):
    # the perturbation count once gave this origin index 2 at seed 0, so
    # degree exited 4 (INCOMPLETE-ENUMERATION); the theorem gives 1
    config = replace(cli.parse_config(CORPUS_CONFIGS["degree-power-2.5-2x2"]), seed=seed)
    assert cli.cmd_degree(config, tmp_path) == 0
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
        config = replace(cli.parse_config(SIGN_CONFIGS["constant-2x2"]), seed=seed)
        assert cli.cmd_degree(config, tmp_path) == 0, f"seed {seed}"
    capsys.readouterr()


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
