"""Config parsing, CSV round trips, and end-to-end command exit codes."""

import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dnls
from dnls import (
    DimensionMismatch, LatticeParams, NoThresholdFound, certificate, power_law, solver,
)
from dnls.cli import (
    ConfigError,
    PotentialSpec,
    build_potential,
    cmd_degree,
    load_config,
    main,
    parse_config,
    read_solution_csv,
    write_solution_csv,
)
from oracles import plane_wave, plane_waves

BASE = {
    "T": 1,
    "K": 2,
    "beta": 1.0,
    "epsilon": 1.0,
    "gamma": 1.0,
    "potential": {"kind": "zero"},
}


def _doc(**overrides):
    doc = {key: (dict(val) if isinstance(val, dict) else val) for key, val in BASE.items()}
    doc.update(overrides)
    return doc


def _write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_doc(**overrides)))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    config = parse_config(_doc())
    assert config.params == LatticeParams(T=1, K=2, beta=1.0, epsilon=1.0, gamma=1.0)
    assert config.potential.kind == "zero"
    assert config.shift_factor == 1.5
    assert config.slack == 0.1
    assert config.tolerance == 1e-10
    assert config.max_iter == 100
    assert config.samples == 10000
    assert config.n_starts == 32
    assert config.seed == 0


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("gamma"), "gamma"),
        (lambda d: d.update(potentiall=1), "potentiall"),
        (lambda d: d.update(T=0), "T"),
        (lambda d: d.update(T=1.5), "T"),
        (lambda d: d.update(beta=True), "beta"),
        (lambda d: d.update(gamma=0.0), "gamma"),
        (lambda d: d.update(shift_factor=1.0), "shift_factor"),
        (lambda d: d.update(slack=-0.1), "slack"),
        (lambda d: d.update(slack=1.0), "slack"),
        (lambda d: d.update(tolerance=0.0), "tolerance"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(n_starts=-4), "n_starts"),
        (lambda d: d.update(samples="many"), "samples"),
    ],
    ids=["missing-gamma", "typo-field", "T-zero", "T-float", "beta-bool",
         "gamma-zero", "shift-low", "slack-neg", "slack-one", "tol-zero", "seed-neg",
         "starts-neg", "samples-str"],
)
def test_parse_config_rejections_name_the_field(mutate, needle):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        parse_config(doc)


def test_parse_config_rejects_non_object_root():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


@pytest.mark.parametrize(
    "potential,needle",
    [
        ({"kind": "sinusoidal"}, "kind"),
        ({"kind": "power_law", "coefficients": [[1, 0]]}, "exponent"),
        ({"kind": "power_law", "coefficients": [[1, 0]], "exponent": 0}, "exponent"),
        ({"kind": "power_law", "coefficients": [[1, 0]], "exponent": -2}, "exponent"),
        ({"kind": "bounded", "coefficients": [[1, 0]], "exponent": 2}, "exponent"),
        ({"kind": "power_law", "exponent": 2}, "coefficients"),
        ({"kind": "power_law", "coefficients": [], "exponent": 2}, "coefficients"),
        ({"kind": "power_law", "coefficients": [[1]], "exponent": 2}, "pair"),
        ({"kind": "power_law", "coefficients": [["a", "b"]], "exponent": 2}, "pair"),
        ({"kind": "zero", "sigma": 1}, "sigma"),
        ({"kind": [1.0], "coefficients": [[0.0, 0.0]]}, "kind"),
        ({"kind": {}}, "kind"),
        ({"kind": "zero", "coefficients": [[0, 0], [5, 0]]}, "only zero coefficients"),
    ],
    ids=["bad-kind", "no-exponent", "exponent-zero", "exponent-neg",
         "exponent-on-bounded", "no-coeffs", "empty-coeffs", "short-pair",
         "string-pair", "unknown-subfield", "list-kind", "object-kind", "zero-nonzero"],
)
def test_parse_potential_rejections(potential, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(_doc(potential=potential))


def test_load_config_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "absent.json")


def test_build_potential_cubic_exponent_carries_closed_forms():
    # r >= 3 builds like any exponent; its threshold formula, not the
    # constructor, rejects growth that breaks the hypothesis
    for r in (3.0, 3.5):
        g = build_potential(PotentialSpec(kind="power_law", coefficients=(1.0,), exponent=r))
        assert g.sup_formula(2.0) == 2.0**r
        with pytest.raises(NoThresholdFound):
            g.threshold_formula(0.5)
    cubic = build_potential(PotentialSpec(kind="power_law", coefficients=(0.2,), exponent=3.0))
    assert cubic.threshold_formula(0.5) == 0.0


def test_build_potential_zero_with_period():
    spec = PotentialSpec(kind="zero", coefficients=(0.0, 0.0), exponent=None)
    assert build_potential(spec).period == 2


# ---------------------------------------------------------------------------
# CSV round trips


def test_field_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-12, 12, size=(3, 4))
    field = vals + 1j * rng.normal(size=(3, 4))
    path = tmp_path / "field.csv"
    write_solution_csv(path, field)
    back = read_solution_csv(path, LatticeParams(T=3, K=4, beta=1, epsilon=1, gamma=1))
    assert np.array_equal(back, field)  # bitwise, thanks to %.17g


def test_steady_csv_lifts_to_all_time_slices(tmp_path):
    profile = np.array([1.25 - 3j, 0.0, 7e-3 + 1e-15j])
    path = tmp_path / "steady.csv"
    write_solution_csv(path, profile)
    params = LatticeParams(T=4, K=3, beta=1, epsilon=1, gamma=1)
    back = read_solution_csv(path, params)
    assert back.shape == (4, 3)
    for t in range(4):
        assert np.array_equal(back[t], profile)


@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_solution_csv_is_a_field_or_a_profile(tmp_path, shape):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="a solution is a"):
        write_solution_csv(path, np.zeros(shape, dtype=complex))
    assert not path.exists()


@pytest.mark.parametrize(
    "content,needle",
    [
        ("", "empty"),
        ("a,b,c\n0,0,0", r"unrecognized header 'a,b,c' \(expected 't,k,re,im' or 'k,re,im'\)$"),
        ("t,k,re,im\n0,0,1,2", "expected 6 rows for T=2, K=3, got 1$"),
        ("t,k,re,im\n" + "\n".join(f"0,{k},1,0" for k in (0, 1, 0, 2, 1, 2)), "twice"),
        ("t,k,re,im\n" + "\n".join(f"{t},9,1,0" for t in range(6)), "outside"),
        ("t,k,re,im\n" + "\n".join(f"0,{k},x,0" for k in range(6)), "non-numeric"),
        ("t,k,re,im\n" + "\n".join(f"0.5,{k},1,0" for k in range(6)), "outside"),
        ("t,k,re,im\n0,0,1\n0,1,1\n0,2,1\n1,0,1\n1,1,1\n1,2,1", "columns"),
        ("k,re,im\n0,1,0\n1,1,0", "expected 3 rows for K=3, got 2$"),
        ("t,k,re,im\n0,0,nan,0\n0,0,1,0\n0,1,1,0\n0,2,1,0\n1,0,1,0\n1,1,1,0", "non-finite"),
        ("k,re,im\n0,1,0\n1,inf,0\n2,1,-inf", "non-finite"),
        ("t,k,re,im\n" + "\n".join(f"nan,{k},1,0" for k in range(6)), "non-finite"),
        ("k,re,im\n0,1,0\n1,1,0\n1,2,0", "twice"),
        ("k,re,im\n0,1,0\n1,1,0\n3,1,0", "outside"),
        ("k,re,im\n0,1,0\n1.5,1,0\n2,1,0", "outside"),
        ("k,re,im\n0,1,0,0\n1,1,0,0\n2,1,0,0", "columns"),
    ],
    ids=["empty", "bad-header", "row-count", "duplicate", "out-of-range",
         "non-numeric", "fractional-index", "short-rows", "steady-count",
         "nan-value", "inf-value", "nan-index", "steady-duplicate", "steady-out-of-range",
         "steady-fractional-index", "steady-long-rows"],
)
def test_read_solution_csv_rejects_malformed(tmp_path, content, needle):
    path = tmp_path / "sol.csv"
    path.write_text(content)
    params = LatticeParams(T=2, K=3, beta=1, epsilon=1, gamma=1)
    with pytest.raises(DimensionMismatch, match=needle):
        read_solution_csv(path, params)


# ---------------------------------------------------------------------------
# end-to-end commands


def test_certify_valid_exit_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path, samples=500)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["command"] == "certify"
    assert payload["certificate"]["valid"] is True
    assert payload["certificate"]["radius"] == pytest.approx(np.sqrt(2.1 / 0.045), abs=1e-8)
    # the mirrored file is byte-identical to what was printed
    assert (out / "certificate.json").read_text() == stdout


def test_certify_cubic_growth_exit_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        potential={"kind": "power_law", "coefficients": [[1.0, 0.0]], "exponent": 3.0},
        samples=100,
    )
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "certificate error" in err


def test_config_error_exit_one(tmp_path, capsys):
    cfg = _write_config(tmp_path, potentiall={"kind": "zero"})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "potentiall" in capsys.readouterr().err


def test_slack_beyond_one_exit_one(tmp_path, capsys):
    # the ball radius has no solution for slack >= 1, so the config is refused
    cfg = _write_config(tmp_path, slack=1.5, samples=10)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'slack'") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify", "solve", "steady", "verify", "degree"])
def test_period_mismatch_exit_one(tmp_path, capsys, command):
    # period 3 divides neither T = 4 nor the steady T = 1
    cfg = _write_config(
        tmp_path, T=4, K=4, samples=10,
        potential={"kind": "constant", "coefficients": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]},
    )
    solution = tmp_path / "zeros.csv"
    write_solution_csv(solution, np.zeros((4, 4), dtype=complex))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "verify":
        argv += ["--solution", str(solution)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: forcing period 3 does not divide")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "field,raw,needle",
    [
        ("potential", '{"kind": "bounded", "coefficients": [[NaN, 0]]}', "NaN"),
        ("beta", "Infinity", "Infinity"),
        ("gamma", "-Infinity", "Infinity"),
        ("beta", "1e400", "beta"),
        ("epsilon", "1" + "0" * 400, "epsilon"),
        ("epsilon", "1" * 5000, "JSON"),
        ("potential", '{"kind": "bounded", "coefficients": [[1, 1e999]]}', "coefficients"),
    ],
    ids=["nan-coefficient", "beta-infinity", "gamma-minus-infinity", "beta-overflow",
         "epsilon-huge-integer", "epsilon-too-many-digits", "coefficient-overflow"],
)
def test_non_finite_config_exit_one(tmp_path, capsys, field, raw, needle):
    # Python's json module accepts NaN and Infinity tokens, and 1e400 parses
    # to inf; all of them must end as a one-line config error
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(**{field: "@RAW@"})).replace('"@RAW@"', raw))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "potential",
    [
        {"kind": "power_law", "coefficients": [[1e200, 0.0]], "exponent": 2.9},
        {"kind": "power_law", "coefficients": [[1e300, 0.0]], "exponent": 2.5},
        {"kind": "constant", "coefficients": [[1e308, 0.0]]},
    ],
    ids=["power-threshold-overflow", "power-sup-overflow", "constant-bound-overflow"],
)
def test_overflowing_certificate_exit_two(tmp_path, capsys, potential):
    cfg = _write_config(tmp_path, T=2, potential=potential, samples=100)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("certificate error: ") and err.count("\n") == 1


def test_underflowing_cubic_coefficient_exit_two(tmp_path, capsys):
    # the smallest subnormal gamma makes the threshold coefficient 0
    cfg = _write_config(tmp_path, gamma=5e-324, samples=10)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("certificate error: ") and err.count("\n") == 1
    assert "underflow" in err


@pytest.mark.parametrize(
    "overrides",
    [
        dict(T=2, K=2, samples=10_000_000_000,
             potential={"kind": "power_law", "coefficients": [[0.3, 0.0]], "exponent": 2.0}),
        dict(T=200_000, K=200_000),
    ],
    ids=["samples", "lattice"],
)
def test_oversized_config_exit_one(tmp_path, capsys, overrides):
    # the boundary samples (about 300 GiB) or the stencil kernel (about
    # 600 GiB) fail at their first allocation, so nothing is allocated
    cfg = _write_config(tmp_path, **overrides)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify", "solve", "degree"])
def test_samples_beyond_memory_exit_one_before_the_chunk_plan(tmp_path, capsys, monkeypatch,
                                                              command):
    # 10**15 samples need 7.11 PiB of gaps; walking their chunk plan first
    # would take about 37 hours on 2x2, so the allocation must come first
    def walked(*args):
        raise AssertionError("the chunk plan was walked before the gaps were allocated")

    monkeypatch.setattr(certificate, "_chunks", walked)
    cfg = _write_config(tmp_path, T=2, K=2, samples=10**15,
                        potential={"kind": "power_law", "coefficients": [[0.3, 0.0]],
                                   "exponent": 2.0})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1
    assert "PiB" in captured.err


def test_certify_huge_constant_forcing_terminates(tmp_path, capsys):
    # the certified radius is about 1.6e100, far beyond 2**23, where the old
    # absolute bisection tolerance never terminated
    cfg = _write_config(
        tmp_path, T=2, potential={"kind": "constant", "coefficients": [[1e300, 0.0]]},
        samples=100,
    )
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["valid"] is True
    assert payload["certificate"]["radius"] > 1e100


def test_solve_overflowing_newton_exit_three(tmp_path, capsys):
    # the certificate holds (radius about 1.7e100), but the cubic term
    # overflows along the homotopy; Newton reports divergence quietly
    cfg = _write_config(
        tmp_path, T=4, K=4, potential={"kind": "constant", "coefficients": [[1e300, 0.0]]},
        samples=100,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"]["status"] == "diverged"


@pytest.mark.parametrize("command", ["certify", "solve", "degree", "steady"])
def test_forcing_overflow_in_the_sampler_warns_nothing(tmp_path, capsys, command):
    # |g| overflows at every boundary sample, so the evidence is invalid
    # (exit 2); the report says so, and numpy adds no warning lines
    cfg = _write_config(
        tmp_path, T=4, K=4, potential={"kind": "bounded", "coefficients": [[1e300, 0.0]]},
        samples=10,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    if command == "steady":
        assert captured.out == ""
        assert captured.err.startswith("certificate error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["certificate"]["valid"] is False


#: a period-2 constant forcing on a 12 x 12 lattice: the homotopy tracks on
#: its 2 x 2 quotient, and the full lattice takes 288 x 288 Jacobians
_QUOTIENT_SOLVE = dict(
    T=12, K=12, potential={"kind": "constant", "coefficients": [[2.0, 0.0], [1.0, 1.0]]},
    samples=200,
)


def test_solve_every_newton_step_failing_exit_three(tmp_path, capsys, monkeypatch):
    # when every Newton step fails, the homotopy halves its step down to the
    # floor and reports divergence quietly
    def failing_step(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(solver, "_newton_step", failing_step)
    cfg = _write_config(tmp_path, **_QUOTIENT_SOLVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["report"]["status"] == "diverged"


def test_newton_step_singular_jacobian_raises():
    # at the origin on the tau = 1 slice, M = L, and L's symbol vanishes at
    # time frequencies 0 and pi; the period-2 forcing puts the residual
    # there, so M d = 0.  The dense solve of this M returns a huge step
    # rather than raising, no halving of it lowers the residual, and the
    # Newton run ends as diverged at iteration 0
    params = LatticeParams(T=12, K=12, beta=1.0, epsilon=1.0, gamma=1.0)
    op = dnls.build_shifted(params, shift_factor=1.5)
    g = dnls.constant_potential([2.0, 1.0 + 1.0j])
    flat = np.zeros(params.dim, dtype=complex)
    res = solver._slice_residual(flat, op, g, 1.0)
    jac = solver._slice_jacobian(flat, op, g, 1.0)
    assert np.max(np.abs(jac @ solver.realify(res))) <= 1e-15
    x, _, iterations, status = solver._damped_newton(flat[None], op, g, 1.0, solver.DEFAULT_TOL, 25)
    assert (iterations, status) == ([0], ["diverged"])
    assert not x.any()


def test_verify_passes_on_a_plane_wave(tmp_path, capsys):
    # the largest plane wave below modulus 10 on 64x64 solves the equation
    # exactly, so verify passes on its CSV
    potential = {"kind": "power_law", "coefficients": [[0.3, 0.0]], "exponent": 2.0}
    cfg = _write_config(tmp_path, T=64, K=64, potential=potential)
    params = LatticeParams(T=64, K=64, beta=1.0, epsilon=1.0, gamma=1.0)
    j, m, rho = max(plane_waves(params, power_law([0.3], 2.0), 10.0), key=lambda w: w[2])
    assert rho > 2.0
    write_solution_csv(tmp_path / "wave.csv", plane_wave(params, j, m, rho))
    assert main(["verify", "--config", cfg, "--solution", str(tmp_path / "wave.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_solve_quotient_and_full_lattice_tracking_agree(tmp_path, capsys, monkeypatch):
    # the solve tracks on the quotient; tracking on the full lattice with
    # its dense steps writes the same report counts and the same field
    cfg = _write_config(tmp_path, **_QUOTIENT_SOLVE)

    def solve_and_verify(subdir):
        out = tmp_path / subdir
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert main(["verify", "--config", cfg, "--solution", str(out / "solution.csv"),
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        values = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        return report, values

    def full_lattice(op, g, cert, tol):
        x, iterations, status, path = solver._track(op, g, cert, tol)
        return solver._report_at(x, op, g, iterations, status, "homotopy", len(path) - 1, path)

    quotient_report, quotient = solve_and_verify("quotient")
    monkeypatch.setattr(dnls.cli, "homotopy_solve", full_lattice)
    full_report, full = solve_and_verify("full")
    for key in ("status", "newton_iterations", "homotopy_steps"):
        assert quotient_report[key] == full_report[key]
    assert np.max(np.abs(quotient - full)) <= 1e-10


def test_commands_do_not_import_scipy(tmp_path):
    # numpy alone runs every command, Newton steps on large lattices too
    script = textwrap.dedent("""
        import json, sys
        import dnls, dnls.cli

        lattice = {"beta": 1.0, "epsilon": 1.0, "gamma": 1.0, "samples": 200}
        constant = {"kind": "constant", "coefficients": [[2.0, 0.0], [1.0, 1.0]]}
        runs = {
            "solve": dict(T=12, K=12, potential=constant),
            "certify": dict(T=4, K=4, potential=constant),
            "degree": dict(T=4, K=8, n_starts=4, potential={
                "kind": "power_law", "coefficients": [[0.3, 0.0]], "exponent": 2.0}),
        }
        for command, config in runs.items():
            path = f"{sys.argv[1]}/{command}.json"
            with open(path, "w") as fh:
                json.dump({**lattice, **config}, fh)
            rc = dnls.cli.main([command, "--config", path, "--out", f"{sys.argv[1]}/{command}"])
            assert rc == 0, (command, rc)
        rc = dnls.cli.main(["verify", "--config", f"{sys.argv[1]}/solve.json", "--solution",
                            f"{sys.argv[1]}/solve/solution.csv", "--out", f"{sys.argv[1]}/v"])
        assert rc == 0, ("verify", rc)
        assert "scipy" not in sys.modules
    """)
    src = str(Path(dnls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["certify"]) == 1  # missing --config
    assert main(["frobnicate", "--config", "x"]) == 1  # unknown command
    cfg = _write_config(tmp_path)
    assert main(["certify", "--config", cfg, "--seed", "-3"]) == 1
    capsys.readouterr()


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        potential={"kind": "constant", "coefficients": [[0.1, 0.05]]},
        samples=500,
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["status"] == "converged"
    assert payload["report"]["residual_direct"] <= 1e-10
    assert payload["report"]["solution_csv"] == "solution.csv"
    assert (out / "solution.csv").exists()

    assert main([
        "verify", "--config", cfg,
        "--solution", str(out / "solution.csv"),
        "--out", str(out),
    ]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    assert verdict["max_residual"] <= verdict["tolerance"]


def test_verify_rejects_perturbed_solution(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        potential={"kind": "constant", "coefficients": [[0.1, 0.0]]},
        samples=500,
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()

    lines = (out / "solution.csv").read_text().splitlines()
    t, k, re, im = lines[1].split(",")
    lines[1] = f"{t},{k},{float(re) + 1e-4},{im}"
    tampered = out / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")

    assert main([
        "verify", "--config", cfg, "--solution", str(tampered), "--out", str(out),
    ]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is False
    assert verdict["max_residual"] > verdict["tolerance"]
    # the bump leaks into the stencil neighbours, so the worst node is the
    # tampered one or an adjacent one; on a 1x2 lattice that is either node
    assert verdict["worst_node"] in ([0, 0], [0, 1])


def test_steady_solves_and_verifies(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        K=3,
        potential={"kind": "constant", "coefficients": [[8.0, 0.0]]},
        samples=500,
    )
    out = tmp_path / "steady"
    assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["status"] == "converged"

    rows = (out / "steady.csv").read_text().splitlines()
    assert rows[0] == "k,re,im"
    assert len(rows) == 4
    profile = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2]))
                        for r in rows[1:]])
    assert_allclose(profile, 2.0, atol=1e-8)

    # the steady CSV verifies against the full (T = 1) equation
    assert main([
        "verify", "--config", cfg, "--solution", str(out / "steady.csv"),
        "--out", str(out),
    ]) == 0
    capsys.readouterr()


def test_steady_rejects_time_varying_forcing(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, T=2,
        potential={"kind": "constant", "coefficients": [[1.0, 0.0], [2.0, 0.0]]},
    )
    assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "period" in capsys.readouterr().err


def test_steady_invalid_certificate_exit_two(tmp_path, capsys):
    # no boundary samples leave the certificate invalid
    cfg = _write_config(
        tmp_path, K=3, samples=0, potential={"kind": "constant", "coefficients": [[8.0, 0.0]]}
    )
    assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "failed its boundary check" in err


def test_steady_forces_one_time_slice(tmp_path, capsys):
    # steady certifies and solves at T = 1 whatever the config's T, so
    # T = 4 and T = 1 write the same bytes
    def run(T):
        cfg = _write_config(tmp_path, name=f"T{T}.json", T=T, K=5, samples=300,
                            potential={"kind": "constant", "coefficients": [[2.0, 1.0]]})
        out = tmp_path / f"T{T}"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        return (capsys.readouterr(), (out / "report.json").read_bytes(),
                (out / "steady.csv").read_bytes())

    assert run(4) == run(1)


def test_steady_runs_its_homotopy_once_before_the_starts(tmp_path, capsys, monkeypatch):
    # the parity corpus's steady-constant-1x3-tol-1e-15: the homotopy
    # diverges and the fallback's 8 starts find the steady state, starting
    # from the failed report rather than from a second homotopy run
    statuses = []
    homotopy = solver.homotopy_solve

    def counted(*args, **kwargs):
        report = homotopy(*args, **kwargs)
        statuses.append(report.status)
        return report

    monkeypatch.setattr(solver, "homotopy_solve", counted)
    cfg = _write_config(tmp_path, K=3, samples=300, n_starts=8, tolerance=1e-15,
                        potential={"kind": "constant", "coefficients": [[8.0, 1.0]]})
    assert main(["steady", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "4"]) == 0
    assert capsys.readouterr().err == ""
    assert statuses == ["diverged"]


@pytest.mark.parametrize(
    "scale,code", [(1e-14, 0), (1e-100, 0), (1e-300, 0), (1e-310, 2), (5e-324, 2)]
)
@pytest.mark.parametrize("command", ["certify", "solve", "steady", "degree"])
def test_tiny_beta_and_epsilon_run_until_the_inverse_overflows(tmp_path, capsys, command,
                                                               scale, code):
    # A's symbol stays between shift - ||L|| and shift + ||L|| at any scale,
    # so only a reciprocal symbol beyond the float range (subnormal beta and
    # epsilon) stops the run, as a certificate failure with one line and no
    # warnings
    cfg = _write_config(tmp_path, T=4, K=4, beta=scale, epsilon=scale, samples=500,
                        n_starts=4, potential={"kind": "bounded", "coefficients": [[0.5, 0.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("certificate error: ") and captured.err.count("\n") == 1
        assert "not finite" in captured.err and captured.out == ""
        return
    assert captured.err == ""
    if scale == 1e-14 and command != "steady":
        assert json.loads(captured.out)["certificate"]["radius"] == 1.0940515853678061


@pytest.mark.parametrize("scale", [1e-310, 5e-324])
def test_verify_at_subnormal_beta_and_epsilon_needs_no_inverse(tmp_path, capsys, scale):
    # verify recomputes the residual from the stencil alone, so the A^-1 that
    # stops the other commands at this scale never arises: the exact zero
    # solution of an odd forcing passes
    cfg = _write_config(tmp_path, T=4, K=4, beta=scale, epsilon=scale,
                        potential={"kind": "bounded", "coefficients": [[0.5, 0.0]]})
    solution = tmp_path / "zero.csv"
    write_solution_csv(solution, np.zeros((4, 4), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "--config", cfg, "--solution", str(solution),
                     "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["max_residual"] == 0.0


@pytest.mark.parametrize("command,name", [("solve", "report.json"), ("degree", "degree.json")])
def test_invalid_certificate_is_reported_with_exit_two(tmp_path, capsys, command, name):
    # no boundary samples leave the certificate invalid
    cfg = _write_config(tmp_path, samples=0)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["command"] == command
    assert payload["certificate"]["valid"] is False
    if command == "solve":
        assert payload["report"] is None
    assert (out / name).read_text() == stdout


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["certify", "solve", "steady", "verify", "degree"])
def test_unwritable_out_exit_one(tmp_path, capsys, command, under):
    # an --out that is an existing file, or lies under one, cannot be written
    cfg = _write_config(tmp_path, samples=50, n_starts=2)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "verify":
        solution = tmp_path / "zero.csv"
        write_solution_csv(solution, np.zeros(2, dtype=complex))
        argv += ["--solution", str(solution)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write output: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "command,overrides,csv_name",
    [
        ("solve", {"T": 2, "K": 3, "potential": {"kind": "bounded", "coefficients": [[0.5, 0]]}},
         "solution.csv"),
        ("steady", {"K": 3, "potential": {"kind": "constant", "coefficients": [[8.0, 0]]}},
         "steady.csv"),
    ],
    ids=["solve", "steady"],
)
def test_unwritable_csv_exit_one_before_printing(tmp_path, capsys, command, overrides, csv_name):
    # the solution CSV is written before the report, so a CSV path that is an
    # existing directory prints nothing and leaves no report behind
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    (out / csv_name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write output: ")
    assert not (out / "report.json").exists()


def test_degree_unforced_parity(tmp_path, capsys):
    cfg = _write_config(tmp_path, samples=400, n_starts=8)
    out = tmp_path / "deg"
    assert main(["degree", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["odd"]["degree_estimate"] == 1
    assert payload["full"]["degree_estimate"] == 1
    assert payload["odd"]["parity_ok"] is True
    assert payload["estimates_agree"] is True
    assert payload["flag"] is None
    assert payload["odd"]["completeness"] == "theorem"
    assert payload["odd"]["degenerate"] == []
    # the full map's degenerate origin counts its index; no other key says so
    assert payload["full"]["degenerate"][0]["local_index"] == 1
    assert "origin_perturbed" not in payload["full"]


def test_degree_dimension_guard(tmp_path, capsys):
    cfg = _write_config(tmp_path, T=4, K=16)  # 2*T*K = 128 > 64
    assert main(["degree", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: degree estimation caps the realified dimension at 64, got 2*T*K = 128\n")
    with pytest.raises(ConfigError, match="caps the realified dimension"):
        cmd_degree(load_config(cfg), tmp_path / "o")


def test_outputs_are_byte_identical_across_reruns(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        potential={"kind": "power_law", "coefficients": [[0.3, 0.0]], "exponent": 2.0},
        samples=600,
    )

    def run(subdir):
        out = tmp_path / subdir
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        return stdout, (out / "report.json").read_bytes(), (out / "solution.csv").read_bytes()

    first = run("a")
    second = run("b")
    assert first == second


def test_seed_override_changes_boundary_evidence(tmp_path, capsys):
    cfg = _write_config(tmp_path, samples=300)

    def hash_for(seed):
        out = tmp_path / f"s{seed}"
        assert main(["certify", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]) == 0
        return json.loads(capsys.readouterr().out)["certificate"]["boundary"]["argmin_hash"]

    assert hash_for(0) != hash_for(9)


# ---------------------------------------------------------------------------
# the exit contract under fuzzed input

#: values of the wrong type, or not finite, for any config field
_MISTYPED = st.sampled_from([None, "1", True, [1.0], {"x": 1}, float("nan"), float("inf")])
_REAL = st.floats(-1.0, 3.0)
_PAIRS = st.lists(st.lists(_REAL, min_size=2, max_size=2), min_size=1, max_size=4)
_CONFIGS = st.fixed_dictionaries(
    {
        "T": st.integers(1, 4),
        "K": st.integers(2, 4),
        "beta": st.floats(0.1, 3.0),
        "epsilon": st.floats(0.1, 3.0),
        "gamma": _REAL,
        "potential": st.fixed_dictionaries(
            {"kind": st.sampled_from(["power_law", "bounded", "zero", "constant"]),
             "coefficients": _PAIRS},
            optional={"exponent": st.floats(-1.0, 4.0)},
        ),
        "samples": st.integers(1, 40),
        "n_starts": st.integers(0, 4),
    },
    optional={
        "slack": st.floats(0.0, 1.5),
        "shift_factor": st.floats(1.0, 3.0),
        "tolerance": st.floats(0.0, 1e-6),
        "max_iter": st.integers(0, 30),
        "seed": st.integers(0, 5),
    },
)
#: replacements that break a config: out-of-range or mistyped values, and
#: coefficient lists of the wrong shape
_BREAKS = st.tuples(
    st.sampled_from(["T", "K", "beta", "epsilon", "gamma", "samples", "n_starts", "slack",
                     "shift_factor", "tolerance", "max_iter", "seed", "potential", "unknown",
                     "kind", "coefficients", "exponent"]),
    st.one_of(_MISTYPED, st.integers(-1, 0), _REAL, st.sampled_from(["sine", []]),
              st.lists(st.lists(_REAL, max_size=3), max_size=3)),
)


def _broken(config, breaks):
    config = {**config, "potential": dict(config["potential"])}
    for name, value in breaks:
        target = config["potential"] if name in ("kind", "coefficients", "exponent") else config
        if isinstance(target, dict):  # a potential replaced by a non-object has no subfields
            target[name] = value
    return config


_TOKENS = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e-3", "nan", "inf", "1e400", "x", ""])


@st.composite
def _solution_csvs(draw, config):
    """Solution files for ``verify``: the right node count for the config's
    lattice (when it has one) with arbitrary values, or malformed text."""
    T, K = config.get("T"), config.get("K")
    sized = type(T) is int and type(K) is int and 0 < T <= 4 and 0 < K <= 4
    if sized and draw(st.booleans()):
        value = st.floats(-2.0, 2.0).map(repr)
        if draw(st.booleans()):
            nodes = [f"{t},{k}" for t in range(T) for k in range(K)]
            header = "t,k,re,im"
        else:
            nodes = [str(k) for k in range(K)]
            header = "k,re,im"
        rows = [f"{node},{draw(value)},{draw(value)}" for node in nodes]
        return "\n".join([header, *rows]) + "\n"
    header = draw(st.sampled_from(["t,k,re,im", "k,re,im", "t,k", ""]))
    rows = draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=5), max_size=20))
    return "\n".join([header, *(",".join(row) for row in rows)])


@st.composite
def _cli_cases(draw):
    command = draw(st.sampled_from(["certify", "solve", "steady", "verify", "degree"]))
    config = _broken(draw(_CONFIGS), draw(st.lists(_BREAKS, max_size=2)))
    csv = draw(_solution_csvs(config)) if command == "verify" else None
    return command, config, csv


@settings(deadline=None, max_examples=60)
@example(case=("certify", _doc(slack=1.5, samples=10), None))
@example(case=("certify", _doc(potential={"kind": [1.0], "coefficients": [[0.0, 0.0]]}), None))
@example(case=("certify", _doc(potential={"kind": "power_law", "coefficients": [[0.3, 0.0]],
                                         "exponent": 60}), None))
@given(case=_cli_cases())
def test_main_exit_contract(case):
    # any config and solution file ends in a documented exit code with at
    # most one line on stderr: no traceback, and no warning either
    command, config, csv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if csv is not None:
            (Path(tmp) / "solution.csv").write_text(csv)
            argv += ["--solution", str(Path(tmp) / "solution.csv")]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
    assert rc in {0, 1, 2, 3, 4}
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
