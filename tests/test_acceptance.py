"""Release gate: the nine numbered acceptance criteria of this repository.

Each criterion is one test function that prints a single
``criterion N (...): PASS/FAIL`` line and then asserts the details, so a
verbose run shows one verdict per requirement.  Tolerances and instance
lists are stated inline; nothing here is weakened on failure.
"""

import json
import math
import time

import numpy as np
import pytest

from dnls import (
    LatticeParams,
    NoThresholdFound,
    bounded_potential,
    build_certificate,
    build_shifted,
    constant_potential,
    estimate_degree,
    power_law,
    realify,
    residual_direct,
    steady_state_solve,
    sup_norm,
    zero_potential,
    complexify,
)
from dnls.cli import main
from dnls.lattice import _linear
from dnls.solver import _slice_jacobian, _slice_residual
from oracles import linear_matrix, operator_norm_sup, random_field


def _announce(number: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {verdict}")


def _field_with_moduli(T, K, rng, lo, hi):
    moduli = rng.uniform(lo, hi, size=(T, K))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(T, K))
    return moduli * np.exp(1j * phases)


# ---------------------------------------------------------------------------


def test_criterion_1_operator_identities():
    failures = []
    start = time.monotonic()
    params = LatticeParams(T=8, K=8, beta=0.9, epsilon=1.2, gamma=-1.3)
    op = build_shifted(params, shift_factor=1.5)
    rng = np.random.default_rng(101)
    g = power_law([0.7], 2.0)
    matrix = linear_matrix(params)

    def unforced(fields):
        return residual_direct(fields, params, zero_potential())

    for i in range(100):
        phi = random_field(8, 8, rng, 2.0)
        psi = random_field(8, 8, rng, 2.0)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())

        # stencil identity: the stencil is the circulant of the dense oracle
        lhs = _linear(phi, params)
        rhs = (matrix @ phi.ravel()).reshape(8, 8)
        if sup_norm(lhs - rhs) > 1e-13 * max(1.0, sup_norm(lhs)):
            failures.append(f"stencil identity violated on field {i}")

        # linearity of L
        combo = _linear(a * phi + b * psi, params)
        split = a * _linear(phi, params) + b * _linear(psi, params)
        if sup_norm(combo - split) > 1e-12 * max(1.0, sup_norm(combo)):
            failures.append(f"linearity violated on pair {i}")

        # the cubic term at each node value c is minus the unforced residual
        # of the constant field c, which L annihilates
        constants = np.broadcast_to(phi.reshape(64, 1, 1), (64, 8, 8))
        cubic = -unforced(constants)[:, 0, 0]

        # oddness of the unforced residual, of its cubic term and of the odd
        # fixed-point map
        if sup_norm(unforced(-phi) + unforced(phi)) > 1e-13 * max(1.0, sup_norm(unforced(phi))):
            failures.append(f"residual not odd on field {i}")
        if sup_norm(unforced(-constants)[:, 0, 0] - cubic) > 1e-13 * max(1.0, sup_norm(cubic)):
            failures.append(f"cubic not odd on field {i}")
        flat = phi.flatten()
        s_plus = flat - op.solve(-params.gamma * np.abs(flat) ** 2 * flat)
        s_minus = -flat - op.solve(params.gamma * np.abs(flat) ** 2 * flat)
        if np.max(np.abs(s_plus + s_minus)) > 1e-13 * max(1.0, np.max(np.abs(s_plus))):
            failures.append(f"odd map not odd on field {i}")

        # norm law of the cubic
        expect = abs(params.gamma) * sup_norm(phi) ** 3
        if abs(sup_norm(cubic) - expect) > 1e-12 * max(expect, 1.0):
            failures.append(f"cubic norm law violated on field {i}")

        # forcing respects pointwise substitution
        forced = unforced(phi) - residual_direct(phi, params, g)
        t0, k0 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        if abs(forced[t0, k0] - complex(g.evaluate(t0, phi[t0, k0]))) > 1e-13:
            failures.append(f"forcing substitution violated on field {i}")

    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 5s budget")
    _announce(1, "operator identities", failures)
    assert not failures, "\n".join(failures)


def test_criterion_2_norm_correctness():
    failures = []
    rng = np.random.default_rng(202)

    # brute-force row-sum oracle: exact equality on integer-entry matrices
    # (every abs and partial sum is exactly representable there)
    for n in (3, 9, 30):
        mat = rng.integers(-40, 41, size=(n, n)).astype(float)
        brute = max(sum(abs(entry) for entry in row) for row in mat)
        if operator_norm_sup(mat) != brute:
            failures.append(f"integer row-sum oracle mismatch at n={n}")

    # on generic complex matrices, agreement with an exactly rounded sum
    # up to a few ulps of float addition
    for n in (3, 9, 30):
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        brute = max(math.fsum(abs(entry) for entry in row) for row in mat)
        if abs(operator_norm_sup(mat) - brute) > 8 * np.finfo(float).eps * brute:
            failures.append(f"complex row-sum oracle mismatch at n={n}")

    # analytic values for beta = epsilon = 1 on lattices up to 8x8
    for T in range(1, 9):
        for K in range(2, 9):
            params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0)
            expect = 6.0 if T >= 3 else 4.0
            got = operator_norm_sup(linear_matrix(params))
            if got != pytest.approx(expect):
                failures.append(f"norm at ({T},{K}): got {got}, want {expect}")

    # 10^4 random unit-sup fields never exceed the bound
    params = LatticeParams(T=3, K=3, beta=1.0, epsilon=1.0, gamma=1.0)
    mat = linear_matrix(params)
    bound = operator_norm_sup(mat)
    count = 10_000
    moduli = rng.uniform(0.0, 1.0, size=(count, 9))
    moduli[np.arange(count), rng.integers(0, 9, size=count)] = 1.0
    flats = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, 9)))
    outs = np.abs(flats @ mat.T).max(axis=1)
    exceed = int((outs > bound * (1 + 1e-12)).sum())
    if exceed:
        failures.append(f"{exceed} of {count} unit fields exceeded the norm bound")

    _announce(2, "sup operator norms", failures)
    assert not failures, "\n".join(failures)


def test_criterion_3_proof_inequalities():
    failures = []
    params = LatticeParams(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    potentials = {
        "power r=2": power_law([0.8], 2.0),
        "power r=1": power_law([1.0], 1.0),
        "power r=0.5": power_law([0.5], 0.5),
        "bounded": bounded_potential([1.0]),
        "zero": zero_potential(),
        "constant": constant_potential([0.5]),
    }
    rng = np.random.default_rng(303)

    for label, g in potentials.items():
        cert = build_certificate(op, g, samples=0)  # constants only
        B, C, D = cert.const_bound, cert.linear_bound, cert.cubic_bound
        violations = 0
        for _ in range(1000):
            radius = rng.uniform(0.0, 2.0 * cert.radius)
            phi = random_field(4, 4, rng, radius)
            flat = phi.flatten()
            norm = sup_norm(phi)

            # (boundedbelow): ||psi|| <= ||A|| * ||A^-1 psi||
            lhs = np.max(np.abs(flat))
            rhs = cert.norm_shifted * np.max(np.abs(op.solve(flat)))
            if lhs > rhs * (1 + 1e-12):
                violations += 1

            # (sublin): preconditioned forcing stays under B + C r + D r^3
            forcing = np.concatenate(
                [np.asarray(g.evaluate(t, phi[t]), dtype=complex) for t in range(4)]
            )
            pre = np.max(np.abs(op.solve(forcing - op.shift * flat)))
            if pre > (B + C * norm + D * norm**3) * (1 + 1e-12) + 1e-15:
                violations += 1

            # (suplin): the odd map is bounded below by 2 D r^3 - r
            odd = np.max(np.abs(flat - op.solve(-params.gamma * np.abs(flat) ** 2 * flat)))
            if odd < (2.0 * D * norm**3 - norm) * (1 - 1e-12) - 1e-15:
                violations += 1
        if violations:
            failures.append(f"{label}: {violations} inequality violations in 3000 checks")

    _announce(3, "certificate inequalities", failures)
    assert not failures, "\n".join(failures)


def test_criterion_4_certificates_validate(tmp_path, capsys):
    failures = []
    instances = []
    for r in (0.5, 1.0, 2.0):
        instances.append((f"power r={r}", {
            "kind": "power_law", "coefficients": [[0.8, 0.0]], "exponent": r,
        }))
    instances.append(("bounded", {"kind": "bounded", "coefficients": [[1.0, 0.0]]}))
    instances.append(("zero", {"kind": "zero"}))

    for T, K in ((1, 2), (2, 3), (4, 4), (8, 8)):
        for label, potential in instances:
            cfg = tmp_path / f"c{T}x{K}_{label.replace(' ', '_').replace('=', '')}.json"
            cfg.write_text(json.dumps({
                "T": T, "K": K, "beta": 1.0, "epsilon": 1.0, "gamma": 1.0,
                "potential": potential, "samples": 10000,
            }))
            out = tmp_path / f"out_{cfg.stem}"
            start = time.monotonic()
            code = main(["certify", "--config", str(cfg), "--out", str(out)])
            elapsed = time.monotonic() - start
            payload = json.loads(capsys.readouterr().out)
            cert = payload["certificate"]
            name = f"{label} at ({T},{K})"
            if code != 0:
                failures.append(f"{name}: exit code {code}")
            if not cert["valid"]:
                failures.append(f"{name}: certificate not valid")
            if not (cert["boundary"]["count"] == 10000 and cert["boundary"]["min_gap"] > 0):
                failures.append(f"{name}: boundary evidence {cert['boundary']}")
            if elapsed >= 30.0:
                failures.append(f"{name}: runtime {elapsed:.1f}s exceeds 30s")

    # the r = 3 violator (max|f| above the threshold coefficient) has no threshold
    params = LatticeParams(T=2, K=3, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, 1.5)
    try:
        build_certificate(op, power_law([1.0], 3.0), samples=10)
        failures.append("r=3 forcing was not rejected")
    except NoThresholdFound:
        pass
    cfg = tmp_path / "cubic.json"
    cfg.write_text(json.dumps({
        "T": 2, "K": 3, "beta": 1.0, "epsilon": 1.0, "gamma": 1.0,
        "potential": {"kind": "power_law", "coefficients": [[1.0, 0.0]], "exponent": 3.0},
        "samples": 100,
    }))
    if main(["certify", "--config", str(cfg), "--out", str(tmp_path / "oc")]) != 2:
        failures.append("r=3 certify did not exit with code 2")
    capsys.readouterr()

    _announce(4, "certificate validity", failures)
    assert not failures, "\n".join(failures)


def test_criterion_5_solver_soundness(tmp_path, capsys):
    failures = []
    cases = [
        ("zero 4x4", {"T": 4, "K": 4, "potential": {"kind": "zero"}}),
        ("quadratic 4x4", {"T": 4, "K": 4, "potential": {
            "kind": "power_law", "coefficients": [[0.3, 0.0]], "exponent": 2.0}}),
        ("bounded 2x3", {"T": 2, "K": 3, "potential": {
            "kind": "bounded", "coefficients": [[1.0, 0.0]]}}),
        ("constant 3x2", {"T": 3, "K": 2, "potential": {
            "kind": "constant", "coefficients": [[0.1, 0.05]]}}),
    ]
    for label, partial in cases:
        doc = {"beta": 1.0, "epsilon": 1.0, "gamma": 1.0, "samples": 2000}
        doc.update(partial)
        cfg = tmp_path / f"{label.split()[0]}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"run_{cfg.stem}"

        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        if code != 0 or payload["report"]["status"] != "converged":
            failures.append(f"{label}: solve failed (exit {code})")
            continue
        if payload["report"]["residual_direct"] > 1e-10:
            failures.append(f"{label}: residual {payload['report']['residual_direct']}")
        if not payload["report"]["sup_norm"] < payload["certificate"]["radius"]:
            failures.append(f"{label}: endpoint not strictly inside the ball")

        # independent re-verification from the CSV file alone
        code = main(["verify", "--config", str(cfg),
                     "--solution", str(out / "solution.csv"), "--out", str(out)])
        verdict = json.loads(capsys.readouterr().out)
        if code != 0 or not verdict["passed"] or verdict["max_residual"] > 1e-10:
            failures.append(f"{label}: cmd_verify rejected the CSV ({verdict})")

    _announce(5, "solver soundness", failures)
    assert not failures, "\n".join(failures)


def test_criterion_6_steady_state_oracle(tmp_path, capsys):
    failures = []
    for K in (2, 3, 5, 8):
        h = constant_potential([8.0])
        op = build_shifted(LatticeParams(T=1, K=K, beta=1.0, epsilon=1.0, gamma=1.0))
        profile = steady_state_solve(op, h, build_certificate(op, h)).solution[0]
        # direct substitution into the spatial equation, no package code
        lap = np.roll(profile, -1) - 2.0 * profile + np.roll(profile, 1)
        res = np.abs(lap + np.abs(profile) ** 2 * profile - 8.0)
        if res.max() > 1e-10:
            failures.append(f"K={K}: substitution error {res.max():.3e}")
        if np.max(np.abs(profile - 2.0)) > 1e-8:
            failures.append(f"K={K}: profile is not the constant-2 root")

    # the constant root u = 2, written by hand, passes the verifier
    for K in (2, 3, 5, 8):
        cfg = tmp_path / f"steady{K}.json"
        cfg.write_text(json.dumps({
            "T": 1, "K": K, "beta": 1.0, "epsilon": 1.0, "gamma": 1.0,
            "potential": {"kind": "constant", "coefficients": [[8.0, 0.0]]},
        }))
        csv = tmp_path / f"root{K}.csv"
        csv.write_text("k,re,im\n" + "\n".join(f"{k},2,0" for k in range(K)) + "\n")
        code = main(["verify", "--config", str(cfg), "--solution", str(csv),
                     "--out", str(tmp_path / f"v{K}")])
        verdict = json.loads(capsys.readouterr().out)
        if code != 0 or not verdict["passed"]:
            failures.append(f"K={K}: hand-written constant root rejected")

    _announce(6, "steady states", failures)
    assert not failures, "\n".join(failures)


def test_criterion_7_jacobian_agreement():
    failures = []
    rng = np.random.default_rng(707)
    potentials = [
        power_law([0.8], 2.0),
        power_law([1.0], 1.0),
        power_law([0.5], 0.5),
        bounded_potential([1.0]),
        constant_potential([0.4]),
    ]
    shapes = [(1, 2), (2, 2), (1, 3), (2, 3)]

    for i in range(20):
        g = potentials[i % len(potentials)]
        T, K = shapes[i % len(shapes)]
        params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0)
        op = build_shifted(params, shift_factor=1.5)
        # keep node moduli away from 0, where the r < 1 family has a kink
        phi = _field_with_moduli(T, K, rng, 0.4, 1.4)

        analytic = _slice_jacobian(phi.flatten(), op, g, 1.0)
        base = realify(phi.flatten())
        n = base.size
        fd = np.empty((n, n))
        h = 1e-7
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = h
            up = _slice_residual(complexify(base + bump), op, g, 1.0)
            dn = _slice_residual(complexify(base - bump), op, g, 1.0)
            fd[:, j] = (realify(up) - realify(dn)) / (2 * h)
        rel = np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd)))
        if rel > 1e-6:
            failures.append(f"pair {i} ({g.kind}, {T}x{K}): relative error {rel:.2e}")

    _announce(7, "jacobian agreement", failures)
    assert not failures, "\n".join(failures)


def test_criterion_8_degree_parity():
    failures = []
    start = time.monotonic()
    params = LatticeParams(T=1, K=2, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)

    for label, g in (("unforced", zero_potential()),
                     ("power law", power_law([0.2], 2.0))):
        cert = build_certificate(op, g, samples=2000, seed=0)
        if not cert.valid:
            failures.append(f"{label}: certificate invalid")
            continue
        for seed in (0, 1, 2):
            odd = estimate_degree("odd", op, g, cert, n_starts=16, seed=seed)
            full = estimate_degree("full", op, g, cert, n_starts=16, seed=seed)
            if odd.degree_estimate % 2 == 0:
                failures.append(f"{label} seed {seed}: odd-route degree "
                                f"{odd.degree_estimate} is even")
            if odd.degree_estimate != full.degree_estimate:
                failures.append(f"{label} seed {seed}: estimates differ "
                                f"({odd.degree_estimate} vs {full.degree_estimate})")

    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10s budget")
    _announce(8, "degree parity", failures)
    assert not failures, "\n".join(failures)


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    failures = []
    base = {"T": 1, "K": 2, "beta": 1.0, "epsilon": 1.0, "gamma": 1.0, "samples": 400}

    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({**base, "potential": {
        "kind": "constant", "coefficients": [[0.1, 0.02]]}}))
    steady_cfg = tmp_path / "steady.json"
    steady_cfg.write_text(json.dumps({**base, "K": 3, "potential": {
        "kind": "constant", "coefficients": [[8.0, 0.0]]}}))
    degree_cfg = tmp_path / "degree.json"
    degree_cfg.write_text(json.dumps({**base, "n_starts": 8, "potential": {
        "kind": "zero"}}))

    # a solution file for the verify command, produced once up front
    seed_out = tmp_path / "seed_run"
    assert main(["solve", "--config", str(solve_cfg), "--out", str(seed_out)]) == 0
    capsys.readouterr()

    commands = {
        "certify": ["certify", "--config", str(solve_cfg), "--seed", "4"],
        "solve": ["solve", "--config", str(solve_cfg)],
        "steady": ["steady", "--config", str(steady_cfg)],
        "verify": ["verify", "--config", str(solve_cfg),
                   "--solution", str(seed_out / "solution.csv")],
        "degree": ["degree", "--config", str(degree_cfg)],
    }

    for name, argv in commands.items():
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            code = main(argv + ["--out", str(out)])
            stdout = capsys.readouterr().out
            if code != 0:
                failures.append(f"{name}: exit code {code} on rerun {attempt}")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((stdout, files))
        if runs[0] != runs[1]:
            failures.append(f"{name}: reruns are not byte-identical")

    _announce(9, "deterministic outputs", failures)
    assert not failures, "\n".join(failures)
