"""Workloads of the dnls benchmark and the checks applied to their outputs.

Each workload is one ``dnls`` subcommand on one fixed config.  The benchmark
seed does not change the config; it picks the ``--seed`` given to each
invocation, which draws the certificate's boundary samples and the degree
command's Newton starts.

Every invocation's output is checked after its timing ends.  A check returns
``None`` when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

#: relative tolerance of the certified radius against its stored reference;
#: the radius comes from a bisection to 1e-9 absolute, so reordering the
#: floating-point work behind the norms stays far inside it
RADIUS_RTOL = 1e-8

_LATTICE = {"beta": 1.0, "epsilon": 1.0, "gamma": 1.0}


@dataclass(frozen=True)
class Workload:
    """One CLI command on one config, with the reference its check needs."""

    name: str
    command: str
    config: dict
    why: str
    #: certified ball radius at the config (certify only)
    reference_radius: float | None = None

    def cli_seed(self, seed: int, invocation: int) -> int:
        """CLI ``--seed`` of the given invocation of a run with ``seed``."""
        return 1000 * seed + invocation


def _config(T: int, K: int, potential: dict, **knobs) -> dict:
    return {"T": T, "K": K, **_LATTICE, "potential": potential, **knobs}


_CONSTANT = {"kind": "constant", "coefficients": [[2, 0], [1, 1]]}
_POWER_2 = {"kind": "power_law", "coefficients": [[0.3, 0], [0, 0.2]], "exponent": 2}
_POWER_1 = {"kind": "power_law", "coefficients": [[0.3, 0]], "exponent": 2}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-32x32",
            command="solve",
            config=_config(32, 32, _CONSTANT, samples=1000),
            why=(
                "Dense Newton dominates: a 2048x2048 realified Jacobian is assembled and "
                "solved about 10 times and memory grows like n^2; the FFT/sparse operator "
                "work should show here."
            ),
        ),
        Workload(
            name="certify-24x24",
            command="certify",
            config=_config(24, 24, _POWER_2, samples=20000),
            why=(
                "No Newton: A^-1 is applied to 576 x 20000 blocks and peak memory is about "
                "1.2 GB; faster single-vector solves that slow the batched apply show here."
            ),
            reference_radius=8.986948280398671,
        ),
        Workload(
            name="degree-4x8",
            command="degree",
            config=_config(4, 8, _POWER_1, n_starts=32),
            why=(
                "Tiny matrices, so Python per-call overhead dominates: 354 Newton runs, 83k "
                "derivative calls, 327 SVDs; vectorized forcing and batched Newton should "
                "show here."
            ),
        ),
    )
}

#: the same commands at a lattice small enough for the self-check
TINY = {
    "solve-32x32": _config(4, 4, _CONSTANT, samples=200),
    "certify-24x24": _config(4, 4, _POWER_2, samples=500),
    "degree-4x8": _config(2, 4, _POWER_1, n_starts=8),
}

#: the certify radius depends on the norms only, which agree on every torus
TINY_REFERENCE_RADIUS = {"certify-24x24": 8.986948280398657}


def tiny(workload: Workload) -> Workload:
    """The workload at its self-check lattice."""
    return replace(workload, config=TINY[workload.name],
                   reference_radius=TINY_REFERENCE_RADIUS.get(workload.name))


# ---------------------------------------------------------------------------
# output checks


def check(workload: Workload, rc: int | None, stdout: str, out_dir: Path,
          config_path: Path, cli_main) -> str | None:
    """Check one invocation; ``None`` when exit code and output are right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    try:
        return _CHECKS[workload.command](workload, doc, out_dir, config_path, cli_main)
    except (KeyError, TypeError) as exc:
        return f"output lacks a field the check reads: {exc!r}"


def _check_solve(workload, doc, out_dir, config_path, cli_main):
    report = doc["report"]
    if report["status"] != "converged":
        return f"status {report['status']!r}"
    csv = out_dir / report["solution_csv"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["verify", "--config", str(config_path), "--solution", str(csv),
                       "--out", str(out_dir / "verify")])
    if rc != 0:
        return f"dnls verify exited {rc}"
    if json.loads(buf.getvalue())["passed"] is not True:
        return "dnls verify did not pass"
    return None


def _check_certify(workload, doc, out_dir, config_path, cli_main):
    cert = doc["certificate"]
    if cert["valid"] is not True:
        return "certificate not valid"
    if cert["boundary"]["count"] != workload.config["samples"]:
        return f"boundary count {cert['boundary']['count']} != {workload.config['samples']}"
    ref = workload.reference_radius
    if abs(cert["radius"] - ref) > RADIUS_RTOL * ref:
        return f"radius {cert['radius']!r} differs from reference {ref!r}"
    return None


def _check_degree(workload, doc, out_dir, config_path, cli_main):
    odd, full = doc["odd"]["degree_estimate"], doc["full"]["degree_estimate"]
    if (odd, full) != (1, 1):
        return f"degree estimates odd={odd} full={full}, expected 1 and 1"
    if doc["odd"]["parity_ok"] is not True:
        return "odd-map parity failed"
    if doc["estimates_agree"] is not True:
        return "estimates disagree"
    return None


_CHECKS = {"solve": _check_solve, "certify": _check_certify, "degree": _check_degree}
