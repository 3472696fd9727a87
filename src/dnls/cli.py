"""Batch command line front end.

Five subcommands drive the library from a single JSON config file:

* ``certify`` computes the existence certificate and boundary evidence,
* ``solve``   certifies, then runs homotopy continuation with Newton correction,
* ``steady``  solves the time-independent reduction on K spatial nodes,
* ``verify``  recomputes the nodewise residual of a solution CSV from the
  file alone (the repository's independent ground-truth gate),
* ``degree``  estimates the Brouwer degree of both fixed-point maps.

Every command prints one JSON document to standard output and mirrors it
into ``--out`` (default: the working directory); ``solve`` and ``steady``
additionally write the solution as CSV.  All outputs are deterministic
functions of (config, seed): rerunning a command reproduces byte-identical
bytes.

Exit codes: 0 success, 1 config or dimension errors (including a forcing
period that does not divide T, a config too large for the available
memory, and an ``--out`` path that cannot be written), 2 certificate failures
(no subcubic threshold, constants beyond the floating-point range, an A^-1
that overflows, or an invalid boundary check), 3 solver failures, 4 a full
map whose degree estimate is not the odd map's 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .certificate import build_certificate
from .degree import DegreeReport, estimate_degree
from .errors import (
    CertificateInvalid,
    CertificateOverflow,
    ConfigError,
    DimensionMismatch,
    DnlsError,
    NoThresholdFound,
    PeriodMismatch,
    SingularShift,
)
from .lattice import LatticeParams, sup_norm
from .operators import build_shifted
from .potentials import (
    Potential,
    bounded_potential,
    constant_potential,
    power_law,
    zero_potential,
)
from .solver import DEFAULT_TOL, SolveReport, homotopy_solve, residual_direct, steady_state_solve

__all__ = ["RunConfig", "PotentialSpec", "load_config", "build_potential", "main", "entrypoint"]

#: largest realified dimension the degree command accepts
DEGREE_DIM_CAP = 64

#: solution CSV header by the solution's rank: a (T, K) field or a (K,)
#: steady profile
CSV_HEADERS = {2: "t,k,re,im", 1: "k,re,im"}


@dataclass(frozen=True)
class PotentialSpec:
    """Forcing description from the config: kind, complex coefficients,
    and the growth exponent (power-law kinds only)."""

    kind: str
    coefficients: tuple[complex, ...]
    exponent: float | None


@dataclass(frozen=True)
class RunConfig:
    """One parsed and validated config document.  The fields with defaults
    are the optional config knobs; an int default makes a knob integer."""

    params: LatticeParams
    potential: PotentialSpec
    shift_factor: float = 1.5
    slack: float = 0.1
    tolerance: float = DEFAULT_TOL
    max_iter: int = 100
    samples: int = 10000
    n_starts: int = 32
    seed: int = 0


# ---------------------------------------------------------------------------
# config parsing


def _is_number(raw: object) -> bool:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:  # an integer beyond the float range
        return False


def _as_real(raw: object, field: str) -> float:
    if not _is_number(raw):
        raise ConfigError(f"field {field!r}: expected a finite number, got {raw!r}")
    return float(raw)


def _as_int(raw: object, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"field {field!r}: expected an integer, got {raw!r}")
    return raw


def _parse_coefficients(raw: object, field: str) -> tuple[complex, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"field {field!r}: expected a nonempty list of [re, im] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
            raise ConfigError(
                f"field {field}[{i}]: expected a two-element [re, im] pair of finite "
                f"numbers, got {pair!r}"
            )
        out.append(complex(pair[0], pair[1]))
    return tuple(out)


#: constructor of each forcing kind, in the order the config error lists them
_POTENTIAL_KINDS = {
    "power_law": lambda spec: power_law(list(spec.coefficients), spec.exponent),
    "bounded": lambda spec: bounded_potential(list(spec.coefficients)),
    "zero": lambda spec: zero_potential(period=max(1, len(spec.coefficients))),
    "constant": lambda spec: constant_potential(list(spec.coefficients)),
}


def _parse_potential(raw: object) -> PotentialSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"field 'potential': expected an object, got {raw!r}")
    allowed = {"kind", "coefficients", "exponent"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"field 'potential': unknown subfields {unknown}")
    kind = raw.get("kind")
    # a list or object kind is unhashable, so test the type before the lookup
    if not isinstance(kind, str) or kind not in _POTENTIAL_KINDS:
        raise ConfigError(
            f"field 'potential.kind': expected one of {list(_POTENTIAL_KINDS)}, got {kind!r}"
        )
    if "coefficients" in raw:
        coeffs = _parse_coefficients(raw["coefficients"], "potential.coefficients")
        if kind == "zero" and any(coeffs):
            raise ConfigError(
                "field 'potential.coefficients': kind 'zero' takes only zero coefficients, "
                f"got {raw['coefficients']!r}"
            )
    elif kind == "zero":
        coeffs = ()
    else:
        raise ConfigError(f"field 'potential.coefficients': required for kind {kind!r}")
    exponent: float | None = None
    if kind == "power_law":
        if "exponent" not in raw:
            raise ConfigError("field 'potential.exponent': required for kind 'power_law'")
        exponent = _as_real(raw["exponent"], "potential.exponent")
        if exponent <= 0:
            raise ConfigError(
                f"field 'potential.exponent': must be positive, got {exponent}"
            )
    elif "exponent" in raw:
        raise ConfigError(f"field 'potential.exponent': not accepted for kind {kind!r}")
    return PotentialSpec(kind=kind, coefficients=coeffs, exponent=exponent)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}

_REQUIRED = ("T", "K", "beta", "epsilon", "gamma", "potential")


def parse_config(doc: object) -> RunConfig:
    """Validate one decoded JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root: expected a JSON object, got {type(doc).__name__}")
    known = set(_REQUIRED) | set(_DEFAULTS)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"config: unknown fields {unknown}")
    missing = [name for name in _REQUIRED if name not in doc]
    if missing:
        raise ConfigError(f"config: missing required fields {missing}")

    try:
        params = LatticeParams(
            T=_as_int(doc["T"], "T"),
            K=_as_int(doc["K"], "K"),
            beta=_as_real(doc["beta"], "beta"),
            epsilon=_as_real(doc["epsilon"], "epsilon"),
            gamma=_as_real(doc["gamma"], "gamma"),
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    spec = _parse_potential(doc["potential"])

    values = dict(_DEFAULTS)
    for name, default in _DEFAULTS.items():
        if name in doc:
            parse = _as_int if isinstance(default, int) else _as_real
            values[name] = parse(doc[name], name)
    if values["shift_factor"] <= 1:
        raise ConfigError(f"field 'shift_factor': must exceed 1, got {values['shift_factor']}")
    if not 0 <= values["slack"] < 1:
        raise ConfigError(f"field 'slack': must lie in [0, 1), got {values['slack']}")
    if values["tolerance"] <= 0:
        raise ConfigError(f"field 'tolerance': must be positive, got {values['tolerance']}")
    for name in ("max_iter", "samples", "n_starts", "seed"):
        if values[name] < 0:
            raise ConfigError(f"field {name!r}: must be nonnegative, got {values[name]}")

    return RunConfig(params=params, potential=spec, **values)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _reject_constant(token: str) -> None:
    # json accepts NaN and +-Infinity, which are not JSON and never valid here
    raise ConfigError(f"config: non-finite number {token} is not allowed")


def build_potential(spec: PotentialSpec) -> Potential:
    """Instantiate the forcing described by a PotentialSpec.

    Power-law exponents at or beyond the cubic rate build like any other:
    the certificate rejects a forcing that breaks the growth hypothesis with
    NoThresholdFound (exit 2); nonpositive exponents never reach this point
    (config validation rejects them).
    """
    try:
        return _POTENTIAL_KINDS[spec.kind](spec)
    except DnlsError as exc:
        raise ConfigError(f"field 'potential': {exc}") from exc


# ---------------------------------------------------------------------------
# serialization helpers


def _emit(payload: dict, out_dir: Path, name: str, csv: tuple | None = None) -> None:
    """Write the optional solution CSV ``(file name, values)`` and then the
    JSON report into ``out_dir``, then print the report; a path that cannot
    be written raises OSError before anything is printed."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    if csv is not None:
        csv_name, values = csv
        write_solution_csv(out_dir / csv_name, values)
    (out_dir / name).write_text(text, newline="\n")
    sys.stdout.write(text)


def write_solution_csv(path: Path, values: np.ndarray) -> None:
    """Row-major dump of a (T, K) field under the `t,k,re,im` header, or of a
    (K,) steady profile under `k,re,im`: one row per node, its indices, then
    the real and imaginary parts with 17 significant digits."""
    values = np.asarray(values)
    if values.ndim not in CSV_HEADERS:
        raise ValueError(f"a solution is a (T, K) field or a (K,) profile, got {values.shape}")
    lines = [CSV_HEADERS[values.ndim]]
    for index, z in np.ndenumerate(values):
        lines.append(",".join(map(str, index)) + f",{z.real:.17g},{z.imag:.17g}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def read_solution_csv(path: str | Path, params: LatticeParams) -> np.ndarray:
    """Parse a solution CSV back into a read-only (T, K) complex field under
    the given dimensions.

    Accepts the full `t,k,re,im` layout (exactly T*K rows, every node once)
    and the steady `k,re,im` layout (exactly K rows, lifted to all T time
    slices), with every value finite.  Anything else raises DimensionMismatch.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DimensionMismatch(f"cannot read solution file {path}: {exc}") from exc
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise DimensionMismatch(f"solution file {path} is empty")
    header, rows = lines[0], lines[1:]
    ranks = {layout: rank for rank, layout in CSV_HEADERS.items()}
    if header not in ranks:
        expected = " or ".join(map(repr, CSV_HEADERS.values()))
        raise DimensionMismatch(
            f"solution file {path}: unrecognized header {header!r} (expected {expected})"
        )
    shape = (params.T, params.K)[-ranks[header]:]
    if len(rows) != math.prod(shape):
        dims = ", ".join(f"{name.upper()}={n}" for name, n in zip(header.split(","), shape))
        raise DimensionMismatch(
            f"solution file {path}: expected {math.prod(shape)} rows for {dims}, got {len(rows)}"
        )
    grid = np.full(shape, np.nan, dtype=complex)  # values are finite, so NaN marks unseen
    for line in rows:
        parts = line.split(",")
        if len(parts) != len(shape) + 2:
            raise DimensionMismatch(
                f"solution file {path}: expected {len(shape) + 2} columns, got {len(parts)} "
                f"in {line!r}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise DimensionMismatch(f"solution file {path}: non-numeric row {line!r}") from exc
        if not all(map(math.isfinite, values)):
            raise DimensionMismatch(f"solution file {path}: non-finite value in row {line!r}")
        *index, re, im = values
        node = tuple(int(i) for i in index)
        at = ", ".join(f"{i:g}" for i in index)
        if node != tuple(index) or not all(0 <= i < n for i, n in zip(node, shape)):
            raise DimensionMismatch(
                f"solution file {path}: node ({at}) outside the lattice of shape {shape}"
            )
        if not np.isnan(grid[node].real):
            raise DimensionMismatch(f"solution file {path}: node ({at}) appears twice")
        grid[node] = complex(re, im)
    # a steady profile holds at every time slice
    return np.broadcast_to(grid, (params.T, params.K))


def _solve_payload(report: SolveReport, csv_name: str | None) -> dict:
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "solution"}
    return {**payload, "sup_norm": sup_norm(report.solution), "solution_csv": csv_name}


def _degree_payload(report: DegreeReport) -> dict:
    return {
        **{f.name: getattr(report, f.name) for f in fields(report)},
        "zeros": [
            {"sup_norm": sup_norm(z.field), "residual": z.residual, "sign": z.sign}
            for z in report.zeros
        ],
        "degenerate": [
            {
                "sup_norm": sup_norm(d.field),
                "residual": d.residual,
                "sigma_ratio": d.sigma_ratio,
                "local_index": d.local_index,
            }
            for d in report.degenerate
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _certified_pipeline(config: RunConfig):
    g = build_potential(config.potential)
    op = build_shifted(config.params, config.shift_factor)
    # a forcing that overflows inside the sampler is invalid evidence, which
    # the report states; numpy's warnings would add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        cert = build_certificate(
            op, g, slack=config.slack, samples=config.samples, seed=config.seed
        )
    return g, op, cert


def cmd_certify(config: RunConfig, out_dir: Path) -> int:
    """Existence certificate as JSON; exit 0 exactly when it is valid."""
    _, _, cert = _certified_pipeline(config)
    _emit({"command": "certify", "certificate": asdict(cert)}, out_dir, "certificate.json")
    return 0 if cert.valid else 2


def cmd_solve(config: RunConfig, out_dir: Path) -> int:
    """Certify, track the homotopy; dump the solution as CSV."""
    g, op, cert = _certified_pipeline(config)
    payload = {"command": "solve", "certificate": asdict(cert), "report": None}
    if not cert.valid:
        _emit(payload, out_dir, "report.json")
        return 2
    report = homotopy_solve(op, g, cert, tol=config.tolerance)
    converged = report.status == "converged"
    csv_name = "solution.csv" if converged else None
    csv = (csv_name, report.solution) if converged else None
    _emit({**payload, "report": _solve_payload(report, csv_name)}, out_dir, "report.json", csv)
    return 0 if converged else 3


def cmd_steady(config: RunConfig, out_dir: Path) -> int:
    """Steady-state solve (T forced to 1); dump the profile as CSV."""
    g, op, cert = _certified_pipeline(replace(config, params=replace(config.params, T=1)))
    report = steady_state_solve(op, g, cert, n_starts=config.n_starts, seed=config.seed,
                                tol=config.tolerance, max_iter=config.max_iter)
    csv_name = "steady.csv"
    _emit(
        {"command": "steady", "report": _solve_payload(report, csv_name)},
        out_dir,
        "report.json",
        (csv_name, report.solution[0]),
    )
    return 0


def cmd_verify(config: RunConfig, solution_path: str, out_dir: Path) -> int:
    """Independent residual check of a CSV solution; exit 0 iff it passes.

    Recomputes the nodewise lattice-equation residual from the file and the
    config alone, with no solver state involved.
    """
    g = build_potential(config.potential)
    phi = read_solution_csv(solution_path, config.params)
    res = residual_direct(phi, config.params, g)
    moduli = np.abs(res)
    worst = np.unravel_index(int(np.argmax(moduli)), moduli.shape)
    max_residual = float(moduli.max())
    passed = max_residual <= config.tolerance
    _emit(
        {
            "command": "verify",
            "max_residual": max_residual,
            "mean_residual": float(moduli.mean()),
            "worst_node": [int(worst[0]), int(worst[1])],
            "tolerance": config.tolerance,
            "passed": passed,
        },
        out_dir,
        "verify.json",
    )
    return 0 if passed else 3


def cmd_degree(config: RunConfig, out_dir: Path) -> int:
    """Degree estimates for both fixed-point maps; exit 0 when the full map's
    estimate is 1, the odd map's degree by its theorem, and 4 otherwise."""
    if 2 * config.params.dim > DEGREE_DIM_CAP:
        raise ConfigError(
            f"degree estimation caps the realified dimension at {DEGREE_DIM_CAP}, "
            f"got 2*T*K = {2 * config.params.dim}"
        )
    g, op, cert = _certified_pipeline(config)
    payload = {"command": "degree", "certificate": asdict(cert)}
    if not cert.valid:
        _emit(payload, out_dir, "degree.json")
        return 2
    reports = {
        target: estimate_degree(
            target, op, g, cert, n_starts=config.n_starts, seed=config.seed
        )
        for target in ("odd", "full")
    }
    ok = reports["full"].degree_estimate == 1
    _emit(
        {
            **payload,
            "odd": _degree_payload(reports["odd"]),
            "full": _degree_payload(reports["full"]),
            "estimates_agree": ok,  # the odd map's estimate is always 1
            "flag": None if ok else "INCOMPLETE-ENUMERATION",
        },
        out_dir,
        "degree.json",
    )
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose usage errors surface as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnls", description="Periodic lattice equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, helptext in (
        ("certify", "compute the existence certificate"),
        ("solve", "homotopy continuation solve"),
        ("steady", "time-independent solve on K nodes"),
        ("verify", "recheck a solution CSV against the equation"),
        ("degree", "estimate Brouwer degrees of both maps"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="directory for reports and CSV dumps")
        if name == "verify":
            p.add_argument("--solution", required=True, help="solution CSV to check")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
            config = replace(config, seed=args.seed)
        out_dir = Path(args.out)
        if args.command == "verify":
            return cmd_verify(config, args.solution, out_dir)
        commands = {"certify": cmd_certify, "solve": cmd_solve, "steady": cmd_steady,
                    "degree": cmd_degree}
        return commands[args.command](config, out_dir)
    except (ConfigError, DimensionMismatch, PeriodMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # reads of the config and the solution already end as the errors above
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size and shape of the array that did not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (NoThresholdFound, CertificateInvalid, CertificateOverflow, SingularShift) as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 2
    except DnlsError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
