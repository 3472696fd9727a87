"""Benchmark of the dnls command line, end to end and layer by layer.

One run measures one workload (see ``workloads.py``) in this process, as a
closed loop with one client: ``dnls.cli.main`` is called, its output is
checked, then the next call starts.  Run it from a checkout of the
repository:

    python3 perfbench/run.py --workload solve-32x32 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seconds 10        # every workload, a table

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``      median wall time of one CLI invocation, output check
                  excluded; invocation i uses CLI seed 1000*seed + i and the
                  first one is a discarded warm-up,
* ``setup_s``     median time to build the forcing and the shifted operator
                  (``cli.build_potential`` + ``operators.build_shifted``),
                  repeated between invocations so it samples the whole run,
* ``peak_rss_mb`` peak resident memory of this process.

Invocations whose exit code or output check failed are the result's
``failed``, out of ``attempted`` (warm-up included); their ratio is
``failed_frac``, printed with the details.

With ``--trace 1`` the run alternates untraced and traced invocations of
one CLI seed and reports the per-layer metrics of ``layers.py``: times are
medians over the traced invocations, counts come from the first and must
repeat exactly in the others.

The last line of standard output is the result as one JSON object; the line
before it holds the details: environment, sample counts, quartiles, failures
and, when traced, the span totals.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from layers import REPEATED_COUNTS, UNITS, Tracer, layer_metrics, span_totals
from workloads import WORKLOADS, Workload, check

ROOT = Path(__file__).resolve().parent.parent

#: BLAS threads, fixed so that runs compare.  One thread: with two, small
#: multi-right-hand-side solves stall for milliseconds at random when the
#: second core is busy, which made set-up times bimodal on a 2-core machine
BLAS_THREADS = 1
#: fewest timed invocations per run (traced: untraced/traced pairs)
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2
#: length of one round of set-up repetitions between invocations
SETUP_ROUND_S = 0.1
#: limit on one workload's process under ``--all``
CHILD_TIMEOUT_S = 600

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def prepare(root: Path = ROOT) -> None:
    """Pin the BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Raises FileNotFoundError when the
    checkout holds no dnls sources, so that no installed copy is measured.
    """
    src = root / "src"
    if not (src / "dnls" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dnls sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# environment


def _blas() -> dict:
    import ctypes

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        info = {"vendor": None, "version": None}
    info["threads_set"] = BLAS_THREADS
    # each wheel bundles its own OpenBLAS; ask every copy for its thread count
    threads = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    threads[f"{pkg.__name__}:{lib.name}"] = fn()
                    break
    info["threads"] = threads
    return info


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path = ROOT) -> dict:
    """Machine, library versions, BLAS threads and the measured sources."""
    import platform

    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dnls").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# invocations


class Runner:
    """Runs and checks CLI invocations of one workload in a work directory."""

    def __init__(self, workload: Workload, work: Path) -> None:
        import dnls.cli
        import dnls.operators

        self.cli, self.operators = dnls.cli, dnls.operators
        self.workload = workload
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config))
        self.config = self.cli.load_config(self.config_path)
        self.out_dir = work / "out"
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, cli_seed: int, tracer: Tracer | None = None) -> float:
        """One checked invocation; returns its wall time without the check."""
        argv = [self.workload.command, "--config", str(self.config_path),
                "--seed", str(cli_seed), "--out", str(self.out_dir)]
        buf = io.StringIO()
        start = perf_counter()
        with tracer.root("cli.main") if tracer else nullcontext(), redirect_stdout(buf):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed invocation, not a failed run
                traceback.print_exc()
                rc = None
        seconds = perf_counter() - start
        with tracer.root("check") if tracer else nullcontext():
            reason = check(self.workload, rc, buf.getvalue(), self.out_dir,
                           self.config_path, self.cli.main)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"cli seed {cli_seed}: {reason}")
            print(f"check failed: {self.workload.name}, {self.failures[-1]}", file=sys.stderr)
        return seconds

    def setup_round(self) -> list[float]:
        """Build forcing and shifted operator repeatedly for SETUP_ROUND_S."""
        spec, params, factor = (self.config.potential, self.config.params,
                                self.config.shift_factor)
        times: list[float] = []
        end = perf_counter() + SETUP_ROUND_S
        while not times or perf_counter() < end:
            start = perf_counter()
            self.cli.build_potential(spec)
            self.operators.build_shifted(params, factor)
            times.append(perf_counter() - start)
        return times


def _spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"samples": len(values), "min": min(values), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(values)}


def _untraced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    w = runner.workload
    runner.invoke(w.cli_seed(seed, 0))
    walls: list[float] = []
    setups: list[float] = []
    start, last = perf_counter(), 0.0
    while len(walls) < MIN_SAMPLES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        walls.append(runner.invoke(w.cli_seed(seed, len(walls) + 1)))
        setups += runner.setup_round()
        last = perf_counter() - t0
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"wall_s": _spread(walls), "setup_s": _spread(setups)}


def _traced(runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    cli_seed = runner.workload.cli_seed(seed, 0)
    starts_per_estimate = runner.config.n_starts + 1
    runner.invoke(cli_seed)
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_invocation: list[dict] = []
    spans: dict[str, list[float]] = {}
    start, last = perf_counter(), 0.0
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        plain.append(runner.invoke(cli_seed))
        tracer.install()
        try:
            traced.append(runner.invoke(cli_seed, tracer))
        finally:
            tracer.uninstall()
        per_invocation.append(layer_metrics(tracer.spans, starts_per_estimate))
        for name, tot in span_totals(tracer.spans, "cli.main").items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += tot.calls
            acc[1] += tot.seconds
            acc[2] += tot.self_seconds
        tracer.spans.clear()
        last = perf_counter() - t0

    first = per_invocation[0]
    metrics = {}
    for name in first:
        metrics[name] = (first[name] if UNITS[name] in ("count", "ratio")
                         else statistics.median(m[name] for m in per_invocation))
    mismatched = sorted({name for m in per_invocation for name in REPEATED_COUNTS
                         if m[name] != first[name]})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.counts_repeat"] = 0 if mismatched else 1
    metrics["trace.seams_absent"] = len(tracer.absent)
    details = {
        "untraced_wall_s": _spread(plain),
        "traced_wall_s": _spread(traced),
        "counts_not_repeated": mismatched,
        "seams_absent": sorted(tracer.absent),
        "spans": {name: {"calls": c, "total_s": s, "self_s": ss}
                  for name, (c, s, ss) in sorted(spans.items())},
    }
    return metrics, details


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path = ROOT) -> tuple[dict, dict]:
    """One run; returns the result object and the details."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(workload, work)
        values, details = (_traced if trace else _untraced)(runner, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = UNITS if trace else dict(END_TO_END)
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        **details,
        "environment": environment(root),
    }
    return result, details


# ---------------------------------------------------------------------------
# command line


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, then one table of all metrics."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed with exit code {proc.returncode}")
            status = 1
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        if name == next(iter(WORKLOADS)):
            print("environment", json.dumps(details["environment"]))
        print(name)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<38} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_frac':<38} {details['failed_frac']:>14.6g} "
              f"{result['failed']}/{result['attempted']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    try:
        prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    result, details = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
