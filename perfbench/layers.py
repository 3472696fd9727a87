"""Outside-in layer tracing for the dnls benchmark.

The package is not instrumented.  Instead, ``Tracer.install`` replaces public
names with timing wrappers where their callers look them up: the package
imports names into its modules, so ``dnls.cli.build_shifted`` is patched, not
``dnls.operators.build_shifted``.  Each wrapped call records a span (name,
start, end, parent, attributes) in memory; ``layer_metrics`` turns the spans
of one traced invocation into the per-layer metrics below.

A seam whose name no longer exists is reported as absent and its metrics
read 0, so the benchmark keeps running after the package changes shape.

The layers are the package modules.  ``PER_LAYER`` lists each metric with
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (name, unit, better, what it should move)
PER_LAYER = (
    ("operators.build_s", "s", "lower", "setup_s on all three; largest on solve-32x32"),
    ("operators.apply_inv_calls", "count", "lower",
     "wall_s on degree-4x8, where per-call overhead dominates"),
    ("operators.apply_inv_cols", "count", "lower", "wall_s on certify-24x24"),
    ("operators.apply_inv_s", "s", "lower",
     "wall_s on certify-24x24 and degree-4x8; little on solve-32x32"),
    ("certificate.constants_s", "s", "lower", "wall_s on certify-24x24"),
    ("certificate.sample_s", "s", "lower", "wall_s on certify-24x24"),
    ("certificate.boundary_s", "s", "lower", "wall_s on certify-24x24"),
    ("certificate.boundary_samples_per_s", "1/s", "higher", "wall_s on certify-24x24"),
    ("solver.homotopy_s", "s", "lower", "wall_s on solve-32x32"),
    ("solver.newton_iters", "count", "lower", "wall_s on solve-32x32"),
    ("solver.homotopy_steps", "count", "lower", "wall_s on solve-32x32"),
    ("solver.linsolve_calls", "count", "lower", "wall_s and peak_rss_mb on solve-32x32"),
    ("solver.linsolve_s", "s", "lower", "wall_s and peak_rss_mb on solve-32x32"),
    ("solver.homotopy_self_s", "s", "lower", "wall_s and peak_rss_mb on solve-32x32"),
    ("potentials.evaluate_calls", "count", "lower", "wall_s on degree-4x8"),
    ("potentials.derivative_calls", "count", "lower", "wall_s on degree-4x8"),
    ("potentials.derivative_s", "s", "lower", "wall_s on degree-4x8"),
    ("degree.estimate_s.odd", "s", "lower", "wall_s on degree-4x8"),
    ("degree.estimate_s.full", "s", "lower", "wall_s on degree-4x8"),
    ("degree.svd_calls", "count", "lower", "wall_s on degree-4x8"),
    ("degree.svd_s", "s", "lower", "wall_s on degree-4x8"),
    ("degree.zeros", "count", "higher", "wall_s on degree-4x8"),
    ("degree.degenerate", "count", "higher", "wall_s on degree-4x8"),
    ("degree.found_per_start", "ratio", "higher", "wall_s on degree-4x8"),
    ("lattice.residual_s", "s", "lower", "nothing gated: the cost of the solve check"),
    ("cli.unattributed_s", "s", "lower", "wall_s everywhere; should stay small"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
    ("trace.counts_repeat", "flag", "higher",
     "nothing: 1 when every count repeated across the run's traced invocations"),
    ("trace.seams_absent", "count", "lower", "nothing: seams the package no longer has"),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

#: counts that must repeat exactly between traced invocations of one seed
REPEATED_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER
                        if unit == "count" and not name.startswith("trace."))

_MISSING = object()


def _rhs_columns(args, kwargs, result):
    rhs = kwargs["rhs"] if "rhs" in kwargs else args[1]
    return {"cols": rhs.shape[1] if rhs.ndim == 2 else 1}


def _solve_report(args, kwargs, result):
    return {"newton_iters": result.newton_iterations, "steps": result.homotopy_steps}


def _degree_report(args, kwargs, result):
    return {"target": result.target, "zeros": len(result.zeros),
            "degenerate": len(result.degenerate)}


def _boundary_count(args, kwargs, result):
    return {"samples": result.count}


class Tracer:
    """Span recorder that patches dnls from outside the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span around every call; ``attrs(args, kwargs,
        result)`` adds numbers to the span and may fail without harm."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(f"{name} attributes")
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """A top-level span, such as one CLI invocation or its check."""
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, attrs=None, post=None) -> None:
        """Wrap ``owner.attr`` (a module function or a plain method)."""
        raw = inspect.getattr_static(owner, attr, _MISSING)
        # on a class only a plain function keeps its binding once wrapped
        if not callable(raw) or (inspect.isclass(owner) and not inspect.isfunction(raw)):
            self.absent.add(f"{owner.__name__}.{attr}")
            return
        fn = raw if post is None else functools.wraps(raw)(lambda *a, **k: post(raw(*a, **k)))
        setattr(owner, attr, self.wrap(name, fn, attrs))
        self._undo.append((owner, attr, raw))

    def _counting_potential(self, pot):
        """Copy of a forcing whose evaluate and derivative are traced."""
        changes = {}
        for field in ("evaluate", "derivative"):
            fn = getattr(pot, field, None)
            if callable(fn):
                changes[field] = self.wrap(f"potentials.{field}", fn)
            elif not hasattr(pot, field):
                self.absent.add(f"Potential.{field}")
        try:
            return dataclasses.replace(pot, **changes)
        except TypeError:
            self.absent.add("Potential fields")
            return pot

    def install(self) -> None:
        """Patch every seam; ``uninstall`` restores the originals."""
        import numpy.linalg

        import dnls.certificate
        import dnls.cli
        import dnls.degree
        import dnls.operators
        import dnls.solver

        cli, cert = dnls.cli, dnls.certificate
        self.patch(cli, "build_potential", "potentials.build", post=self._counting_potential)
        self.patch(cli, "build_shifted", "operators.build")
        self.patch(dnls.operators.ShiftedOperator, "solve", "operators.apply_inv",
                   attrs=_rhs_columns)
        self.patch(cli, "build_certificate", "certificate.build")
        for attr in ("compute_threshold_radius", "compute_forcing_sup", "compute_ball_radius"):
            self.patch(cert, attr, "certificate.constants")
        self.patch(cert, "sphere_samples", "certificate.sample")
        self.patch(dnls.degree, "sphere_samples", "certificate.sample")
        self.patch(cert, "verify_boundary", "certificate.boundary", attrs=_boundary_count)
        self.patch(cli, "homotopy_solve", "solver.homotopy", attrs=_solve_report)
        self.patch(numpy.linalg, "solve", "solver.linsolve")
        self.patch(cli, "estimate_degree", "degree.estimate", attrs=_degree_report)
        self.patch(numpy.linalg, "svd", "degree.svd")
        self.patch(cli, "residual_direct", "lattice.residual")
        self.patch(dnls.solver, "residual_direct", "lattice.residual")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# spans -> metrics


@dataclasses.dataclass
class _Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    attrs: dict = dataclasses.field(default_factory=lambda: defaultdict(int))


def span_totals(spans: list[list], root: str) -> dict[str, _Totals]:
    """Calls, time, self time and summed attributes per span name, over the
    spans under the top-level span called ``root`` (which is included)."""
    under = [False] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        under[i] = name == root if parent < 0 else under[parent]
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, _Totals] = defaultdict(_Totals)
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if not under[i]:
            continue
        tot = totals[name]
        tot.calls += 1
        tot.seconds += end - start
        tot.self_seconds += end - start - child_time[i]
        if attrs:
            for key, value in attrs.items():
                if key == "target":
                    tot.attrs[f"{value}_s"] += end - start
                else:
                    tot.attrs[key] += value
    return totals


def layer_metrics(spans: list[list], starts_per_estimate: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (root span ``cli.main``,
    with its output check under root span ``check``)."""
    t = span_totals(spans, "cli.main")
    checked = span_totals(spans, "check")
    boundary, estimate = t["certificate.boundary"], t["degree.estimate"]
    found = estimate.attrs["zeros"] + estimate.attrs["degenerate"]
    starts = starts_per_estimate * estimate.calls
    return {
        "operators.build_s": t["operators.build"].seconds,
        "operators.apply_inv_calls": t["operators.apply_inv"].calls,
        "operators.apply_inv_cols": t["operators.apply_inv"].attrs["cols"],
        "operators.apply_inv_s": t["operators.apply_inv"].seconds,
        "certificate.constants_s": t["certificate.constants"].seconds,
        "certificate.sample_s": t["certificate.sample"].seconds,
        "certificate.boundary_s": boundary.seconds,
        "certificate.boundary_samples_per_s":
            boundary.attrs["samples"] / boundary.seconds if boundary.seconds else 0.0,
        "solver.homotopy_s": t["solver.homotopy"].seconds,
        "solver.newton_iters": t["solver.homotopy"].attrs["newton_iters"],
        "solver.homotopy_steps": t["solver.homotopy"].attrs["steps"],
        "solver.linsolve_calls": t["solver.linsolve"].calls,
        "solver.linsolve_s": t["solver.linsolve"].seconds,
        "solver.homotopy_self_s": t["solver.homotopy"].self_seconds,
        "potentials.evaluate_calls": t["potentials.evaluate"].calls,
        "potentials.derivative_calls": t["potentials.derivative"].calls,
        "potentials.derivative_s": t["potentials.derivative"].seconds,
        "degree.estimate_s.odd": estimate.attrs["odd_s"],
        "degree.estimate_s.full": estimate.attrs["full_s"],
        "degree.svd_calls": t["degree.svd"].calls,
        "degree.svd_s": t["degree.svd"].seconds,
        "degree.zeros": estimate.attrs["zeros"],
        "degree.degenerate": estimate.attrs["degenerate"],
        "degree.found_per_start": found / starts if starts else 0.0,
        "lattice.residual_s": checked["lattice.residual"].seconds,
        "cli.unattributed_s": t["cli.main"].self_seconds,
    }
