"""Spans around the public functions of each phasemono layer, installed from
outside the package.

The modules bind imported names directly (``cli`` holds its own ``solve``,
``build_problem`` and ``energy_monitor``; ``estimates`` holds ``solve`` and
``prepare_initial``; ``dynamics`` holds ``envelope``), so every importing
module's binding is replaced, together with the ``yosida``/``resolvent``
methods of the graph classes.  :func:`installed` restores all of them on exit.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated by name when they close: call count, total
time and self time.  The solver's own counters (steps, rejected steps, RHS
evaluations) are read from each returned trajectory.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import defaultdict

from phasemono import cli, dynamics, estimates, monotone, selftest, spectral

_clock = time.perf_counter


class SpanStats:
    """Aggregates of every span with one name."""

    __slots__ = ("calls", "total", "self_time", "open")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.open = 0


class Tracer:
    """A span stack plus per-name aggregates for one process."""

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.counters = defaultdict(float)
        self._child = []          # time covered by children, one slot per open span
        self._contraction_data = set()

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        stat = self.stats[name]
        child = self._child

        def wrapped(*args, **kwargs):
            stat.open += 1
            child.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                inner = child.pop()
                if child:
                    child[-1] += dur
                stat.open -= 1
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - inner

        return wrapped

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span (for calls the benchmark makes itself)."""
        return self.span(name, fn)(*args, **kwargs)

    # --- solver work counters -------------------------------------------

    def _solve(self, fn):
        def counted(params, initial, schedule, *args, **kwargs):
            traj = fn(params, initial, schedule, *args, **kwargs)
            stats = traj.stats
            c = self.counters
            c["steps"] += stats["steps"]
            c["rejected"] += stats["rejected"]
            c["rhs_evals"] += stats["rhs_evals"]
            if self.stats["estimates.yosida_convergence"].open:
                c["eps_ladder_steps"] += stats["steps"]
            if self.stats["estimates.contraction_sweep"].open:
                c["contraction_solves"] += 1
                self._contraction_data.add(_data_fingerprint(params, initial))
            return traj

        return self.span("dynamics.solve", counted)

    def _contraction_sweep(self, fn):
        def counted(*args, **kwargs):
            self._contraction_data = set()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters["contraction_distinct"] += len(self._contraction_data)

        return self.span("estimates.contraction_sweep", counted)

    # --- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every patched binding."""
        span = self.span
        targets = [
            (cli, "build_problem", lambda f: span("config.build_problem", f)),
            (cli, "solve", self._solve),
            (cli, "energy_monitor", lambda f: span("estimates.energy_monitor", f)),
            (cli, "galerkin_convergence",
             lambda f: span("estimates.galerkin_convergence", f)),
            (cli, "yosida_convergence",
             lambda f: span("estimates.yosida_convergence", f)),
            (cli, "contraction_sweep", self._contraction_sweep),
            (estimates, "solve", self._solve),
            (dynamics, "envelope", lambda f: span("potentials.envelope", f)),
            (selftest, "envelope", lambda f: span("potentials.envelope", f)),
            (selftest, "resolvent_oracle",
             lambda f: span("monotone.resolvent_oracle", f)),
            (monotone, "resolvent_oracle",
             lambda f: span("monotone.resolvent_oracle", f)),
            (monotone, "solve_increasing",
             lambda f: span("monotone.solve_increasing", f)),
            (spectral, "to_grid", lambda f: span("spectral.to_grid", f)),
            (spectral, "from_grid", lambda f: span("spectral.from_grid", f)),
        ]
        for cls in vars(monotone).values():
            if isinstance(cls, type) and issubclass(cls, monotone.MonotoneGraph):
                for meth in ("yosida", "resolvent"):
                    if meth in vars(cls):
                        targets.append(
                            (cls, meth,
                             lambda f, m=meth: span(f"monotone.{m}", f)))
        return targets


def _data_fingerprint(params, initial):
    h = hashlib.sha256()
    for arr in (initial.eta0.coeffs, initial.phi0.coeffs,
                params.eta_star.coeffs, params.forcing.coeffs):
        h.update(arr.tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def installed(tracer):
    """Patch every traced binding for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrap in tracer._targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
