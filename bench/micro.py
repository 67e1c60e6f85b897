"""Layer microbenchmarks: spectral transforms by size and each built-in
graph's Yosida map per point.

Each timing is warmed up first, then taken as the median over blocks of
calls, each block long enough to dwarf the clock's resolution.  Operation
and byte counts of the transforms are computed from the array shapes, not
measured.
"""

from __future__ import annotations

import re
import statistics
import time

import numpy as np

from phasemono import spectral
from phasemono.selftest import builtin_graphs

SPECTRAL_SIZES = (("1d_n16", 1, 16), ("1d_n32", 1, 32), ("1d_n64", 1, 64),
                  ("2d_n32", 2, 32), ("2d_n64", 2, 64))
YOSIDA_POINTS = (48, 16384)
YOSIDA_EPS = 0.05
BLOCK_S = 2e-3
BLOCKS = 7


def _per_call_s(fn):
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BLOCK_S / once))
    blocks = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((time.perf_counter() - t0) / reps)
    return statistics.median(blocks)


def _transform_counts(dims, n):
    """(flops, elements read + written) of to_grid and from_grid, summed
    over the numpy operations each performs."""
    m = 2 * n
    if dims == 1:
        to = (n + 2 * m * n, (2 * n + m * n + n) + (n + m))
        frm = (2 * m * n + 2 * n, (m * n + m + n + 2 * n) + 3 * n)
    else:
        to = (n * n + 2 * m * n * n + 2 * m * m * n,
              (2 * n * n + m * n + n * n + m * n + n * m) + (n * n + m * n + m * m))
        frm = (2 * n * m * m + 2 * m * n * n + 2 * n * n,
               (n * m + m * m + n * m + m * n + n * n + 2 * n * n)
               + (n * m + 3 * n * n))
    return {"to_grid": to, "from_grid": frm}


def spectral_metrics(rng):
    """Per-size transform timings; returns (metrics, failures)."""
    metrics, failures = {}, []
    for label, dims, n in SPECTRAL_SIZES:
        basis = spectral.build_basis(dims, 1.0, n)
        coeffs = rng.standard_normal(basis.total_modes)
        grid = spectral.to_grid(basis, coeffs)
        back = spectral.from_grid(basis, grid)
        err = float(np.max(np.abs(back - coeffs)))
        if not err <= 1e-10 * max(1.0, float(np.max(np.abs(coeffs)))):
            failures.append(f"spectral round trip {label}: error {err:.3e}")
        times = {"to_grid": _per_call_s(lambda: spectral.to_grid(basis, coeffs)),
                 "from_grid": _per_call_s(lambda: spectral.from_grid(basis, grid))}
        for name, (flops, elems) in _transform_counts(dims, n).items():
            metrics[f"spectral.{name}.us.{label}"] = (times[name] * 1e6, "us")
            metrics[f"spectral.{name}.flops.{label}"] = (float(flops), "flop_computed")
            metrics[f"spectral.{name}.bytes.{label}"] = (8.0 * elems, "B_computed")
    return metrics, failures


def variant_key(name):
    """Metric-safe form of a built-in graph's display name, e.g.
    'weighted_power(q=0.3,w=2)' -> 'weighted_power_q0.3_w2'."""
    return re.sub(r"[^A-Za-z0-9.]+", "_", name.replace("=", "")).strip("_")


def yosida_metrics(rng):
    """Per-point Yosida cost of every built-in graph; (metrics, failures)."""
    metrics, failures = {}, []
    for name, graph in builtin_graphs().items():
        key = variant_key(name)
        for size in YOSIDA_POINTS:
            x = rng.uniform(-5.0, 5.0, size)
            out = np.asarray(graph.yosida(YOSIDA_EPS, x))
            # A_eps(0) = 0 and A_eps is 1/eps-Lipschitz
            if not np.all(np.abs(out) <= np.abs(x) / YOSIDA_EPS * (1 + 1e-12) + 1e-12):
                failures.append(f"yosida {name} at {size} points exceeds |x|/eps")
            sec = _per_call_s(lambda: graph.yosida(YOSIDA_EPS, x))
            metrics[f"monotone.{key}.yosida_ns_per_pt.{size}"] = (sec / size * 1e9, "ns")
    return metrics, failures
