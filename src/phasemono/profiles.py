"""Named spatial profiles evaluated on the quadrature grid.

A profile is given as a whitespace-separated string:

    zero
    constant V
    cosine AMP I [J]          -- AMP cos(I pi x / Lx) [cos(J pi y / Ly)]
    tanh AMP WIDTH [CENTER]   -- front along x at CENTER (fraction of L)
    random-smooth AMP [DECAY] -- seeded random field with decaying spectrum,
                                 DECAY finite and >= 0
    csv PATH                  -- (x, value) rows, x strictly increasing,
                                 interpolated (1D only)

Random-smooth fields draw a fixed-size master coefficient block, so the same
seed produces the same field at every truncation level.  Every value of a
profile must be finite, and a profile with more or fewer arguments than its
line above shows, or a csv file that cannot be read, holds no rows or has an
x column that is not strictly increasing, is an error like any malformed
profile.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import spectral

__all__ = ["profile_grid", "PROFILE_NAMES"]

PROFILE_NAMES = ("zero", "constant", "cosine", "tanh", "random-smooth", "csv")

_MASTER_MODES = 256


def _tanh_front(basis, amp, width, center_frac):
    L = basis.lengths[0]
    x = basis.nodes[0]
    front = amp * np.tanh((x - center_frac * L) / width)
    if basis.dims == 1:
        return front
    return np.repeat(front[:, None], basis.m_quad, axis=1)


def _cosine(basis, amp, modes):
    """amp * cos(i pi x / Lx) [* cos(j pi y / Ly)]: pointwise amplitude."""
    if basis.dims == 1:
        (i,) = modes
        if not 0 <= i < basis.n:
            raise ValueError(f"cosine mode {i} outside truncation 0..{basis.n - 1}")
        x = basis.nodes[0]
        return amp * np.cos(i * np.pi * x / basis.lengths[0])
    i, j = modes
    if not (0 <= i < basis.n and 0 <= j < basis.n):
        raise ValueError("cosine mode outside truncation")
    cx = np.cos(i * np.pi * basis.nodes[0] / basis.lengths[0])
    cy = np.cos(j * np.pi * basis.nodes[1] / basis.lengths[1])
    return amp * np.outer(cx, cy)


# exp(-x) underflows to 0 for x above about 745.13, so at any decay from
# here up every mode but mode 0 has weight exactly 0: capping the decay
# here changes no bit of the field, and keeps decay * index from overflowing
_DECAY_CAP = 746.0


def _random_smooth(basis, amp, decay, rng):
    # normalize against the full master block so the field is the same
    # underlying function at every truncation level
    decay = min(decay, _DECAY_CAP)
    if basis.dims == 1:
        master = rng.standard_normal(_MASTER_MODES)
        full = master * np.exp(-decay * np.arange(_MASTER_MODES))
        ch = full[: basis.n]
    else:
        master = rng.standard_normal((_MASTER_MODES, _MASTER_MODES))
        i = np.arange(_MASTER_MODES)
        full = master * np.exp(-decay * np.add.outer(i, i))
        ch = full[: basis.n, : basis.n].ravel()
    nrm = float(np.sqrt(np.sum(full * full)))
    if nrm > 0:
        ch = ch * (amp / nrm)
    return spectral.to_grid(basis, ch)


def profile_grid(basis, text, rng=None):
    """Evaluate a profile string on the quadrature grid of a basis.  A
    malformed or unreadable profile, or one whose grid is not finite
    everywhere, raises ValueError."""
    grid = _evaluate(basis, text, rng)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"bad profile {text!r}: values must be finite")
    return grid


def _evaluate(basis, text, rng):
    parts = str(text).split()
    if not parts:
        raise ValueError("empty profile")
    name, args = parts[0], parts[1:]
    # the argument counts of each profile's grammar
    counts = dict(zip(PROFILE_NAMES, ((0,), (1,), (1 + basis.dims,), (2, 3), (1, 2), (1,))))
    if name not in counts:
        raise ValueError(f"unknown profile {name!r} (expected one of {PROFILE_NAMES})")
    if len(args) not in counts[name]:
        raise ValueError(f"bad profile {text!r}: {name} takes "
                         f"{' or '.join(map(str, counts[name]))} arguments, got {len(args)}")
    try:
        if name == "zero":
            return np.zeros(basis.grid_shape)
        if name == "constant":
            return float(args[0]) * np.ones(basis.grid_shape)
        if name == "cosine":
            amp = float(args[0])
            return _cosine(basis, amp, tuple(int(a) for a in args[1:]))
        if name == "tanh":
            amp = float(args[0])
            width = float(args[1])
            center = float(args[2]) if len(args) > 2 else 0.5
            if width <= 0:
                raise ValueError("tanh width must be positive")
            return _tanh_front(basis, amp, width, center)
        if name == "random-smooth":
            amp = float(args[0])
            decay = float(args[1]) if len(args) > 1 else 0.35
            if not 0 <= decay < math.inf:
                raise ValueError("random-smooth decay must be nonnegative and finite")
            if rng is None:
                rng = np.random.default_rng(0)
            return _random_smooth(basis, amp, decay, rng)
        if name == "csv":
            if basis.dims != 1:
                raise ValueError("csv profiles are only supported in 1D")
            with warnings.catch_warnings():
                # an empty file is refused below, without numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(args[0], delimiter=",", ndmin=2)
            if not data.size:
                raise ValueError(f"{args[0]} holds no rows")
            # np.interp assumes increasing x; NaN or a repeated x fails here too
            if not np.all(np.diff(data[:, 0]) > 0):
                raise ValueError("the x column must be strictly increasing")
            return np.interp(basis.nodes[0], data[:, 0], data[:, 1])
    except (IndexError, ValueError, OSError) as exc:
        raise ValueError(f"bad profile {text!r}: {exc}") from exc
