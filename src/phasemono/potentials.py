"""Double-well potentials split into a convex part plus a Lipschitz perturbation.

Three variants are provided: the regular quartic well, the logarithmic well
on (-1, 1), and the obstacle well (indicator of [-1, 1]).  The convex part
``beta_hat`` is proper, lower semicontinuous and convex with beta_hat(0) = 0;
the perturbation derivative ``pi`` is linear, pi(r) = pi_slope * r, so it
is Lipschitz with the constant ``lipschitz_pi`` = |pi_slope|, and the
Galerkin projection of pi(phi_n) is exactly pi_slope * phi_n.  The Moreau
envelope of the convex part and its derivative (the Yosida map of the
subdifferential) are available for any eps > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monotone import SubdiffBetaHat

__all__ = ["PotentialSpec", "envelope"]


def _entropy(r):
    """(1+r)log(1+r) + (1-r)log(1-r) on [-1, 1] with 0*log(0) = 0,
    written with log1p for accuracy near r = 0 and clamped at the
    mathematically exact lower bound 0."""
    r = np.asarray(r, dtype=float)
    rp = np.where(1.0 + r > 0.0, r, 0.0)
    rm = np.where(1.0 - r > 0.0, r, 0.0)
    out = (np.where(1.0 + r > 0.0, (1.0 + r) * np.log1p(rp), 0.0)
           + np.where(1.0 - r > 0.0, (1.0 - r) * np.log1p(-rm), 0.0))
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class PotentialSpec:
    """A double-well potential F = beta_hat + (antiderivative of pi)."""

    variant: str
    c0: float = 0.0

    def __post_init__(self):
        if self.variant not in SubdiffBetaHat.VARIANTS:
            raise ValueError(f"unknown potential variant {self.variant!r}")
        if self.variant == "logarithmic" and not self.c0 > 1.0:
            raise ValueError("logarithmic potential needs c0 > 1 for a double well")
        if self.variant == "obstacle" and not self.c0 > 0.0:
            raise ValueError("obstacle potential needs c0 > 0")

    @property
    def domain(self):
        """Closure of the effective domain of the convex part."""
        return self.beta_graph().domain

    @property
    def pi_slope(self):
        """The slope of the linear pi: -1 for the quartic well, -2 c0 for
        the logarithmic and obstacle wells."""
        if self.variant == "regular":
            return -1.0
        return -2.0 * self.c0

    @property
    def lipschitz_pi(self):
        return abs(self.pi_slope)

    def beta_hat(self, r):
        """The convex part at r, elementwise; the quartic well's r^4/4 is
        formed by products, since on signed arrays ``r ** 4`` takes numpy's
        slow pow path."""
        r = np.asarray(r, dtype=float)
        if self.variant == "regular":
            r2 = r * r
            out = 0.25 * (r2 * r2)
        elif self.variant == "logarithmic":
            out = np.where(np.abs(r) <= 1.0, _entropy(np.clip(r, -1.0, 1.0)), math.inf)
        else:
            out = np.where(np.abs(r) <= 1.0, 0.0, math.inf)
        if np.ndim(r) == 0:
            return float(out)
        return out

    def pi(self, r):
        out = self.pi_slope * np.asarray(r, dtype=float)
        if np.ndim(r) == 0:
            return float(out)
        return out

    def beta_graph(self):
        return SubdiffBetaHat(self.variant)


def envelope(spec, eps, r):
    """Moreau envelope of the convex part:

        env(r) = beta_hat(R_eps r) + |r - R_eps r|^2 / (2 eps),

    where R_eps is the resolvent of the subdifferential.  Globally finite,
    differentiable with derivative equal to the Yosida map, and squeezed
    between 0 and beta_hat on the effective domain.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    graph = spec.beta_graph()
    r_arr = np.asarray(r, dtype=float)
    prox = np.asarray(graph.resolvent(eps, r_arr), dtype=float)
    out = spec.beta_hat(prox) + (r_arr - prox) ** 2 / (2.0 * eps)
    if np.ndim(r) == 0:
        return float(out)
    return out
