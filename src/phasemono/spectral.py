"""Neumann cosine eigenbasis on intervals and rectangles.

Modes are the eigenfunctions of the Laplacian with homogeneous Neumann
boundary conditions on [0, L] (tensorized for rectangles):

    v_0 = 1/sqrt(L),    v_i(x) = sqrt(2/L) cos(i pi x / L),
    lambda_i = (i pi / L)^2,

H-orthonormal by construction.  Grid transforms use the midpoint collocation
grid x_m = (m + 1/2) L / M, whose quadrature integrates cos(k pi x / L)
exactly for k < 2M, so all mode-times-mode products are exact once M >= n.
Nonlinear terms are dealiased by requiring M >= 2n.

Coefficients may refer to the H-normalized family (default) or to the
V-normalized one (each mode scaled to unit V-norm); ``amp`` holds the
per-mode amplitude relative to the H-orthonormal modes and ``mass`` the
resulting diagonal Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralBasis",
    "build_basis",
    "to_grid",
    "from_grid",
    "norms",
    "h_norm",
    "v_norm",
    "w_norm",
    "laplacian_coeffs",
    "grid_integral",
    "embed_coeffs",
]


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    dims: int
    lengths: tuple
    n: int
    normalization: str
    m_quad: int
    eigenvalues: np.ndarray
    amp: np.ndarray
    mass: np.ndarray
    nodes: tuple
    spacings: tuple
    cell: float
    mats: tuple = field(repr=False)

    @property
    def total_modes(self):
        return self.n ** self.dims

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    @property
    def grid_shape(self):
        return (self.m_quad,) * self.dims


def build_basis(dims, lengths, n, normalization="h", m_quad=None):
    """Build the truncated Neumann eigenbasis with n modes per dimension."""
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    if np.ndim(lengths) == 0:
        lengths = (float(lengths),) * dims
    lengths = tuple(float(L) for L in lengths)
    if len(lengths) != dims or any(L <= 0 for L in lengths):
        raise ValueError("need one positive length per dimension")
    if n < 1:
        raise ValueError("need at least one mode")
    if m_quad is None:
        m_quad = 2 * n
    if m_quad < 2 * n:
        raise ValueError("quadrature grid must have at least 2n points per dimension")
    if normalization not in ("h", "v"):
        raise ValueError("normalization must be 'h' or 'v'")

    nodes, mats, lam1d, spacings = [], [], [], []
    for L in lengths:
        h = L / m_quad
        x = (np.arange(m_quad) + 0.5) * h
        i = np.arange(n)
        lam = (i * math.pi / L) ** 2
        mat = np.sqrt(2.0 / L) * np.cos(np.outer(x, i) * (math.pi / L))
        mat[:, 0] = 1.0 / math.sqrt(L)
        nodes.append(x)
        mats.append(mat)
        lam1d.append(lam)
        spacings.append(h)

    if dims == 1:
        eig = lam1d[0]
    else:
        eig = np.add.outer(lam1d[0], lam1d[1]).ravel()
    amp = np.ones_like(eig) if normalization == "h" else 1.0 / np.sqrt(1.0 + eig)
    return SpectralBasis(
        dims=dims, lengths=lengths, n=int(n), normalization=normalization,
        m_quad=int(m_quad), eigenvalues=eig, amp=amp, mass=amp * amp,
        nodes=tuple(nodes), spacings=tuple(spacings),
        cell=float(np.prod(spacings)), mats=tuple(mats))


def to_grid(basis, coeffs):
    """Evaluate a coefficient vector on the quadrature grid."""
    c = np.asarray(coeffs, dtype=float) * basis.amp
    if basis.dims == 1:
        return basis.mats[0] @ c
    cm = c.reshape(basis.n, basis.n)
    return basis.mats[0] @ cm @ basis.mats[1].T


def from_grid(basis, values):
    """Quadrature inner products against the basis, i.e. the discrete
    H-orthogonal projection onto the span of the modes."""
    values = np.asarray(values, dtype=float)
    if basis.dims == 1:
        if values.shape != (basis.m_quad,):
            raise ValueError("grid size mismatch")
        ch = (basis.mats[0].T @ values) * basis.spacings[0]
        return ch / basis.amp
    if values.shape != basis.grid_shape:
        raise ValueError("grid size mismatch")
    ch = basis.cell * (basis.mats[0].T @ values @ basis.mats[1])
    return ch.ravel() / basis.amp


def norms(basis, coeffs):
    """Return (H-norm, V-norm, Dirichlet energy) of a coefficient vector."""
    c = np.asarray(coeffs, dtype=float)
    h2 = float(np.sum(basis.mass * c * c))
    dirichlet = float(np.sum(basis.mass * basis.eigenvalues * c * c))
    return math.sqrt(h2), math.sqrt(h2 + dirichlet), dirichlet


def h_norm(basis, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return math.sqrt(float(np.sum(basis.mass * c * c)))


def v_norm(basis, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return math.sqrt(float(np.sum(basis.mass * (1.0 + basis.eigenvalues) * c * c)))


def w_norm(basis, coeffs):
    """Spectral H^2-type norm (squares of value, gradient and Laplacian)."""
    c = np.asarray(coeffs, dtype=float)
    lam = basis.eigenvalues
    return math.sqrt(float(np.sum(basis.mass * (1.0 + lam + lam * lam) * c * c)))


def laplacian_coeffs(basis, coeffs):
    """Coefficients of the Laplacian of the represented field (diagonal)."""
    return -basis.eigenvalues * np.asarray(coeffs, dtype=float)


def grid_integral(basis, values):
    """Midpoint quadrature of a grid function over the domain."""
    return basis.cell * float(np.sum(values))


def embed_coeffs(src, dst, coeffs):
    """Embed coefficients of a coarser basis into a finer one (same domain,
    same normalization, dst.n >= src.n)."""
    if src.lengths != dst.lengths or src.dims != dst.dims:
        raise ValueError("bases live on different domains")
    if src.normalization != dst.normalization:
        raise ValueError("bases use different normalizations")
    if dst.n < src.n:
        raise ValueError("destination basis is coarser than the source")
    c = np.asarray(coeffs, dtype=float)
    if src.dims == 1:
        ch = np.zeros(dst.n)
        ch[: src.n] = c * src.amp
        return ch / dst.amp
    ch = np.zeros((dst.n, dst.n))
    ch[: src.n, : src.n] = (c * src.amp).reshape(src.n, src.n)
    return ch.ravel() / dst.amp

