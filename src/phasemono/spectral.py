"""Neumann cosine eigenbasis on intervals and rectangles.

Modes are the eigenfunctions of the Laplacian with homogeneous Neumann
boundary conditions on [0, L] (tensorized for rectangles):

    v_0 = 1/sqrt(L),    v_i(x) = sqrt(2/L) cos(i pi x / L),
    lambda_i = (i pi / L)^2,

H-orthonormal by construction, and coefficients always refer to these
modes, so the H-norm of a field is the Euclidean norm of its coefficients.
Grid transforms use the midpoint collocation grid x_m = (m + 1/2) L / M,
whose quadrature integrates cos(k pi x / L) exactly for k < 2M, so all
mode-times-mode products are exact once M >= n.  Nonlinear terms are
dealiased by requiring M >= 2n.
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
    "h_norm",
    "v_norm",
    "w_norm",
    "grid_integral",
    "embed_coeffs",
]


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    dims: int
    lengths: tuple
    n: int
    m_quad: int
    eigenvalues: np.ndarray
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


def build_basis(dims, lengths, n, m_quad=None):
    """Build the truncated Neumann eigenbasis with n modes per dimension."""
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    if np.ndim(lengths) == 0:
        lengths = (float(lengths),) * dims
    lengths = tuple(float(L) for L in lengths)
    if len(lengths) != dims or not all(L > 0 for L in lengths):
        raise ValueError("need one positive length per dimension")
    if n < 1:
        raise ValueError("need at least one mode")
    if m_quad is None:
        m_quad = 2 * n
    if m_quad < 2 * n:
        raise ValueError("quadrature grid must have at least 2n points per dimension")

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
    return SpectralBasis(
        dims=dims, lengths=lengths, n=int(n), m_quad=int(m_quad),
        eigenvalues=eig, nodes=tuple(nodes), spacings=tuple(spacings),
        cell=float(np.prod(spacings)), mats=tuple(mats))


def to_grid(basis, coeffs):
    """Evaluate a coefficient vector on the quadrature grid.

    Leading axes are carried through: coefficients of shape (B, m) give B
    grids, and of shape (2, B, m) two stacks of B grids.  In 1D they are
    flattened into the rows of one matrix product."""
    c = np.asarray(coeffs, dtype=float)
    if basis.dims == 1:
        rows = c.reshape(-1, basis.n) @ basis.mats[0].T
        return rows.reshape(c.shape[:-1] + basis.grid_shape)
    cm = c.reshape(c.shape[:-1] + (basis.n, basis.n))
    return basis.mats[0] @ cm @ basis.mats[1].T


def from_grid(basis, values):
    """Quadrature inner products against the basis, i.e. the discrete
    H-orthogonal projection onto the span of the modes.  Leading axes are
    carried through, as in :func:`to_grid`."""
    values = np.asarray(values, dtype=float)
    if values.shape[values.ndim - basis.dims:] != basis.grid_shape:
        raise ValueError("grid size mismatch")
    if basis.dims == 1:
        rows = values.reshape(-1, basis.m_quad) @ basis.mats[0]
        return rows.reshape(values.shape[:-1] + (basis.n,)) * basis.spacings[0]
    ch = basis.cell * (basis.mats[0].T @ values @ basis.mats[1])
    return ch.reshape(ch.shape[:-2] + (-1,))


# The norms reduce over the last axis: a vector gives a float, and a stack
# of shape (B, m) the B norms of its rows, as in :func:`to_grid`.

def _root(sq):
    return math.sqrt(float(sq)) if np.ndim(sq) == 0 else np.sqrt(sq)


def h_norm(basis, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return _root(np.sum(c * c, axis=-1))


def v_norm(basis, coeffs):
    c = np.asarray(coeffs, dtype=float)
    return _root(np.sum((1.0 + basis.eigenvalues) * c * c, axis=-1))


def w_norm(basis, coeffs):
    """Spectral H^2-type norm (squares of value, gradient and Laplacian)."""
    c = np.asarray(coeffs, dtype=float)
    lam = basis.eigenvalues
    return _root(np.sum((1.0 + lam + lam * lam) * c * c, axis=-1))


def grid_integral(basis, values):
    """Midpoint quadrature of a grid function over the domain."""
    return basis.cell * float(np.sum(values))


def embed_coeffs(src, dst, coeffs):
    """Embed coefficients of a coarser basis into a finer one (same domain,
    dst.n >= src.n).  A leading member axis is carried through, as in
    :func:`to_grid`."""
    if src.lengths != dst.lengths or src.dims != dst.dims:
        raise ValueError("bases live on different domains")
    if dst.n < src.n:
        raise ValueError("destination basis is coarser than the source")
    c = np.asarray(coeffs, dtype=float)
    lead = c.shape[:-1]
    ch = np.zeros(lead + (dst.n,) * src.dims)
    if src.dims == 1:
        ch[..., : src.n] = c
    else:
        ch[..., : src.n, : src.n] = c.reshape(lead + (src.n, src.n))
    return ch.reshape(lead + (-1,))
