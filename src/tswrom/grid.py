"""Periodic uniform grid and centered-difference operators.

Scalar fields live on an n-by-n doubly periodic grid over the square
[0, length)^2, with node spacing dx = length / n along both axes, and are
stored as flat vectors of length N = n^2 ordered bottom-to-top within each
column of nodes, columns left to right: entry m = i*n + j holds
w(x_i, y_j), so the y index j is the fastest. With that ordering the x
derivative couples whole blocks and the y derivative acts inside blocks,

    Dx = (1 / 2dx) (C_n kron I_n),   Dy = (1 / 2dx) (I_n kron C_n),

where C_n is the circulant centered-difference stencil (+1 super-, -1
subdiagonal, wrapped corners). Both operators are exactly skew-symmetric and
annihilate constants, which the conservation results downstream rely on.

The derivatives are applied as periodic slice differences on the (n, n[, m])
view of a field (x along axis 0, y along axis 1); no matrix is assembled, so
the Grid is the whole operator: every function that differentiates takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "build_grid", "apply_dx", "apply_dy", "centered_x", "centered_y"]


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n periodic grid on the square [0, length)^2. It is all
    the difference operators need: apply_dx and apply_dy take it."""

    n: int
    length: float

    @property
    def N(self) -> int:
        return self.n * self.n

    @property
    def dx(self) -> float:
        """Node spacing, the same along x and y."""
        return self.length / self.n

    @property
    def cell_area(self) -> float:
        return self.dx * self.dx

    @property
    def x(self) -> np.ndarray:
        """Node coordinates along either axis, length n."""
        return self.dx * np.arange(self.n)

    def meshcoords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat coordinate vectors (length N) in grid ordering."""
        return np.repeat(self.x, self.n), np.tile(self.x, self.n)


def build_grid(n: int, length: float) -> Grid:
    if n < 3:
        raise ValueError(f"need n >= 3 for a centered periodic stencil, got n={n}")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"domain length must be positive and finite, got {length}")
    return Grid(n=int(n), length=float(length))


def build_diff_ops(grid: Grid) -> Grid:
    """The grid itself, which apply_dx and apply_dy take. Nothing in the
    package calls this; it stays because perfbench calls and times it."""
    return grid


def _checked(grid: Grid, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w)
    if w.shape[0] != grid.N:
        raise ValueError(f"field has length {w.shape[0]}, grid has N={grid.N}")
    return w


def centered_x(w: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """out = scale (w[i+1] - w[i-1]) along axis 0 (x), periodic in i.

    w and out are (n, n[, m]) views of flat fields; out must not overlap w.
    With scale = 1/(2 dx) this is Dx."""
    np.subtract(w[2:], w[:-2], out=out[1:-1])
    np.subtract(w[1], w[-1], out=out[0])
    np.subtract(w[0], w[-2], out=out[-1])
    out *= scale
    return out


def centered_y(w: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """centered_x along axis 1 (y); with scale = 1/(2 dx) this is Dy. out's
    two grid axes must merge into one, as in C order or a state-major batch."""
    if out.strides[0] != out.shape[1] * out.strides[1]:
        raise ValueError("centered_y writes through a flat view: out's grid axes must merge")
    n = w.shape[0]
    flat_w = np.reshape(w, (n * n,) + w.shape[2:])
    flat_out = out.reshape(flat_w.shape)
    # one shifted pass over the flat field is right for every interior j;
    # the two periodic ends of each x row are then overwritten
    np.subtract(flat_w[2:], flat_w[:-2], out=flat_out[1:-1])
    np.subtract(w[:, 1], w[:, -1], out=out[:, 0])
    np.subtract(w[:, 0], w[:, -2], out=out[:, -1])
    out *= scale
    return out


def _apply(grid: Grid, w: np.ndarray, stencil) -> np.ndarray:
    w = _checked(grid, w)
    n = grid.n
    shape = (n, n) + w.shape[1:]
    out = np.empty(w.shape)
    stencil(np.reshape(w, shape), out.reshape(shape), 0.5 / grid.dx)
    return out


def apply_dx(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Centered periodic x derivative of a flat field (N,) or columns (N, m)."""
    return _apply(grid, w, centered_x)


def apply_dy(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Centered periodic y derivative of a flat field (N,) or columns (N, m)."""
    return _apply(grid, w, centered_y)
