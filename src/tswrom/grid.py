"""Periodic uniform grid and centered-difference operators.

Scalar fields live on an n-by-n doubly periodic grid and are stored as flat
vectors of length N = n^2 ordered bottom-to-top within each column of nodes,
columns left to right: entry m = i*n + j holds w(x_i, y_j), so the y index j
is the fastest. With that ordering the x derivative couples whole blocks and
the y derivative acts inside blocks,

    Dx = (1 / 2dx) (C_n kron I_n),   Dy = (1 / 2dy) (I_n kron C_n),

where C_n is the circulant centered-difference stencil (+1 super-, -1
subdiagonal, wrapped corners). Both operators are exactly skew-symmetric and
annihilate constants, which the conservation results downstream rely on.

The derivatives are applied as periodic slice differences on the (n, n[, m])
view of a field (x along axis 0, y along axis 1); no matrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "DiffOps", "build_grid", "build_diff_ops", "apply_dx", "apply_dy",
           "centered_x", "centered_y"]


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n periodic grid on the rectangle [a, b) x [c, d)."""

    n: int
    extent: tuple[float, float, float, float]

    @property
    def N(self) -> int:
        return self.n * self.n

    @property
    def lx(self) -> float:
        return self.extent[1] - self.extent[0]

    @property
    def ly(self) -> float:
        return self.extent[3] - self.extent[2]

    @property
    def dx(self) -> float:
        return self.lx / self.n

    @property
    def dy(self) -> float:
        return self.ly / self.n

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def x(self) -> np.ndarray:
        """Node x coordinates, length n."""
        return self.extent[0] + self.dx * np.arange(self.n)

    @property
    def y(self) -> np.ndarray:
        """Node y coordinates, length n."""
        return self.extent[2] + self.dy * np.arange(self.n)

    def meshcoords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat coordinate vectors (length N) in grid ordering."""
        return np.repeat(self.x, self.n), np.tile(self.y, self.n)


@dataclass(frozen=True)
class DiffOps:
    """The centered-difference operators of a grid, applied by apply_dx and
    apply_dy."""

    grid: Grid


def build_grid(n: int, extent: tuple[float, float, float, float]) -> Grid:
    if n < 3:
        raise ValueError(f"need n >= 3 for a centered periodic stencil, got n={n}")
    a, b, c, d = extent
    if not (b > a and d > c):
        raise ValueError(f"degenerate extent {extent}")
    return Grid(n=int(n), extent=(float(a), float(b), float(c), float(d)))


def build_diff_ops(grid: Grid) -> DiffOps:
    """The x/y derivative operators of a grid."""
    return DiffOps(grid=grid)


def _checked(ops: DiffOps, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w)
    if w.shape[0] != ops.grid.N:
        raise ValueError(f"field has length {w.shape[0]}, grid has N={ops.grid.N}")
    return w


def centered_x(w: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """out = scale (w[i+1] - w[i-1]) along axis 0 (x), periodic in i.

    w and out are (n, n[, m]) views of flat fields; out must be C-contiguous
    and must not overlap w. With scale = 1/(2 dx) this is Dx."""
    np.subtract(w[2:], w[:-2], out=out[1:-1])
    np.subtract(w[1], w[-1], out=out[0])
    np.subtract(w[0], w[-2], out=out[-1])
    out *= scale
    return out


def centered_y(w: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """centered_x along axis 1 (y); with scale = 1/(2 dy) this is Dy."""
    if not out.flags.c_contiguous:
        raise ValueError("centered_y writes through a flat view: out must be C-contiguous")
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


def _apply(ops: DiffOps, w: np.ndarray, stencil, delta: float) -> np.ndarray:
    w = _checked(ops, w)
    n = ops.grid.n
    shape = (n, n) + w.shape[1:]
    out = np.empty(w.shape)
    stencil(np.reshape(w, shape), out.reshape(shape), 0.5 / delta)
    return out


def apply_dx(ops: DiffOps, w: np.ndarray) -> np.ndarray:
    """Centered periodic x derivative of a flat field (N,) or columns (N, m)."""
    return _apply(ops, w, centered_x, ops.grid.dx)


def apply_dy(ops: DiffOps, w: np.ndarray) -> np.ndarray:
    """Centered periodic y derivative of a flat field (N,) or columns (N, m)."""
    return _apply(ops, w, centered_y, ops.grid.dy)
