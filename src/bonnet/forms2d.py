"""Discrete exterior calculus on a rectangular (s, t) grid.

Scalar fields, 1-forms and 2-forms sampled at the nodes of a uniform
grid, plus the operations needed to turn differential-geometric
identities into grid residuals: exterior derivative, wedge product,
Hodge star of 1-forms (*ds = dt, *dt = -ds), pointwise decomposition in
a moving coframe, and the flat Laplacian.

All derivative stencils are second order: central differences in the
interior, one-sided second-order formulas at the boundary rows.
Residual norms are taken over interior nodes only, because boundary
stencils pollute convergence rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "OneForm",
    "TwoForm",
    "CoframeSingularError",
    "d_scalar",
    "d_oneform",
    "wedge",
    "hodge",
    "decompose_in_coframe",
    "laplacian",
    "mixed_partial_residual",
    "interior",
    "max_interior",
    "observed_order",
    "write_scalar_csv",
    "read_scalar_csv",
]

# |det| below 1e-12 * (max coframe component)^2 means the coframe does not
# invert reliably at that node; callers must refuse, not regularize.
DET_RTOL = 1e-12

# residuals at or below FLOOR_RTOL * scale at the finest levels are treated as
# converged when estimating observed orders (definitional identities sit at
# rounding level and carry no h-dependence).
FLOOR_RTOL = 1e-13

# rows per % format call and fh.write: enough to keep the per-row work in
# C, few enough that no output file is held in memory whole
ROWS_PER_WRITE = 4096


class CoframeSingularError(ValueError):
    """Coframe determinant too small to invert at some node."""

    def __init__(self, index, det, scale):
        self.index = tuple(int(k) for k in index)
        self.det = float(det)
        self.scale = float(scale)
        super().__init__(
            f"coframe is numerically singular at node {self.index}: "
            f"|det| = {abs(det):.3e} < {DET_RTOL:g} * max(component)^2 = "
            f"{DET_RTOL * scale * scale:.3e}"
        )


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid on [s_min, s_max] x [t_min, t_max].

    ns and nt count nodes (so ns - 1 cells along s).  At least 5 nodes
    per axis: the boundary stencils and convergence studies need them.
    """

    s_min: float
    s_max: float
    t_min: float
    t_max: float
    ns: int
    nt: int

    def __post_init__(self):
        for name in ("s_min", "s_max", "t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid bound {name} must be finite")
        if self.ns < 5 or self.nt < 5:
            raise ValueError("grid needs at least 5 nodes per axis")
        if not (self.s_max > self.s_min and self.t_max > self.t_min):
            raise ValueError("grid bounds must satisfy s_min < s_max, t_min < t_max")
        if not (0.0 < self.h_s < math.inf and 0.0 < self.h_t < math.inf):
            raise ValueError("grid spacing must be a positive finite number")

    @property
    def h_s(self) -> float:
        return (self.s_max - self.s_min) / (self.ns - 1)

    @property
    def h_t(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)

    @property
    def h_max(self) -> float:
        return max(self.h_s, self.h_t)

    @property
    def shape(self):
        return (self.ns, self.nt)

    def s_nodes(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.ns)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def mesh(self):
        """Node coordinate arrays S, T of shape (ns, nt), s along axis 0."""
        return np.meshgrid(self.s_nodes(), self.t_nodes(), indexing="ij")

    def refined(self, factor: int = 2) -> "Grid":
        """Same rectangle with each cell split, so spacings shrink exactly.

        factor 1 returns an identical grid, which keeps refinement
        sweeps uniform (factor 2**k for k = 0, 1, ...).
        """
        if factor < 1:
            raise ValueError("refinement factor must be >= 1")
        return Grid(
            self.s_min, self.s_max, self.t_min, self.t_max,
            (self.ns - 1) * factor + 1, (self.nt - 1) * factor + 1,
        )


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """Immutable scalar samples on a grid, shape (ns, nt), finite values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("scalar field contains non-finite values")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        S, T = grid.mesh()
        return cls(grid, np.asarray(fn(S, T), dtype=float))

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("scalar fields live on different grids")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def max_abs_interior(self, margin: int = 1) -> float:
        return max_interior(self.values, margin)


@dataclass(frozen=True)
class OneForm:
    """1-form p ds + q dt with scalar-field coefficients on one grid."""

    p: ScalarField
    q: ScalarField

    def __post_init__(self):
        if self.p.grid != self.q.grid:
            raise ValueError("1-form components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.p.grid

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "OneForm":
        return OneForm(-self.p, -self.q)

    def __mul__(self, other) -> "OneForm":
        # scalar or ScalarField multiplier
        return OneForm(self.p * other, self.q * other)

    __rmul__ = __mul__

    def max_abs_interior(self, margin: int = 1) -> float:
        return max(self.p.max_abs_interior(margin), self.q.max_abs_interior(margin))


@dataclass(frozen=True)
class TwoForm:
    """2-form r ds^dt."""

    r: ScalarField

    @property
    def grid(self) -> Grid:
        return self.r.grid

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.r + other.r)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.r - other.r)

    def __mul__(self, other) -> "TwoForm":
        return TwoForm(self.r * other)

    __rmul__ = __mul__

    def max_abs_interior(self, margin: int = 1) -> float:
        return self.r.max_abs_interior(margin)


def interior(values: np.ndarray, margin: int = 1) -> np.ndarray:
    """View of the array with `margin` rows/columns stripped on every side.

    Only the first two axes are trimmed (the only axis of a 1-D profile
    array), so trailing vector or matrix axes stay whole.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if margin == 0:
        return values
    if 2 * margin >= min(values.shape[:2]):
        raise ValueError(f"margin {margin} leaves no interior for shape {values.shape}")
    return values[(slice(margin, -margin),) * min(values.ndim, 2)]


def max_interior(values: np.ndarray, margin: int = 1) -> float:
    return float(np.max(np.abs(interior(values, margin))))


def d_scalar(f: ScalarField) -> OneForm:
    """Exterior derivative df = f_s ds + f_t dt (second-order stencils)."""
    g = f.grid
    p = np.gradient(f.values, g.h_s, axis=0, edge_order=2)
    q = np.gradient(f.values, g.h_t, axis=1, edge_order=2)
    return OneForm(ScalarField(g, p), ScalarField(g, q))


def d_oneform(w: OneForm) -> TwoForm:
    """d(p ds + q dt) = (q_s - p_t) ds^dt."""
    g = w.grid
    q_s = np.gradient(w.q.values, g.h_s, axis=0, edge_order=2)
    p_t = np.gradient(w.p.values, g.h_t, axis=1, edge_order=2)
    return TwoForm(ScalarField(g, q_s - p_t))


def wedge(w1: OneForm, w2: OneForm) -> TwoForm:
    """w1 ^ w2 = (p1 q2 - q1 p2) ds^dt.  Antisymmetric, no derivatives."""
    r = w1.p.values * w2.q.values - w1.q.values * w2.p.values
    return TwoForm(ScalarField(w1.grid, r))


def hodge(w: OneForm) -> OneForm:
    """Hodge star on 1-forms: *(p ds + q dt) = -q ds + p dt, so ** = -1."""
    return OneForm(-w.q, w.p)


def decompose_in_coframe(w: OneForm, c1: OneForm, c2: OneForm):
    """Solve w = f1 c1 + f2 c2 pointwise for scalar fields (f1, f2).

    Raises CoframeSingularError at the first node where the coframe
    determinant falls below the inversion tolerance; degenerate coframes
    are an error, never regularized.
    """
    g = w.grid
    if c1.grid != g or c2.grid != g:
        raise ValueError("coframe and form live on different grids")
    p1, q1 = c1.p.values, c1.q.values
    p2, q2 = c2.p.values, c2.q.values
    det = p1 * q2 - q1 * p2
    scale = np.max(
        np.abs(np.stack([p1, q1, p2, q2])), axis=0
    )
    bad = np.abs(det) < DET_RTOL * scale * scale
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise CoframeSingularError(idx, det[tuple(idx)], scale[tuple(idx)])
    f1 = (w.p.values * q2 - w.q.values * p2) / det
    f2 = (p1 * w.q.values - q1 * w.p.values) / det
    return ScalarField(g, f1), ScalarField(g, f2)


def _second_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along an axis; central interior, one-sided edges.

    Both stencils are exact on cubics (the one-sided 4-point formula's
    h^3 error term cancels), so the result is O(h^2) everywhere.
    """
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def laplacian(f: ScalarField) -> ScalarField:
    """Flat Laplacian f_ss + f_tt (5-point stencil in the interior)."""
    g = f.grid
    out = _second_derivative(f.values, g.h_s, 0) + _second_derivative(f.values, g.h_t, 1)
    return ScalarField(g, out)


def mixed_partial_residual(f: ScalarField, c1: OneForm, c2: OneForm) -> ScalarField:
    """Commutator residual f_21 - f_12 + f_2 for df = f_1 c1 + f_2 c2.

    In a coframe with dc1 = 0 and dc2 = c1 ^ c2, d^2 f = 0 forces this
    combination to vanish; on the grid it decays at the FD rate.  The
    second index denotes the derivative taken second.
    """
    f1, f2 = decompose_in_coframe(d_scalar(f), c1, c2)
    f12 = decompose_in_coframe(d_scalar(f1), c1, c2)[1]
    f21 = decompose_in_coframe(d_scalar(f2), c1, c2)[0]
    return f21 - f12 + f2


def observed_order(hs, residuals, floor: float = 0.0):
    """Least-squares slope of log(residual) vs log(h).

    Returns math.inf when the finest residuals sit at or below `floor`
    (nothing left to converge), and None when fewer than two levels rise
    above the floor (no measurable rate).
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if hs.shape != rs.shape or hs.size < 2:
        raise ValueError("need matching h and residual sequences, length >= 2")
    if np.all(rs[-2:] <= floor):
        return math.inf
    keep = rs > max(floor, 0.0)
    if np.count_nonzero(keep) < 2:
        return None
    slope = np.polyfit(np.log(hs[keep]), np.log(rs[keep]), 1)[0]
    return float(slope)


def _write_rows(fh, rows, sep: str = ",", prefix: str = "") -> None:
    """Write a 2-D array one row per line: prefix, then columns joined by sep.

    Floats get 17 significant digits, so they read back exactly.  The
    newline mode fh was opened with sets the line ending.
    """
    field = "%d" if rows.dtype.kind in "iu" else "%.17g"
    line = prefix + sep.join([field] * rows.shape[1]) + "\n"
    for k in range(0, rows.shape[0], ROWS_PER_WRITE):
        block = rows[k:k + ROWS_PER_WRITE]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def write_scalar_csv(f: ScalarField, path, value_name: str = "value") -> None:
    """Write nodes row-major (s outer, t inner), 17 significant digits, CRLF."""
    s, t = f.grid.mesh()
    with open(path, "w", newline="\r\n") as fh:
        fh.write(f"s,t,{value_name}\n")
        _write_rows(fh, np.column_stack([s.ravel(), t.ravel(), f.values.ravel()]))


def read_scalar_csv(path) -> ScalarField:
    """Rebuild a ScalarField from write_scalar_csv output."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    s = np.unique(data[:, 0])
    t = np.unique(data[:, 1])
    grid = Grid(s[0], s[-1], t[0], t[-1], s.size, t.size)
    values = data[:, 2].reshape(s.size, t.size)
    return ScalarField(grid, values)
