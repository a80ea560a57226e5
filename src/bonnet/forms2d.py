"""Discrete exterior calculus on a rectangular (s, t) grid.

Scalar fields and 1-forms sampled at the nodes of a uniform grid, plus
the operations needed to turn differential-geometric identities into
grid residuals: exterior derivative, wedge product, Hodge star of
1-forms (*ds = dt, *dt = -ds), pointwise decomposition in a moving
coframe, and the flat Laplacian.  A 2-form r ds^dt is held as its
coefficient r, a ScalarField, so d_oneform and wedge return one.

All derivative stencils are second order: central differences in the
interior, one-sided second-order formulas at the boundary rows.
Residual norms are taken over interior nodes only, because boundary
stencils pollute convergence rates.
DataError, the base of the pipeline's bad-data errors, lives here, as
this module imports nothing from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "OneForm",
    "DataError",
    "CoframeSingularError",
    "NonFiniteFieldError",
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

# |det| at or below 1e-12 * (max coframe component)^2 means the coframe does not
# invert reliably at that node; _coframe_det refuses it, never regularizes.
DET_RTOL = 1e-12

# rows per block that _write_rows formats and writes at once: enough that
# the per-block numpy calls cost little per value, few enough that a block
# of 6 float columns peaks at about 1 MB, so no file is held whole
ROWS_PER_WRITE = 1024


class DataError(Exception):
    """Data the construction cannot take (the CLI exits 2 on it).  It keeps the
    positional arguments it was made with and pickles by them, so it crosses from
    a forked child as it was raised, whatever fields a subclass derives from them."""

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self._made_with = args
        return self

    def __reduce__(self):
        return type(self), self._made_with, vars(self)


class CoframeSingularError(DataError, ValueError):
    """Coframe determinant too small to invert at some node."""

    def __init__(self, index, det, scale):
        self.index = tuple(int(k) for k in index)
        self.det = float(det)
        self.scale = float(scale)
        super().__init__(
            f"coframe is numerically singular at node {self.index}: "
            f"|det| = {abs(det):.3e} <= {DET_RTOL:g} * max(component)^2 = "
            f"{DET_RTOL * scale * scale:.3e}"
        )


class NonFiniteFieldError(DataError, ValueError):
    """A scalar field sample is nan or infinite, such as where the data overflow."""

    def __init__(self, index, s, t, value):
        self.index = tuple(int(k) for k in index)
        self.s, self.t, self.value = float(s), float(t), float(value)
        super().__init__(
            f"scalar field is {self.value} at node {self.index} "
            f"(s = {self.s:.17g}, t = {self.t:.17g}): the data do not stay finite on this grid"
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
    """values as a read-only float array.  A C-ordered float array that owns
    its data and is read-only already (see _adopt) is kept, not copied."""
    if (values.dtype == float and values.base is None and values.flags.c_contiguous
            and not values.flags.writeable):
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _adopt(grid: Grid, values: np.ndarray) -> "ScalarField":
    """ScalarField(grid, values) for a float array just computed that nothing
    else holds: it is frozen in place rather than copied."""
    values.setflags(write=False)
    return ScalarField(grid, values)


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
            index = tuple(np.argwhere(~np.isfinite(vals))[0])  # first in C order
            g = self.grid
            raise NonFiniteFieldError(index, g.s_nodes()[index[0]], g.t_nodes()[index[1]],
                                      vals[index])
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
        return _adopt(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _adopt(self.grid, self.values - self._coerce(other))

    def __mul__(self, other):
        return _adopt(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return _adopt(self.grid, -self.values)

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


def _grad(grid: Grid, values):
    """(d/ds, d/dt) of node values, componentwise over trailing axes: (x_s, x_t) of x."""
    return (np.gradient(values, grid.h_s, axis=0, edge_order=2),
            np.gradient(values, grid.h_t, axis=1, edge_order=2))


def d_scalar(f: ScalarField) -> OneForm:
    """Exterior derivative df = f_s ds + f_t dt."""
    g = f.grid
    p, q = _grad(g, f.values)
    return OneForm(_adopt(g, p), _adopt(g, q))


def d_oneform(w: OneForm) -> ScalarField:
    """d(p ds + q dt) = (q_s - p_t) ds^dt, as its coefficient q_s - p_t."""
    g = w.grid
    q_s = np.gradient(w.q.values, g.h_s, axis=0, edge_order=2)
    p_t = np.gradient(w.p.values, g.h_t, axis=1, edge_order=2)
    return _adopt(g, q_s - p_t)


def wedge(w1: OneForm, w2: OneForm) -> ScalarField:
    """w1 ^ w2 = (p1 q2 - q1 p2) ds^dt, as its coefficient.  Antisymmetric,
    no derivatives."""
    r = w1.p.values * w2.q.values - w1.q.values * w2.p.values
    return _adopt(w1.grid, r)


def hodge(w: OneForm) -> OneForm:
    """Hodge star on 1-forms: *(p ds + q dt) = -q ds + p dt, so ** = -1."""
    return OneForm(-w.q, w.p)


def _coframe_det(c1: OneForm, c2: OneForm) -> np.ndarray:
    """The determinant of the coframe (c1, c2) at every node, the coefficient of c1 ^ c2.

    Raises CoframeSingularError at the first node where
    |det| <= DET_RTOL * (max component there)^2, which includes a node where
    the coframe vanishes; degenerate coframes are an error, never regularized.
    """
    det = wedge(c1, c2).values
    p1, q1 = c1.p.values, c1.q.values
    p2, q2 = c2.p.values, c2.q.values
    scale = np.maximum(np.maximum(np.abs(p1), np.abs(q1)), np.maximum(np.abs(p2), np.abs(q2)))
    bad = np.abs(det) <= DET_RTOL * scale * scale
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        raise CoframeSingularError(idx, det[idx], scale[idx])
    return det


def decompose_in_coframe(w: OneForm, c1: OneForm, c2: OneForm):
    """Solve w = f1 c1 + f2 c2 pointwise for scalar fields (f1, f2).

    Raises CoframeSingularError where _coframe_det finds the coframe singular.
    """
    g = w.grid
    if c1.grid != g or c2.grid != g:
        raise ValueError("coframe and form live on different grids")
    det = _coframe_det(c1, c2)
    p1, q1 = c1.p.values, c1.q.values
    p2, q2 = c2.p.values, c2.q.values
    f1 = (w.p.values * q2 - w.q.values * p2) / det
    f2 = (p1 * w.q.values - q1 * w.p.values) / det
    return _adopt(g, f1), _adopt(g, f2)


# a spacing whose square underflows gives inf or nan quietly; laplacian's field then
# raises NonFiniteFieldError, which names the node
@np.errstate(divide="ignore", invalid="ignore")
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
    return _adopt(g, out)


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


def observed_order(hs, residuals):
    """Least-squares slope of log(residual) vs log(h) over the positive
    residuals, or None when fewer than two are positive (no measurable rate).
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if hs.shape != rs.shape or hs.size < 2:
        raise ValueError("need matching h and residual sequences, length >= 2")
    keep = rs > 0.0
    if np.count_nonzero(keep) < 2:
        return None
    slope = np.polyfit(np.log(hs[keep]), np.log(rs[keep]), 1)[0]
    return float(slope)


def _write_rows(fh, rows, sep: str = ",", prefix: str = "") -> None:
    """Write a 2-D array one row per line: prefix, then columns joined by sep.

    Integers get the bytes "%d" gives, floats those "%.17g" gives: 17
    significant digits that read back exactly.  Both come from
    bonnet.text17 a block at a time.  The newline mode fh was opened with
    sets the line ending.
    """
    from .text17 import format_int_rows, format_rows  # on first use: see its docstring

    encode = format_int_rows if rows.dtype.kind in "iu" else format_rows
    for k in range(0, rows.shape[0], ROWS_PER_WRITE):
        fh.write(encode(rows[k:k + ROWS_PER_WRITE], sep, prefix).decode("ascii"))


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
