"""Coframes, the moving frame, and the isometric deformation family.

The profile supplies s-dependent scalars (e, A, B, C, H, J, Q) and the
rotation angle field psi(s, t) supplies the twist.  Out of these we
build the orthonormal coframe

    omega1 = e (cos(psi) ds - sin(psi) dt)
    omega2 = e (sin(psi) ds + cos(psi) dt)

with connection form omega12 = xi12 - d(psi), where xi12 = *d(log e)
is the connection of the untwisted conformal coframe e (ds, dt).
A CoframeSet holds the profile and psi with the coframes built from them,
and every function that takes one reads the profile and psi from it, so
no call can pair a set with another profile.  Every structure identity
of the construction is exposed as a grid residual, the frame
(x, e1, e2, e3) is marched from the identity at the origin, and the
one-parameter family of
isometric, mean-curvature preserving companions is produced by rotating
the coframe with the angle tau(s, t) that solves
d(cot tau) = cot(tau) alpha1 - alpha2, marched as tau, which has no
poles.  The fundamental forms of every surface, algebraic
(fundamental_forms) or read off a frame march by finite differences
(fd_forms), are one Forms type, and forms_deviation compares two of them.

Frames are stored as rows of a 3x3 matrix per node, so the structure
system reads dE = Omega E with Omega skew; each step multiplies by the
exact rotation exp(trapezoid integral of Omega), which keeps the frame
orthonormal to rounding no matter how long the march is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bonnet_solver import MARGIN, SurfaceProfile
from .forms2d import (
    DataError,
    Grid,
    OneForm,
    ScalarField,
    _adopt,
    _coframe_det,
    _write_rows,
    d_oneform,
    d_scalar,
    hodge,
    max_interior,
    wedge,
)
from .q_family import ConsistencyError
from .rk4 import rk4_step, sweep

__all__ = [
    "FrameField",
    "FrameStepError",
    "CoframeSet",
    "Forms",
    "build_coframes",
    "theta12_form",
    "structure_residuals",
    "codazzi_summary_residuals",
    "theta12_report",
    "connection_from_coframe",
    "rotation_transform_residual",
    "scaling_transform_residual",
    "integrate_frame",
    "two_path_residual",
    "fundamental_forms",
    "fd_forms",
    "forms_deviation",
    "integrate_deformation",
    "build_deformed_surface",
    "mean_curvature_deviation",
    "deformation_report",
    "weingarten_residual",
    "export_obj",
]

MAX_STEP_ANGLE = 0.5
POLE_EPS = 1e-12
# grid rows per block of the frame reductions and the FD forms, which hold
# block-sized temporaries where whole-grid expressions would hold grid-sized ones
_BLOCK_ROWS = 32


class FrameStepError(DataError, ValueError):
    """A frame step would rotate by more than MAX_STEP_ANGLE; the grid is too coarse."""


def _profile_field(grid: Grid, arr) -> ScalarField:
    """Broadcast an s-only profile array across the t-direction."""
    col = np.asarray(arr, dtype=float)[:, None]
    return _adopt(grid, np.broadcast_to(col, grid.shape).copy())


def _reduce_rows(reduce, term, *arrays) -> float:
    """reduce (np.max or np.min) of term(*blocks) over blocks of _BLOCK_ROWS rows.

    The blocks' results are combined by `reduce` too, which keeps a NaN where
    the builtin max would drop it.  Each element of term's result depends on
    its own node only, so the value is that of reduce(term(*arrays)).
    """
    return float(reduce([
        reduce(term(*(a[i:i + _BLOCK_ROWS] for a in arrays)))
        for i in range(0, arrays[0].shape[0], _BLOCK_ROWS)
    ]))


def _gram_deviation(frames):
    # a contiguous transpose takes numpy's fast stacked-matmul loop: about 2x at 505^2
    return np.abs(frames @ np.ascontiguousarray(np.swapaxes(frames, -1, -2)) - np.eye(3))


def _det(frames):
    # a +inf det would hide from the min: read it as NaN, which the min keeps
    d = np.linalg.det(frames)
    d[np.isinf(d)] = np.nan
    return d


def _check_alignment(profile: SurfaceProfile, grid: Grid) -> None:
    s = grid.s_nodes()
    if profile.s.size != grid.ns:
        raise ValueError("profile sample count does not match grid.ns")
    scale = max(1.0, float(np.max(np.abs(s))))
    if float(np.max(np.abs(profile.s - s))) > 1e-10 * scale:
        raise ValueError("profile s-samples do not coincide with grid s-nodes")


@dataclass(frozen=True)
class FrameField:
    """Integrated immersion x and frame rows (e1, e2, e3) on the grid."""

    grid: Grid
    x: np.ndarray       # (ns, nt, 3)
    frames: np.ndarray  # (ns, nt, 3, 3), rows are e1, e2, e3

    def __post_init__(self):
        ns, nt = self.grid.shape
        if self.x.shape != (ns, nt, 3) or self.frames.shape != (ns, nt, 3, 3):
            raise ValueError("frame arrays do not match the grid shape")
        self.x.setflags(write=False)
        self.frames.setflags(write=False)

    @property
    def e3(self) -> np.ndarray:
        return self.frames[..., 2, :]

    def orthonormality_error(self) -> float:
        return _reduce_rows(np.max, _gram_deviation, self.frames)

    def min_handedness(self) -> float:
        """Smallest det of the frames, or NaN if a det is not finite."""
        return _reduce_rows(np.min, _det, self.frames)


def _rotated(w1: OneForm, w2: OneForm, c, s) -> tuple:
    """The coframe (w1, w2) rotated by the angle whose (cos, sin) is (c, s):
    (w1 c - w2 s, w1 s + w2 c).  c and s may carry a common scale."""
    return w1 * c - w2 * s, w1 * s + w2 * c


@dataclass(frozen=True)
class CoframeSet:
    """The coframes over psi's grid, each built on first read: omega = e R(psi) (ds, dt)
    with its connection omega12 = xi12 - d(psi), where xi12 = *d(log e), and theta and
    alpha, omega rotated by -psi and +psi and scaled by A.  alpha = Q R(2 psi) (ds, dt)
    is the flat coframe of the closed ideal, in which the psi rows decompose d(psi)."""

    profile: SurfaceProfile
    psi: ScalarField
    grid = property(lambda cf: cf.psi.grid)

    def __post_init__(self):
        _check_alignment(self.profile, self.grid)

    def _psi_rotation(self, f) -> tuple:
        """(f cos psi, f sin psi) for an s-only array f."""
        f2d, ang = np.broadcast_to(f[:, None], self.grid.shape), self.psi.values
        return _adopt(self.grid, f2d * np.cos(ang)), _adopt(self.grid, f2d * np.sin(ang))

    @cached_property
    def _omega(self) -> tuple:
        c, s = self._psi_rotation(self.profile.e)
        return OneForm(c, -s), OneForm(s, c)

    # (omega2, omega1) has the opposite orientation: rotating it by psi turns omega by -psi
    _theta = cached_property(lambda cf: _rotated(
        cf.omega2, cf.omega1, *cf._psi_rotation(cf.profile.A))[::-1])
    _alpha = cached_property(lambda cf: _rotated(
        cf.omega1, cf.omega2, *cf._psi_rotation(cf.profile.A)))
    # each form of a pair is cached on its own
    omega1, omega2, theta1, theta2, alpha1, alpha2 = (
        cached_property(lambda cf, pair=pair, k=k: getattr(cf, pair)[k])
        for pair in ("_omega", "_theta", "_alpha") for k in (0, 1))
    xi12 = cached_property(
        lambda cf: hodge(d_scalar(_profile_field(cf.grid, np.log(cf.profile.e)))))
    omega12 = cached_property(lambda cf: cf.xi12 - d_scalar(cf.psi))


def build_coframes(profile: SurfaceProfile, psi: ScalarField) -> CoframeSet:
    """The coframe set of profile and psi; each coframe is built on first read."""
    return CoframeSet(profile, psi)


def _e_dt(cf: CoframeSet, coef) -> OneForm:
    """coef e dt on cf's grid for an s-only coef; each node's q is the product e * coef."""
    g = cf.grid
    return OneForm(_adopt(g, np.zeros(g.shape)), _profile_field(g, cf.profile.e * coef))


def theta12_form(cf: CoframeSet) -> OneForm:
    """Connection form of the theta coframe: theta12 = -C A e dt."""
    return _e_dt(cf, -cf.profile.C * cf.profile.A)


def structure_residuals(cf: CoframeSet) -> dict:
    """Max interior residuals of the five structure equations.

    d(omega1) = omega12 ^ omega2        d(omega2) = omega1 ^ omega12
    d(omega13) = omega12 ^ omega23      d(omega23) = omega13 ^ omega12
    d(omega12) = -K omega1 ^ omega2,    K = H^2 - J^2
    """
    profile = cf.profile
    k2d = _profile_field(cf.grid, profile.H**2 - profile.J**2)
    w13 = cf.omega1 * _profile_field(cf.grid, profile.H + profile.J)
    w23 = cf.omega2 * _profile_field(cf.grid, profile.H - profile.J)
    # each residual is reduced as it is built, so one residual field is held at a time
    res = {
        "d_omega1": lambda: d_oneform(cf.omega1) - wedge(cf.omega12, cf.omega2),
        "d_omega2": lambda: d_oneform(cf.omega2) - wedge(cf.omega1, cf.omega12),
        "d_omega13": lambda: d_oneform(w13) - wedge(cf.omega12, w23),
        "d_omega23": lambda: d_oneform(w23) - wedge(w13, cf.omega12),
        "d_omega12": lambda: d_oneform(cf.omega12) + wedge(cf.omega1, cf.omega2) * k2d,
    }
    return {k: build().max_abs_interior(MARGIN) for k, build in res.items()}


def codazzi_summary_residuals(cf: CoframeSet) -> dict:
    """Residuals of the integrated compatibility identities.

    dH = J theta1, d(log J) = alpha1 + 2 *omega12, d(theta1) = 0,
    d(alpha1) = 0 and d(alpha2) = alpha1 ^ alpha2.
    """
    g, profile = cf.grid, cf.profile
    h2d = _profile_field(g, profile.H)
    j2d = _profile_field(g, profile.J)
    logj = _profile_field(g, np.log(profile.J))
    return {
        "codazzi_dh": (d_scalar(h2d) - cf.theta1 * j2d).max_abs_interior(MARGIN),
        "codazzi_dlog_j": (
            d_scalar(logj) - cf.alpha1 - hodge(cf.omega12) * 2.0
        ).max_abs_interior(MARGIN),
        "d_theta1": d_oneform(cf.theta1).max_abs_interior(MARGIN),
        "d_alpha1": d_oneform(cf.alpha1).max_abs_interior(MARGIN),
        "d_alpha2": (
            d_oneform(cf.alpha2) - wedge(cf.alpha1, cf.alpha2)
        ).max_abs_interior(MARGIN),
    }


def theta12_report(cf: CoframeSet) -> dict:
    """Residuals tying the theta-coframe connection to psi and the profile.

    theta12 = d(psi) + omega12 + *d(log A)     (rotation + scaling law)
    *theta12 = C theta1
    d(psi) = -1/2 sin(2 psi) theta1 - 1/2 (C + cos(2 psi)) theta2
    d(*omega12) = 0,  d(*theta12) = 0
    xi12 = -(C + B) A e dt
    """
    g, psi, profile = cf.grid, cf.psi, cf.profile
    th12 = theta12_form(cf)
    loga = _profile_field(g, np.log(profile.A))
    c2d = _profile_field(g, profile.C)
    two = 2.0 * psi.values
    half_sin = _adopt(g, 0.5 * np.sin(two))
    half_rest = _adopt(g, 0.5 * (profile.C[:, None] + np.cos(two)))
    dpsi = d_scalar(psi)
    return {
        "theta12_via_psi": (
            th12 - dpsi - cf.omega12 - hodge(d_scalar(loga))
        ).max_abs_interior(MARGIN),
        "theta12_hodge": (hodge(th12) - cf.theta1 * c2d).max_abs_interior(MARGIN),
        "dpsi_theta": (
            dpsi + cf.theta1 * half_sin + cf.theta2 * half_rest
        ).max_abs_interior(MARGIN),
        "d_star_omega12": d_oneform(hodge(cf.omega12)).max_abs_interior(MARGIN),
        "d_star_theta12": d_oneform(hodge(th12)).max_abs_interior(MARGIN),
        "xi12_relation": (
            cf.xi12 + _e_dt(cf, (profile.C + profile.B) * profile.A)
        ).max_abs_interior(MARGIN),
    }


def connection_from_coframe(c1: OneForm, c2: OneForm) -> OneForm:
    """Solve d(c1) = gamma ^ c2, d(c2) = c1 ^ gamma for the connection gamma.

    Writing gamma = x c1 + y c2 the two equations decouple through the
    area form w = c1 ^ c2:  x = d(c1)/w, y = d(c2)/w.  Raises CoframeSingularError
    where _coframe_det finds the coframe singular.
    """
    w = _coframe_det(c1, c2)
    x = d_oneform(c1).values / w
    y = d_oneform(c2).values / w
    del w  # freed before the products, which with it held set verify's peak at 505^2
    return c1 * x + c2 * y


def _shift_residual(predicted: OneForm, c1: OneForm, c2: OneForm) -> float:
    """Max interior deviation of the connection of a transformed coframe (c1, c2)
    from `predicted`, omega12 shifted by the transformation law."""
    return (connection_from_coframe(c1, c2) - predicted).max_abs_interior(MARGIN)


def rotation_transform_residual(cf: CoframeSet, angle: ScalarField) -> float:
    """Rotating the coframe by a field chi shifts the connection by -d(chi)."""
    return _shift_residual(cf.omega12 - d_scalar(angle), *_rotated(
        cf.omega1, cf.omega2, np.cos(angle.values), np.sin(angle.values)))


def scaling_transform_residual(cf: CoframeSet, scale: ScalarField) -> float:
    """Scaling the coframe by lambda shifts the connection by *d(log lambda)."""
    lam = scale.values
    if np.any(lam <= 0):
        raise ValueError("scaling field must be positive")
    return _shift_residual(cf.omega12 + hodge(d_scalar(_adopt(cf.grid, np.log(lam)))),
                           cf.omega1 * lam, cf.omega2 * lam)


def _rot_exp(m12, m13, m23) -> np.ndarray:
    """Exact rotation exp of the skew step matrix, Rodrigues with series fallback.

    The skew generator has upper triangle (m12, m13, m23); theta is the
    rotation angle.  The inputs are float arrays of one shape; the output
    gains a trailing (3, 3).
    """
    with np.errstate(over="ignore"):  # an overflowing step is an inf angle, refused below
        th2 = m12 * m12 + m13 * m13 + m23 * m23
    th = np.sqrt(th2)
    if np.max(th) > MAX_STEP_ANGLE:
        raise FrameStepError(
            f"rotation step of {np.max(th):.3g} rad exceeds {MAX_STEP_ANGLE}; refine the grid"
        )
    small = th < 1e-4
    th_safe = np.where(small, 1.0, th)
    sinc = np.where(small, 1.0 - th2 / 6.0 + th2 * th2 / 120.0, np.sin(th_safe) / th_safe)
    vers = np.where(
        small, 0.5 - th2 / 24.0 + th2 * th2 / 720.0, (1.0 - np.cos(th_safe)) / (th_safe * th_safe)
    )
    K = np.zeros(m12.shape + (3, 3))
    K[..., 0, 1] = m12
    K[..., 1, 0] = -m12
    K[..., 0, 2] = m13
    K[..., 2, 0] = -m13
    K[..., 1, 2] = m23
    K[..., 2, 1] = -m23
    K2 = K @ K
    return np.eye(3) + sinc[..., None, None] * K + vers[..., None, None] * K2


def _step(xc, Ec, rot, half, a1, a2):
    """One exact-rotation step: frame by rot = exp(M), position by the
    midpoint frame half @ Ec, where half = exp(M / 2)."""
    mid = half @ Ec
    xn = xc + a1[..., None] * mid[..., 0, :] + a2[..., None] * mid[..., 1, :]
    return xn, rot @ Ec


# the full and the half step in one _rot_exp call; both scalings are exact
_FULL_HALF = np.array([[1.0], [0.5]])


def _components(*forms):
    """_frame_moves's forms_at for forms held over the grid: their components at `at`."""
    comps = tuple([getattr(w, c).values for w in forms] for c in "pq")
    return lambda axis, at: [c[at] for c in comps[axis]]


def _frame_moves(grid: Grid, profile: SurfaceProfile, forms_at, s_first: bool = False):
    """sweep's (node, (x, frame)) of the frame march from the identity at the
    origin, each step the exp of the trapezoid integrals of (w12, w13, w23)
    with the position advanced by (w1, w2).  forms_at(axis, at) gives the
    components of (w12, w1, w2) along axis (0: ds, 1: dt) at the edge, node
    or line at, and (w13, w23) = ((H + J) w1, (H - J) w2) is formed there too.

    s_first walks the s-edge, then every t-line: sweep's walk of the
    transposed grid, its axes and nodes turned back.  The full and half
    rotations of every single-node edge step come from one _rot_exp call
    per march; each line step makes one.
    """
    hj = (profile.H + profile.J, profile.H - profile.J)

    def forms(axis, at):
        """(w12, w13, w23, w1, w2) along axis at a node, a line or the edge."""
        c12, c1, c2 = forms_at(axis, at)
        return c12, c1 * hj[0][at[0]], c2 * hj[1][at[0]], c1, c2

    h = (grid.h_s, grid.h_t)
    edge, line = (0, (slice(None), 0)) if s_first else (1, (0, slice(None)))
    inc = [0.5 * (c[:-1] + c[1:]) * h[edge] for c in forms(edge, line)]
    rot, half = _rot_exp(*(_FULL_HALF * m for m in inc[:3]))

    def step(axis, src, dst, state):
        if axis == edge:
            k = src[axis]
            return _step(*state, rot[k], half[k], inc[3][k], inc[4][k])
        m = [0.5 * (a + b) * h[axis] for a, b in zip(forms(axis, src), forms(axis, dst))]
        both = _rot_exp(*(_FULL_HALF * v for v in m[:3]))
        return _step(*state, both[0], both[1], *m[3:])

    start = [np.zeros(3), np.eye(3)]
    if not s_first:
        return sweep(grid.shape, start, step)
    moves = sweep(grid.shape[::-1], start,
                  lambda axis, src, dst, state: step(1 - axis, src[::-1], dst[::-1], state))
    return ((node[::-1], state) for node, state in moves)


def _integrate_frame_forms(grid: Grid, profile: SurfaceProfile, forms_at) -> FrameField:
    """_frame_moves stored over the grid."""
    x = np.empty(grid.shape + (3,))
    E = np.empty(grid.shape + (3, 3))
    for node, (xn, En) in _frame_moves(grid, profile, forms_at):
        x[node], E[node] = xn, En
    return FrameField(grid, x, E)


def integrate_frame(cf: CoframeSet) -> FrameField:
    """Integrate the moving frame of the base surface over the grid."""
    return _integrate_frame_forms(
        cf.grid, cf.profile, _components(cf.omega12, cf.omega1, cf.omega2))


def two_path_residual(cf: CoframeSet, frame: FrameField) -> float:
    """Disagreement between the two integration paths (flatness check).

    `frame` is the t-first march.  The s-first march, from the same corner,
    is compared with it as each node or line arrives and is not stored;
    np.max keeps a NaN.
    """
    moves = _frame_moves(cf.grid, cf.profile, _components(cf.omega12, cf.omega1, cf.omega2),
                         s_first=True)
    return float(np.max([np.max(np.abs(a - b[node])) for node, state in moves
                         for a, b in zip(state, (frame.x, frame.frames))]))


@dataclass(frozen=True)
class Forms:
    """First form gss ds^2 + 2 gst ds dt + gtt dt^2 and second form
    L ds^2 + 2 M ds dt + N dt^2 of a surface, algebraic or read off a frame."""

    grid: Grid
    gss: ScalarField
    gst: ScalarField
    gtt: ScalarField
    L: ScalarField
    M: ScalarField
    N: ScalarField


def fundamental_forms(profile: SurfaceProfile, psi: ScalarField) -> Forms:
    """The algebraic forms: first form E (ds^2 + dt^2), so gss and gtt are one
    E field and gst is zero, and the second form cross-checked through two routes.

    Route one works through E, H, J; route two uses E J = tau_c Q to
    eliminate the conformal factor.  Disagreement means the profile is
    inconsistent, so it raises rather than returns.
    """
    grid = psi.grid
    _check_alignment(profile, grid)
    two = 2.0 * psi.values
    cos2, sin2 = np.cos(two), np.sin(two)
    e2d = profile.E[:, None]
    h2d = profile.H[:, None]
    j2d = profile.J[:, None]
    tq = profile.tau_c * profile.Q[:, None]

    L_a = e2d * (h2d + j2d * cos2)
    L_b = e2d * h2d + tq * cos2
    M_a = -e2d * j2d * sin2
    M_b = -tq * sin2
    scale = max(1.0, float(np.max(np.abs(L_a))), float(np.max(np.abs(M_a))))
    worst = max(float(np.max(np.abs(L_a - L_b))), float(np.max(np.abs(M_a - M_b))))
    if worst > 1e-10 * scale:
        raise ConsistencyError(
            f"second-form routes disagree by {worst:.3e}; profile is inconsistent"
        )
    N_a = e2d * (h2d - j2d * cos2)
    E = _profile_field(grid, profile.E)
    return Forms(
        grid, E, _adopt(grid, np.zeros(grid.shape)), E,
        _adopt(grid, L_a), _adopt(grid, M_a), _adopt(grid, N_a),
    )


def fd_forms(frame: FrameField) -> Forms:
    """The FD fundamental forms of (x, e3), from x_s, x_t, n_s and n_t taken once.

    The second form uses L = -<x_s, n_s> and friends, which needs only
    first derivatives and is second-order accurate up to the boundary.
    Derivatives are taken a block of _BLOCK_ROWS rows at a time, d/ds
    from the block's rows, one more each side and at least three in all.
    """
    g, n = frame.grid, _BLOCK_ROWS
    out = [np.empty(g.shape) for _ in range(6)]
    for i in range(0, g.ns, n):
        lo = max(0, min(i - 1, g.ns - 3))
        xs, ns_ = (np.gradient(v[lo:i + n + 1], g.h_s, axis=0, edge_order=2)[i - lo:i - lo + n]
                   for v in (frame.x, frame.e3))
        xt, nt_ = (np.gradient(v[i:i + n], g.h_t, axis=1, edge_order=2)
                   for v in (frame.x, frame.e3))
        for o, b in zip(out, (
            np.sum(xs * xs, axis=-1),
            np.sum(xs * xt, axis=-1),
            np.sum(xt * xt, axis=-1),
            -np.sum(xs * ns_, axis=-1),
            -0.5 * (np.sum(xs * nt_, axis=-1) + np.sum(xt * ns_, axis=-1)),
            -np.sum(xt * nt_, axis=-1),
        )):
            o[i:i + n] = b
    return Forms(g, *(_adopt(g, o) for o in out))


def forms_deviation(a: Forms, b: Forms) -> tuple:
    """(first, second): the max interior deviation of a's first form from b's
    and of a's second form from b's, each the max over its three coefficients."""
    def dev(names):
        return max(max_interior(getattr(a, n).values - getattr(b, n).values, MARGIN)
                   for n in names)
    return dev(("gss", "gst", "gtt")), dev(("L", "M", "N"))


def _rhs_tau(alpha, y):
    ca, cb = alpha
    st = np.sin(y[0])
    return [st * st * cb - st * np.cos(y[0]) * ca]


def integrate_deformation(cf: CoframeSet, t0: float) -> ScalarField:
    """March d(tau) = sin^2(tau) alpha2 - sin(tau) cos(tau) alpha1 over the grid
    from tau = atan2(1, t0) at the origin, and return tau.

    Equivalent to d(t) = t alpha1 - alpha2 for t = cot(tau), but free of
    poles: tau stays bounded where t passes through infinity.  Each cell is
    crossed with one RK4 step whose coefficients are alpha at the cell's two
    nodes and their mean at its midpoint: that linear interpolation already
    bounds the march at O(h^2), above RK4's own O(h^4) step error.  Every
    stage vanishes at tau = k pi, and near it the step multiplies tau - k pi
    by RK4's stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 at
    z = -h alpha1, which has no real root (where alpha1 varies across the
    cell, by a polynomial that stays positive while |h alpha1| < 3.1 at both
    nodes), so tau, started inside (0, pi), stays inside.
    """
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    g = cf.grid
    # (alpha1, alpha2) coefficients and step of a cell along s, then t
    coef = (
        (cf.alpha1.p.values, cf.alpha2.p.values, g.h_s),
        (cf.alpha1.q.values, cf.alpha2.q.values, g.h_t),
    )

    def step(axis, src, dst, y):
        c1, c2, h = coef[axis]
        mid = (0.5 * c1[src] + 0.5 * c1[dst], 0.5 * c2[src] + 0.5 * c2[dst])
        return rk4_step(_rhs_tau, y, h, (c1[src], c2[src]), mid, (c1[dst], c2[dst]))

    tau = np.empty(g.shape)
    for node, (value,) in sweep(g.shape, [math.atan2(1.0, t0)], step):
        tau[node] = value
    return _adopt(g, tau)


def build_deformed_surface(cf: CoframeSet, tau: ScalarField) -> FrameField:
    """Rotate the coframe by tau(s, t) and integrate the companion surface.

    Returns the FrameField of the deformed immersion; fd_forms reads its
    forms off the march, and its coframe e R(psi + tau) (ds, dt) gives them
    in closed form, fundamental_forms(profile, psi + tau).  The deformed
    connection is omega12 - d(tau) with d(tau) = sin^2(tau) alpha2 -
    sin(tau) cos(tau) alpha1, the tau march's own right-hand side, so no FD
    derivative of tau enters the frame march.  It and the rotated coframe are
    formed on each edge or line stepped across, not over the grid.
    """
    comps = _components(cf.omega12, cf.omega1, cf.omega2, cf.alpha1, cf.alpha2)

    def rotated(axis, at):
        w12, w1, w2, a1, a2 = comps(axis, at)
        st, ct = np.sin(tau.values[at]), np.cos(tau.values[at])
        return w12 - (a2 * (st * st) - a1 * (st * ct)), w1 * ct - w2 * st, w1 * st + w2 * ct

    return _integrate_frame_forms(cf.grid, cf.profile, rotated)


def mean_curvature_deviation(profile: SurfaceProfile, fd: Forms) -> float:
    """Max interior deviation from the profile's H, which the companion keeps, of
    the mean curvature (L + N) / (gss + gtt) of FD forms of a conformal metric."""
    h_fd = 0.5 * (fd.L.values + fd.N.values) / (0.5 * (fd.gss.values + fd.gtt.values))
    return max_interior(h_fd - profile.H[:, None], MARGIN)


def deformation_report(tau: ScalarField) -> dict:
    """The poles of t = cot(tau) on the companion at one t0, from its tau march.

    pole_count is the number of nodes where |sin(tau)| < POLE_EPS, and
    sign_flips the number of sign changes of sin(tau) along every s-line and
    along the t-edge.
    """
    st = np.sin(tau.values)
    return {
        "pole_count": int(np.count_nonzero(np.abs(st) < POLE_EPS)),
        "sign_flips": int(np.sum(np.diff(np.sign(st), axis=0) != 0)) + int(
            np.sum(np.diff(np.sign(st[0, :])) != 0)),
    }


def weingarten_residual(profile: SurfaceProfile, fd: Forms) -> dict:
    """Functional dependence of K on H along the family.

    wedge_residual: max |dH ^ dK| with K from the FD shape operator of
    the integrated surface (vanishes with h^2 when K is a function of H
    alone).  k_t_variation: spread of the algebraic K along each t-line
    (zero because K = H^2 - J^2 depends on s only).

    Margin 3 (not the usual 2): K is built from FD forms whose error
    constant changes across the one-sided boundary stencils, and d(K)
    turns that h^2-sized jump into an O(h) band in the three columns
    nearest each edge.  Interior of that band the wedge is clean O(h^2).
    """
    grid = fd.grid
    # forms that overflow give inf or nan quietly; k_fd's NonFiniteFieldError names the node
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_g = fd.gss.values * fd.gtt.values - fd.gst.values * fd.gst.values
        k_fd = _adopt(grid, (fd.L.values * fd.N.values - fd.M.values * fd.M.values) / det_g)
    wed = wedge(d_scalar(_profile_field(grid, profile.H)), d_scalar(k_fd)).max_abs_interior(3)

    k_alg = np.broadcast_to((profile.H**2 - profile.J**2)[:, None], grid.shape)
    t_var = float(np.max(k_alg.max(axis=1) - k_alg.min(axis=1)))
    return {"wedge_residual": wed, "k_t_variation": t_var}


def export_obj(frame: FrameField, path) -> None:
    """Wavefront OBJ export: row-major vertices, two triangles per cell.

    Node (i, j) becomes 1-based vertex i*nt + j + 1; each cell is split
    along the (i, j) -> (i+1, j+1) diagonal with consistent winding.
    """
    ns, nt = frame.grid.shape
    v = np.arange(1, ns * nt + 1).reshape(ns, nt)
    v00, v10, v11, v01 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        _write_rows(fh, frame.x.reshape(-1, 3), " ", "v ")
        _write_rows(fh, faces, " ", "f ")
