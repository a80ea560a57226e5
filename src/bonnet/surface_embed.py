"""Coframes, the moving frame, and the isometric deformation family.

The profile supplies s-dependent scalars (e, A, B, C, H, J, Q) and the
rotation angle field psi(s, t) supplies the twist.  Out of these we
build the orthonormal coframe

    omega1 = e (cos(psi) ds - sin(psi) dt)
    omega2 = e (sin(psi) ds + cos(psi) dt)

with connection form omega12 = xi12 - d(psi), where xi1 = e ds,
xi2 = e dt is the untwisted conformal coframe and xi12 = *d(log e).
Every structure identity of the construction is exposed as a grid
residual, the frame (x, e1, e2, e3) is integrated with exact rotation
steps, and the one-parameter family of isometric, mean-curvature
preserving companions is produced by rotating the coframe with the
angle tau(s, t) that solves  d(cot tau) = cot(tau) alpha1 - alpha2.

Frames are stored as rows of a 3x3 matrix per node, so the structure
system reads dE = Omega E with Omega skew; each step multiplies by the
exact rotation exp(trapezoid integral of Omega), which keeps the frame
orthonormal to rounding no matter how long the march is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bonnet_solver import SurfaceProfile
from .forms2d import (
    CoframeSingularError,
    Grid,
    OneForm,
    ScalarField,
    _write_rows,
    d_oneform,
    d_scalar,
    hodge,
    max_interior,
    wedge,
)
from .lax_psi import PsiField
from .q_family import ConsistencyError
from .rk4 import rk4_step, sweep

__all__ = [
    "FrameSeed",
    "FrameField",
    "FrameStepError",
    "CoframeSet",
    "FundamentalForms",
    "DeformationParam",
    "WeingartenReport",
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
    "first_form_fd",
    "second_form_fd",
    "metric_recovery_residual",
    "second_form_vs_frame",
    "integrate_deformation",
    "build_deformed_surface",
    "deformation_report",
    "weingarten_residual",
    "export_obj",
]

MAX_STEP_ANGLE = 0.5
T_CLAMP = 1e12
POLE_EPS = 1e-12


class FrameStepError(ValueError):
    """A frame step would rotate by more than MAX_STEP_ANGLE; the grid is too coarse."""


def _field(grid: Grid, values) -> ScalarField:
    return ScalarField(grid, np.array(values, dtype=float))


def _profile_field(grid: Grid, arr) -> ScalarField:
    """Broadcast an s-only profile array across the t-direction."""
    col = np.asarray(arr, dtype=float)[:, None]
    return ScalarField(grid, np.broadcast_to(col, grid.shape).copy())


def _check_alignment(profile: SurfaceProfile, psi: PsiField, grid: Grid) -> None:
    if psi.psi.grid != grid:
        raise ValueError("psi field and grid disagree")
    s = grid.s_nodes()
    if profile.s.size != grid.ns:
        raise ValueError("profile sample count does not match grid.ns")
    scale = max(1.0, float(np.max(np.abs(s))))
    if float(np.max(np.abs(profile.s - s))) > 1e-10 * scale:
        raise ValueError("profile s-samples do not coincide with grid s-nodes")


@dataclass(frozen=True)
class FrameSeed:
    """Initial position and orthonormal right-handed frame at the grid corner."""

    x0: tuple = (0.0, 0.0, 0.0)
    e1: tuple = (1.0, 0.0, 0.0)
    e2: tuple = (0.0, 1.0, 0.0)
    e3: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        for name in ("x0", "e1", "e2", "e3"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, tuple(vec))
        mat = self.frame_matrix()
        gram = mat @ mat.T
        if np.max(np.abs(gram - np.eye(3))) > 1e-6:
            raise ValueError("seed frame is not orthonormal")
        if np.linalg.det(mat) < 0:
            raise ValueError("seed frame is not right-handed")

    def frame_matrix(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3], dtype=float)


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
    def e1(self) -> np.ndarray:
        return self.frames[..., 0, :]

    @property
    def e2(self) -> np.ndarray:
        return self.frames[..., 1, :]

    @property
    def e3(self) -> np.ndarray:
        return self.frames[..., 2, :]

    def orthonormality_error(self) -> float:
        gram = self.frames @ np.swapaxes(self.frames, -1, -2)
        return float(np.max(np.abs(gram - np.eye(3))))

    def min_handedness(self) -> float:
        return float(np.min(np.linalg.det(self.frames)))


@dataclass(frozen=True)
class CoframeSet:
    """All coframes of the construction over one grid."""

    grid: Grid
    omega1: OneForm
    omega2: OneForm
    omega12: OneForm
    xi1: OneForm
    xi2: OneForm
    xi12: OneForm
    theta1: OneForm
    theta2: OneForm
    alpha1: OneForm
    alpha2: OneForm
    u: ScalarField
    v: ScalarField


def build_coframes(profile: SurfaceProfile, psi: PsiField, grid: Grid | None = None) -> CoframeSet:
    """Assemble every coframe from the profile scalars and the angle field.

    The twisted coframe is the conformal one rotated by psi, the theta
    and alpha coframes are its rescalings by (u, v) = A (cos, sin) psi.
    """
    if grid is None:
        grid = psi.psi.grid
    _check_alignment(profile, psi, grid)
    zero = np.zeros(grid.shape)
    e2d = np.broadcast_to(profile.e[:, None], grid.shape)
    a2d = np.broadcast_to(profile.A[:, None], grid.shape)
    ang = psi.psi.values
    cosp, sinp = np.cos(ang), np.sin(ang)

    omega1 = OneForm(_field(grid, e2d * cosp), _field(grid, -e2d * sinp))
    omega2 = OneForm(_field(grid, e2d * sinp), _field(grid, e2d * cosp))
    xi1 = OneForm(_field(grid, e2d), _field(grid, zero))
    xi2 = OneForm(_field(grid, zero), _field(grid, e2d))
    xi12 = hodge(d_scalar(_field(grid, np.log(e2d))))
    omega12 = xi12 - d_scalar(psi.psi)

    u = _field(grid, a2d * cosp)
    v = _field(grid, a2d * sinp)
    theta1 = omega1 * u + omega2 * v
    theta2 = omega2 * u - omega1 * v
    alpha1 = omega1 * u - omega2 * v
    alpha2 = omega1 * v + omega2 * u
    return CoframeSet(
        grid, omega1, omega2, omega12, xi1, xi2, xi12,
        theta1, theta2, alpha1, alpha2, u, v,
    )


def theta12_form(cf: CoframeSet, profile: SurfaceProfile) -> OneForm:
    """Connection form of the theta coframe: theta12 = -C A xi2."""
    ca = _profile_field(cf.grid, -profile.C * profile.A)
    return cf.xi2 * ca


def _second_forms(w1: OneForm, w2: OneForm, profile: SurfaceProfile):
    """(omega13, omega23) = ((H + J) w1, (H - J) w2) of a coframe (w1, w2)."""
    grid = w1.grid
    return (w1 * _profile_field(grid, profile.H + profile.J),
            w2 * _profile_field(grid, profile.H - profile.J))


def structure_residuals(cf: CoframeSet, profile: SurfaceProfile, margin: int = 2) -> dict:
    """Max interior residuals of the five structure equations.

    d(omega1) = omega12 ^ omega2        d(omega2) = omega1 ^ omega12
    d(omega13) = omega12 ^ omega23      d(omega23) = omega13 ^ omega12
    d(omega12) = -K omega1 ^ omega2,    K = H^2 - J^2
    """
    k2d = _profile_field(cf.grid, profile.H**2 - profile.J**2)
    w13, w23 = _second_forms(cf.omega1, cf.omega2, profile)
    res = {
        "d_omega1": d_oneform(cf.omega1) - wedge(cf.omega12, cf.omega2),
        "d_omega2": d_oneform(cf.omega2) - wedge(cf.omega1, cf.omega12),
        "d_omega13": d_oneform(w13) - wedge(cf.omega12, w23),
        "d_omega23": d_oneform(w23) - wedge(w13, cf.omega12),
        "d_omega12": d_oneform(cf.omega12) + wedge(cf.omega1, cf.omega2) * k2d,
    }
    return {k: v.max_abs_interior(margin) for k, v in res.items()}


def codazzi_summary_residuals(
    cf: CoframeSet, profile: SurfaceProfile, margin: int = 2
) -> dict:
    """Residuals of the integrated compatibility identities.

    dH = J theta1, d(log J) = alpha1 + 2 *omega12, d(theta1) = 0,
    d(alpha1) = 0 and d(alpha2) = alpha1 ^ alpha2.
    """
    g = cf.grid
    h2d = _profile_field(g, profile.H)
    j2d = _profile_field(g, profile.J)
    logj = _profile_field(g, np.log(profile.J))
    res = {
        "codazzi_dh": (d_scalar(h2d) - cf.theta1 * j2d).max_abs_interior(margin),
        "codazzi_dlog_j": (
            d_scalar(logj) - cf.alpha1 - hodge(cf.omega12) * 2.0
        ).max_abs_interior(margin),
        "d_theta1": d_oneform(cf.theta1).max_abs_interior(margin),
        "d_alpha1": d_oneform(cf.alpha1).max_abs_interior(margin),
        "d_alpha2": (
            d_oneform(cf.alpha2) - wedge(cf.alpha1, cf.alpha2)
        ).max_abs_interior(margin),
    }
    return res


def theta12_report(cf: CoframeSet, psi: PsiField, profile: SurfaceProfile, margin: int = 2) -> dict:
    """Residuals tying the theta-coframe connection to psi and the profile.

    theta12 = d(psi) + omega12 + *d(log A)     (rotation + scaling law)
    *theta12 = C theta1
    d(psi) = -1/2 sin(2 psi) theta1 - 1/2 (C + cos(2 psi)) theta2
    d(*omega12) = 0,  d(*theta12) = 0
    xi12 = -(C + B) A xi2
    """
    g = cf.grid
    th12 = theta12_form(cf, profile)
    loga = _profile_field(g, np.log(profile.A))
    c2d = _profile_field(g, profile.C)
    two = 2.0 * psi.psi.values
    half_sin = _field(g, 0.5 * np.sin(two))
    half_rest = _field(g, 0.5 * (profile.C[:, None] + np.cos(two)))
    cba = _profile_field(g, (profile.C + profile.B) * profile.A)
    res = {
        "theta12_via_psi": (
            th12 - d_scalar(psi.psi) - cf.omega12 - hodge(d_scalar(loga))
        ).max_abs_interior(margin),
        "theta12_hodge": (hodge(th12) - cf.theta1 * c2d).max_abs_interior(margin),
        "dpsi_theta": (
            d_scalar(psi.psi) + cf.theta1 * half_sin + cf.theta2 * half_rest
        ).max_abs_interior(margin),
        "d_star_omega12": d_oneform(hodge(cf.omega12)).max_abs_interior(margin),
        "d_star_theta12": d_oneform(hodge(th12)).max_abs_interior(margin),
        "xi12_relation": (cf.xi12 + cf.xi2 * cba).max_abs_interior(margin),
    }
    return res


def connection_from_coframe(c1: OneForm, c2: OneForm) -> OneForm:
    """Solve d(c1) = gamma ^ c2, d(c2) = c1 ^ gamma for the connection gamma.

    Writing gamma = x c1 + y c2 the two equations decouple through the
    area form w = c1 ^ c2:  x = d(c1)/w, y = d(c2)/w.
    """
    w = wedge(c1, c2).r.values
    scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        raise CoframeSingularError((0, 0), 0.0, 0.0)
    bad = np.abs(w) <= 1e-12 * scale
    if np.any(bad):
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        raise CoframeSingularError(idx, float(w[idx]), scale)
    x = d_oneform(c1).r.values / w
    y = d_oneform(c2).r.values / w
    return c1 * x + c2 * y


def rotation_transform_residual(cf: CoframeSet, angle: ScalarField, margin: int = 2) -> float:
    """Rotating the coframe by a field chi shifts the connection by -d(chi)."""
    c = np.cos(angle.values)
    s = np.sin(angle.values)
    rot1 = cf.omega1 * c - cf.omega2 * s
    rot2 = cf.omega1 * s + cf.omega2 * c
    gamma = connection_from_coframe(rot1, rot2)
    predicted = cf.omega12 - d_scalar(angle)
    return (gamma - predicted).max_abs_interior(margin)


def scaling_transform_residual(cf: CoframeSet, scale: ScalarField, margin: int = 2) -> float:
    """Scaling the coframe by lambda shifts the connection by *d(log lambda)."""
    lam = scale.values
    if np.any(lam <= 0):
        raise ValueError("scaling field must be positive")
    sc1 = cf.omega1 * lam
    sc2 = cf.omega2 * lam
    gamma = connection_from_coframe(sc1, sc2)
    predicted = cf.omega12 + hodge(d_scalar(ScalarField(cf.grid, np.log(lam))))
    return (gamma - predicted).max_abs_interior(margin)


def _rot_exp(m12, m13, m23) -> np.ndarray:
    """Exact rotation exp of the skew step matrix, Rodrigues with series fallback.

    The skew generator has upper triangle (m12, m13, m23); theta is the
    rotation angle.  Inputs broadcast; output gains a trailing (3, 3).
    """
    m12, m13, m23 = np.broadcast_arrays(
        np.asarray(m12, dtype=float),
        np.asarray(m13, dtype=float),
        np.asarray(m23, dtype=float),
    )
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


def _step(xc, Ec, m12, m13, m23, a1, a2):
    """One exact-rotation step: frame by exp(M), position by the midpoint frame."""
    rot = _rot_exp(m12, m13, m23)
    half = _rot_exp(0.5 * np.asarray(m12), 0.5 * np.asarray(m13), 0.5 * np.asarray(m23))
    mid = half @ Ec
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    xn = xc + a1[..., None] * mid[..., 0, :] + a2[..., None] * mid[..., 1, :]
    return xn, rot @ Ec


def _integrate_frame_forms(
    w1: OneForm, w2: OneForm, w12: OneForm, w13: OneForm, w23: OneForm,
    grid: Grid, seed: FrameSeed, order: str,
) -> FrameField:
    """Sweep the frame from the seed, each step the exp of the trapezoid
    integrals of (w12, w13, w23) with the position advanced by (w1, w2)."""
    # components along s, then along t, in the argument order of _step
    comps = tuple([getattr(w, c).values for w in (w12, w13, w23, w1, w2)] for c in "pq")
    h = (grid.h_s, grid.h_t)

    def step(axis, src, dst, state):
        return _step(*state, *(0.5 * (c[src] + c[dst]) * h[axis] for c in comps[axis]))

    x = np.empty(grid.shape + (3,))
    E = np.empty(grid.shape + (3, 3))
    x[0, 0] = seed.x0
    E[0, 0] = seed.frame_matrix()
    sweep(order, [x, E], step)
    return FrameField(grid, x, E)


def integrate_frame(
    profile: SurfaceProfile,
    psi: PsiField,
    grid: Grid | None = None,
    seed: FrameSeed | None = None,
    order: str = "t_first",
    coframes: CoframeSet | None = None,
) -> FrameField:
    """Integrate the moving frame of the base surface over the grid."""
    if grid is None:
        grid = psi.psi.grid
    cf = coframes if coframes is not None else build_coframes(profile, psi, grid)
    seed = seed or FrameSeed()
    w13, w23 = _second_forms(cf.omega1, cf.omega2, profile)
    return _integrate_frame_forms(cf.omega1, cf.omega2, cf.omega12, w13, w23, grid, seed, order)


def two_path_residual(
    profile: SurfaceProfile,
    psi: PsiField,
    grid: Grid | None = None,
    seed: FrameSeed | None = None,
    frame: FrameField | None = None,
    coframes: CoframeSet | None = None,
) -> float:
    """Disagreement between the two integration path orders (flatness check).

    `frame` is the t-first march from the same seed when the caller already
    holds it; only the s-first march is then integrated here.
    """
    if grid is None:
        grid = psi.psi.grid
    cf = coframes if coframes is not None else build_coframes(profile, psi, grid)
    fa = frame if frame is not None else integrate_frame(
        profile, psi, grid, seed, "t_first", coframes=cf
    )
    fb = integrate_frame(profile, psi, grid, seed, "s_first", coframes=cf)
    return max(
        float(np.max(np.abs(fa.x - fb.x))),
        float(np.max(np.abs(fa.frames - fb.frames))),
    )


@dataclass(frozen=True)
class FundamentalForms:
    """First form E (ds^2 + dt^2) and second form L ds^2 + 2 M ds dt + N dt^2."""

    grid: Grid
    E: ScalarField
    L: ScalarField
    M: ScalarField
    N: ScalarField


def fundamental_forms(profile: SurfaceProfile, psi: PsiField) -> FundamentalForms:
    """Second-form coefficients, cross-checked through two algebraic routes.

    Route one works through E, H, J; route two uses E J = tau_c Q to
    eliminate the conformal factor.  Disagreement means the profile is
    inconsistent, so it raises rather than returns.
    """
    grid = psi.psi.grid
    _check_alignment(profile, psi, grid)
    two = 2.0 * psi.psi.values
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
    E2d = np.broadcast_to(e2d, grid.shape).copy()
    return FundamentalForms(
        grid,
        ScalarField(grid, E2d),
        ScalarField(grid, np.broadcast_to(L_a, grid.shape).copy()),
        ScalarField(grid, np.broadcast_to(M_a, grid.shape).copy()),
        ScalarField(grid, np.broadcast_to(N_a, grid.shape).copy()),
    )


def _grad(grid: Grid, values):
    """(d/ds, d/dt) of node values by finite differences, e.g. (x_s, x_t)."""
    return (np.gradient(values, grid.h_s, axis=0, edge_order=2),
            np.gradient(values, grid.h_t, axis=1, edge_order=2))


def _fd_first_form(grid: Grid, xs, xt):
    pairs = ((xs, xs), (xs, xt), (xt, xt))
    return tuple(ScalarField(grid, np.sum(a * b, axis=-1)) for a, b in pairs)


def _fd_second_form(frame: FrameField, xs, xt):
    g = frame.grid
    ns_, nt_ = _grad(g, frame.e3)
    L = ScalarField(g, -np.sum(xs * ns_, axis=-1))
    M = ScalarField(g, -0.5 * (np.sum(xs * nt_, axis=-1) + np.sum(xt * ns_, axis=-1)))
    N = ScalarField(g, -np.sum(xt * nt_, axis=-1))
    return L, M, N


def _metric_deviation(first, profile: SurfaceProfile, margin: int) -> float:
    gss, gst, gtt = first
    e2d = np.broadcast_to(profile.E[:, None], gss.grid.shape)
    return max(
        max_interior(gss.values - e2d, margin),
        max_interior(gst.values, margin),
        max_interior(gtt.values - e2d, margin),
    )


def first_form_fd(frame: FrameField):
    """Metric coefficients of the integrated immersion by finite differences."""
    return _fd_first_form(frame.grid, *_grad(frame.grid, frame.x))


def second_form_fd(frame: FrameField):
    """Second-form coefficients from x and the integrated normal e3.

    Uses L = -<x_s, n_s> and friends, which needs only first
    derivatives and is second-order accurate up to the boundary.
    """
    return _fd_second_form(frame, *_grad(frame.grid, frame.x))


def metric_recovery_residual(frame: FrameField, profile: SurfaceProfile, margin: int = 2) -> float:
    """Max deviation of the FD metric of x from E (ds^2 + dt^2)."""
    return _metric_deviation(first_form_fd(frame), profile, margin)


def second_form_vs_frame(ff: FundamentalForms, frame: FrameField, margin: int = 2) -> float:
    """Max deviation of the FD second form of (x, e3) from the algebraic one."""
    L, M, N = second_form_fd(frame)
    return max(
        (L - ff.L).max_abs_interior(margin),
        (M - ff.M).max_abs_interior(margin),
        (N - ff.N).max_abs_interior(margin),
    )


@dataclass(frozen=True)
class DeformationParam:
    """Deformation parameter field t(s, t-coord) and its pole bookkeeping.

    tau with cot(tau) = t is what actually gets integrated; it stays
    bounded through the poles of t, which are recorded rather than
    tripped over.  t is clamped to +-1e12 at pole nodes.
    """

    t_field: ScalarField
    tau_field: ScalarField
    t0: float
    pole_nodes: tuple = field(default=())
    sign_flips: int = 0


def _rhs_tau(alpha, y):
    ca, cb = alpha
    st = np.sin(y[0])
    return [st * st * cb - st * np.cos(y[0]) * ca]


def integrate_deformation(
    cf: CoframeSet, t0: float, order: str = "t_first", substeps: int = 4
) -> DeformationParam:
    """March d(tau) = sin^2(tau) alpha2 - sin(tau) cos(tau) alpha1 over the grid.

    Equivalent to d(t) = t alpha1 - alpha2 for t = cot(tau), but free of
    poles.  Coefficients are interpolated linearly inside each cell and
    each cell is crossed with `substeps` RK4 stages.
    """
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    g = cf.grid
    # (alpha1, alpha2) coefficients and RK4 step of a cell along s, then t
    coef = (
        (cf.alpha1.p.values, cf.alpha2.p.values, g.h_s / substeps),
        (cf.alpha1.q.values, cf.alpha2.q.values, g.h_t / substeps),
    )
    # (start, mid, end) fractions of every substep inside a cell
    frac = np.arange(substeps)[:, None] / substeps + np.array([0.0, 0.5, 1.0]) / substeps

    def step(axis, src, dst, y):
        # the coefficients at both ends, interpolated at every stage up front
        c1, c2, h = coef[axis]
        ca = np.multiply.outer(1.0 - frac, c1[src]) + np.multiply.outer(frac, c1[dst])
        cb = np.multiply.outer(1.0 - frac, c2[src]) + np.multiply.outer(frac, c2[dst])
        for a, b in zip(ca, cb):
            y = rk4_step(_rhs_tau, y, h, (a[0], b[0]), (a[1], b[1]), (a[2], b[2]))
        return y

    tau = np.empty(g.shape)
    tau[0, 0] = math.atan2(1.0, t0)
    sweep(order, [tau], step)

    st = np.sin(tau)
    ct = np.cos(tau)
    poles = tuple(tuple(int(k) for k in idx) for idx in np.argwhere(np.abs(st) < POLE_EPS))
    with np.errstate(divide="ignore"):
        t_vals = np.clip(ct / np.where(st == 0.0, np.finfo(float).tiny, st), -T_CLAMP, T_CLAMP)
    flips = int(np.sum(np.diff(np.sign(st), axis=0) != 0)) + int(
        np.sum(np.diff(np.sign(st[0, :])) != 0)
    )
    return DeformationParam(
        ScalarField(g, t_vals), ScalarField(g, tau), float(t0), poles, flips
    )


def build_deformed_surface(
    profile: SurfaceProfile,
    psi: PsiField,
    dp: DeformationParam,
    grid: Grid | None = None,
    seed: FrameSeed | None = None,
    coframes: CoframeSet | None = None,
    order: str = "t_first",
):
    """Rotate the coframe by tau(s, t) and integrate the companion surface.

    Returns (FrameField, FundamentalForms) of the deformed immersion.
    The deformed connection is omega12 - d(tau) with d(tau) eliminated
    algebraically through d(tau) = (alpha2 - t alpha1) / (1 + t^2), so
    no FD derivative of tau enters the frame march.
    """
    if grid is None:
        grid = psi.psi.grid
    cf = coframes if coframes is not None else build_coframes(profile, psi, grid)
    seed = seed or FrameSeed()
    t = dp.t_field.values
    den = np.sqrt(1.0 + t * t)
    st = 1.0 / den   # sin(tau), up to the mod-pi ambiguity past a pole
    ct = t / den     # cos(tau)

    w1s = cf.omega1 * ct - cf.omega2 * st
    w2s = cf.omega1 * st + cf.omega2 * ct
    inv = 1.0 / (1.0 + t * t)
    dtau = (cf.alpha2 - cf.alpha1 * t) * inv
    w12s = cf.omega12 - dtau
    w13s, w23s = _second_forms(w1s, w2s, profile)

    p1, q1 = w1s.p.values, w1s.q.values
    p2, q2 = w2s.p.values, w2s.q.values
    # L = (H + J) p1^2 + (H - J) p2^2 etc., as w13 = (H + J) w1 and w23 = (H - J) w2
    p13, q13 = w13s.p.values, w13s.q.values
    p23, q23 = w23s.p.values, w23s.q.values
    forms = FundamentalForms(
        grid,
        ScalarField(grid, 0.5 * (p1 * p1 + p2 * p2 + q1 * q1 + q2 * q2)),
        ScalarField(grid, p13 * p1 + p23 * p2),
        ScalarField(grid, p13 * q1 + p23 * q2),
        ScalarField(grid, q13 * q1 + q23 * q2),
    )
    frame = _integrate_frame_forms(w1s, w2s, w12s, w13s, w23s, grid, seed, order)
    return frame, forms


def deformation_report(
    profile: SurfaceProfile,
    forms: FundamentalForms,
    dp: DeformationParam,
    frame: FrameField,
    margin: int = 2,
) -> dict:
    """Numbers the deformation family is judged by at one t0.

    `forms` are the base surface's fundamental forms, `dp` and `frame` the
    tau march and the deformed frame of the companion at dp.t0
    (integrate_deformation, build_deformed_surface).  metric_deviation and
    h_deviation compare the FD metric and FD mean curvature of the deformed
    immersion against the base profile (both should vanish with h^2); the
    second-form deviations, and their max ii_deviation, should not.
    """
    grid = frame.grid
    e2d = np.broadcast_to(profile.E[:, None], grid.shape)
    h2d = np.broadcast_to(profile.H[:, None], grid.shape)
    xs, xt = _grad(grid, frame.x)
    L, M, N = _fd_second_form(frame, xs, xt)
    first = _fd_first_form(grid, xs, xt)
    gss, _, gtt = first
    e_fd = 0.5 * (gss.values + gtt.values)
    h_fd = 0.5 * (L.values + N.values) / e_fd
    l_dev, m_dev, n_dev = (
        max_interior(fd.values - alg.values, margin)
        for fd, alg in ((L, forms.L), (M, forms.M), (N, forms.N))
    )
    return {
        "t0": dp.t0,
        "h_max": grid.h_max,
        "metric_scale": max(1.0, float(np.max(np.abs(e2d)))),
        "h_scale": max(1.0, float(np.max(np.abs(h2d)))),
        "metric_deviation": _metric_deviation(first, profile, margin),
        "h_deviation": max_interior(h_fd - h2d, margin),
        "l_deviation": l_dev,
        "m_deviation": m_dev,
        "n_deviation": n_dev,
        "ii_deviation": max(l_dev, m_dev, n_dev),
        "pole_count": len(dp.pole_nodes),
        "sign_flips": dp.sign_flips,
    }


@dataclass(frozen=True)
class WeingartenReport:
    """Functional dependence of K on H along the family.

    wedge_residual: max |dH ^ dK| with K from the FD shape operator of
    the integrated surface (vanishes with h^2 when K is a function of H
    alone).  k_t_variation: spread of the algebraic K along each t-line
    (zero because K = H^2 - J^2 depends on s only).
    """

    wedge_residual: float
    k_t_variation: float


def weingarten_residual(
    profile: SurfaceProfile,
    psi: PsiField,
    grid: Grid | None = None,
    frame: FrameField | None = None,
    margin: int = 3,
) -> WeingartenReport:
    """Margin 3 (not the usual 2): K is built from FD forms whose error
    constant changes across the one-sided boundary stencils, and d(K)
    turns that h^2-sized jump into an O(h) band in the three columns
    nearest each edge.  Interior of that band the wedge is clean O(h^2).
    """
    if grid is None:
        grid = psi.psi.grid
    if frame is None:
        frame = integrate_frame(profile, psi, grid)
    xs, xt = _grad(frame.grid, frame.x)
    L, M, N = _fd_second_form(frame, xs, xt)
    gss, gst, gtt = _fd_first_form(frame.grid, xs, xt)
    det_g = gss.values * gtt.values - gst.values * gst.values
    k_fd = (L.values * N.values - M.values * M.values) / det_g
    h2d = ScalarField(grid, np.broadcast_to(profile.H[:, None], grid.shape).copy())
    k_field = ScalarField(grid, k_fd)
    wed = wedge(d_scalar(h2d), d_scalar(k_field)).max_abs_interior(margin)

    k_alg = np.broadcast_to((profile.H**2 - profile.J**2)[:, None], grid.shape)
    t_var = float(np.max(k_alg.max(axis=1) - k_alg.min(axis=1)))
    return WeingartenReport(wed, t_var)


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
