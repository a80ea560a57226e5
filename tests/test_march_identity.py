"""The marches reproduce the per-stage reference loops bit for bit.

The reference functions below march stage by stage: every RK4 stage
evaluates Q (and so the Q domain guard) at its own abscissa, and the tau
march interpolates its alpha coefficients inside every stage.  The
package evaluates those state-independent coefficients once per march
(or per cell) and keeps the arithmetic of each stage, so every sample,
and every place a march stops with an error, must be exactly equal.
The psi and tau references also write out the t-edge-then-s-lines walk
by hand, which the package shares in one sweep; the frame reference
writes out the s-edge-then-t-lines walk too, which `two_path_residual`
takes as that sweep over the transposed grid.
The frame reference steps with its own copy of the per-step Rodrigues
rotation (`ref_rot_exp`, `ref_step`: two rotations per node or line),
which the package batches over the edge and over each line's full and
half steps, so a change to the step's arithmetic shows here too.  The
companion's reference rotates its coframe over the whole grid
(`ref_deformed_forms`), which the package does a line at a time.  The tau
march takes one RK4 step per cell, and its reference at four steps per
cell shows that more would move tau by far less than the march's own error.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bonnet import surface_embed
from bonnet.bonnet_solver import (
    H_BLOWUP,
    BlowUpError,
    HInitialData,
    RegimeError,
    h_third_derivative,
    integrate_h,
)
from bonnet.forms2d import Grid, OneForm, ScalarField, laplacian
from bonnet.lax_psi import PSI_BLOWUP, LaxBlowUpError, integrate_lax
from bonnet.q_family import (
    KINDS,
    Q_BLOWUP,
    QFamily,
    eval_dlog_q,
    eval_q,
    eval_q_derivatives,
    integrate_q_ode,
)
from bonnet.rk4 import sweep
from bonnet.surface_embed import (
    MAX_STEP_ANGLE,
    FrameStepError,
    _components,
    _frame_moves,
    _integrate_frame_forms,
    build_coframes,
    build_deformed_surface,
    integrate_deformation,
    integrate_frame,
    two_path_residual,
)
from conftest import coframes_at, s_first_march

FAMILIES = [QFamily(kind, sign, 1.0) for kind in KINDS for sign in (1, -1)]
ICS = dict(H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)
SHAPES = ((17, 9), (33, 65))


def window(fam):
    """A unit s-window one natural length from the pole, on the family's side."""
    return (1.0, 2.0) if fam.sign == 1 else (-2.0, -1.0)


def grid_for(fam, shape):
    s_min, s_max = window(fam)
    return Grid(s_min, s_max, 0.0, 1.0, *shape)


# ---------------------------------------------------------------------------
# reference marches


def ref_integrate_h(ics, fam, s1, n):
    """n RK4 steps of (s1 - s0)/n, every sample kept; a blow-up past H_BLOWUP
    times u, u^2 and u^3, u the data's 1/length."""
    u = max(abs(ics.H0), math.sqrt(ics.H0p), abs(ics.H0pp) ** (1.0 / 3.0),
            float(eval_q(fam, ics.s0)))
    bounds = H_BLOWUP * np.array([u, u * u, u * u * u])

    def rhs(s, y):
        H, Hp, Hpp = y
        if not (Hp > 0):
            raise RegimeError(s)
        q = eval_q(fam, s)
        return np.array([Hp, Hpp, float(h_third_derivative(q, H, Hp, Hpp, ics.tau_c))])

    h = (s1 - ics.s0) / n
    s_out = ics.s0 + h * np.arange(n + 1)
    out = np.empty((n + 1, 3))
    out[0] = (ics.H0, ics.H0p, ics.H0pp)
    y = out[0].copy()
    for k in range(n):
        s = s_out[k]
        try:
            k1 = rhs(s, y)
            k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(s + h, y + h * k3)
        except RegimeError:
            raise RegimeError(s) from None
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.any(np.abs(y) > bounds):
            raise BlowUpError(s)
        if not (y[1] > 0):
            raise RegimeError(s)
        out[k + 1] = y
    return s_out, out


def ref_integrate_q_ode(q0, q0p, s0, s1, n):
    kappa = (q0p / q0) ** 2 - q0 * q0
    h = (s1 - s0) / n

    def f(y):
        return np.array([y[1], 2.0 * y[0] ** 3 + kappa * y[0]])

    ss, qs, qps = [s0], [q0], [q0p]
    y = np.array([q0, q0p], dtype=float)
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)) or abs(y[0]) > Q_BLOWUP * q0:
                truncated = True
                break
            ss.append(s0 + (k + 1) * h)
            qs.append(float(y[0]))
            qps.append(float(y[1]))
    return np.array(ss), np.array(qs), np.array(qps), float(kappa), truncated


def ref_rk4_scalar(y, h, rhs, substeps):
    hh = h / substeps
    for m in range(substeps):
        x0 = m / substeps
        k1 = rhs(x0, y)
        k2 = rhs(x0 + 0.5 / substeps, y + 0.5 * hh * k1)
        k3 = rhs(x0 + 0.5 / substeps, y + 0.5 * hh * k2)
        k4 = rhs(x0 + 1.0 / substeps, y + hh * k3)
        y = y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def ref_guard_psi(value, node):
    arr = np.atleast_1d(np.asarray(value))
    bad = ~np.isfinite(arr) | (np.abs(arr) > PSI_BLOWUP)
    if np.any(bad):
        k = int(np.argmax(bad))
        i, j = node
        raise LaxBlowUpError((k if i is None else i, k if j is None else j))


def ref_integrate_lax(fam, grid, psi0, substeps):
    s = grid.s_nodes()
    vals = np.empty(grid.shape)

    def rhs_s(sv, psi):
        return -0.5 * eval_q(fam, sv) * np.sin(2.0 * psi)

    def rhs_t(sv, psi):
        return 0.5 * eval_dlog_q(fam, sv) - 0.5 * eval_q(fam, sv) * np.cos(2.0 * psi)

    psi = float(psi0)
    vals[0, 0] = psi
    for j in range(grid.nt - 1):
        psi = ref_rk4_scalar(psi, grid.h_t, lambda f, y: rhs_t(s[0], y), substeps)
        ref_guard_psi(psi, (0, j + 1))
        vals[0, j + 1] = psi
    row = vals[0, :].copy()
    for i in range(grid.ns - 1):
        s0, s1 = s[i], s[i + 1]
        row = ref_rk4_scalar(
            row, grid.h_s, lambda f, y: rhs_s(s0 + f * (s1 - s0), y), substeps
        )
        ref_guard_psi(row, (i + 1, None))
        vals[i + 1, :] = row
    return vals


def ref_integrate_deformation(cf, t0, substeps):
    g = cf.grid
    ns, nt = g.shape
    a1p, a1q = cf.alpha1.p.values, cf.alpha1.q.values
    a2p, a2q = cf.alpha2.p.values, cf.alpha2.q.values
    tau = np.empty(g.shape)
    tau[0, 0] = math.atan2(1.0, t0)

    def advance(y, h, c1a, c1b, c2a, c2b):
        m = substeps
        hh = h / m
        for k in range(m):
            base = k / m

            def rhs(frac, yv):
                f = base + frac / m
                ca = (1.0 - f) * c1a + f * c1b
                cb = (1.0 - f) * c2a + f * c2b
                st = np.sin(yv)
                return st * st * cb - st * np.cos(yv) * ca

            k1 = rhs(0.0, y)
            k2 = rhs(0.5, y + 0.5 * hh * k1)
            k3 = rhs(0.5, y + 0.5 * hh * k2)
            k4 = rhs(1.0, y + hh * k3)
            y = y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    for j in range(nt - 1):
        tau[0, j + 1] = advance(
            tau[0, j], g.h_t, a1q[0, j], a1q[0, j + 1], a2q[0, j], a2q[0, j + 1]
        )
    for i in range(ns - 1):
        tau[i + 1, :] = advance(
            tau[i, :], g.h_s, a1p[i, :], a1p[i + 1, :], a2p[i, :], a2p[i + 1, :]
        )
    return tau


def ref_rot_exp(m12, m13, m23) -> np.ndarray:
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


def ref_step(xc, Ec, m12, m13, m23, a1, a2):
    """One exact-rotation step: frame by exp(M), position by the midpoint frame."""
    rot = ref_rot_exp(m12, m13, m23)
    half = ref_rot_exp(0.5 * np.asarray(m12), 0.5 * np.asarray(m13), 0.5 * np.asarray(m23))
    mid = half @ Ec
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    xn = xc + a1[..., None] * mid[..., 0, :] + a2[..., None] * mid[..., 1, :]
    return xn, rot @ Ec


def ref_integrate_frame(w1, w2, w12, w13, w23, grid, order):
    """The frame march from the identity frame at the origin, node by node."""
    ns, nt = grid.shape
    hs, ht = grid.h_s, grid.h_t
    x = np.empty((ns, nt, 3))
    E = np.empty((ns, nt, 3, 3))
    x[0, 0] = 0.0
    E[0, 0] = np.eye(3)

    def trap_p(w, i):
        return 0.5 * (w.p.values[i, :] + w.p.values[i + 1, :]) * hs

    def trap_q_edge(w, j, i=0):
        return 0.5 * (w.q.values[i, j] + w.q.values[i, j + 1]) * ht

    def trap_q(w, j):
        return 0.5 * (w.q.values[:, j] + w.q.values[:, j + 1]) * ht

    def trap_p_edge(w, i, j=0):
        return 0.5 * (w.p.values[i, j] + w.p.values[i + 1, j]) * hs

    if order == "t_first":
        for j in range(nt - 1):
            x[0, j + 1], E[0, j + 1] = ref_step(
                x[0, j], E[0, j],
                trap_q_edge(w12, j), trap_q_edge(w13, j), trap_q_edge(w23, j),
                trap_q_edge(w1, j), trap_q_edge(w2, j),
            )
        for i in range(ns - 1):
            x[i + 1, :], E[i + 1, :] = ref_step(
                x[i, :], E[i, :],
                trap_p(w12, i), trap_p(w13, i), trap_p(w23, i),
                trap_p(w1, i), trap_p(w2, i),
            )
    else:
        for i in range(ns - 1):
            x[i + 1, 0], E[i + 1, 0] = ref_step(
                x[i, 0], E[i, 0],
                trap_p_edge(w12, i), trap_p_edge(w13, i), trap_p_edge(w23, i),
                trap_p_edge(w1, i), trap_p_edge(w2, i),
            )
        for j in range(nt - 1):
            x[:, j + 1], E[:, j + 1] = ref_step(
                x[:, j], E[:, j],
                trap_q(w12, j), trap_q(w13, j), trap_q(w23, j),
                trap_q(w1, j), trap_q(w2, j),
            )
    return x, E


def ref_forms(w1, w2, w12, profile):
    """(w1, w2, w12, w13, w23) with w13 = (H + J) w1 and w23 = (H - J) w2."""
    shape = w1.grid.shape
    a2d = ScalarField(w1.grid, np.broadcast_to((profile.H + profile.J)[:, None], shape))
    c2d = ScalarField(w1.grid, np.broadcast_to((profile.H - profile.J)[:, None], shape))
    return w1, w2, w12, w1 * a2d, w2 * c2d


def ref_deformed_forms(cf, profile, tau):
    """(w1, w2, w12, w13, w23) of the companion rotated by tau, with
    d(tau) = sin^2(tau) alpha2 - sin(tau) cos(tau) alpha1."""
    st, ct = np.sin(tau.values), np.cos(tau.values)
    w1s = cf.omega1 * ct - cf.omega2 * st
    w2s = cf.omega1 * st + cf.omega2 * ct
    w12s = cf.omega12 - (cf.alpha2 * (st * st) - cf.alpha1 * (st * ct))
    return ref_forms(w1s, w2s, w12s, profile)


def raised(fn, *args, **kwargs):
    """(result, None) or (None, the exception fn raised)."""
    try:
        return fn(*args, **kwargs), None
    except (RegimeError, BlowUpError, LaxBlowUpError) as exc:
        return None, exc


# ---------------------------------------------------------------------------
# bit identity


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_h_march_matches_reference(fam, shape):
    """Every fine node at one step a cell, and every 8th of them at 8 steps a cell."""
    grid = grid_for(fam, shape)
    ics = HInitialData(s0=grid.s_min, **ICS)
    n = (grid.ns - 1) * 8
    s_ref, out_ref = ref_integrate_h(ics, fam, grid.s_max, n)
    fine = Grid(grid.s_min, grid.s_max, grid.t_min, grid.t_max, n + 1, grid.nt)
    for prof, every in ((integrate_h(ics, fam, fine, substeps=1), 1),
                        (integrate_h(ics, fam, grid, substeps=8), 8)):
        assert np.array_equal(prof.s, s_ref[::every])
        for col, name in enumerate(("H", "Hp", "Hpp")):
            assert np.array_equal(getattr(prof, name), out_ref[::every, col]), name


@pytest.mark.parametrize("H0p, H0pp, n, error", [
    (0.01, -10.0, 200, RegimeError),   # in the first step
    (0.1, 30.0, 20, RegimeError),
    (0.1, 30.0, 100, RegimeError),
    (0.01, 3.0, 100, RegimeError),
    (1.0, 1e5, 2000, BlowUpError),     # in the second step
    (0.1, 300.0, 100, BlowUpError),
    (0.01, 3.0, 200, BlowUpError),
])
def test_h_march_stops_where_the_reference_stops(H0p, H0pp, n, error):
    fam = QFamily("rational", 1, 1.0)
    ics = HInitialData(1.0, 0.0, H0p, H0pp, 1.0)
    _, got = raised(integrate_h, ics, fam, Grid(1.0, 3.0, 0.0, 1.0, n + 1, 5), substeps=1)
    _, want = raised(ref_integrate_h, ics, fam, 3.0, n)
    assert type(got) is type(want) is error
    assert got.last_valid_s == want.last_valid_s


@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_q_march_matches_reference(fam):
    s0, s1 = window(fam)[::fam.sign]  # away from the pole at s = 0
    q0, q0p, _ = eval_q_derivatives(fam, s0)
    for n in (100, 1000):  # steps 1e-2 and 1e-3 over the unit window
        traj = integrate_q_ode(float(q0), float(q0p), s0, s1, n)
        ref = ref_integrate_q_ode(float(q0), float(q0p), s0, s1, n)
        got = (traj.s, traj.q, traj.qp, traj.kappa, traj.truncated)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("args", [
    (eval_q(QFamily("trig", 1, 1.0), 1.0), 0.0, 1.0, math.pi + 0.5, 2642),   # Q_BLOWUP
    (1e6, 1e12, 0.0, 1e14, 1),                                               # Q**3 overflows
])
def test_q_march_truncates_where_the_reference_does(args):
    q0, *rest = args
    traj = integrate_q_ode(float(q0), *rest)
    ref = ref_integrate_q_ode(float(q0), *rest)
    assert traj.truncated and ref[4]
    for a, b in zip((traj.s, traj.q, traj.qp), ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_psi_march_matches_reference(fam, shape):
    grid = grid_for(fam, shape)
    got = integrate_lax(fam, grid, 0.3, substeps=8).values
    assert np.array_equal(got, ref_integrate_lax(fam, grid, 0.3, 8))


@pytest.mark.parametrize("s_min, t_max", [(0.0011, 5.0), (0.01, 50.0)])
@pytest.mark.parametrize("kind", ("rational", "hyper"))
def test_psi_blow_up_node_matches_reference(kind, s_min, t_max):
    fam = QFamily(kind, 1, 1.0)
    grid = Grid(s_min, 0.5, 0.0, t_max, 9, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        _, got = raised(integrate_lax, fam, grid, 0.3, substeps=1)
        _, want = raised(ref_integrate_lax, fam, grid, 0.3, 1)
    assert isinstance(got, LaxBlowUpError) and isinstance(want, LaxBlowUpError)
    assert got.node == want.node


@pytest.fixture(scope="module")
def coframe_sets():
    sets = []
    for fam in FAMILIES:
        grid = grid_for(fam, SHAPES[1])
        psi = integrate_lax(fam, grid, 0.3)
        ics = HInitialData(s0=grid.s_min, **ICS)
        sets.append(build_coframes(integrate_h(ics, fam, grid), psi))
    return sets


def test_tau_march_matches_reference(coframe_sets, demo_coframes):
    # one step per cell: the reference's interpolated midpoint is 0.5 c_src + 0.5 c_dst
    for cf in coframe_sets + [demo_coframes]:
        for t0 in (1.0, -0.4):
            got = integrate_deformation(cf, t0)
            want = ref_integrate_deformation(cf, t0, substeps=1)
            assert np.array_equal(got.values, want)


@pytest.mark.parametrize("config", ["configs/demo_rational.json",
                                    "bench/configs/hyper_minus.json"])
def test_tau_march_is_second_order_and_one_step_per_cell_is_enough(config):
    # alpha is interpolated linearly inside each cell, so the march converges at
    # O(h^2) whatever its step; RK4's own error is O(h^4), so on every refined level
    # four steps per cell move tau by far less than the march's own error
    coframes = [coframes_at(config, 16 * 2 ** k + 1) for k in range(4)]
    for t0 in (1.0, -0.7):
        # tau at the base nodes, one step and four steps per cell
        one = [integrate_deformation(cf, t0).values[::2 ** k, ::2 ** k]
               for k, cf in enumerate(coframes)]
        four = [ref_integrate_deformation(cf, t0, substeps=4)[::2 ** k, ::2 ** k]
                for k, cf in enumerate(coframes)]
        change = [np.max(np.abs(b - a)) for a, b in zip(one, one[1:])]
        orders = [math.log2(a / b) for a, b in zip(change, change[1:])]
        assert min(orders) >= 1.9, orders
        for k in range(1, 4):
            assert np.max(np.abs(one[k] - four[k])) <= 1e-2 * change[k - 1]


@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_tau_is_harmonic_on_every_family(fam):
    # the angle of deformation is harmonic (Kamberov, Pedit & Pinkall 1998), and
    # the t-first march is the only one, so the Laplacian of its tau converges
    # to zero at second order on each family's window, for either sign of t0
    lap = {1.0: [], -0.7: []}
    for n in (65, 129, 257):
        grid = grid_for(fam, (n, n))
        psi = integrate_lax(fam, grid, 0.3)
        cf = build_coframes(integrate_h(HInitialData(s0=grid.s_min, **ICS), fam, grid), psi)
        for t0, values in lap.items():
            values.append(laplacian(integrate_deformation(cf, t0)).max_abs_interior(2))
    for values in lap.values():
        orders = [math.log2(a / b) for a, b in zip(values, values[1:])]
        assert min(orders) >= 1.9, orders


@pytest.fixture(scope="module")
def frame_cases():
    """(profile, coframes) of two families, one of each sign, on both shapes."""
    cases = []
    for fam in (QFamily("rational", 1, 1.0), QFamily("trig", -1, 1.0)):
        for shape in SHAPES:
            grid = grid_for(fam, shape)
            psi = integrate_lax(fam, grid, 0.3)
            profile = integrate_h(HInitialData(s0=grid.s_min, **ICS), fam, grid)
            cases.append((profile, build_coframes(profile, psi)))
    return cases


def frame_march(order, forms, profile, public):
    """The package's march of forms[:3] along `order`: public(), the public
    t-first march of those forms, or _frame_moves(..., s_first=True) stored."""
    return public() if order == "t_first" else s_first_march(*forms[:3], profile)


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_frame_march_matches_reference(frame_cases, order):
    for profile, cf in frame_cases:
        forms = ref_forms(cf.omega1, cf.omega2, cf.omega12, profile)
        got = frame_march(order, forms, profile, lambda: integrate_frame(cf))
        want = ref_integrate_frame(*forms, cf.grid, order)
        assert np.array_equal(got.x, want[0])
        assert np.array_equal(got.frames, want[1])


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_deformed_frame_matches_reference(frame_cases, order):
    for profile, cf in frame_cases:
        tau = integrate_deformation(cf, 1.0)
        forms = ref_deformed_forms(cf, profile, tau)
        got = frame_march(order, forms, profile, lambda: build_deformed_surface(cf, tau))
        want = ref_integrate_frame(*forms, cf.grid, order)
        assert np.array_equal(got.x, want[0])
        assert np.array_equal(got.frames, want[1])


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_frame_march_makes_one_rotation_call_per_line_step(frame_cases, monkeypatch, order):
    # one call for the whole edge's full and half steps, then one per line step
    calls = []
    rot_exp = surface_embed._rot_exp

    def counted(*args):
        calls.append(args)
        return rot_exp(*args)

    monkeypatch.setattr(surface_embed, "_rot_exp", counted)
    for profile, cf in frame_cases:
        lines = (cf.grid.ns if order == "t_first" else cf.grid.nt) - 1
        tau = integrate_deformation(cf, 1.0)
        for forms, public in (
                (ref_forms(cf.omega1, cf.omega2, cf.omega12, profile), lambda: integrate_frame(cf)),
                (ref_deformed_forms(cf, profile, tau), lambda: build_deformed_surface(cf, tau))):
            calls.clear()
            frame_march(order, forms, profile, public)
            assert len(calls) == lines + 1


def spiked_forms(grid, spikes):
    """(w1, w2, w12), all zero but w12 = value at each node of `spikes`,
    in both its ds and dt components."""
    w12 = np.zeros(grid.shape)
    for node, value in spikes.items():
        w12[node] = value
    zero = ScalarField(grid, np.zeros(grid.shape))
    zero = OneForm(zero, zero)
    return zero, zero, OneForm(ScalarField(grid, w12), ScalarField(grid, w12))


def flat_profile(grid):
    """Zero H and J, the only profile arrays the frame march's second forms read."""
    return SimpleNamespace(H=np.zeros(grid.ns), J=np.zeros(grid.ns))


# on a 9 x 9 unit grid (h = 1/8) a spike of v at one node makes the two steps
# next to it rotate by v / 16, over MAX_STEP_ANGLE = 0.5 for v = 10 and 20
EDGE_SPIKES = {(0, 2): 10.0, (0, 6): 20.0, (2, 0): 10.0, (6, 0): 20.0}
LINE_SPIKES = {(4, 4): 10.0}


@pytest.mark.parametrize("order", ("t_first", "s_first"))
@pytest.mark.parametrize("spikes, angle", [(EDGE_SPIKES, "1.25"), (LINE_SPIKES, "0.625")],
                         ids=("edge", "line"))
def test_oversize_frame_step_raises_before_the_march_goes_on(order, spikes, angle):
    assert MAX_STEP_ANGLE == 0.5
    grid = Grid(0.0, 1.0, 0.0, 1.0, 9, 9)
    forms = spiked_forms(grid, spikes)
    profile = flat_profile(grid)
    with pytest.raises(FrameStepError, match="refine the grid") as got:
        if order == "t_first":
            _integrate_frame_forms(grid, profile, _components(forms[2], *forms[:2]))
        else:
            s_first_march(*forms, profile)
    # the edge is checked whole before it is marched, so its largest step is
    # named; the node-by-node reference names the first, 0.625 rad
    assert f"rotation step of {angle} rad" in str(got.value)
    with pytest.raises(FrameStepError, match="rotation step of 0.625 rad"):
        ref_integrate_frame(*ref_forms(*forms, profile), grid, order)


ALL = slice(None)


def test_sweep_walks_the_edge_then_the_lines():
    visits = [(1, (0, 0), (0, 1)), (1, (0, 1), (0, 2)), (1, (0, 2), (0, 3)),
              (0, (0, ALL), (1, ALL)), (0, (1, ALL), (2, ALL))]
    seen, handed = [], []
    ij = np.zeros((3, 4, 2))
    count = np.zeros((3, 4))

    def step(axis, src, dst, state):
        seen.append((axis, src, dst))
        pos, n = state
        assert np.array_equal(n, count[src])
        pos = pos.copy()
        pos[..., axis] += 1.0
        return pos, n + 1.0

    # each state is handed over as it is made, the corner's first
    for node, (pos, n) in sweep(count.shape, [np.ones(2), 1.0], step):
        handed.append(node)
        ij[node], count[node] = pos, n
    assert seen == visits
    assert handed == [(0, 0)] + [dst for _, _, dst in visits]
    i, j = np.indices(count.shape)
    assert np.array_equal(ij, np.stack([i + 1.0, j + 1.0], axis=-1))
    assert np.array_equal(count, 1.0 + i + j)


@pytest.mark.parametrize("s_first, handed", [
    (False, [(0, j) for j in range(6)] + [(i, ALL) for i in range(1, 5)]),
    (True, [(i, 0) for i in range(5)] + [(ALL, j) for j in range(1, 6)]),
])
def test_frame_moves_walk_either_edge_then_the_lines(s_first, handed):
    # w1 = ds and w2 = dt with no rotation: a step in s moves x by h_s e1 and a
    # step in t by h_t e2, so each node's x names the node (steps 1 and 2),
    # whichever way the march reached it
    grid = Grid(0.0, 4.0, 0.0, 10.0, 5, 6)
    one, zero = ScalarField(grid, np.ones(grid.shape)), ScalarField(grid, np.zeros(grid.shape))
    forms = _components(OneForm(zero, zero), OneForm(one, zero), OneForm(zero, one))
    moves = list(_frame_moves(grid, flat_profile(grid), forms, s_first=s_first))
    assert [node for node, _ in moves] == handed
    x = np.empty(grid.shape + (3,))
    for node, (xn, E) in moves:
        x[node] = xn
        assert np.array_equal(E, np.broadcast_to(np.eye(3), np.shape(xn)[:-1] + (3, 3)))
    i, j = np.indices(grid.shape)
    assert np.array_equal(x, np.stack([1.0 * i, 2.0 * j, 0.0 * i], axis=-1))


def ref_two_path_residual(cf, frame):
    """The s-first march stored over the grid, then the max of |difference| from
    `frame` over x and over the frames."""
    other = s_first_march(cf.omega1, cf.omega2, cf.omega12, cf.profile)
    return float(np.max([np.max(np.abs(frame.x - other.x)),
                         np.max(np.abs(frame.frames - other.frames))]))


@pytest.mark.parametrize("shape", SHAPES)
def test_two_path_residual_matches_the_stored_march(shape):
    # the six families and the demo; two_path_residual compares the s-first march
    # line by line as it arrives
    sets = []
    for fam in FAMILIES:
        grid = grid_for(fam, shape)
        ics = HInitialData(s0=grid.s_min, **ICS)
        sets.append(build_coframes(integrate_h(ics, fam, grid), integrate_lax(fam, grid, 0.3)))
    sets.append(coframes_at("configs/demo_rational.json", shape[0]))
    for cf in sets:
        frame = integrate_frame(cf)
        assert two_path_residual(cf, frame) == ref_two_path_residual(cf, frame)


def test_two_path_residual_keeps_a_nan_of_one_s_first_line(frame_cases, monkeypatch):
    _, cf = frame_cases[1]
    frame = integrate_frame(cf)
    assert not math.isnan(two_path_residual(cf, frame))
    line = (ALL, cf.grid.nt // 2)
    march = surface_embed.sweep

    def spoiled(*args):
        # a NaN in one frame of one line; the march goes on from the clean state.
        # The s-first march is the sweep of the transposed grid, so its nodes are
        # turned back
        for node, (x, E) in march(*args):
            if node[::-1] == line:
                E = E.copy()
                E[3, 1, 1] = np.nan
            yield node, (x, E)

    monkeypatch.setattr(surface_embed, "sweep", spoiled)
    assert math.isnan(two_path_residual(cf, frame))
