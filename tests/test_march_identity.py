"""The marches reproduce the per-stage reference loops bit for bit.

The reference functions below march stage by stage: every RK4 stage
evaluates Q (and so the Q domain guard) at its own abscissa, and the tau
march interpolates its alpha coefficients inside every stage.  The
package evaluates those state-independent coefficients once per march
(or per cell) and keeps the arithmetic of each stage, so every sample,
and every place a march stops with an error, must be exactly equal.
The psi, tau and frame references also write out the edge-then-lines
walk for each order by hand, which the package shares in one sweep.
"""
import math

import numpy as np
import pytest

from bonnet.bonnet_solver import (
    H_BLOWUP,
    BlowUpError,
    HInitialData,
    RegimeError,
    h_third_derivative,
    integrate_h,
    integrate_h_on_grid,
)
from bonnet.forms2d import Grid, ScalarField
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
    FrameSeed,
    _step,
    build_coframes,
    build_deformed_surface,
    integrate_deformation,
    integrate_frame,
)

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


def ref_integrate_h(ics, fam, s1, step):
    def rhs(s, y):
        H, Hp, Hpp = y
        if not (Hp > 0):
            raise RegimeError(s)
        return np.array([Hp, Hpp, float(h_third_derivative(s, H, Hp, Hpp, fam, ics.tau_c))])

    n = int(math.ceil((s1 - ics.s0) / step - 1e-12))
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
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > H_BLOWUP:
            raise BlowUpError(s)
        if not (y[1] > 0):
            raise RegimeError(s)
        out[k + 1] = y
    return s_out, out


def ref_integrate_q_ode(q0, q0p, s0, s1, step):
    kappa = (q0p / q0) ** 2 - q0 * q0
    n = int(math.ceil(abs(s1 - s0) / step - 1e-12))
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
            if not np.all(np.isfinite(y)) or abs(y[0]) > Q_BLOWUP:
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


def ref_integrate_lax(fam, grid, psi0, substeps, order):
    s = grid.s_nodes()
    vals = np.empty(grid.shape)

    def rhs_s(sv, psi):
        return -0.5 * eval_q(fam, sv) * np.sin(2.0 * psi)

    def rhs_t(sv, psi):
        return 0.5 * eval_dlog_q(fam, sv) - 0.5 * eval_q(fam, sv) * np.cos(2.0 * psi)

    psi = float(psi0)
    vals[0, 0] = psi
    if order == "t_first":
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
    else:
        for i in range(grid.ns - 1):
            s0, s1 = s[i], s[i + 1]
            psi = ref_rk4_scalar(
                psi, grid.h_s, lambda f, y: rhs_s(s0 + f * (s1 - s0), y), substeps
            )
            ref_guard_psi(psi, (i + 1, 0))
            vals[i + 1, 0] = psi
        col = vals[:, 0].copy()
        for j in range(grid.nt - 1):
            col = ref_rk4_scalar(col, grid.h_t, lambda f, y: rhs_t(s, y), substeps)
            ref_guard_psi(col, (None, j + 1))
            vals[:, j + 1] = col
    return vals


def ref_integrate_deformation(cf, t0, order, substeps=4):
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

    if order == "t_first":
        for j in range(nt - 1):
            tau[0, j + 1] = advance(
                tau[0, j], g.h_t, a1q[0, j], a1q[0, j + 1], a2q[0, j], a2q[0, j + 1]
            )
        for i in range(ns - 1):
            tau[i + 1, :] = advance(
                tau[i, :], g.h_s, a1p[i, :], a1p[i + 1, :], a2p[i, :], a2p[i + 1, :]
            )
    else:
        for i in range(ns - 1):
            tau[i + 1, 0] = advance(
                tau[i, 0], g.h_s, a1p[i, 0], a1p[i + 1, 0], a2p[i, 0], a2p[i + 1, 0]
            )
        for j in range(nt - 1):
            tau[:, j + 1] = advance(
                tau[:, j], g.h_t, a1q[:, j], a1q[:, j + 1], a2q[:, j], a2q[:, j + 1]
            )
    return tau


def ref_integrate_frame(w1, w2, w12, w13, w23, grid, seed, order):
    ns, nt = grid.shape
    hs, ht = grid.h_s, grid.h_t
    x = np.empty((ns, nt, 3))
    E = np.empty((ns, nt, 3, 3))
    x[0, 0] = seed.x0
    E[0, 0] = seed.frame_matrix()

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
            x[0, j + 1], E[0, j + 1] = _step(
                x[0, j], E[0, j],
                trap_q_edge(w12, j), trap_q_edge(w13, j), trap_q_edge(w23, j),
                trap_q_edge(w1, j), trap_q_edge(w2, j),
            )
        for i in range(ns - 1):
            x[i + 1, :], E[i + 1, :] = _step(
                x[i, :], E[i, :],
                trap_p(w12, i), trap_p(w13, i), trap_p(w23, i),
                trap_p(w1, i), trap_p(w2, i),
            )
    else:
        for i in range(ns - 1):
            x[i + 1, 0], E[i + 1, 0] = _step(
                x[i, 0], E[i, 0],
                trap_p_edge(w12, i), trap_p_edge(w13, i), trap_p_edge(w23, i),
                trap_p_edge(w1, i), trap_p_edge(w2, i),
            )
        for j in range(nt - 1):
            x[:, j + 1], E[:, j + 1] = _step(
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


def ref_deformed_forms(cf, profile, dp):
    """(w1, w2, w12, w13, w23) of the companion rotated by tau."""
    t = dp.t_field.values
    den = np.sqrt(1.0 + t * t)
    st = 1.0 / den
    ct = t / den
    w1s = cf.omega1 * ct - cf.omega2 * st
    w2s = cf.omega1 * st + cf.omega2 * ct
    inv = 1.0 / (1.0 + t * t)
    w12s = cf.omega12 - (cf.alpha2 - cf.alpha1 * t) * inv
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
    grid = grid_for(fam, shape)
    ics = HInitialData(s0=grid.s_min, **ICS)
    step = grid.h_s / 8
    prof = integrate_h(ics, fam, grid.s_max, step)
    s_ref, out_ref = ref_integrate_h(ics, fam, grid.s_max, step)
    assert np.array_equal(prof.s, s_ref)
    for col, name in enumerate(("H", "Hp", "Hpp")):
        assert np.array_equal(getattr(prof, name), out_ref[:, col]), name


@pytest.mark.parametrize("H0p, H0pp, step, error", [
    (0.01, -10.0, 1e-2, RegimeError),   # in the first step
    (0.1, 30.0, 1e-1, RegimeError),
    (0.1, 30.0, 2e-2, RegimeError),
    (0.01, 3.0, 2e-2, RegimeError),
    (1.0, 1e5, 1e-3, BlowUpError),      # in the first step
    (0.1, 300.0, 2e-2, BlowUpError),
    (0.01, 3.0, 1e-2, BlowUpError),
])
def test_h_march_stops_where_the_reference_stops(H0p, H0pp, step, error):
    fam = QFamily("rational", 1, 1.0)
    ics = HInitialData(1.0, 0.0, H0p, H0pp, 1.0)
    _, got = raised(integrate_h, ics, fam, 3.0, step)
    _, want = raised(ref_integrate_h, ics, fam, 3.0, step)
    assert type(got) is type(want) is error
    assert got.last_valid_s == want.last_valid_s


@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_q_march_matches_reference(fam):
    s0, s1 = window(fam)[::fam.sign]  # away from the pole at s = 0
    q0, q0p, _ = eval_q_derivatives(fam, s0)
    for step in (1e-2, 1e-3):
        traj = integrate_q_ode(float(q0), float(q0p), s0, s1, step)
        ref = ref_integrate_q_ode(float(q0), float(q0p), s0, s1, step)
        got = (traj.s, traj.q, traj.qp, traj.kappa, traj.truncated)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("args", [
    (eval_q(QFamily("trig", 1, 1.0), 1.0), 0.0, 1.0, math.pi + 0.5, 1e-3),   # Q_BLOWUP
    (1e6, 1e12, 0.0, 1e14, 1e14),                                            # Q**3 overflows
])
def test_q_march_truncates_where_the_reference_does(args):
    q0, *rest = args
    traj = integrate_q_ode(float(q0), *rest)
    ref = ref_integrate_q_ode(float(q0), *rest)
    assert traj.truncated and ref[4]
    for a, b in zip((traj.s, traj.q, traj.qp), ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("order", ("t_first", "s_first"))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fam", FAMILIES, ids=str)
def test_psi_march_matches_reference(fam, shape, order):
    grid = grid_for(fam, shape)
    got = integrate_lax(fam, grid, 0.3, substeps=8, order=order).psi.values
    assert np.array_equal(got, ref_integrate_lax(fam, grid, 0.3, 8, order))


@pytest.mark.parametrize("order", ("t_first", "s_first"))
@pytest.mark.parametrize("s_min, t_max", [(0.0011, 5.0), (0.01, 50.0)])
@pytest.mark.parametrize("kind", ("rational", "hyper"))
def test_psi_blow_up_node_matches_reference(kind, s_min, t_max, order):
    fam = QFamily(kind, 1, 1.0)
    grid = Grid(s_min, 0.5, 0.0, t_max, 9, 9)
    with np.errstate(over="ignore", invalid="ignore"):
        _, got = raised(integrate_lax, fam, grid, 0.3, substeps=1, order=order)
        _, want = raised(ref_integrate_lax, fam, grid, 0.3, 1, order)
    assert isinstance(got, LaxBlowUpError) and isinstance(want, LaxBlowUpError)
    assert got.node == want.node


@pytest.fixture(scope="module")
def coframe_sets():
    sets = []
    for fam in FAMILIES:
        grid = grid_for(fam, SHAPES[1])
        psi = integrate_lax(fam, grid, 0.3)
        ics = HInitialData(s0=grid.s_min, **ICS)
        sets.append(build_coframes(integrate_h_on_grid(ics, fam, grid), psi, grid))
    return sets


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_tau_march_matches_reference(coframe_sets, demo_coframes, order):
    for cf in coframe_sets + [demo_coframes]:
        for t0, substeps in ((1.0, 4), (-0.4, 3)):
            got = integrate_deformation(cf, t0, order=order, substeps=substeps)
            want = ref_integrate_deformation(cf, t0, order, substeps)
            assert np.array_equal(got.tau_field.values, want)


@pytest.fixture(scope="module")
def frame_cases():
    """(profile, psi, coframes) of two families, one of each sign, on both shapes."""
    cases = []
    for fam in (QFamily("rational", 1, 1.0), QFamily("trig", -1, 1.0)):
        for shape in SHAPES:
            grid = grid_for(fam, shape)
            psi = integrate_lax(fam, grid, 0.3)
            profile = integrate_h_on_grid(HInitialData(s0=grid.s_min, **ICS), fam, grid)
            cases.append((profile, psi, build_coframes(profile, psi, grid)))
    return cases


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_frame_march_matches_reference(frame_cases, order):
    seed = FrameSeed(x0=(0.5, -1.0, 2.0))
    for profile, psi, cf in frame_cases:
        got = integrate_frame(profile, psi, seed=seed, order=order, coframes=cf)
        want = ref_integrate_frame(
            *ref_forms(cf.omega1, cf.omega2, cf.omega12, profile), cf.grid, seed, order)
        assert np.array_equal(got.x, want[0])
        assert np.array_equal(got.frames, want[1])


@pytest.mark.parametrize("order", ("t_first", "s_first"))
def test_deformed_frame_matches_reference(frame_cases, order):
    seed = FrameSeed()
    for profile, psi, cf in frame_cases:
        dp = integrate_deformation(cf, 1.0)
        got, _ = build_deformed_surface(profile, psi, dp, coframes=cf, order=order)
        want = ref_integrate_frame(*ref_deformed_forms(cf, profile, dp), cf.grid, seed, order)
        assert np.array_equal(got.x, want[0])
        assert np.array_equal(got.frames, want[1])


ALL = slice(None)


@pytest.mark.parametrize("order, visits", [
    ("t_first", [(1, (0, 0), (0, 1)), (1, (0, 1), (0, 2)), (1, (0, 2), (0, 3)),
                 (0, (0, ALL), (1, ALL)), (0, (1, ALL), (2, ALL))]),
    ("s_first", [(0, (0, 0), (1, 0)), (0, (1, 0), (2, 0)),
                 (1, (ALL, 0), (ALL, 1)), (1, (ALL, 1), (ALL, 2)), (1, (ALL, 2), (ALL, 3))]),
])
def test_sweep_walks_the_edge_then_the_lines(order, visits):
    seen = []
    ij = np.zeros((3, 4, 2))
    count = np.zeros((3, 4))
    ij[0, 0] = count[0, 0] = 1.0

    def step(axis, src, dst, state):
        seen.append((axis, src, dst))
        pos, n = state
        assert np.array_equal(n, count[src])
        pos = pos.copy()
        pos[..., axis] += 1.0
        return pos, n + 1.0

    sweep(order, [ij, count], step)
    assert seen == visits
    i, j = np.indices(count.shape)
    assert np.array_equal(ij, np.stack([i + 1.0, j + 1.0], axis=-1))
    assert np.array_equal(count, 1.0 + i + j)


def test_sweep_rejects_an_unknown_order_before_any_step():
    def step(axis, src, dst, state):
        raise AssertionError("step called")

    field = np.zeros((5, 5))
    with pytest.raises(ValueError, match="t_first"):
        sweep("diagonal", [field], step)
    assert not field.any()
