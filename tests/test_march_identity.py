"""The marches reproduce the per-stage reference loops bit for bit.

The reference functions below march stage by stage: every RK4 stage
evaluates Q (and so the Q domain guard) at its own abscissa, and the tau
march interpolates its alpha coefficients inside every stage.  The
package evaluates those state-independent coefficients once per march
(or per cell) and keeps the arithmetic of each stage, so every sample,
and every place a march stops with an error, must be exactly equal.
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
from bonnet.forms2d import Grid
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
from bonnet.surface_embed import build_coframes, integrate_deformation

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
