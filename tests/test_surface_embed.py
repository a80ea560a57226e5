"""Coframes, structure residuals, frame integration, and the deformation family.

All the geometry funnels through the demo surface fixtures (rational
family on [1,2]x[0,1], 64x64).  Residual bounds use 25 h^2 with h = 1/63,
the same working tolerance the command-line verifier applies.
"""
import inspect
import math
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from bonnet import surface_embed
from bonnet.forms2d import CoframeSingularError, Grid, ScalarField, d_scalar, wedge
from bonnet.q_family import ConsistencyError, QFamily, eval_dlog_q
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.bonnet_solver import integrate_h
from bonnet.surface_embed import (
    CoframeSet,
    FrameField,
    build_coframes,
    build_deformed_surface,
    codazzi_summary_residuals,
    connection_from_coframe,
    deformation_report,
    export_obj,
    fd_forms,
    forms_deviation,
    fundamental_forms,
    integrate_deformation,
    integrate_frame,
    mean_curvature_deviation,
    rotation_transform_residual,
    scaling_transform_residual,
    structure_residuals,
    theta12_form,
    theta12_report,
    two_path_residual,
    weingarten_residual,
    _rot_exp,
)
from conftest import coframes_at, s_first_march

TOL = 25.0 / 63.0 ** 2  # working FD tolerance on the demo grid


def test_a_function_that_takes_a_coframe_set_reads_profile_and_psi_from_it():
    takes_cf = {}
    for name, fn in vars(surface_embed).items():
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == surface_embed.__name__):
            params = set(inspect.signature(fn).parameters)
            if "cf" in params:
                takes_cf[name] = params & {"profile", "psi"}
    assert {"theta12_form", "structure_residuals", "codazzi_summary_residuals",
            "theta12_report", "integrate_frame", "two_path_residual",
            "build_deformed_surface"} <= set(takes_cf)
    assert not any(takes_cf.values()), takes_cf


def test_coframe_algebra(demo_coframes, demo_profile, demo_psi):
    cf = demo_coframes
    q2d = demo_profile.Q[:, None]
    e2d = demo_profile.e[:, None]
    # theta1 = Q ds and theta2 = Q dt up to rounding
    assert np.max(np.abs(cf.theta1.p.values - q2d)) < 1e-13
    assert np.max(np.abs(cf.theta1.q.values)) < 1e-13
    assert np.max(np.abs(cf.theta2.q.values - q2d)) < 1e-13
    assert np.max(np.abs(cf.theta2.p.values)) < 1e-13
    # omega1 ^ omega2 is the area form e^2 ds^dt
    area = wedge(cf.omega1, cf.omega2)
    assert np.max(np.abs(area.values - e2d ** 2)) < 1e-13
    # alpha1 = Q (cos 2psi, -sin 2psi) and alpha2 = Q (sin 2psi, cos 2psi) up to rounding
    two = 2.0 * demo_psi.values
    for form, (p, q) in ((cf.alpha1, (np.cos(two), -np.sin(two))),
                         (cf.alpha2, (np.sin(two), np.cos(two)))):
        assert np.max(np.abs(form.p.values - q2d * p)) < 1e-13
        assert np.max(np.abs(form.q.values - q2d * q)) < 1e-13


COFRAMES = {"omega1", "omega2", "omega12", "xi12", "theta1", "theta2", "alpha1", "alpha2"}


def test_coframe_set_holds_no_unread_fields(demo_profile, demo_psi):
    # two fields, the grid read from psi, and each coframe cached on first read
    assert list(CoframeSet.__dataclass_fields__) == ["profile", "psi"]
    public = {name for name in vars(CoframeSet) if not name.startswith("_")}
    assert public == COFRAMES | {"grid"}
    assert all(isinstance(vars(CoframeSet)[name], cached_property) for name in COFRAMES)
    cf = build_coframes(demo_profile, demo_psi)
    assert cf.grid is demo_psi.grid and set(vars(cf)) == {"profile", "psi"}
    assert cf.alpha1 is cf.alpha1 and set(vars(cf)) & COFRAMES == {
        "omega1", "omega2", "alpha1"}


def test_structure_residuals_small(demo_coframes):
    res = structure_residuals(demo_coframes)
    assert set(res) == {"d_omega1", "d_omega2", "d_omega13", "d_omega23", "d_omega12"}
    for name, value in res.items():
        assert value < TOL, name


def test_codazzi_summary_small(demo_coframes):
    res = codazzi_summary_residuals(demo_coframes)
    assert set(res) == {"codazzi_dh", "codazzi_dlog_j", "d_theta1", "d_alpha1", "d_alpha2"}
    for name, value in res.items():
        assert value < TOL, name
    # theta1 = Q ds is closed to rounding, not just to FD order
    assert res["d_theta1"] < 1e-12


def test_theta12_relations(demo_coframes, demo_profile):
    rep = theta12_report(demo_coframes)
    expected = {"theta12_via_psi", "theta12_hodge", "dpsi_theta",
                "d_star_omega12", "d_star_theta12", "xi12_relation"}
    assert set(rep) == expected
    for name, value in rep.items():
        assert value < TOL, name
    # *theta12 = C theta1 holds algebraically on the nose
    assert rep["theta12_hodge"] < 1e-12
    form = theta12_form(demo_coframes)
    dlq = eval_dlog_q(demo_profile.family, demo_profile.s)[:, None]
    assert np.max(np.abs(form.q.values - dlq)) < 1e-12
    assert np.max(np.abs(form.p.values)) < 1e-12


def test_connection_recovery_matches_omega12(demo_coframes):
    cf = demo_coframes
    gamma = connection_from_coframe(cf.omega1, cf.omega2)
    diff = gamma - cf.omega12
    assert diff.max_abs_interior(2) < TOL


def test_connection_recovery_rejects_singular_coframe(demo_coframes):
    cf = demo_coframes
    with pytest.raises(CoframeSingularError):
        connection_from_coframe(cf.omega1, cf.omega1 * 2.0)


def test_gauge_transforms(demo_coframes):
    g = demo_coframes.grid
    angle = ScalarField.from_function(g, lambda s, t: 0.3 + 0.2 * np.sin(s) * np.cos(t))
    assert rotation_transform_residual(demo_coframes, angle) < TOL
    scale = ScalarField.from_function(g, lambda s, t: np.exp(0.1 * np.sin(s + t)))
    assert scaling_transform_residual(demo_coframes, scale) < TOL
    # constant-angle rotation changes nothing in the connection
    const = ScalarField.constant(g, 0.4)
    assert rotation_transform_residual(demo_coframes, const) < TOL


def test_rot_exp_is_a_rotation():
    m12, m13, m23 = 0.2, -0.1, 0.15
    R = _rot_exp(np.array(m12), np.array(m13), np.array(m23))
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-14
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
    # agreement with the plain matrix exponential series
    K = np.array([[0.0, m12, m13], [-m12, 0.0, m23], [-m13, -m23, 0.0]])
    series = np.eye(3)
    term = np.eye(3)
    for n in range(1, 24):
        term = term @ K / n
        series = series + term
    assert np.max(np.abs(R - series)) < 1e-14


def test_rot_exp_series_branch_is_smooth():
    tiny = _rot_exp(np.array(3e-5), np.array(4e-5), np.array(0.0))
    K = np.array([[0.0, 3e-5, 4e-5], [-3e-5, 0.0, 0.0], [-4e-5, 0.0, 0.0]])
    series = np.eye(3) + K + K @ K / 2.0 + K @ K @ K / 6.0
    assert np.max(np.abs(tiny - series)) < 1e-18
    with pytest.raises(ValueError):
        _rot_exp(np.array(0.6), np.array(0.0), np.array(0.0))


def test_rot_exp_of_a_batch_is_the_rotation_of_each_step():
    # the march hands over the steps of a whole line at once; each node's
    # rotation, on either branch, is the one a 0-d call makes of its step
    m = np.random.default_rng(3).uniform(-0.3, 0.3, (3, 4, 5))
    m[:, 0, :2] *= 1e-5
    R = _rot_exp(*m)
    assert R.shape == (4, 5, 3, 3)
    for i, j in np.ndindex(4, 5):
        assert np.array_equal(R[i, j], _rot_exp(*(np.array(c) for c in m[:, i, j])))


def test_frame_integration_stays_orthonormal(demo_frame, demo_grid):
    assert demo_frame.orthonormality_error() < 1e-12
    assert demo_frame.min_handedness() == pytest.approx(1.0, abs=1e-12)
    assert demo_frame.x.shape == (demo_grid.ns, demo_grid.nt, 3)
    # the march starts from the identity frame at the origin, the grid corner
    assert np.array_equal(demo_frame.x[0, 0], np.zeros(3))
    assert np.array_equal(demo_frame.frames[0, 0], np.eye(3))


def test_two_path_agreement(demo_frame, demo_coframes):
    res = two_path_residual(demo_coframes, demo_frame)
    assert res < TOL
    # both marches start from the identity frame at the origin
    other = s_first_march(demo_coframes.omega1, demo_coframes.omega2, demo_coframes.omega12,
                          demo_coframes.profile)
    gap = max(float(np.max(np.abs(demo_frame.x - other.x))),
              float(np.max(np.abs(demo_frame.frames - other.frames))))
    assert gap == res
    assert np.array_equal(other.x[0, 0], np.zeros(3))
    assert np.array_equal(other.frames[0, 0], np.eye(3))


def test_fundamental_forms_algebra(demo_forms, demo_profile):
    f = demo_forms
    e2d = np.broadcast_to(demo_profile.E[:, None], f.grid.shape)
    h2d = demo_profile.H[:, None]
    j2d = demo_profile.J[:, None]
    assert np.array_equal(f.gss.values, e2d)
    assert f.gtt is f.gss
    assert np.array_equal(f.gst.values, np.zeros(f.grid.shape))
    # trace and determinant identities of the shape operator
    assert np.max(np.abs(f.L.values + f.N.values - 2.0 * e2d * h2d)) < 1e-12
    k = h2d ** 2 - j2d ** 2
    det = f.L.values * f.N.values - f.M.values ** 2
    assert np.max(np.abs(det - e2d ** 2 * k)) < 1e-12
    # psi(s, 0) = 0 on the demo branch, so M vanishes along that edge
    assert np.max(np.abs(f.M.values[:, 0])) < 1e-14


def test_fundamental_forms_rejects_inconsistent_profile(demo_profile, demo_psi):
    bad = replace(demo_profile, E=demo_profile.E * 1.01)
    with pytest.raises(ConsistencyError):
        fundamental_forms(bad, demo_psi)


def test_fd_forms_recover_analytic_ones(demo_frame, demo_profile, demo_forms):
    fd = fd_forms(demo_frame)
    first, second = forms_deviation(fd, demo_forms)
    assert first < TOL
    assert second < TOL
    e2d = demo_profile.E[:, None]
    inner = slice(2, -2)
    assert np.max(np.abs(fd.gst.values[inner, inner])) < TOL
    assert np.max(np.abs((fd.gss.values - fd.gtt.values)[inner, inner])) < 2 * TOL
    assert np.max(np.abs((fd.gss.values - e2d)[inner, inner])) < TOL
    assert np.max(np.abs((fd.L.values - demo_forms.L.values)[inner, inner])) < TOL


def test_weingarten_functional_dependence(demo_profile, demo_frame):
    rep = weingarten_residual(demo_profile, fd_forms(demo_frame))
    assert rep == {"wedge_residual": rep["wedge_residual"], "k_t_variation": 0.0}
    assert rep["wedge_residual"] < TOL


def test_deformation_parameter_field(demo_coframes):
    tau = integrate_deformation(demo_coframes, t0=1.0)
    assert isinstance(tau, ScalarField) and tau.grid is demo_coframes.grid
    assert 1.0 / math.tan(tau.values[0, 0]) == pytest.approx(1.0, rel=1e-12)
    # no pole of t = cot(tau) on the demo surface: sin(tau) keeps its sign
    assert np.all(np.sin(tau.values) > 1e-12)
    assert np.all(np.abs(tau.values) <= math.pi)
    with pytest.raises(ValueError):
        integrate_deformation(demo_coframes, t0=math.inf)


# the demo at 64 x 64, and coarse grids, where one RK4 step per cell is widest, on
# both family signs
@pytest.mark.parametrize("config, ns", [("configs/demo_rational.json", 64)] + [
    (config, ns) for config in ("configs/demo_rational.json",
                                "bench/configs/rational_minus.json",
                                "bench/configs/hyper_minus.json")
    for ns in (5, 9, 17)])
@pytest.mark.parametrize("t0", [-1e6, -100.0, -0.7, 1e-6, 1.0, 100.0, 1e6])
def test_tau_stays_strictly_inside_zero_to_pi(config, ns, t0):
    # tau starts at atan2(1, t0) in (0, pi), and sin(tau) = 0 is invariant under
    # the march, so it reaches neither end: sin(tau) > 0 at every node, and
    # build_deformed_surface's rotation by sin(tau) and cos(tau) is the one by
    # t = cot(tau) with sin(tau) = 1 / sqrt(1 + t^2).  The discrete map keeps
    # that too: the RK4 step fixes tau = 0 and pi, and near either end, where the
    # right-hand side is -alpha1 (tau - k pi), it multiplies tau - k pi by RK4's
    # stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -h alpha1 where
    # alpha1 is constant across the cell, which has no real root, and by a
    # polynomial that stays positive while |h alpha1| < 3.1 at both nodes where
    # it varies (|h alpha1| <= 0.3 on these grids), so no step crosses an end
    tau = integrate_deformation(coframes_at(config, ns), t0=t0)
    assert np.all(tau.values > 0.0) and np.all(tau.values < math.pi)
    assert deformation_report(tau)["sign_flips"] == 0


def test_deformed_surface_is_distinct(demo_coframes, demo_forms):
    tau = integrate_deformation(demo_coframes, t0=1.0)
    frame = build_deformed_surface(demo_coframes, tau)
    assert isinstance(frame, FrameField)
    assert frame.orthonormality_error() < 1e-12
    # the second form must genuinely change; the isometry is judged in the report
    assert np.max(np.abs(fd_forms(frame).L.values - demo_forms.L.values)) > 0.5


def test_the_companion_meets_its_closed_form(demo_profile, demo_coframes, demo_forms):
    # its coframe is the base coframe rotated by tau, so its forms are those at psi + tau
    tau = integrate_deformation(demo_coframes, t0=1.0)
    fd = fd_forms(build_deformed_surface(demo_coframes, tau))
    closed = fundamental_forms(demo_profile, demo_coframes.psi + tau)
    metric, second = forms_deviation(fd, closed)
    assert metric < TOL * max(1.0, float(np.max(demo_profile.E)))
    assert second < TOL * max(1.0, float(np.max(demo_profile.E * (np.abs(demo_profile.H)
                                                                 + demo_profile.J))))
    assert mean_curvature_deviation(demo_profile, fd) < TOL * max(
        1.0, float(np.max(np.abs(demo_profile.H))))
    # the first forms are one E field, so the companion is isometric to the base surface
    assert forms_deviation(closed, demo_forms)[0] == 0.0
    assert forms_deviation(closed, demo_forms)[1] > 0.5
    assert deformation_report(tau) == {"pole_count": 0, "sign_flips": 0}


def test_deformation_report_counts_poles_and_sign_flips(demo_frame):
    # a hand-built tau on the 64 x 64 demo grid: 0.5 (sin > 0) but where set below
    grid = demo_frame.grid
    vals = np.full(grid.shape, 0.5)
    vals[0, 10:20] = -0.5    # t-edge: 2 flips; s-lines 10..19: 1 flip each between rows 0, 1
    vals[40:, 30] = -0.5     # s-line 30: 1 flip
    vals[5, 5] = math.pi     # pole, sin = +1.2e-16: no flip
    vals[7, 50] = 0.0        # pole, sin = 0: s-line 50 flips into and out of it, 2 flips
    vals[20, 60] = -math.pi  # pole, sin = -1.2e-16: s-line 60, 2 flips
    vals[63, 0] = 2 * math.pi  # pole, sin = -2.4e-16 on the last row: s-line 0, 1 flip
    vals[30, 40] = 1e-13     # pole, sin = 1e-13 > 0: no flip
    vals[31, 41] = 1e-11     # not a pole (POLE_EPS is 1e-12), sin > 0: no flip
    tau = ScalarField(grid, vals)
    rep = deformation_report(tau)
    assert rep["pole_count"] == 5
    assert rep["sign_flips"] == 2 + 10 + 1 + 2 + 2 + 1


def test_distinct_t0_give_distinct_second_forms(demo_coframes):
    forms_by_t0 = {}
    for t0 in (0.5, 2.0):
        tau = integrate_deformation(demo_coframes, t0=t0)
        forms_by_t0[t0] = fd_forms(build_deformed_surface(demo_coframes, tau))
    gap = np.max(np.abs(forms_by_t0[0.5].L.values - forms_by_t0[2.0].L.values))
    assert gap > 0.3


def test_export_obj_layout(tmp_path):
    fam = QFamily("rational", 1, 1.0)
    branch = PsiBranch("rational_upper", fam)
    grid = Grid(1.0, 2.0, 0.0, 1.0, 5, 6)
    psi = psi_field_from_branch(branch, grid)
    from bonnet.bonnet_solver import HInitialData
    profile = integrate_h(HInitialData(1.0, 0.0, 1.0, 0.0, 1.0), fam, grid)
    frame = integrate_frame(build_coframes(profile, psi))
    path = tmp_path / "surface.obj"
    export_obj(frame, path)
    lines = path.read_text().splitlines()
    vs = [ln for ln in lines if ln.startswith("v ")]
    fs = [ln for ln in lines if ln.startswith("f ")]
    assert len(vs) == 5 * 6
    assert len(fs) == 2 * 4 * 5
    assert vs[0] == "v 0 0 0"
    # row-major, 1-based: node (i, j) is index i*nt + j + 1
    assert fs[0] == "f 1 7 8"
    assert fs[1] == "f 1 8 2"
    idx = [int(w) for ln in fs for w in ln.split()[1:]]
    assert min(idx) == 1 and max(idx) == 30
