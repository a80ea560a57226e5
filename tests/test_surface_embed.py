"""Coframes, structure residuals, frame integration, and the deformation family.

All the geometry funnels through the demo surface fixtures (rational
family on [1,2]x[0,1], 64x64).  Residual bounds use 25 h^2 with h = 1/63,
the same working tolerance the command-line verifier applies.
"""
import math

import numpy as np
import pytest

from bonnet.forms2d import CoframeSingularError, Grid, ScalarField, d_scalar, wedge
from bonnet.q_family import ConsistencyError, QFamily, eval_dlog_q
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.bonnet_solver import integrate_h_on_grid, perturbed_profile
from bonnet.surface_embed import (
    DeformationParam,
    FrameSeed,
    build_coframes,
    build_deformed_surface,
    codazzi_summary_residuals,
    connection_from_coframe,
    deformation_report,
    export_obj,
    first_form_fd,
    fundamental_forms,
    integrate_deformation,
    integrate_frame,
    metric_recovery_residual,
    rotation_transform_residual,
    scaling_transform_residual,
    second_form_fd,
    second_form_vs_frame,
    structure_residuals,
    theta12_form,
    theta12_report,
    two_path_residual,
    weingarten_residual,
    _rot_exp,
)

TOL = 25.0 / 63.0 ** 2  # working FD tolerance on the demo grid


def test_frame_seed_validation():
    FrameSeed()  # identity default is fine
    with pytest.raises(ValueError):
        FrameSeed(e1=(2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        FrameSeed(e3=(0.0, 0.0, -1.0))  # left-handed
    with pytest.raises(ValueError):
        FrameSeed(x0=(0.0, math.nan, 0.0))
    m = FrameSeed().frame_matrix()
    assert np.array_equal(m, np.eye(3))


def test_coframe_algebra(demo_coframes, demo_profile):
    cf = demo_coframes
    q2d = demo_profile.Q[:, None]
    e2d = demo_profile.e[:, None]
    a2d = demo_profile.A[:, None]
    # theta1 = Q ds and theta2 = Q dt up to rounding
    assert np.max(np.abs(cf.theta1.p.values - q2d)) < 1e-13
    assert np.max(np.abs(cf.theta1.q.values)) < 1e-13
    assert np.max(np.abs(cf.theta2.q.values - q2d)) < 1e-13
    assert np.max(np.abs(cf.theta2.p.values)) < 1e-13
    # u^2 + v^2 = A^2, and omega1 ^ omega2 is the area form e^2 ds^dt
    assert np.max(np.abs(cf.u.values ** 2 + cf.v.values ** 2 - a2d ** 2)) < 1e-12
    area = wedge(cf.omega1, cf.omega2)
    assert np.max(np.abs(area.r.values - e2d ** 2)) < 1e-13
    # xi coframe is the conformal factor times coordinates
    assert np.max(np.abs(cf.xi1.p.values - e2d)) < 1e-13
    assert np.all(cf.xi1.q.values == 0.0)


def test_structure_residuals_small(demo_coframes, demo_profile):
    res = structure_residuals(demo_coframes, demo_profile)
    assert set(res) == {"d_omega1", "d_omega2", "d_omega13", "d_omega23", "d_omega12"}
    for name, value in res.items():
        assert value < TOL, name


def test_codazzi_summary_small(demo_coframes, demo_profile):
    res = codazzi_summary_residuals(demo_coframes, demo_profile)
    assert set(res) == {"codazzi_dh", "codazzi_dlog_j", "d_theta1", "d_alpha1", "d_alpha2"}
    for name, value in res.items():
        assert value < TOL, name
    # theta1 = Q ds is closed to rounding, not just to FD order
    assert res["d_theta1"] < 1e-12


def test_theta12_relations(demo_coframes, demo_psi, demo_profile):
    rep = theta12_report(demo_coframes, demo_psi, demo_profile)
    expected = {"theta12_via_psi", "theta12_hodge", "dpsi_theta",
                "d_star_omega12", "d_star_theta12", "xi12_relation"}
    assert set(rep) == expected
    for name, value in rep.items():
        assert value < TOL, name
    # *theta12 = C theta1 holds algebraically on the nose
    assert rep["theta12_hodge"] < 1e-12
    form = theta12_form(demo_coframes, demo_profile)
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


def test_frame_integration_stays_orthonormal(demo_frame, demo_grid):
    assert demo_frame.orthonormality_error() < 1e-12
    assert demo_frame.min_handedness() == pytest.approx(1.0, abs=1e-12)
    assert demo_frame.x.shape == (demo_grid.ns, demo_grid.nt, 3)
    # seed sits at the grid corner
    assert np.array_equal(demo_frame.x[0, 0], np.zeros(3))
    assert np.array_equal(demo_frame.frames[0, 0], np.eye(3))


def test_two_path_agreement(demo_profile, demo_psi, demo_frame, demo_coframes):
    res = two_path_residual(demo_profile, demo_psi)
    assert res < TOL
    # handing over the t-first frame and coframes changes no bit of the result
    assert two_path_residual(demo_profile, demo_psi, frame=demo_frame,
                             coframes=demo_coframes) == res


def test_seed_translation_is_exact(demo_profile, demo_psi, demo_frame):
    shifted = integrate_frame(demo_profile, demo_psi,
                              seed=FrameSeed(x0=(2.0, -1.0, 0.5)))
    assert np.max(np.abs(shifted.x - demo_frame.x - np.array([2.0, -1.0, 0.5]))) < 1e-12
    assert np.array_equal(shifted.frames, demo_frame.frames)


def test_seed_rotation_is_equivariant(demo_profile, demo_psi, demo_frame):
    phi = 0.5
    c, s = math.cos(phi), math.sin(phi)
    seed = FrameSeed(e1=(c, s, 0.0), e2=(-s, c, 0.0), e3=(0.0, 0.0, 1.0))
    rotated = integrate_frame(demo_profile, demo_psi, seed=seed)
    M = seed.frame_matrix()
    assert np.max(np.abs(rotated.x - demo_frame.x @ M)) < 1e-12
    assert np.max(np.abs(rotated.frames - demo_frame.frames @ M)) < 1e-12


def test_fundamental_forms_algebra(demo_forms, demo_profile):
    f = demo_forms
    e2d = np.broadcast_to(demo_profile.E[:, None], f.grid.shape)
    h2d = demo_profile.H[:, None]
    j2d = demo_profile.J[:, None]
    assert np.array_equal(f.E.values, e2d)
    # trace and determinant identities of the shape operator
    assert np.max(np.abs(f.L.values + f.N.values - 2.0 * e2d * h2d)) < 1e-12
    k = h2d ** 2 - j2d ** 2
    det = f.L.values * f.N.values - f.M.values ** 2
    assert np.max(np.abs(det - e2d ** 2 * k)) < 1e-12
    # psi(s, 0) = 0 on the demo branch, so M vanishes along that edge
    assert np.max(np.abs(f.M.values[:, 0])) < 1e-14


def test_fundamental_forms_rejects_inconsistent_profile(demo_profile, demo_psi):
    bad = perturbed_profile(demo_profile, E=demo_profile.E * 1.01)
    with pytest.raises(ConsistencyError):
        fundamental_forms(bad, demo_psi)


def test_fd_forms_recover_analytic_ones(demo_frame, demo_profile, demo_forms):
    assert metric_recovery_residual(demo_frame, demo_profile) < TOL
    assert second_form_vs_frame(demo_forms, demo_frame) < TOL
    gss, gst, gtt = first_form_fd(demo_frame)
    e2d = demo_profile.E[:, None]
    inner = slice(2, -2)
    assert np.max(np.abs(gst.values[inner, inner])) < TOL
    assert np.max(np.abs((gss.values - gtt.values)[inner, inner])) < 2 * TOL
    assert np.max(np.abs((gss.values - e2d)[inner, inner])) < TOL
    L, M, N = second_form_fd(demo_frame)
    assert np.max(np.abs((L.values - demo_forms.L.values)[inner, inner])) < TOL


def test_weingarten_functional_dependence(demo_profile, demo_psi, demo_frame):
    rep = weingarten_residual(demo_profile, demo_psi, frame=demo_frame)
    assert rep.wedge_residual < TOL
    assert rep.k_t_variation == 0.0


def test_deformation_parameter_field(demo_coframes):
    dp = integrate_deformation(demo_coframes, t0=1.0)
    assert isinstance(dp, DeformationParam)
    assert dp.t0 == 1.0
    assert dp.t_field.values[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert dp.pole_nodes == ()
    assert dp.sign_flips == 0
    assert np.all(np.abs(dp.tau_field.values) <= math.pi)
    # path orders agree to FD accuracy (closure of d tau is h^2-exact)
    other = integrate_deformation(demo_coframes, t0=1.0, order="s_first")
    assert np.max(np.abs(other.t_field.values - dp.t_field.values)) < TOL
    with pytest.raises(ValueError):
        integrate_deformation(demo_coframes, t0=math.inf)
    with pytest.raises(ValueError):
        integrate_deformation(demo_coframes, t0=1.0, substeps=0)
    with pytest.raises(ValueError):
        integrate_deformation(demo_coframes, t0=1.0, order="diagonal")


def test_deformed_surface_is_isometric_but_distinct(demo_profile, demo_psi,
                                                    demo_coframes, demo_forms):
    dp = integrate_deformation(demo_coframes, t0=1.0)
    frame, forms = build_deformed_surface(demo_profile, demo_psi, dp,
                                          coframes=demo_coframes)
    assert frame.orthonormality_error() < 1e-12
    # rotating the coframe preserves the conformal factor exactly
    assert np.max(np.abs(forms.E.values - demo_forms.E.values)) < 1e-12
    # but the second form must genuinely change
    assert np.max(np.abs(forms.L.values - demo_forms.L.values)) > 0.5


def test_deformation_report_numbers(demo_profile, demo_coframes, demo_forms, demo_psi):
    dp = integrate_deformation(demo_coframes, t0=1.0)
    frame, _ = build_deformed_surface(demo_profile, demo_psi, dp, coframes=demo_coframes)
    rep = deformation_report(demo_profile, demo_forms, dp, frame)
    assert rep["pole_count"] == 0 and rep["sign_flips"] == 0
    assert rep["metric_deviation"] < TOL * rep["metric_scale"]
    assert rep["h_deviation"] < TOL * rep["h_scale"]
    assert rep["l_deviation"] > 0.5
    assert rep["ii_deviation"] == max(rep["l_deviation"], rep["m_deviation"],
                                      rep["n_deviation"])
    assert rep["t0"] == 1.0


def test_fd_checks_differentiate_x_and_e3_once(demo_profile, demo_coframes, demo_forms,
                                               demo_psi, demo_frame, monkeypatch):
    dp = integrate_deformation(demo_coframes, t0=1.0)
    frame, _ = build_deformed_surface(demo_profile, demo_psi, dp, coframes=demo_coframes)
    gradient = np.gradient
    frame_derivatives = []

    def counted(values, *args, **kwargs):
        if np.ndim(values) == 3:  # x or e3, not a scalar field
            frame_derivatives.append(kwargs["axis"])
        return gradient(values, *args, **kwargs)

    monkeypatch.setattr(np, "gradient", counted)
    rep = deformation_report(demo_profile, demo_forms, dp, frame)
    assert sorted(frame_derivatives) == [0, 0, 1, 1]  # x_s, x_t, n_s, n_t
    frame_derivatives.clear()
    weingarten_residual(demo_profile, demo_psi, frame=demo_frame)
    assert sorted(frame_derivatives) == [0, 0, 1, 1]
    monkeypatch.undo()
    # sharing the derivatives changes no bit of the public route
    assert rep["metric_deviation"] == metric_recovery_residual(frame, demo_profile)


def test_distinct_t0_give_distinct_second_forms(demo_profile, demo_psi, demo_coframes):
    forms_by_t0 = {}
    for t0 in (0.5, 2.0):
        dp = integrate_deformation(demo_coframes, t0=t0)
        _, forms = build_deformed_surface(demo_profile, demo_psi, dp,
                                          coframes=demo_coframes)
        forms_by_t0[t0] = forms
    gap = np.max(np.abs(forms_by_t0[0.5].L.values - forms_by_t0[2.0].L.values))
    assert gap > 0.3


def test_export_obj_layout(tmp_path):
    fam = QFamily("rational", 1, 1.0)
    branch = PsiBranch("rational_upper", fam)
    grid = Grid(1.0, 2.0, 0.0, 1.0, 5, 6)
    psi = psi_field_from_branch(branch, grid)
    from bonnet.bonnet_solver import HInitialData
    profile = integrate_h_on_grid(HInitialData(1.0, 0.0, 1.0, 0.0, 1.0), fam, grid)
    frame = integrate_frame(profile, psi)
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
