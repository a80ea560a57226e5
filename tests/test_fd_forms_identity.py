"""The shared FD fundamental forms reproduce the per-check route bit for bit.

`surface_embed.fd_forms` takes x_s, x_t, n_s and n_t of an integrated
surface once, and the metric, second-form, Weingarten and deformation
checks all read its six coefficients.  The reference functions below are
the route those checks took when each one differentiated the frame
itself: `_grad`, `_fd_first_form`, `_fd_second_form` and
`_metric_deviation` are that code word for word, and each `ref_*` is the
body of one check on it.  Every coefficient and every residual must be
exactly equal, on the base surface and on its companion at t0 = 1, for a
rational and a trig branch on two grids.  The companion is judged against
its closed-form forms, fundamental_forms at psi + tau:
`ref_companion_second_form` writes that second form out from E, H and J,
bit for bit, and `ref_second_form_change` the derived II' - II, equal to
rounding.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from bonnet import surface_embed as se
from bonnet.bonnet_solver import HInitialData, SurfaceProfile, integrate_h
from bonnet.forms2d import Grid, _adopt, d_scalar, max_interior, wedge
from bonnet.lax_psi import PsiBranch, psi_field_from_branch
from bonnet.q_family import QFamily
from bonnet.surface_embed import FrameField

# (family, psi branch, s-window)
CASES = {
    "rational_plus": (QFamily("rational", 1, 1.0), dict(case="rational_upper"), (1.0, 2.0)),
    "trig_minus": (QFamily("trig", -1, 1.0), dict(case="trig_appendix", eta=0.3), (-2.0, -1.0)),
}
SHAPES = ((17, 9), (33, 65))
COEFFICIENTS = ("gss", "gst", "gtt", "L", "M", "N")


# ---------------------------------------------------------------------------
# the per-check route


def _grad(grid: Grid, values):
    """(d/ds, d/dt) of node values by finite differences, e.g. (x_s, x_t)."""
    return (np.gradient(values, grid.h_s, axis=0, edge_order=2),
            np.gradient(values, grid.h_t, axis=1, edge_order=2))


def _fd_first_form(grid: Grid, xs, xt):
    pairs = ((xs, xs), (xs, xt), (xt, xt))
    return tuple(_adopt(grid, np.sum(a * b, axis=-1)) for a, b in pairs)


def _fd_second_form(frame: FrameField, xs, xt):
    g = frame.grid
    ns_, nt_ = _grad(g, frame.e3)
    L = _adopt(g, -np.sum(xs * ns_, axis=-1))
    M = _adopt(g, -0.5 * (np.sum(xs * nt_, axis=-1) + np.sum(xt * ns_, axis=-1)))
    N = _adopt(g, -np.sum(xt * nt_, axis=-1))
    return L, M, N


def _metric_deviation(first, profile: SurfaceProfile, margin: int) -> float:
    gss, gst, gtt = first
    e2d = np.broadcast_to(profile.E[:, None], gss.grid.shape)
    return max(
        max_interior(gss.values - e2d, margin),
        max_interior(gst.values, margin),
        max_interior(gtt.values - e2d, margin),
    )


def ref_coefficients(frame) -> tuple:
    xs, xt = _grad(frame.grid, frame.x)
    return _fd_first_form(frame.grid, xs, xt) + _fd_second_form(frame, xs, xt)


def ref_metric_recovery(frame, profile, margin=2):
    return _metric_deviation(
        _fd_first_form(frame.grid, *_grad(frame.grid, frame.x)), profile, margin)


def ref_second_form_vs_frame(ff, frame, margin=2):
    L, M, N = _fd_second_form(frame, *_grad(frame.grid, frame.x))
    return max(
        (L - ff.L).max_abs_interior(margin),
        (M - ff.M).max_abs_interior(margin),
        (N - ff.N).max_abs_interior(margin),
    )


def ref_deformation_report(profile, forms, tau, frame, margin=2):
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
    st = np.sin(tau.values)
    return {
        "h_max": grid.h_max,
        "metric_scale": max(1.0, float(np.max(np.abs(e2d)))),
        "h_scale": max(1.0, float(np.max(np.abs(h2d)))),
        "metric_deviation": _metric_deviation(first, profile, margin),
        "h_deviation": max_interior(h_fd - h2d, margin),
        "l_deviation": l_dev,
        "m_deviation": m_dev,
        "n_deviation": n_dev,
        "ii_deviation": max(l_dev, m_dev, n_dev),
        "pole_count": len(np.argwhere(np.abs(st) < 1e-12)),
        "sign_flips": int(np.sum(np.diff(np.sign(st), axis=0) != 0))
        + int(np.sum(np.diff(np.sign(st[0, :])) != 0)),
    }


def ref_companion_second_form(profile, psi, tau):
    """(L, M, N) of the companion in closed form, at its twist phi = psi + tau:
    E (H + J cos 2 phi), -E J sin 2 phi and E (H - J cos 2 phi)."""
    e2d, h2d, j2d = (np.broadcast_to(f[:, None], psi.grid.shape)
                     for f in (profile.E, profile.H, profile.J))
    cos2, sin2 = np.cos(2.0 * (psi.values + tau.values)), np.sin(2.0 * (psi.values + tau.values))
    return tuple(_adopt(psi.grid, v) for v in (
        e2d * (h2d + j2d * cos2), -e2d * j2d * sin2, e2d * (h2d - j2d * cos2)))


def ref_second_form_change(profile, psi, tau):
    """II' - II = -2 E J sin(tau) (sin(2 psi + tau), cos(2 psi + tau), -sin(2 psi + tau))
    in (L, M, N): the companion's closed-form second form less the base surface's."""
    e2d, j2d = (np.broadcast_to(f[:, None], psi.grid.shape) for f in (profile.E, profile.J))
    amp = -2.0 * e2d * j2d * np.sin(tau.values)
    both = 2.0 * psi.values + tau.values
    return amp * np.sin(both), amp * np.cos(both), -amp * np.sin(both)


def ref_weingarten(profile, frame, margin=3):
    grid = frame.grid
    xs, xt = _grad(grid, frame.x)
    L, M, N = _fd_second_form(frame, xs, xt)
    gss, gst, gtt = _fd_first_form(grid, xs, xt)
    det_g = gss.values * gtt.values - gst.values * gst.values
    k_fd = (L.values * N.values - M.values * M.values) / det_g
    h2d = _adopt(grid, np.broadcast_to(profile.H[:, None], grid.shape).copy())
    k_field = _adopt(grid, k_fd)
    wed = wedge(d_scalar(h2d), d_scalar(k_field)).max_abs_interior(margin)
    k_alg = np.broadcast_to((profile.H**2 - profile.J**2)[:, None], grid.shape)
    t_var = float(np.max(k_alg.max(axis=1) - k_alg.min(axis=1)))
    return {"wedge_residual": wed, "k_t_variation": t_var}


# ---------------------------------------------------------------------------
# the surfaces


@pytest.fixture(scope="module", params=[(c, s) for c in CASES for s in SHAPES],
                ids=lambda p: f"{p[0]}-{p[1][0]}x{p[1][1]}")
def surface(request):
    """(profile, forms, tau, base frame, deformed frame, psi) of one case on one grid."""
    name, shape = request.param
    fam, branch, (s_min, s_max) = CASES[name]
    grid = Grid(s_min, s_max, 0.0, 1.0, *shape)
    psi = psi_field_from_branch(PsiBranch(family=fam, **branch), grid)
    ics = HInitialData(s0=s_min, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)
    profile = integrate_h(ics, fam, grid, substeps=8)
    cf = se.build_coframes(profile, psi)
    tau = se.integrate_deformation(cf, 1.0)
    deformed = se.build_deformed_surface(cf, tau)
    frame = se.integrate_frame(cf)
    return profile, se.fundamental_forms(profile, psi), tau, frame, deformed, psi


def test_fd_forms_equal_the_per_check_coefficients(surface):
    _, _, _, frame, deformed, _ = surface
    for surf in (frame, deformed):
        fd = se.fd_forms(surf)
        assert fd.grid is surf.grid
        for name, ref in zip(COEFFICIENTS, ref_coefficients(surf)):
            assert np.array_equal(getattr(fd, name).values, ref.values), name


@pytest.mark.parametrize("shape", [(n, n) for n in (5, 6, 7, 33, 34, 64, 65)] + [(97, 12)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_blocked_fd_forms_equal_the_whole_grid_coefficients(shape):
    # fd_forms differentiates blocks of _BLOCK_ROWS (32) rows with their neighbour
    # rows; one block covers the grid, or the last block has 1, 2 or 32 rows
    fam, branch, (s_min, s_max) = CASES["rational_plus"]
    grid = Grid(s_min, s_max, 0.0, 1.0, *shape)
    psi = psi_field_from_branch(PsiBranch(family=fam, **branch), grid)
    ics = HInitialData(s0=s_min, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)
    frame = se.integrate_frame(se.build_coframes(integrate_h(ics, fam, grid), psi))
    fd = se.fd_forms(frame)
    for name, ref in zip(COEFFICIENTS, ref_coefficients(frame)):
        assert np.array_equal(getattr(fd, name).values, ref.values), name


def test_checks_on_fd_forms_equal_the_per_check_route(surface):
    profile, forms, tau, frame, deformed, psi = surface
    fd, fd2 = se.fd_forms(frame), se.fd_forms(deformed)
    assert se.forms_deviation(fd, forms) == (
        ref_metric_recovery(frame, profile), ref_second_form_vs_frame(forms, frame))
    assert se.weingarten_residual(profile, fd) == ref_weingarten(profile, frame)
    ref = ref_deformation_report(profile, forms, tau, deformed)
    # the companion's closed-form first form is the base surface's one E field
    closed = se.fundamental_forms(profile, psi + tau)
    L, M, N = ref_companion_second_form(profile, psi, tau)
    assert se.forms_deviation(fd2, closed) == (
        ref["metric_deviation"], ref_second_form_vs_frame(SimpleNamespace(L=L, M=M, N=N),
                                                          deformed))
    assert se.mean_curvature_deviation(profile, fd2) == ref["h_deviation"]
    assert se.deformation_report(tau) == {key: ref[key] for key in ("pole_count", "sign_flips")}


def test_the_closed_form_second_form_change_matches_its_derivation(surface):
    profile, forms, tau, _, _, psi = surface
    closed = se.fundamental_forms(profile, psi + tau)
    # the two routes round differently: they agree to a few ulps of the forms' scale
    scale = float(np.max(profile.E * (np.abs(profile.H) + profile.J)))
    for name, change in zip("LMN", ref_second_form_change(profile, psi, tau)):
        diff = getattr(closed, name).values - getattr(forms, name).values
        assert np.max(np.abs(diff - change)) < 1e-14 * scale, name
    assert se.forms_deviation(closed, forms)[1] > 0.1 * scale
