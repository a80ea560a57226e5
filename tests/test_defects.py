"""Every check row of cli.CHECKS but the two in EXEMPT fails under a defect it
is there to see.

A row of cli.CHECKS with rule "identity" is zero in exact arithmetic by how
its fields are built, so it is bounded by tolerances.algebraic on every
level instead of fitted to an order.  That bound must not make the row
vacuous.  Each entry of DEFECTS names one defect: a profile perturbed with
dataclasses.replace, which skips the profile's validation, or a mutation of
one pipeline function, which the monkeypatch fixture reverts.  The row runs
alone through the ladder over two levels of the demo config, 17^2 and 33^2;
the clean run passes and the run under the defect fails.

LADDER_DEFECTS does the same for ladder rows on a window of the demo
config (window_config): the psi rows and lax.compat under a psi that is
not harmonic, the codazzi and theta12 rows under a defect in the coframe
each reads (theta1, alpha1, xi12 or omega12), the profile rows under a
warped B, J, e or E, the five structure rows under an omega12 off by a
multiple of omega1 or omega2 or by a factor in t, the transform rows
under a connection solved 1e-3 too long, the frame march's two_path,
metric_recovery and second_form and weingarten.wedge, and deform.harmonic
under a tau march with alpha1 and alpha2 swapped; HARMONIC_DEFECTS fails
deform.harmonic under two more defects of tau.  BASE_DEFECTS does
it for rows judged on the base level alone: the closed-form psi rows, the
companion surface's rows, the four q rows and the frame's orthonormality
and handedness.  A defect in a function is seen by every module that
imported it by name, as a defect in its source would be.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bonnet import bonnet_solver, cli, lax_psi, q_family, rk4, surface_embed
from bonnet.forms2d import ScalarField

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo_rational.json"
IDENTITIES = [row for row in cli.CHECKS if row.rule == "identity"]


def demo_config(ns: int = 17) -> cli.RunConfig:
    data = json.loads(DEMO.read_text())
    data["grid"].update(ns=ns, nt=ns)
    return cli.RunConfig(data)


def warped(field):
    """field * (1 + 1e-3 (s - s0)^2): a defect that vanishes at the profile's start."""
    return lambda p: getattr(p, field) * (1.0 + 1e-3 * (p.s - p.s[0]) ** 2)


def t_factor(grid):
    """1 + 0.1 t: a factor that no field built from s-only data carries."""
    return ScalarField.from_function(grid, lambda s, t: 1.0 + 0.1 * t)


def profile_with(**fields):
    """The pipeline's profile with fields[name](profile) in place of each field."""
    def mutate(integrate):
        def perturbed(*args, **kwargs):
            p = integrate(*args, **kwargs)
            return replace(p, **{k: f(p) for k, f in fields.items()})
        return perturbed
    return bonnet_solver, "integrate_h", mutate


def overridden(cf, **forms):
    """The coframe set cf with forms[name] cached as its coframe `name`: read in
    place of the one it would build, also by a coframe it builds from it later."""
    vars(cf).update(forms)
    return cf


def coframes_with(**fields):
    """The pipeline's coframes with fields[name](coframes) in place of each coframe."""
    def mutate(build):
        def rebuilt(profile, psi):
            cf = build(profile, psi)
            return overridden(cf, **{k: f(cf) for k, f in fields.items()})
        return rebuilt
    return surface_embed, "build_coframes", mutate


# row name -> (module, function, mutation: the original function -> its replacement)
DEFECTS = {
    # B is no longer the FD of log A / Q
    "profile.ideal_dlog_a": profile_with(B=lambda p: p.B + 1e-3),
    # C no longer matches the analytic C' it is checked against
    "profile.ideal_dc": profile_with(C=warped("C")),
    # J is no longer H' / Q
    "profile.ideal_dh": profile_with(J=warped("J")),
    # theta1 = e A ds times a function of t is not closed
    "codazzi.d_theta1": coframes_with(theta1=lambda cf: cf.theta1 * t_factor(cf.grid)),
    # theta1 built as alpha1, a sign flip in build_coframes
    "theta12.hodge": coframes_with(theta1=lambda cf: cf.alpha1),
    # *theta12 = C A e ds times a function of t is not closed
    "theta12.d_star_theta12": (surface_embed, "theta12_form",
                               lambda form: lambda cf: form(cf) * t_factor(cf.grid)),
}


def window_config(width: float = 0.5) -> cli.RunConfig:
    """The demo config on s in [3, 3 + width], t in [1, 1 + width] at 17^2.

    On the demo window the psi rows are not yet in their asymptotic range
    at 17^2..33^2 (orders 1.71-1.83 between the two levels); on the window
    of width 0.5 psi varies slowly enough that the clean orders are
    1.96-1.98.  structure.d_omega1 and d_omega2 read 1.86 and 1.78 there,
    and 1.96 and 1.95 at width 0.125; frame.metric_recovery reads 1.91
    there and 1.97 at width 0.125.
    """
    data = json.loads(DEMO.read_text())
    data["grid"].update(s_min=3.0, s_max=3.0 + width, t_min=1.0, t_max=1.0 + width,
                        ns=17, nt=17)
    data["h_initial"]["s0"] = 3.0
    return cli.RunConfig(data)


def bumped(psi_field):
    """psi + 1e-3 sin(3s) sin(2t): not harmonic, so alpha = Q R(2 psi) (ds, dt)
    is not closed and d(psi) leaves the pair's constraint."""
    def psi_field_from_branch(branch, grid):
        field = psi_field(branch, grid)
        bump = ScalarField.from_function(grid, lambda s, t: 1e-3 * np.sin(3 * s) * np.sin(2 * t))
        return field + bump
    return psi_field_from_branch


# ladder row name -> (module, function, mutation, window width), as in DEFECTS
LADDER_DEFECTS = {
    **{name: (lax_psi, "psi_field_from_branch", bumped, 0.5)
       for name in ("psi.constraint", "psi.c_relation", "psi.second_order",
                    "psi.mixed_partial", "psi.harmonic", "lax.compat")},
    # theta1 built as alpha1, a sign flip in build_coframes: dH = J theta1 and
    # the decomposition of d(psi) in the theta coframe no longer hold
    **{name: (*coframes_with(theta1=lambda cf: cf.alpha1), 0.5)
       for name in ("codazzi.dh", "theta12.dpsi")},
    # alpha1, xi12 or omega12 times a function of t: the identity each one
    # enters no longer holds
    **{name: (*coframes_with(alpha1=lambda cf: cf.alpha1 * t_factor(cf.grid)), 0.5)
       for name in ("codazzi.dlog_j", "codazzi.d_alpha1")},
    "theta12.xi12": (*coframes_with(xi12=lambda cf: cf.xi12 * t_factor(cf.grid)), 0.5),
    **{name: (*coframes_with(omega12=lambda cf: cf.omega12 * t_factor(cf.grid)), 0.5)
       for name in ("theta12.d_star_omega12", "theta12.via_psi")},
    # E no longer meets the Gauss equation that H and Q fix
    "profile.gauss": (*profile_with(E=warped("E")), 0.5),
    # B, J or e no longer meets the ideal's equation or the geodesic curvature
    # that A, H and Q fix
    "profile.ideal_db": (*profile_with(B=warped("B")), 0.5),
    "profile.ideal_dlog_j": (*profile_with(J=warped("J")), 0.5),
    "profile.geodesic": (*profile_with(e=warped("e")), 0.125),
    # omega12 + 1e-3 omega1 adds 1e-3 omega1 ^ omega2 to d(omega1) = omega12 ^ omega2,
    # since omega1 ^ omega1 = 0, and 1e-3 omega1 ^ omega23 to d(omega13); omega2 likewise
    **{name: (*coframes_with(omega12=lambda cf: cf.omega12 + cf.omega1 * 1e-3), 0.125)
       for name in ("structure.d_omega1", "structure.d_omega13")},
    **{name: (*coframes_with(omega12=lambda cf: cf.omega12 + cf.omega2 * 1e-3), 0.125)
       for name in ("structure.d_omega2", "structure.d_omega23")},
    # omega12 times a function of t no longer has the curvature K = H^2 - J^2
    "structure.d_omega12": (
        *coframes_with(omega12=lambda cf: cf.omega12 * t_factor(cf.grid)), 0.125),
    # the connection solved from a rotated or scaled coframe, 1e-3 too long
    **{name: (surface_embed, "connection_from_coframe",
              lambda solve: lambda c1, c2: solve(c1, c2) * (1.0 + 1e-3), 0.125)
       for name in ("transform.rotation", "transform.scaling")},
    # the frame's FD N times a function of t: K is no longer a function of H alone
    "weingarten.wedge": (surface_embed, "fd_forms", lambda forms:
                         lambda frame: scaled_n(forms(frame)), 0.125),
    # omega12 + 1e-3 t ds is not flat: d(1e-3 t ds) = -1e-3 ds ^ dt, so the two
    # path orders part by O(1e-3), not O(h^2)
    "frame.two_path": (*coframes_with(omega12=lambda cf: replace(
        cf.omega12, p=cf.omega12.p + ScalarField.from_function(cf.grid, lambda s, t: 1e-3 * t))),
        0.125),
    # every position increment 1e-3 too long: the marched metric is (1 + 1e-3)^2 E
    "frame.metric_recovery": (surface_embed, "_step", lambda step:
                              lambda xc, Ec, rot, half, a1, a2: step(
                                  xc, Ec, rot, half, a1 * (1.0 + 1e-3), a2 * (1.0 + 1e-3)),
                              0.125),
    # the algebraic L the frame's second form is compared with, 1e-3 off
    "frame.second_form": (surface_embed, "fundamental_forms", lambda forms:
                          lambda profile, psi: scaled_l(forms(profile, psi)), 0.125),
    # tau marched with alpha1 and alpha2 swapped: d*d(tau) no longer vanishes
    "deform.harmonic": (surface_embed, "integrate_deformation", lambda march:
                        lambda cf, t0: march(overridden(
                            surface_embed.CoframeSet(cf.profile, cf.psi),
                            alpha1=cf.alpha2, alpha2=cf.alpha1), t0), 0.5),
}

# more defects of the tau march that deform.harmonic fails under, on the window
# of width 0.5, as in LADDER_DEFECTS
HARMONIC_DEFECTS = {
    # tau + 1e-3 (s - s_min)^2, whose Laplacian 2e-3 does not shrink with h
    "tau_plus_s2": (surface_embed, "integrate_deformation", lambda march: lambda cf, t0:
                    march(cf, t0) + ScalarField.from_function(
                        cf.grid, lambda s, t: 1e-3 * (s - cf.grid.s_min) ** 2)),
    # the alpha1 term of the march's right-hand side with its sign flipped
    "rhs_alpha1_flipped": (surface_embed, "_rhs_tau",
                           lambda rhs: lambda alpha, y: rhs((-alpha[0], alpha[1]), y)),
}


def scaled_l(forms):
    return replace(forms, L=forms.L * (1.0 + 1e-3))


def scaled_n(forms):
    return replace(forms, N=forms.N * t_factor(forms.grid))


def scaled_qp(eval_q_derivatives):
    """Q' scaled by 1 + 1e-6: Q no longer meets its first integral."""
    def scaled(fam, s):
        q, qp, qpp = eval_q_derivatives(fam, s)
        return q, qp * (1.0 + 1e-6), qpp
    return scaled


def scaled_qpp(eval_q_derivatives):
    """Q'' scaled by 1 + 1e-6: Q no longer meets its ODE."""
    def scaled(fam, s):
        q, qp, qpp = eval_q_derivatives(fam, s)
        return q, qp, qpp * (1.0 + 1e-6)
    return scaled


def midpoint(rk4_step):
    """The midpoint RK2 step in place of RK4's: second order, not fourth."""
    def step(rhs, y, h, c_start, c_mid, c_end):
        k1 = rhs(c_start, y)
        k2 = rhs(c_mid, [a + 0.5 * h * b for a, b in zip(y, k1)])
        return [a + h * b for a, b in zip(y, k2)]
    return step


def scaled_psi_t(psi_closed_form_derivatives):
    """psi_t scaled by 1 + 1e-6: the closed form no longer meets the pair."""
    def scaled(branch, s, t):
        ps, pt = psi_closed_form_derivatives(branch, s, t)
        return ps, pt * (1.0 + 1e-6)
    return scaled


# base-level row name -> (module, function, mutation), as in DEFECTS
BASE_DEFECTS = {
    "lax.closed_form": (lax_psi, "psi_closed_form_derivatives", scaled_psi_t),
    # psi sampled 1e-6 off the branch it is checked against
    "psi.branch_consistency": (lax_psi, "psi_field_from_branch",
                               lambda field: lambda branch, grid: field(branch, grid) + 1e-6),
    "q.first_integral": (q_family, "eval_q_derivatives", scaled_qp),
    "q.exactness": (q_family, "eval_q_derivatives", scaled_qpp),
    # the Q march of the cross-check: its error is O(h^2) and halves by 4, not 16
    **{name: (rk4, "rk4_step", midpoint) for name in ("q.rk4_error", "q.rk4_halving")},
    # the companion's coframe (omega1, omega2) scaled by 1.5: its metric is 2.25 E
    "deform.metric": (surface_embed, "build_deformed_surface",
                      lambda build: lambda cf, *args, **kwargs: build(overridden(
                          surface_embed.CoframeSet(cf.profile, cf.psi), alpha1=cf.alpha1,
                          alpha2=cf.alpha2, omega1=cf.omega1 * 1.5, omega2=cf.omega2 * 1.5),
                          *args, **kwargs)),
    # the companion marched with H + 0.5 in its second forms, from a coframe set
    # whose profile carries it
    "deform.h": (surface_embed, "build_deformed_surface",
                 lambda build: lambda cf, *args, **kwargs: build(surface_embed.CoframeSet(
                     replace(cf.profile, H=cf.profile.H + 0.5), cf.psi), *args, **kwargs)),
    # the companion marched with its coframe rotated by tau + 0.2: its FD second form
    # leaves the closed form at psi + tau by about 2 E J 0.2
    "deform.second_form": (surface_embed, "build_deformed_surface",
                           lambda build: lambda cf, tau, *args, **kwargs:
                           build(cf, tau + 0.2, *args, **kwargs)),
    # tau = 0: the coframe is not rotated, so the companion, marched and in closed
    # form, is the base surface
    "deform.ii_distinct": (surface_embed, "integrate_deformation",
                           lambda march: lambda *args, **kwargs: march(*args, **kwargs) * 0.0),
    # every step's rotation 1e-9 too long: the frames drift off orthonormal
    "frame.orthonormality": (surface_embed, "_rot_exp",
                             lambda rot: lambda *m: rot(*m) * (1.0 + 1e-9)),
    # every step's rotation composed with a reflection: each frame is still
    # orthonormal, but every other one is left-handed
    "frame.handedness": (surface_embed, "_rot_exp",
                         lambda rot: lambda *m: rot(*m) @ np.diag([1.0, 1.0, -1.0])),
}


def patch_everywhere(monkeypatch, module, name, mutate):
    """mutate(module.name) in place of module.name and of each bonnet module's
    binding of it."""
    original = getattr(module, name)
    defective = mutate(original)
    for where in (bonnet_solver, cli, lax_psi, q_family, surface_embed):
        if getattr(where, name, None) is original:
            monkeypatch.setattr(where, name, defective)


def judged(cfg, row) -> dict:
    """The report entry of `row` alone over two ladder levels."""
    (entry,), _ = cli._ladder(cfg, [row], 2, None)
    return entry


# rows no defect entry can fail, with the reason in each comment
EXEMPT = {
    # its clean orders on the window are pre-asymptotic, 1.83-1.87 at widths 0.5 to
    # 0.125, so the clean run fails ORDER_TARGET on two levels
    "codazzi.d_alpha2",
    # the spread along t of K = H^2 - J^2 broadcast from s-only arrays: zero by
    # construction, whatever the pipeline's inputs
    "weingarten.k_t_variation",
}


def test_every_row_but_the_exempt_has_a_defect():
    named = [*DEFECTS, *LADDER_DEFECTS, *BASE_DEFECTS]
    assert len(named) == len(set(named))
    assert set(named) == {row.name for row in cli.CHECKS} - EXEMPT
    assert EXEMPT <= {row.name for row in cli.CHECKS}


def test_every_identity_row_has_a_defect():
    assert sorted(DEFECTS) == sorted(row.name for row in IDENTITIES)


@pytest.mark.parametrize("row", IDENTITIES, ids=lambda row: row.name)
def test_an_identity_row_fails_under_its_defect(row, monkeypatch):
    cfg = demo_config()
    clean = judged(cfg, row)
    assert clean["kind"] == "identity" and clean["passed"], clean
    assert len(clean["details"]["residuals"]) == 2
    module, name, mutate = DEFECTS[row.name]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    broken = judged(cfg, row)
    assert not broken["passed"], broken
    assert broken["value"] > 1e3 * broken["tolerance"]


@pytest.mark.parametrize("name", sorted(LADDER_DEFECTS))
def test_a_ladder_row_fails_under_its_defect(name, monkeypatch):
    row = next(row for row in cli.CHECKS if row.name == name)
    module, fn, mutate, width = LADDER_DEFECTS[name]
    cfg = window_config(width)
    clean = judged(cfg, row)
    assert clean["kind"] == "fd" and clean["passed"], clean
    monkeypatch.setattr(module, fn, mutate(getattr(module, fn)))
    broken = judged(cfg, row)
    assert not broken["passed"] and broken["order"] < 1.0, broken


@pytest.mark.parametrize("name", sorted(HARMONIC_DEFECTS))
def test_the_harmonic_angle_fails_under_each_defect_of_tau(name, monkeypatch):
    row = next(row for row in cli.CHECKS if row.name == "deform.harmonic")
    cfg = window_config(0.5)
    assert judged(cfg, row)["passed"]
    module, fn, mutate = HARMONIC_DEFECTS[name]
    monkeypatch.setattr(module, fn, mutate(getattr(module, fn)))
    broken = judged(cfg, row)
    assert not broken["passed"] and broken["order"] < 1.0, broken


@pytest.mark.parametrize("finest, passed", [(1e-12, True), (1e-9, False), (float("nan"), False)])
def test_the_identity_bound_holds_on_every_level(finest, passed):
    cfg, row = demo_config(), IDENTITIES[0]
    hs = [cfg.grid.h_max, cfg.grid.h_max / 2]
    entry = cli._judge(cfg, row, [1e-15, finest], 1.0, {}, hs)
    assert entry["tolerance"] == cfg.tol_algebraic and entry["value"] == 1e-15
    assert entry["passed"] is passed and "order" not in entry
    assert entry["details"]["residuals"][0] == 1e-15 and len(entry["details"]["residuals"]) == 2


@pytest.mark.parametrize("finest, passed", [(2.5e-5, True), (float("nan"), False),
                                            (float("inf"), False)])
def test_the_ladder_bound_holds_on_every_level(finest, passed):
    # a non-finite residual on a finer level drops out of the order fit, or makes it NaN
    cfg, row = demo_config(), next(row for row in cli.CHECKS if row.rule == "ladder")
    hs = [cfg.grid.h_max / 2**k for k in range(3)]
    entry = cli._judge(cfg, row, [4e-4, 1e-4, finest], 1.0, {}, hs)
    assert entry["value"] == 4e-4 and entry["value"] <= entry["tolerance"]
    assert entry["passed"] is passed
    assert entry["details"]["residuals"][2] is finest


@pytest.mark.parametrize("name", sorted(BASE_DEFECTS))
def test_a_base_level_row_fails_under_its_defect(name, monkeypatch):
    row = next(row for row in cli.CHECKS if row.name == name)
    assert row.rule not in cli.LADDER_RULES
    cfg = demo_config()
    clean = judged(cfg, row)
    assert clean["passed"] and "order" not in clean, clean
    patch_everywhere(monkeypatch, *BASE_DEFECTS[name])
    broken = judged(cfg, row)
    assert not broken["passed"], broken
