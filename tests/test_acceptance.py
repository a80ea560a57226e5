"""End-to-end acceptance checklist for the package.

One test per shipped guarantee, each printing a single PASS/FAIL line
(visible under pytest -s; under plain pytest the test name itself is the
line).  Tolerances sit next to the asserts they guard.  Convergence
orders come from the shared least-squares fit over three grid or step
refinements; residuals parked at the rounding floor count as converged.
"""
import math
import os

import numpy as np

from bonnet.forms2d import Grid, ScalarField, observed_order
from bonnet.q_family import (
    QFamily,
    eval_q,
    eval_q_derivatives,
    guarded_samples,
    integrate_q_ode,
)
from bonnet.lax_psi import (
    PsiBranch,
    branch_lax_residuals,
    c_relation_residuals,
    harmonic_residual,
    integrate_lax,
    lax_residuals,
    psi_constraint_residual,
    psi_field_from_branch,
    psi_second_order_residual,
)
from bonnet.bonnet_solver import (
    HInitialData,
    gauss_s_residual,
    geodesic_curvature_residual,
    ideal_residuals,
    integrate_h,
    perturbed_profile,
)
from bonnet import surface_embed as se
from bonnet.cli import main

import pytest

ORDER_TARGET = 1.9
FD_FACTOR = 25.0

DEMO_FAM = QFamily("rational", 1, 1.0)
DEMO_ICS = HInitialData(s0=1.0, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)

ALL_FAMILIES = tuple(
    QFamily(kind, sign, a)
    for kind in ("rational", "trig", "hyper")
    for sign in (1, -1)
    for a in (1.0,)
)

# Closed-form branches with unit windows inside their guarded domains.
CLOSED_FORM_BRANCHES = (
    (PsiBranch("rational_upper", QFamily("rational", 1, 1.0), sigma=0.0), (1.0, 2.0)),
    (PsiBranch("rational_lower", QFamily("rational", -1, 1.0), sigma=0.2), (-2.0, -1.0)),
    (PsiBranch("trig_appendix", QFamily("trig", 1, 1.0), eta=0.3), (1.0, 2.0)),
    (PsiBranch("hyper_appendix", QFamily("hyper", 1, 1.0), eta=0.3), (1.0, 2.0)),
)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _order_ok(order) -> bool:
    if order == math.inf:  # at the rounding floor on the finest levels
        return True
    return order is not None and order >= ORDER_TARGET


def _fmt_order(order) -> str:
    if order == math.inf:
        return "converged"
    return "none" if order is None else f"{order:.2f}"


def _min_order(orders) -> str:
    numeric = [o for o in orders if o not in (None, math.inf)]
    if not numeric:
        return "all converged"
    return f"min order {min(numeric):.2f}"


def _unit_window(fam: QFamily):
    """A unit s-interval inside the guarded domain, sign-aware."""
    return (-2.0, -1.0) if fam.sign == -1 else (1.0, 2.0)


def test_c01_q_family_exactness():
    worst_ode = 0.0
    worst_fi = 0.0
    for fam in ALL_FAMILIES:
        assert fam.kappa in (0.0, -fam.a**2, fam.a**2)
        s = guarded_samples(fam, 200)
        q, qp, qpp = eval_q_derivatives(fam, s)
        scale = float(np.max(q**4))
        worst_ode = max(worst_ode, float(np.max(np.abs(qpp * q - qp * qp - q**4))) / scale)
        worst_fi = max(
            worst_fi,
            float(np.max(np.abs(qp * qp - q**4 - fam.kappa * q * q))) / scale,
        )
    ok = worst_ode < 1e-10 and worst_fi < 1e-10
    _report(
        "C1", ok,
        f"six branches, 200 samples: ode residual {worst_ode:.2e}, "
        f"first integral {worst_fi:.2e} (tol 1e-10, relative)",
    )
    assert ok


def test_c02_q_ode_rk4_cross_check():
    # The error bound is pinned at step 1e-3.  The halving ratio is
    # measured between 2e-3 and 1e-3: halving *into* the pinned step
    # keeps truncation above accumulated roundoff (halving below it
    # would compare noise against noise at ~1e-13).
    worst_err = 0.0
    ratios = []
    for fam in ALL_FAMILIES:
        s0, s1 = _unit_window(fam)
        q0, qp0, _ = eval_q_derivatives(fam, s0)
        errs = []
        for step in (2e-3, 1e-3):
            traj = integrate_q_ode(float(q0), float(qp0), s0, s1, step)
            assert not traj.truncated
            exact = eval_q(fam, traj.s)
            errs.append(float(np.max(np.abs(traj.q - exact)) / np.max(np.abs(exact))))
        worst_err = max(worst_err, errs[1])
        ratios.append(errs[0] / errs[1])
    ok = worst_err < 1e-9 and all(12.0 <= r <= 20.0 for r in ratios)
    _report(
        "C2", ok,
        f"rel error {worst_err:.2e} at step 1e-3 (tol 1e-9), halving ratios "
        f"{min(ratios):.1f}..{max(ratios):.1f} (want 12..20)",
    )
    assert ok


def test_c03_lax_pair_closed_forms():
    worst_analytic = 0.0
    orders = []
    for branch, (lo, hi) in CLOSED_FORM_BRANCHES:
        fine = Grid(lo, hi, 0.0, 1.0, 129, 129)
        r1, r2 = branch_lax_residuals(branch, fine)
        worst_analytic = max(worst_analytic, r1.max_abs(), r2.max_abs())
        hs, res1, res2 = [], [], []
        for n in (33, 65, 129):
            grid = Grid(lo, hi, 0.0, 1.0, n, n)
            f1, f2 = lax_residuals(psi_field_from_branch(branch, grid), branch.family)
            hs.append(grid.h_max)
            res1.append(f1.max_abs_interior(1))
            res2.append(f2.max_abs_interior(1))
        orders.append(observed_order(hs, res1))
        orders.append(observed_order(hs, res2))
    ok = worst_analytic < 1e-10 and all(_order_ok(o) for o in orders)
    _report(
        "C3", ok,
        f"four branches: analytic residual {worst_analytic:.2e} (tol 1e-10), "
        f"fd residuals {_min_order(orders)} (want >= {ORDER_TARGET})",
    )
    assert ok


def test_c04_harmonicity():
    orders = []
    for branch, (lo, hi) in CLOSED_FORM_BRANCHES:
        hs, res = [], []
        for n in (33, 65, 129):
            grid = Grid(lo, hi, 0.0, 1.0, n, n)
            res.append(harmonic_residual(psi_field_from_branch(branch, grid), 1))
            hs.append(grid.h_max)
        orders.append(observed_order(hs, res))
    hs, res = [], []
    for n in (33, 65, 129):
        grid = Grid(1.0, 2.0, 0.0, 1.0, n, n)
        res.append(harmonic_residual(integrate_lax(DEMO_FAM, grid, 0.0, substeps=8), 1))
        hs.append(grid.h_max)
    orders.append(observed_order(hs, res))
    ok = all(_order_ok(o) for o in orders)
    _report(
        "C4", ok,
        f"laplacian of psi: 4 closed-form branches + marched field, "
        f"{_min_order(orders)} (want >= {ORDER_TARGET})",
    )
    assert ok


def test_c05_h_equation_and_gauss_consistency():
    prof = integrate_h(DEMO_ICS, DEMO_FAM, 2.0, 1e-4)
    gauss = gauss_s_residual(prof)
    ideal = ideal_residuals(prof)
    point_ok = gauss < 1e-6 and all(v < 1e-5 for v in ideal.values())

    # Orders from a coarser step triplet: second s-differences divide
    # marching noise by step^2, so below ~1e-3 the residuals sit on the
    # rounding floor and a fit there would measure noise.
    steps = [4e-3, 2e-3, 1e-3]
    series: dict[str, list] = {"gauss": []}
    scale = 1.0
    for step in steps:
        p = integrate_h(DEMO_ICS, DEMO_FAM, 2.0, step)
        scale = max(scale, float(np.max(2.0 * p.Q**2)))
        series["gauss"].append(gauss_s_residual(p))
        for key, value in ideal_residuals(p).items():
            series.setdefault(key, []).append(value)
    orders = {
        name: observed_order(steps, vals, floor=1e-13 * scale)
        for name, vals in series.items()
    }
    orders_ok = all(_order_ok(o) for o in orders.values())

    warped = perturbed_profile(prof, E=prof.E * (1.0 + 0.01 * prof.s**2))
    shifted = perturbed_profile(prof, B=prof.B + 0.01)
    neg_gauss = gauss_s_residual(warped)
    neg_db = ideal_residuals(shifted)["db"]
    controls_ok = neg_gauss > 1e-3 and neg_db > 1e-3

    ok = point_ok and orders_ok and controls_ok
    _report(
        "C5", ok,
        f"gauss {gauss:.2e} (tol 1e-6), ideal max "
        f"{max(ideal.values()):.2e} (tol 1e-5), {_min_order(orders.values())}, "
        f"controls {neg_gauss:.1e}/{neg_db:.1e} (want > 1e-3)",
    )
    assert ok


def _rotation_field(grid: Grid) -> ScalarField:
    return ScalarField.from_function(grid, lambda s, t: 0.3 + 0.2 * np.sin(s) * np.cos(t))


def _scaling_field(grid: Grid) -> ScalarField:
    return ScalarField.from_function(grid, lambda s, t: np.exp(0.1 * np.sin(s + t)))


def test_c06_structure_equation_suite(level_stack):
    prof0 = level_stack[0][2]
    scale_q = max(1.0, float(np.max(np.abs(prof0.Q))))
    scale_q2 = max(1.0, float(np.max(2.0 * prof0.Q**2)))
    scale_e = max(1.0, float(np.max(prof0.E)))
    scale_ii = max(1.0, float(np.max(prof0.E * (np.abs(prof0.H) + prof0.J))))

    battery: dict[str, tuple] = {}

    def add(name, value, scale):
        battery.setdefault(name, ([], scale))[0].append(float(value))

    for grid, psi, prof, cf in level_stack:
        for key, value in se.structure_residuals(cf, prof).items():
            add(f"structure.{key}", value, max(scale_e, scale_ii))
        for key, value in se.codazzi_summary_residuals(cf, prof).items():
            add(f"codazzi.{key}", value, scale_q)
        for key, value in se.theta12_report(cf, psi, prof).items():
            add(f"theta12.{key}", value, scale_q)
        add("connection.rotation", se.rotation_transform_residual(cf, _rotation_field(grid)), scale_q)
        add("connection.scaling", se.scaling_transform_residual(cf, _scaling_field(grid)), scale_q)
        fam = prof.family
        add("psi.constraint", psi_constraint_residual(psi, fam).max_abs_interior(2), scale_q)
        r1, r2 = c_relation_residuals(psi, fam)
        add("psi.c_relation", max(r1.max_abs_interior(2), r2.max_abs_interior(2)), scale_q)
        add("psi.second_order", psi_second_order_residual(psi, fam).max_abs_interior(2), scale_q)
        add("profile.geodesic", geodesic_curvature_residual(prof), scale_q2)

    hs = [grid.h_max for grid, *_ in level_stack]
    orders = {}
    for name, (vals, scale) in battery.items():
        orders[name] = observed_order(hs, vals, floor=1e-13 * scale)
    bad = sorted(name for name, o in orders.items() if not _order_ok(o))
    ok = not bad
    _report(
        "C6", ok,
        f"{len(orders)} identity residuals on 64^2..253^2, "
        f"{_min_order(orders.values())} (want >= {ORDER_TARGET})"
        + (f"; failing: {bad}" if bad else ""),
    )
    assert ok, {name: _fmt_order(orders[name]) for name in bad}


@pytest.fixture(scope="module")
def level_frames(level_stack):
    return [
        se.integrate_frame(prof, psi, grid, coframes=cf)
        for grid, psi, prof, cf in level_stack
    ]


def test_c07_immersion_fidelity(level_stack, level_frames):
    drift = max(f.orthonormality_error() for f in level_frames)
    hs, two_path, metric, second = [], [], [], []
    for (grid, psi, prof, cf), frame in zip(level_stack, level_frames):
        hs.append(grid.h_max)
        two_path.append(se.two_path_residual(prof, psi, grid))
        metric.append(se.metric_recovery_residual(frame, prof))
        second.append(se.second_form_vs_frame(se.fundamental_forms(prof, psi), frame))
    orders = [
        observed_order(hs, two_path),
        observed_order(hs, metric),
        observed_order(hs, second),
    ]
    ok = drift < 1e-12 and all(_order_ok(o) for o in orders)
    _report(
        "C7", ok,
        f"orthonormality drift {drift:.1e} (tol 1e-12); two-path/metric/"
        f"second-form {_min_order(orders)} (want >= {ORDER_TARGET})",
    )
    assert ok


def test_c08_isometric_deformation(level_stack):
    grid, psi, prof, cf = level_stack[0]
    scale_ii = max(1.0, float(np.max(prof.E * (np.abs(prof.H) + prof.J))))
    tol_ii = FD_FACTOR * grid.h_max**2 * scale_ii

    dp = se.integrate_deformation(cf, 1.0)
    frame, _ = se.build_deformed_surface(prof, psi, dp, grid, coframes=cf)
    rep = se.deformation_report(prof, se.fundamental_forms(prof, psi), dp, frame)
    tol_metric = FD_FACTOR * grid.h_max**2 * rep["metric_scale"]
    tol_h = FD_FACTOR * grid.h_max**2 * rep["h_scale"]
    ii_dev = max(rep["l_deviation"], rep["m_deviation"], rep["n_deviation"])
    preserved = rep["metric_deviation"] < tol_metric and rep["h_deviation"] < tol_h
    distinct = ii_dev > 10.0 * tol_ii

    fields = {}
    for t0 in (0.5, 1.0, 2.0):
        dp = se.integrate_deformation(cf, t0)
        _, forms = se.build_deformed_surface(prof, psi, dp, grid, coframes=cf)
        fields[t0] = forms.L.values
    gaps = [
        float(np.max(np.abs(fields[a] - fields[b])))
        for a, b in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0))
    ]
    family_distinct = all(g > 10.0 * tol_ii for g in gaps)

    ok = preserved and distinct and family_distinct
    _report(
        "C8", ok,
        f"t0=1: metric dev {rep['metric_deviation']:.1e} (tol {tol_metric:.1e}), "
        f"H dev {rep['h_deviation']:.1e} (tol {tol_h:.1e}), II dev {ii_dev:.2f} "
        f"(want > {10 * tol_ii:.2f}); pairwise II gaps min {min(gaps):.2f}",
    )
    assert ok


def test_c09_weingarten_property(level_stack, level_frames):
    hs, wedge, k_var = [], [], 0.0
    for (grid, psi, prof, cf), frame in zip(level_stack, level_frames):
        report = se.weingarten_residual(prof, psi, grid, frame=frame)
        hs.append(grid.h_max)
        wedge.append(report.wedge_residual)
        k_var = max(k_var, report.k_t_variation)
    order = observed_order(hs, wedge)
    ok = _order_ok(order) and k_var < 1e-10
    _report(
        "C9", ok,
        f"dH^dK residual order {_fmt_order(order)} (want >= {ORDER_TARGET}), "
        f"K t-variation {k_var:.1e} (tol 1e-10)",
    )
    assert ok


def test_c10_verify_is_deterministic(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_rational.json")
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        rc = main(["verify", "--config", config, "--out", str(out)])
        assert rc == 0
        blobs.append((out / "verify_report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(
        "C10", ok,
        f"two verify runs, report bytes {'identical' if ok else 'differ'} "
        f"({len(blobs[0])} bytes)",
    )
    assert ok
