"""Closed-form psi branches, their PDE system, and the marching integrator.

Each branch must satisfy psi_s = -(Q/2) sin(2 psi) and
psi_t = (log Q)'/2 - (Q/2) cos(2 psi) on its window; the frozen point
values pin the parameter conventions (sigma shifts rational branches,
eta shifts trig/hyper ones).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bonnet.forms2d import Grid, ScalarField, d_scalar, decompose_in_coframe, observed_order
from bonnet.q_family import DomainError, QFamily, eval_q_derivatives, guarded_samples
from bonnet.lax_psi import (
    PsiBranch,
    branch_consistency_error,
    branch_lax_residuals,
    c_relation_residuals,
    harmonic_residual,
    integrate_lax,
    lax_residuals,
    psi_closed_form,
    psi_closed_form_derivatives,
    psi_constraint_residual,
    psi_field_from_branch,
    psi_second_order_residual,
)


def branch_setup(case):
    """(branch, window grid) for each closed-form case, unit square windows."""
    if case == "rational_upper":
        return PsiBranch(case, QFamily("rational", 1, 1.0)), (1.0, 2.0)
    if case == "rational_lower":
        return PsiBranch(case, QFamily("rational", -1, 1.0), sigma=0.2), (-2.0, -1.0)
    if case == "trig_appendix":
        return PsiBranch(case, QFamily("trig", 1, 1.0), eta=0.3), (1.0, 2.0)
    if case == "hyper_appendix":
        return PsiBranch(case, QFamily("hyper", 1, 1.0), eta=0.3), (1.0, 2.0)
    raise ValueError(case)


CLOSED_CASES = ["rational_upper", "rational_lower", "trig_appendix", "hyper_appendix"]

# psi at one point per branch, frozen from 40-digit arctangent evaluations
POINT_VALUES = {
    ("rational_upper", 1.5, 0.5): -0.3217505543966421934,
    ("rational_lower", -1.5, 0.5): -1.1341691669813552918,
    ("trig_appendix", 1.5, 0.5): -0.4930183443886884157,
    ("hyper_appendix", 1.5, 0.5): 1.1994497422587487553,
}


def unit_grid(lo, hi, n=33):
    return Grid(lo, hi, 0.0, 1.0, n, n)


def test_branch_validation():
    rat = QFamily("rational", 1, 1.0)
    with pytest.raises(ValueError):
        PsiBranch("diagonal", rat)
    with pytest.raises(ValueError):
        PsiBranch("rational_upper", QFamily("trig", 1, 1.0))
    with pytest.raises(ValueError):
        PsiBranch("rational_upper", QFamily("rational", -1, 1.0))
    with pytest.raises(ValueError):
        PsiBranch("rational_lower", rat)
    with pytest.raises(ValueError):
        PsiBranch("trig_appendix", rat)
    with pytest.raises(ValueError):
        PsiBranch("rational_upper", rat, sigma=math.nan)


def test_branch_metadata():
    b = PsiBranch("trig_appendix", QFamily("trig", -1, 2.0), eta=0.1)
    assert b.derived_mirror is True
    assert PsiBranch("trig_appendix", QFamily("trig", 1, 2.0)).derived_mirror is False
    assert PsiBranch("rational_upper", QFamily("rational", 1)).derived_mirror is False


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_frozen_point_values(case):
    branch, (lo, hi) = branch_setup(case)
    ((c, s, t), want), = [(k, v) for k, v in POINT_VALUES.items() if k[0] == case]
    assert psi_closed_form(branch, s, t) == pytest.approx(want, abs=5e-15)


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_analytic_lax_residuals_vanish(case):
    branch, (lo, hi) = branch_setup(case)
    r1, r2 = branch_lax_residuals(branch, unit_grid(lo, hi))
    assert r1.max_abs() < 1e-10
    assert r2.max_abs() < 1e-10


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_principal_value_range(case):
    branch, (lo, hi) = branch_setup(case)
    vals = psi_field_from_branch(branch, unit_grid(lo, hi)).values
    assert np.all(vals > -math.pi / 2) and np.all(vals <= math.pi / 2)


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_closed_form_derivatives_match_fd(case):
    branch, (lo, hi) = branch_setup(case)
    g = unit_grid(lo, hi, 129)
    S, T = g.mesh()
    ps, pt = psi_closed_form_derivatives(branch, S, T)
    h = 1e-6
    fd_s = (psi_closed_form(branch, S + h, T) - psi_closed_form(branch, S - h, T)) / (2 * h)
    fd_t = (psi_closed_form(branch, S, T + h) - psi_closed_form(branch, S, T - h)) / (2 * h)
    # principal-value jumps poison the centered difference near psi = pi/2
    ok = np.abs(np.abs(psi_closed_form(branch, S, T)) - math.pi / 2) > 1e-3
    assert np.max(np.abs((ps - fd_s)[ok])) < 1e-8
    assert np.max(np.abs((pt - fd_t)[ok])) < 1e-8


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_fd_lax_residuals_converge(case):
    """Margin 1 keeps the max pinned to one physical spot across levels,
    which is what makes the measured rate clean; wider margins make the
    trimmed band drift with h and kink the slope."""
    branch, (lo, hi) = branch_setup(case)
    hs, res1, res2 = [], [], []
    for n in (33, 65, 129):
        g = unit_grid(lo, hi, n)
        psi = psi_field_from_branch(branch, g)
        r1, r2 = lax_residuals(psi, branch.family)
        hs.append(g.h_max)
        res1.append(r1.max_abs_interior(1))
        res2.append(r2.max_abs_interior(1))
    assert observed_order(hs, res1) > 1.9
    assert observed_order(hs, res2) > 1.9


@pytest.mark.parametrize("kind", ["trig", "hyper"])
def test_mirror_branches_solve_their_system(kind):
    """sign -1 branches come from psi(s,t) = pi/2 - psi_+(-s,t)."""
    minus = PsiBranch(f"{kind}_appendix", QFamily(kind, -1, 1.0), eta=0.3)
    plus = PsiBranch(f"{kind}_appendix", QFamily(kind, 1, 1.0), eta=0.3)
    assert minus.derived_mirror
    g = unit_grid(-2.0, -1.0)
    S, T = g.mesh()
    got = psi_closed_form(minus, S, T)
    want = math.pi / 2 - psi_closed_form(plus, -S, T)
    want = math.pi / 2 - np.mod(math.pi / 2 - want, math.pi)
    assert np.max(np.abs(got - want)) < 1e-13
    r1, r2 = branch_lax_residuals(minus, g)
    assert max(r1.max_abs(), r2.max_abs()) < 1e-10


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("case, value", [("constant_zero", 0.0),
                                         ("constant_half_pi", math.pi / 2)])
def test_constant_branches_evaluate(case, value, sign):
    branch = PsiBranch(case, QFamily("rational", sign, 1.0))
    S, T = unit_grid(*((1.0, 2.0) if sign == 1 else (-2.0, -1.0))).mesh()
    psi = psi_closed_form(branch, S, T)
    ps, pt = psi_closed_form_derivatives(branch, S, T)
    # bytes, not ==, so a -0.0 would show
    assert psi.tobytes() == np.full(S.shape, value).tobytes()
    assert ps.tobytes() == pt.tobytes() == np.zeros(S.shape).tobytes()
    assert not np.any(np.signbit(psi) | np.signbit(ps) | np.signbit(pt))


@given(sigma=st.floats(min_value=-0.4, max_value=0.4),
       a=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_parameter_shifts_keep_residuals_small(sigma, a):
    branch = PsiBranch("rational_upper", QFamily("rational", 1, a), sigma=sigma)
    r1, r2 = branch_lax_residuals(branch, unit_grid(1.0, 2.0, 17))
    assert max(r1.max_abs(), r2.max_abs()) < 1e-9


@pytest.mark.parametrize("case", CLOSED_CASES)
def test_harmonicity_converges(case):
    branch, (lo, hi) = branch_setup(case)
    hs, res = [], []
    for n in (33, 65):
        g = unit_grid(lo, hi, n)
        hs.append(g.h_max)
        res.append(harmonic_residual(psi_field_from_branch(branch, g)))
    assert res[1] < res[0] / 3.0


def test_auxiliary_residuals_small_on_demo(demo_psi, demo_family, demo_coframes):
    g = demo_psi.grid
    tol = 25.0 * g.h_max ** 2
    a1, a2 = demo_coframes.alpha1, demo_coframes.alpha2
    p1, p2 = decompose_in_coframe(d_scalar(demo_psi), a1, a2)
    assert psi_constraint_residual(demo_psi, p1, p2).max_abs_interior(2) < tol
    r1, r2 = c_relation_residuals(demo_psi, demo_family, p1, p2)
    assert r1.max_abs_interior(2) < tol and r2.max_abs_interior(2) < tol
    assert psi_second_order_residual(p1, p2, a1, a2).max_abs_interior(2) < 4 * tol


def test_integrate_lax_matches_closed_form(demo_branch, demo_family):
    g = unit_grid(1.0, 2.0, 33)
    want = psi_field_from_branch(demo_branch, g)
    psi0 = float(want.values[0, 0])
    got = integrate_lax(demo_family, g, psi0, substeps=8)
    assert np.max(np.abs(got.values - want.values)) < 1e-10
    assert branch_consistency_error(demo_branch, got) < 1e-10


@pytest.mark.parametrize("shape", ((33, 65), (65, 33)))
@pytest.mark.parametrize("case", CLOSED_CASES)
def test_integrate_lax_matches_each_closed_branch(case, shape):
    # the march walks the t-edge, then every s-line; on a non-square grid the
    # edge and the lines differ in length, and the psi pair is integrable, so
    # that one path lands on the closed form of every branch
    branch, (lo, hi) = branch_setup(case)
    g = Grid(lo, hi, 0.0, 1.0, *shape)
    want = psi_field_from_branch(branch, g)
    got = integrate_lax(branch.family, g, float(want.values[0, 0]), substeps=8)
    assert np.max(np.abs(got.values - want.values)) < 1e-10


@pytest.mark.parametrize("s_min", (5e-4, -0.5))
def test_grid_past_the_guard_raises_domain_error(demo_branch, demo_family, s_min):
    # the rational +1 domain is s > 0; the guard keeps 1e-3 of its natural length off the pole
    g = Grid(s_min, 1.0, 0.0, 1.0, 9, 9)
    psi = ScalarField.from_function(g, lambda s, t: 0.0 * s)
    for build in (lambda: psi_field_from_branch(demo_branch, g),
                  lambda: integrate_lax(demo_family, g, 0.0),
                  lambda: lax_residuals(psi, demo_family)):
        with pytest.raises(DomainError, match=f"s = {s_min:g} outside guarded domain"):
            build()


def test_branch_consistency_error_detects_mismatch(demo_branch):
    g = unit_grid(1.0, 2.0, 17)
    field = psi_field_from_branch(demo_branch, g)
    assert branch_consistency_error(demo_branch, field) < 1e-14
    shifted = PsiBranch("rational_upper", demo_branch.family, sigma=0.25)
    assert branch_consistency_error(shifted, field) > 1e-2


# the s > 0 case of each kind and the case that serves its sign -1 family
MIRROR_CASES = {"rational": ("rational_upper", "rational_lower"),
                "trig": ("trig_appendix", "trig_appendix"),
                "hyper": ("hyper_appendix", "hyper_appendix")}


@pytest.mark.parametrize("a", (1.0, 3.7))
@pytest.mark.parametrize("kind", ("rational", "trig", "hyper"))
@given(shift=st.floats(0.05, 1.0), negative=st.booleans(),
       t=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_sign_minus_one_mirrors_sign_plus_one(kind, a, shift, negative, t):
    """Sign -1 Q and psi reproduce sign +1 under s -> -s.

    Q and Q' are exact, Q'' within 4e-16 relative; psi_-(-s, t) equals
    pi/2 - psi_+(s, t) mod pi within 2e-15, with psi_s equal and psi_t
    negated exactly.
    """
    plus, minus = QFamily(kind, 1, a), QFamily(kind, -1, a)
    shift = -shift if negative else shift
    key = "sigma" if kind == "rational" else "eta"
    case_plus, case_minus = MIRROR_CASES[kind]
    b_plus = PsiBranch(case_plus, plus, **{key: shift})
    b_minus = PsiBranch(case_minus, minus, **{key: shift})
    s = guarded_samples(plus, 40)[:, None]
    t = np.array(t)[None, :]

    qp, dqp, ddqp = eval_q_derivatives(plus, s)
    qm, dqm, ddqm = eval_q_derivatives(minus, -s)
    assert np.array_equal(qm, qp)
    assert np.array_equal(dqm, -dqp)
    assert np.all(np.abs(ddqm - ddqp) <= 4e-16 * np.abs(ddqp))

    delta = psi_closed_form(b_minus, -s, t) - (np.pi / 2 - psi_closed_form(b_plus, s, t))
    assert np.max(np.abs(delta - np.pi * np.round(delta / np.pi))) <= 2e-15
    ps_p, pt_p = psi_closed_form_derivatives(b_plus, s, t)
    ps_m, pt_m = psi_closed_form_derivatives(b_minus, -s, t)
    assert np.array_equal(ps_m, ps_p)
    assert np.array_equal(pt_m, -pt_p)
