"""The six closed-form Q branches and their defining ODE.

Reference values below were frozen from 40-digit evaluations of the
closed forms (1/sinh(1) and friends), so the assertions pin both the
formulas and their sign/domain conventions.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bonnet.q_family import (
    DomainError,
    QFamily,
    QTrajectory,
    SingularityGuard,
    eval_c,
    eval_c_prime,
    eval_dlog_q,
    eval_q,
    eval_q_derivatives,
    guarded_samples,
    integrate_q_ode,
    q_ode_residual,
)

ALL_SIX = [QFamily(kind, sign, 1.0) for kind in ("rational", "trig", "hyper")
           for sign in (1, -1)]

# (family, s, Q, Q', Q'') evaluated at 40 digits and rounded to doubles
POINT_VALUES = [
    (QFamily("rational", 1, 1.0), 2.0, 0.5, -0.25, 0.25),
    (QFamily("rational", -1, 1.0), -2.0, 0.5, 0.25, 0.25),
    (QFamily("trig", 1, 1.0), 1.0,
     1.1883951057781212163, -0.76305972223262949617, 2.1683051321030668927),
    (QFamily("trig", -1, 1.0), -1.0,
     1.1883951057781212163, 0.76305972223262949617, 2.1683051321030668927),
    (QFamily("hyper", 1, 1.0), 1.0,
     0.85091812823932154513, -1.1172855274492741715, 2.0831525147979358024),
    (QFamily("hyper", -1, 1.0), -1.0,
     0.85091812823932154513, 1.1172855274492741715, 2.0831525147979358024),
    (QFamily("trig", 1, 2.0), 0.7,
     2.0295302125897588018, -0.70009345208839700331, 8.6011201559289905113),
    (QFamily("hyper", 1, 0.5), 3.0,
     0.23482122029761229236, -0.1297142315372261915, 0.084601861475265127431),
]


def test_family_validation():
    with pytest.raises(ValueError):
        QFamily("cubic", 1, 1.0)
    with pytest.raises(ValueError):
        QFamily("trig", 0, 1.0)
    with pytest.raises(ValueError):
        QFamily("trig", 1, -2.0)
    with pytest.raises(ValueError):
        QFamily("trig", 1, math.inf)


def test_domains():
    assert QFamily("rational", 1).domain() == (0.0, math.inf)
    assert QFamily("rational", -1).domain() == (-math.inf, 0.0)
    assert QFamily("trig", 1, 2.0).domain() == (0.0, pytest.approx(math.pi / 2))
    assert QFamily("trig", -1, 2.0).domain() == (pytest.approx(-math.pi / 2), 0.0)
    assert QFamily("hyper", 1).domain() == (0.0, math.inf)
    assert QFamily("hyper", -1).domain() == (-math.inf, 0.0)


def test_describe_mentions_formula_and_domain():
    text = QFamily("trig", -1, 2.0).describe()
    assert "-2/sin(2 s)" in text and " on " in text


@pytest.mark.parametrize("fam,s,q,qp,qpp", POINT_VALUES,
                         ids=lambda v: str(v) if isinstance(v, float) else None)
def test_closed_form_point_values(fam, s, q, qp, qpp):
    got_q, got_qp, got_qpp = eval_q_derivatives(fam, s)
    assert got_q == pytest.approx(q, rel=1e-14)
    assert got_qp == pytest.approx(qp, rel=1e-14)
    assert got_qpp == pytest.approx(qpp, rel=1e-14)
    assert eval_q(fam, s) == pytest.approx(q, rel=1e-14)


@pytest.mark.parametrize("fam", ALL_SIX, ids=lambda f: f"{f.kind}{f.sign:+d}")
def test_defining_ode_on_guarded_samples(fam):
    s = guarded_samples(fam, 200)
    assert s.shape == (200,)
    q = eval_q(fam, s)
    assert np.all(q > 0.0)
    scale = float(np.max(q ** 4))
    assert np.max(np.abs(q_ode_residual(fam, s))) < 1e-10 * scale


def test_kappa_values():
    assert QFamily("rational", 1).kappa == 0.0
    assert QFamily("trig", 1, 3.0).kappa == -9.0
    assert QFamily("hyper", -1, 2.0).kappa == 4.0


@pytest.mark.parametrize("fam", ALL_SIX, ids=lambda f: f"{f.kind}{f.sign:+d}")
def test_c_satisfies_its_ode(fam):
    """C = (1/Q)' obeys C' = Q (C^2 - 1) wherever Q does its ODE."""
    s = guarded_samples(fam, 64)
    scale = float(np.max(np.abs(eval_c_prime(fam, s)))) + 1.0
    c = eval_c(fam, s)
    r = eval_c_prime(fam, s) - eval_q(fam, s) * (c * c - 1.0)
    assert np.max(np.abs(r)) < 1e-10 * scale
    # dlog Q is -C Q by the same algebra
    r = eval_dlog_q(fam, s) + eval_c(fam, s) * eval_q(fam, s)
    assert np.max(np.abs(r)) < 1e-12 * float(np.max(np.abs(eval_dlog_q(fam, s))))


@given(
    kind=st.sampled_from(["rational", "trig", "hyper"]),
    a=st.floats(min_value=0.3, max_value=3.0),
    x=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_sign_mirror_symmetry(kind, a, x):
    """Q-(-s) = Q+(s), with Q' odd and Q'' even under the mirror."""
    plus = QFamily(kind, 1, a)
    minus = QFamily(kind, -1, a)
    glo, ghi = SingularityGuard(plus).interval()
    if not math.isfinite(ghi):
        ghi = glo + 3.0 / a
    s = glo + x * (ghi - glo)
    qp_, dp_, pp_ = eval_q_derivatives(plus, s)
    qm_, dm_, pm_ = eval_q_derivatives(minus, -s)
    assert qm_ == pytest.approx(qp_, rel=1e-12)
    assert dm_ == pytest.approx(-dp_, rel=1e-12)
    assert pm_ == pytest.approx(pp_, rel=1e-12)


def test_guard_rejects_out_of_domain():
    fam = QFamily("trig", 1, 1.0)
    with pytest.raises(DomainError):
        eval_q(fam, -0.5)
    with pytest.raises(DomainError):
        eval_q(fam, math.pi)          # pole itself
    with pytest.raises(DomainError):
        eval_q(fam, math.pi - 1e-9)   # inside the default margin
    with pytest.raises(DomainError):
        eval_q(QFamily("rational", -1), 1.0)  # wrong half-line


def test_guard_margin_controls():
    fam = QFamily("trig", 1, 1.0)
    lo, hi = SingularityGuard(fam).interval()
    assert lo == pytest.approx(1e-3 * math.pi)
    assert hi == pytest.approx(math.pi * (1 - 1e-3))


@pytest.mark.parametrize("fam", ALL_SIX, ids=lambda f: f"{f.kind}{f.sign:+d}")
def test_guard_rejects_nan(fam):
    inside = guarded_samples(fam, 3)[1]
    with pytest.raises(DomainError, match="nan"):
        SingularityGuard(fam).check(np.array([math.nan, inside]))
    with pytest.raises(DomainError):
        eval_q(fam, math.nan)
    # finite samples still pass
    SingularityGuard(fam).check(np.array([inside, inside]))


def test_guarded_samples_stay_inside():
    for fam in ALL_SIX:
        s = guarded_samples(fam, 50)
        lo, hi = SingularityGuard(fam).interval()
        if not math.isfinite(lo):
            lo = -math.inf
        assert np.all(s >= lo) and np.all(s <= hi)
        assert np.all(np.isfinite(eval_q(fam, s)))


def test_rk4_march_reproduces_closed_form():
    fam = QFamily("hyper", 1, 1.0)
    q0, qp0, _ = eval_q_derivatives(fam, 1.0)
    traj = integrate_q_ode(q0, qp0, 1.0, 2.0, 1000)
    assert isinstance(traj, QTrajectory)
    assert not traj.truncated
    ref = eval_q(fam, traj.s)
    rel = np.max(np.abs(traj.q - ref)) / np.max(ref)
    assert rel < 1e-9
    assert traj.kappa == pytest.approx(fam.kappa, rel=1e-12)


def test_rk4_march_backward():
    fam = QFamily("trig", 1, 1.0)
    q0, qp0, _ = eval_q_derivatives(fam, 2.0)
    traj = integrate_q_ode(q0, qp0, 2.0, 1.0, 1000)
    assert traj.s[-1] == pytest.approx(1.0)
    assert traj.q[-1] == pytest.approx(eval_q(fam, 1.0), rel=1e-9)


def test_rk4_march_truncates_at_blowup():
    fam = QFamily("trig", 1, 1.0)
    q0, qp0, _ = eval_q_derivatives(fam, 1.0)
    traj = integrate_q_ode(q0, qp0, 1.0, math.pi + 0.5, 26416)  # about 1e-4 a step
    assert traj.truncated
    # the march stops within a step or two of the pole at pi
    assert traj.s[-1] < math.pi + 1e-3
    assert traj.q[-1] > 100.0


def test_rk4_march_input_validation():
    with pytest.raises(ValueError):
        integrate_q_ode(-1.0, 0.0, 0.0, 1.0, 1000)
    with pytest.raises(ValueError):
        integrate_q_ode(1.0, 0.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        integrate_q_ode(1.0, 0.0, 1.0, 1.0, 1000)
