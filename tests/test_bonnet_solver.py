"""Mean-curvature profile ODE, derived profile fields, and their residuals.

The frozen endpoint below comes from an independent 30-digit Taylor-method
integration of the third-order system, so the RK4 march is checked against
something it does not share code with.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bonnet import bonnet_solver
from bonnet.forms2d import Grid
from bonnet.q_family import ConsistencyError, QFamily, eval_q
from bonnet.bonnet_solver import (
    BlowUpError,
    HInitialData,
    RegimeError,
    SurfaceProfile,
    gauss_s_residual,
    geodesic_curvature_residual,
    h_third_derivative,
    ideal_residuals,
    integrate_h,
    validate_profile,
    write_profile_csv,
)

FAM = QFamily("rational", 1, 1.0)
ICS = HInitialData(s0=1.0, H0=0.0, H0p=1.0, H0pp=0.0, tau_c=1.0)

# endpoint of the demo profile at s = 2, frozen from a tol=1e-30 Taylor march
H_END = 0.92309890561434617547
HP_END = 0.7559674381959440627
HPP_END = -0.45685418912587117187
H_MID = 0.49286316371344801039  # at s = 1.5


def s_grid(s1: float, cells: int, s0: float = 1.0) -> Grid:
    """A grid over [s0, s1] with `cells` s-cells; the H march reads no t-node."""
    return Grid(s0, s1, 0.0, 1.0, cells + 1, 5)


def march(s1: float, cells: int, ics: HInitialData = ICS):
    """integrate_h with one RK4 step a cell: step (s1 - s0)/cells."""
    return integrate_h(ics, FAM, s_grid(s1, cells, ics.s0), substeps=1)


def test_initial_data_validation():
    with pytest.raises(ValueError):
        HInitialData(1.0, 0.0, -1.0, 0.0, 1.0)   # H' must stay positive
    with pytest.raises(ValueError):
        HInitialData(1.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        HInitialData(1.0, 0.0, 1.0, 0.0, -2.0)   # so must tau_c
    with pytest.raises(ValueError):
        HInitialData(math.nan, 0.0, 1.0, 0.0, 1.0)


@given(
    H=st.floats(min_value=-3.0, max_value=3.0),
    Hp=st.floats(min_value=0.1, max_value=5.0),
    Hpp=st.floats(min_value=-5.0, max_value=5.0),
    s=st.floats(min_value=1.0, max_value=2.0),
    tau=st.floats(min_value=0.2, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_third_derivative_closes_the_residual(H, Hp, Hpp, s, tau):
    """Plugging the explicit H''' back into the profile equation
    (H''' H' - H''^2)/H'^2 + 2 tau_c H' - 2 Q^2 (1 + tau_c H^2/H') gives zero."""
    q = eval_q(FAM, s)
    hppp = h_third_derivative(q, H, Hp, Hpp, tau)
    r = (hppp * Hp - Hpp * Hpp) / (Hp * Hp) + 2.0 * tau * Hp - 2.0 * q * q * (
        1.0 + tau * H * H / Hp)
    scale = abs(hppp) + Hp + 1.0
    assert abs(r) < 1e-9 * scale


def test_endpoint_matches_taylor_reference():
    prof = march(2.0, 1000)
    assert prof.H[-1] == pytest.approx(H_END, abs=1e-12)
    assert prof.Hp[-1] == pytest.approx(HP_END, abs=1e-12)
    assert prof.Hpp[-1] == pytest.approx(HPP_END, abs=1e-12)
    assert prof.s[0] == 1.0 and prof.s[-1] == pytest.approx(2.0)


def test_midpoint_matches_taylor_reference():
    prof = march(1.5, 500)
    assert prof.H[-1] == pytest.approx(H_MID, abs=1e-12)


def test_step_refinement_tightens_endpoint():
    coarse = abs(march(2.0, 250).H[-1] - H_END)
    fine = abs(march(2.0, 500).H[-1] - H_END)
    assert fine < coarse / 12.0  # fourth-order march


def test_profile_fields_and_identities():
    prof = march(2.0, 1000)
    validate_profile(prof)
    q = eval_q(FAM, prof.s)
    assert np.allclose(prof.Q, q, rtol=1e-14, atol=0.0)
    assert np.allclose(prof.J, prof.Hp / q, rtol=1e-14, atol=0.0)
    # exact algebra: E J = tau Q, A e = Q, Q J = H'
    assert np.max(np.abs(prof.E * prof.J - prof.tau_c * q)) < 1e-13
    assert np.max(np.abs(prof.A * prof.e - q)) < 1e-13
    assert np.max(np.abs(q * prof.J - prof.Hp)) < 1e-13
    assert np.all(prof.E > 0) and np.all(prof.J > 0)
    assert prof.s[1] - prof.s[0] == pytest.approx(1e-3, rel=1e-9)


def test_validate_profile_catches_broken_identity():
    prof = march(2.0, 100)
    with pytest.raises(ConsistencyError):
        validate_profile(replace(prof, E=prof.E * 1.01))


def test_regime_error_when_hp_crosses_zero():
    steep = HInitialData(1.0, 0.0, 0.01, -10.0, 1.0)
    with pytest.raises(RegimeError) as err:
        march(2.0, 100, steep)
    assert err.value.last_valid_s == pytest.approx(1.0, abs=0.1)


def test_blow_up_error_on_runaway_growth():
    violent = HInitialData(1.0, 0.0, 1.0, 1e5, 1.0)
    with pytest.raises(BlowUpError) as err:
        march(3.0, 2000, violent)
    assert 1.0 <= err.value.last_valid_s < 3.0


@pytest.mark.parametrize("lam", [2.0**20, 2.0**-20], ids=["2^20", "2^-20"])
def test_the_h_march_commutes_with_the_similarity(lam):
    """s -> s/lam, H -> lam H maps a profile of the trig +1 family at a = 1 to one
    at a = lam, and E is unchanged.  With lam a power of two every sample scales
    exactly, and so do the blow-up bounds: an absolute bound stopped lam = 2^20 at
    its first step."""
    def profile(a):
        ics = HInitialData(1.0 / a, 0.5 * a, a**2, 0.25 * a**3, 1.0)
        return integrate_h(ics, QFamily("trig", 1, a), Grid(1.0 / a, 2.0 / a, 0.0, 1.0, 65, 5))

    base, scaled = profile(1.0), profile(lam)
    for name, k in (("s", -1), ("H", 1), ("Hp", 2), ("Hpp", 3), ("E", 0)):
        assert np.array_equal(getattr(scaled, name), getattr(base, name) * lam**k), name


def test_integrate_h_argument_validation():
    with pytest.raises(ValueError):
        integrate_h(ICS, FAM, s_grid(2.0, 10), substeps=0)
    with pytest.raises(ValueError):
        integrate_h(ICS, FAM, s_grid(2.0, 10, s0=1.1))  # s0 must be grid.s_min


def test_grid_sampling_lands_on_nodes(demo_grid, demo_profile):
    assert demo_profile.s.shape == (demo_grid.ns,)
    assert np.allclose(demo_profile.s, demo_grid.s_nodes(), rtol=0, atol=1e-12)
    validate_profile(demo_profile)
    # same march, denser substeps: endpoint must agree to RK4 accuracy
    finer = integrate_h(ICS, FAM, demo_grid, substeps=16)
    assert np.max(np.abs(finer.H - demo_profile.H)) < 1e-10


@pytest.mark.parametrize("s_min, s_max, ns", [(0.3, 1.7, 2426), (0.05, 3.0, 2523)])
def test_the_march_lands_on_the_grid_nodes_by_construction(s_min, s_max, ns):
    # grids where a step count rounded up from the float step h_s / 8 came out one over
    grid = s_grid(s_max, ns - 1, s0=s_min)
    prof = integrate_h(replace(ICS, s0=s_min), FAM, grid, substeps=8)
    assert prof.s.shape == (ns,)
    assert np.allclose(prof.s, grid.s_nodes(), rtol=0, atol=1e-12)


def test_bonnet_solver_exports_one_h_march():
    import bonnet
    for module in (bonnet, bonnet_solver):
        assert [name for name in module.__all__ if name.startswith("integrate_h")] == [
            "integrate_h"]


def test_every_stage_of_the_h_march_calls_h_third_derivative(monkeypatch):
    # 4 RK4 stages a step, 8 steps a cell, 16 cells: the march keeps no copy of H'''
    calls = []
    third = bonnet_solver.h_third_derivative

    def counted(*args):
        calls.append(args)
        return third(*args)

    monkeypatch.setattr(bonnet_solver, "h_third_derivative", counted)
    integrate_h(ICS, FAM, s_grid(2.0, 16), substeps=8)
    assert len(calls) == 4 * 16 * 8


def test_profile_residuals_small_and_converging():
    gauss, db = [], []
    for cells in (250, 500, 1000):
        prof = march(2.0, cells)
        gauss.append(gauss_s_residual(prof))
        ideal = ideal_residuals(prof)
        assert set(ideal) == {"dlog_a", "db", "dc", "dh", "dlog_j"}
        db.append(ideal["db"])
    assert gauss[-1] < 1e-4 and db[-1] < 1e-4
    assert gauss[-1] < gauss[0] / 8.0
    assert db[-1] < db[0] / 8.0


def test_geodesic_curvature_identity():
    prof = march(2.0, 1000)
    assert geodesic_curvature_residual(prof) < 1e-4


def test_negative_controls_break_residuals():
    prof = march(2.0, 1000)
    warped = replace(prof, E=prof.E * (1.0 + 0.01 * prof.s ** 2))
    assert gauss_s_residual(warped) > 1e-3
    shifted = replace(prof, B=prof.B + 0.01)
    assert ideal_residuals(shifted)["db"] > 1e-3


def test_from_h_samples_requires_consistent_shapes():
    s = np.linspace(1.0, 2.0, 11)
    H = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        SurfaceProfile.from_h_samples(s, H, H[:5], H, FAM, 1.0)
    prof = SurfaceProfile.from_h_samples(s, H, np.ones(11), np.zeros(11), FAM, 1.0)
    assert prof.family == FAM and prof.tau_c == 1.0
    with pytest.raises(ValueError):
        prof.H[0] = 5.0  # arrays are frozen


def test_profile_csv_format(tmp_path):
    prof = march(2.0, 4)
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,H,Hp,J,E,A,B,C,Q"
    assert len(lines) == 1 + prof.s.size
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == prof.s[0] and first[1] == prof.H[0]
