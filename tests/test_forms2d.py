"""Grid, field containers, and the finite-difference exterior calculus.

The FD operators use second-order stencils that are exact on quadratic
polynomials, so several tests assert machine-precision results on
quadratics and convergence on everything else.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bonnet.forms2d import (
    CoframeSingularError,
    Grid,
    NonFiniteFieldError,
    OneForm,
    ScalarField,
    d_oneform,
    d_scalar,
    decompose_in_coframe,
    hodge,
    interior,
    laplacian,
    max_interior,
    mixed_partial_residual,
    observed_order,
    read_scalar_csv,
    wedge,
    write_scalar_csv,
)
from bonnet.surface_embed import connection_from_coframe

GRID = Grid(0.0, 1.0, 0.0, 2.0, 17, 33)

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def quadratic(c):
    """Scalar field a + b s + c t + d s^2 + e s t + f t^2 on GRID."""
    a, b, cc, d, e, f = c
    return ScalarField.from_function(
        GRID, lambda s, t: a + b * s + cc * t + d * s * s + e * s * t + f * t * t
    )


def random_oneform(seed):
    rng = np.random.default_rng(seed)
    return OneForm(ScalarField(GRID, rng.normal(size=GRID.shape)),
                   ScalarField(GRID, rng.normal(size=GRID.shape)))


def test_grid_basic_geometry():
    g = GRID
    assert g.shape == (17, 33)
    assert g.h_s == pytest.approx(1.0 / 16)
    assert g.h_t == pytest.approx(2.0 / 32)
    assert g.h_max == pytest.approx(1.0 / 16)
    s, t = g.s_nodes(), g.t_nodes()
    assert s[0] == 0.0 and s[-1] == 1.0
    assert t[0] == 0.0 and t[-1] == 2.0
    S, T = g.mesh()
    assert S.shape == g.shape and T.shape == g.shape
    assert S[3, 0] == s[3] and T[0, 7] == t[7]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0.0, 1.0, 4, 9)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 0.0, 1.0, 9, 9)
    with pytest.raises(ValueError):
        Grid(0.0, math.inf, 0.0, 1.0, 9, 9)


def test_grid_refinement_keeps_nodes():
    g = GRID
    r = g.refined(2)
    assert r.ns == 2 * (g.ns - 1) + 1 and r.nt == 2 * (g.nt - 1) + 1
    assert r.h_s == pytest.approx(g.h_s / 2)
    # original nodes reappear at even indices
    assert np.allclose(r.s_nodes()[::2], g.s_nodes(), rtol=0, atol=1e-15)
    assert g.refined(1) == g
    with pytest.raises(ValueError):
        g.refined(0)


def test_scalar_field_arithmetic():
    f = ScalarField.from_function(GRID, lambda s, t: s + t)
    g = ScalarField.constant(GRID, 2.0)
    assert (f + g).values[0, 0] == 2.0
    assert (f - 1.0).values[0, 0] == -1.0
    assert (2.0 * f).values[-1, -1] == pytest.approx(6.0)
    assert (-f).max_abs() == f.max_abs() == pytest.approx(3.0)


def test_scalar_field_validation():
    with pytest.raises(ValueError):
        ScalarField(GRID, np.zeros((3, 3)))
    bad = np.zeros(GRID.shape)
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(GRID, bad)
    other = ScalarField.constant(Grid(0.0, 1.0, 0.0, 1.0, 17, 33), 1.0)
    with pytest.raises(ValueError):
        ScalarField.constant(GRID, 1.0) + other


def test_non_finite_field_names_its_first_node():
    values = np.zeros(GRID.shape)
    values[3, 6] = np.inf
    values[2, 7] = np.nan  # the first in row-major order
    with pytest.raises(NonFiniteFieldError, match=r"nan at node \(2, 7\) \(s = 0.125, t = 0.4375\)"):
        ScalarField(GRID, values)


def test_scalar_field_values_are_frozen():
    f = ScalarField.constant(GRID, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_scalar_field_copies_what_its_caller_can_still_write():
    given = np.zeros(GRID.shape)
    f = ScalarField(GRID, given)
    given[0, 0] = 5.0  # the caller's array stays writable and the field does not see it
    assert f.values[0, 0] == 0.0 and f.values is not given
    # a result of field arithmetic is frozen in place, and a field over another
    # field's values shares them
    g = f + 1.0
    assert not g.values.flags.writeable and g.values.base is None
    assert ScalarField(GRID, g.values).values is g.values


@given(st.tuples(coeff, coeff, coeff, coeff, coeff, coeff))
@settings(max_examples=40, deadline=None)
def test_d_scalar_exact_on_quadratics(c):
    """edge_order=2 gradients recover quadratic derivatives exactly."""
    a, b, cc, d, e, f = c
    w = d_scalar(quadratic(c))
    S, T = GRID.mesh()
    scale = 1.0 + max(abs(x) for x in c)
    assert np.max(np.abs(w.p.values - (b + 2 * d * S + e * T))) < 1e-12 * scale
    assert np.max(np.abs(w.q.values - (cc + e * S + 2 * f * T))) < 1e-12 * scale


@given(st.tuples(coeff, coeff, coeff, coeff, coeff, coeff))
@settings(max_examples=40, deadline=None)
def test_d_squared_vanishes_on_quadratics(c):
    two = d_oneform(d_scalar(quadratic(c)))
    # edge stencils amplify rounding harder than interior ones, hence 1e-11
    scale = 1.0 + max(abs(x) for x in c)
    assert two.max_abs() < 1e-11 * scale


def test_wedge_antisymmetry_is_exact():
    w1, w2 = random_oneform(7), random_oneform(8)
    assert np.array_equal(wedge(w1, w2).values, -wedge(w2, w1).values)
    assert np.all(wedge(w1, w1).values == 0.0)


def test_hodge_is_a_quarter_turn():
    w = random_oneform(9)
    ww = hodge(hodge(w))
    assert np.array_equal(ww.p.values, -w.p.values)
    assert np.array_equal(ww.q.values, -w.q.values)
    # *(ds) = dt
    ds = OneForm(ScalarField.constant(GRID, 1.0), ScalarField.constant(GRID, 0.0))
    star = hodge(ds)
    assert np.all(star.p.values == 0.0) and np.all(star.q.values == 1.0)


def test_laplacian_exact_on_quadratics():
    harmonic = ScalarField.from_function(GRID, lambda s, t: s * s - t * t + 3 * s * t)
    assert laplacian(harmonic).max_abs() < 1e-11
    bowl = ScalarField.from_function(GRID, lambda s, t: s * s + t * t)
    assert np.max(np.abs(laplacian(bowl).values - 4.0)) < 1e-11


def test_mixed_partial_residual_converges():
    """Structure dc1 = 0, dc2 = c1 ^ c2 holds for c1 = ds, c2 = exp(s) dt."""
    res = []
    for g in (GRID, GRID.refined(2)):
        f = ScalarField.from_function(g, lambda s, t: np.sin(s + 2 * t))
        es = ScalarField.from_function(g, lambda s, t: np.exp(s) + 0 * t)
        c1 = OneForm(ScalarField.constant(g, 1.0), ScalarField.constant(g, 0.0))
        c2 = OneForm(ScalarField.constant(g, 0.0), es)
        res.append(mixed_partial_residual(f, c1, c2).max_abs_interior(2))
    assert res[0] < 0.05
    assert res[1] < res[0] / 3.0


def test_decompose_in_coframe_roundtrip():
    g = GRID
    e = ScalarField.from_function(g, lambda s, t: 1.0 + 0.3 * s + 0.1 * t)
    c1 = OneForm(e, ScalarField.constant(g, 0.2))
    c2 = OneForm(ScalarField.constant(g, -0.1), e)
    w = c1 * 0.7 + c2 * ScalarField.from_function(g, lambda s, t: s - t)
    f1, f2 = decompose_in_coframe(w, c1, c2)
    back_p = f1.values * c1.p.values + f2.values * c2.p.values
    back_q = f1.values * c1.q.values + f2.values * c2.q.values
    assert np.max(np.abs(back_p - w.p.values)) < 1e-13
    assert np.max(np.abs(back_q - w.q.values)) < 1e-13


def test_decompose_rejects_degenerate_coframe():
    c1 = OneForm(ScalarField.constant(GRID, 1.0), ScalarField.constant(GRID, 2.0))
    with pytest.raises(CoframeSingularError) as err:
        decompose_in_coframe(c1, c1, c1 * 2.0)
    assert err.value.det == 0.0
    assert err.value.index == (0, 0)


# the two ways a coframe is inverted; both refuse it by one rule
INVERSIONS = {
    "decompose_in_coframe": lambda c1, c2: decompose_in_coframe(c1, c1, c2),
    "connection_from_coframe": connection_from_coframe,
}


@pytest.mark.parametrize("invert", INVERSIONS.values(), ids=INVERSIONS)
def test_a_coframe_that_vanishes_at_one_node_is_singular_there(invert):
    f = np.ones(GRID.shape)
    f[3, 4] = 0.0
    f, zero = ScalarField(GRID, f), ScalarField.constant(GRID, 0.0)
    with pytest.raises(CoframeSingularError) as err:
        invert(OneForm(f, zero), OneForm(zero, f))
    assert (err.value.index, err.value.det, err.value.scale) == ((3, 4), 0.0, 0.0)


@pytest.mark.parametrize("invert", INVERSIONS.values(), ids=INVERSIONS)
def test_a_singular_coframe_states_the_threshold_it_applied(invert):
    # (2 ds, 2 dt) but at node (1, 2), where c2 = 2e-12 dt: det 4e-12 there is
    # exactly DET_RTOL times its largest component squared, so it is refused
    q = np.full(GRID.shape, 2.0)
    q[1, 2] = 2e-12
    zero = ScalarField.constant(GRID, 0.0)
    c1 = OneForm(ScalarField.constant(GRID, 2.0), zero)
    with pytest.raises(CoframeSingularError) as err:
        invert(c1, OneForm(zero, ScalarField(GRID, q)))
    assert err.value.index == (1, 2)
    assert str(err.value).endswith(
        "|det| = 4.000e-12 <= 1e-12 * max(component)^2 = 4.000e-12")


def test_interior_margins():
    vals = np.arange(30.0).reshape(5, 6)
    inner = interior(vals, 1)
    assert inner.shape == (3, 4)
    assert inner[0, 0] == vals[1, 1]
    assert interior(vals, 0) is vals
    assert max_interior(vals, 2) == vals[2, 3]
    with pytest.raises(ValueError):
        interior(vals, 3)
    # 1-D profile arrays are trimmed along their only axis, with the same guard
    line = np.array([9.0, 1.0, -4.0, 2.0, -7.0])
    assert np.array_equal(interior(line, 1), line[1:-1])
    assert max_interior(line, 1) == 4.0
    with pytest.raises(ValueError):
        interior(line, 3)


@given(st.floats(min_value=0.5, max_value=4.0), st.floats(min_value=-8.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_observed_order_recovers_exponent(p, logc):
    hs = np.array([1 / 32, 1 / 64, 1 / 128])
    res = math.exp(logc) * hs ** p
    assert observed_order(hs, res) == pytest.approx(p, abs=1e-8)
    # fewer than two positive residuals: no measurable rate
    assert observed_order(hs, [0.0, res[1], 0.0]) is None
    with pytest.raises(ValueError):
        observed_order([1e-2], [1e-4])


def test_scalar_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=GRID.shape) * np.pi
    values.flat[:8] = (-0.0, 5e-324, -4e-320, 1e300, -1e300, 1e-300, -1e-300, 0.1)
    f = ScalarField(GRID, values)
    path = tmp_path / "field.csv"
    write_scalar_csv(f, path, "psi")
    assert path.read_bytes().startswith(b"s,t,psi\r\n")  # read back from CRLF lines
    back = read_scalar_csv(path)
    assert back.grid.shape == GRID.shape
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(f.values))
    assert back.grid.s_min == GRID.s_min and back.grid.t_max == GRID.t_max
