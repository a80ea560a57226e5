"""Rotation-angle field psi coupled to a Q branch.

psi(s, t) measures the rotation from the principal-curvature frame to
the isothermal coordinate frame.  It satisfies the first-order pair

    psi_s = -(1/2) Q sin(2 psi)
    psi_t = (1/2) (log Q)' - (1/2) Q cos(2 psi)

whose compatibility condition is exactly the Q equation, so the pair is
integrable from any corner value.  Closed-form branches exist for every
Q family; they are stored as two-argument arctangent data so poles of
tan(psi) are harmless.  psi is defined modulo pi and all downstream
formulas use 2*psi, so fields are kept continuous (unwrapped along the
integration path) rather than clamped to a principal value.  A psi field
is a plain ScalarField, whether sampled from a branch or marched; the
branch it came from stays with the caller.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .forms2d import (
    DataError,
    Grid,
    OneForm,
    ScalarField,
    _adopt,
    d_scalar,
    decompose_in_coframe,
    laplacian,
)
from .q_family import QFamily, SingularityGuard, eval_dlog_q, eval_q, eval_c
from .rk4 import rk4_step, sweep

__all__ = [
    "PsiBranch",
    "LaxBlowUpError",
    "CASES",
    "psi_closed_form",
    "psi_closed_form_derivatives",
    "psi_field_from_branch",
    "integrate_lax",
    "lax_residuals",
    "branch_lax_residuals",
    "harmonic_residual",
    "psi_constraint_residual",
    "c_relation_residuals",
    "psi_second_order_residual",
    "branch_consistency_error",
]

CASES = (
    "constant_zero",
    "constant_half_pi",
    "rational_upper",
    "rational_lower",
    "trig_appendix",
    "hyper_appendix",
)

# integration guard: |psi| beyond this means the march left any sane branch
PSI_BLOWUP = 1e3


class LaxBlowUpError(DataError, RuntimeError):
    """psi integration blew up; carries the first bad node."""

    def __init__(self, node):
        self.node = tuple(int(k) for k in node)
        super().__init__(f"psi integration blew up at node {self.node}")


@dataclass(frozen=True)
class PsiBranch:
    """A closed-form psi branch tied to its Q family.

    sigma shifts t for the rational branches; eta shifts t for the
    trig/hyper branches.  Branches named after the s > 0 half-line also
    accept the sign -1 family: the s < 0 solution is generated from the
    sign symmetry psi(s, t) = pi/2 - psi_+(-s, t) and is flagged
    derived_mirror.
    """

    case: str
    family: QFamily
    sigma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {reprlib.repr(self.case)}, expected one of {CASES}")
        for name in ("sigma", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        kind_of = {
            "rational_upper": ("rational", 1),
            "rational_lower": ("rational", -1),
            "trig_appendix": ("trig", None),
            "hyper_appendix": ("hyper", None),
        }
        if self.case in kind_of:
            kind, sign = kind_of[self.case]
            if self.family.kind != kind:
                raise ValueError(
                    f"case {self.case} requires a {kind} family, got {self.family.kind}"
                )
            if sign is not None and self.family.sign != sign:
                raise ValueError(
                    f"case {self.case} requires family sign {sign:+d}"
                )

    @property
    def derived_mirror(self) -> bool:
        """True when this is the s < 0 solution built by sign symmetry."""
        return self.case in ("trig_appendix", "hyper_appendix") and self.family.sign == -1


def _principal(angle):
    """Representative of angle mod pi in (-pi/2, pi/2]."""
    return np.pi / 2 - np.mod(np.pi / 2 - np.asarray(angle, dtype=float), np.pi)


# data that overflow give inf or nan here without a warning: the fields built
# from them raise NonFiniteFieldError, which names the node
@np.errstate(over="ignore", invalid="ignore")
def _tan_parts_upper(branch: PsiBranch, s, t):
    """(N, D, psi_s, psi_t) for the constant and s > 0 closed forms, tan(psi) = N/D."""
    a, sg, eta = branch.family.a, branch.sigma, branch.eta
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    case = branch.case
    if case in ("constant_zero", "constant_half_pi"):
        # tan(psi) = 0/1 or 1/0
        shape = np.broadcast_shapes(s.shape, t.shape)
        zero, one = np.zeros(shape), np.ones(shape)
        N, D = (zero, one) if case == "constant_zero" else (one, zero)
        return N, D, np.zeros(shape), np.zeros(shape)
    if case in ("rational_upper", "rational_lower"):
        # tan(psi) = -(t + sigma)/s or s/(t + sigma): a quarter turn apart, same derivatives
        u = t + sg
        if case == "rational_upper":
            N, D = -u + 0.0 * s, s + 0.0 * t
        else:
            N, D = s + 0.0 * t, u + 0.0 * s
        den = s * s + u ** 2
        return N, D, u / den, -s / den
    if case == "trig_appendix":
        # tan(psi) = tanh(a t/2 + eta) * tan((a s + pi)/2)
        lam = a * t / 2 + eta
        th = (a * s + np.pi) / 2
        N = np.sinh(lam) * np.sin(th)
        D = np.cosh(lam) * np.cos(th)
        den = N * N + D * D
        return N, D, (a / 2) * np.sinh(lam) * np.cosh(lam) / den, (a / 2) * np.sin(th) * np.cos(th) / den
    if case == "hyper_appendix":
        # tan(psi) = cot(a t/2 + eta) * coth(a s/2)
        ph = a * t / 2 + eta
        sig = a * s / 2
        N = np.cos(ph) * np.cosh(sig)
        D = np.sin(ph) * np.sinh(sig)
        den = N * N + D * D
        return N, D, -(a / 2) * np.sin(ph) * np.cos(ph) / den, -(a / 2) * np.sinh(sig) * np.cosh(sig) / den
    raise ValueError(f"no closed form parts for case {branch.case}")


def _closed_form_parts(branch: PsiBranch, s, t):
    """(parts, mirrored) of the closed form at (s, t).

    parts are the (N, D, psi_s, psi_t) of _tan_parts_upper, which reads no
    sign; a derived mirror takes them at (-s, t), since
    psi(s, t) = pi/2 - psi_+(-s, t), so psi_s keeps its sign and psi_t flips.
    """
    mirrored = branch.derived_mirror
    s = np.asarray(s, dtype=float)
    return _tan_parts_upper(branch, -s if mirrored else s, t), mirrored


def psi_closed_form(branch: PsiBranch, s, t):
    """Pointwise psi, principal value in (-pi/2, pi/2] mod pi."""
    parts, mirrored = _closed_form_parts(branch, s, t)
    angle = np.arctan2(parts[0], parts[1])
    return _principal(np.pi / 2 - angle if mirrored else angle)


def psi_closed_form_derivatives(branch: PsiBranch, s, t):
    """Analytic (psi_s, psi_t); derivative formulas are pole-free."""
    (_, _, ps, pt), mirrored = _closed_form_parts(branch, s, t)
    return ps, -pt if mirrored else pt


def psi_field_from_branch(branch: PsiBranch, grid: Grid) -> ScalarField:
    """Sample a closed form on the grid, unwrapped along the t-edge then
    every s-line so arctan pole crossings do not leave pi-jumps."""
    SingularityGuard(branch.family).check((grid.s_min, grid.s_max))
    S, T = grid.mesh()
    vals = psi_closed_form(branch, S, T)  # a fresh array, unwrapped in place
    vals[0, :] = np.unwrap(vals[0, :], period=np.pi)
    vals = np.unwrap(vals, axis=0, period=np.pi)
    return _adopt(grid, vals)


def branch_consistency_error(branch: PsiBranch, psi: ScalarField) -> float:
    """Max distance (mod pi) between the samples of psi and the branch's closed form."""
    S, T = psi.grid.mesh()
    delta = psi.values - psi_closed_form(branch, S, T)
    # distance to the nearest multiple of pi
    wrapped = np.abs(delta - np.pi * np.round(delta / np.pi))
    return float(np.max(wrapped))


def _rhs_s(q, y):
    return [-0.5 * q * np.sin(2.0 * y[0])]


def _rhs_t(q_dlq, y):
    q, dlq = q_dlq
    return [0.5 * dlq - 0.5 * q * np.cos(2.0 * y[0])]


def integrate_lax(
    fam: QFamily,
    grid: Grid,
    psi0: float,
    substeps: int = 8,
) -> ScalarField:
    """March the pair along rk4.sweep's path from the corner value
    psi(s_min, t_min) = psi0.  The coefficients are analytic in s,
    so each interval takes `substeps` full RK4 steps.  Q and (log Q)' are
    evaluated once, at every stage abscissa of the march.
    """
    SingularityGuard(fam).check((grid.s_min, grid.s_max))
    s = grid.s_nodes()
    hs, ht = grid.h_s / substeps, grid.h_t / substeps
    # Q at the (start, mid, end) abscissae of every substep of every
    # s-interval, shape (ns - 1, substeps, 3)
    x0 = np.arange(substeps) / substeps
    frac = np.stack([x0, x0 + 0.5 / substeps, x0 + 1.0 / substeps], axis=-1)
    q_s = eval_q(fam, s[:-1, None, None] + frac * (s[1:] - s[:-1])[:, None, None])
    # the t-steps run along the t-edge alone, at s_min, so their coefficients stay fixed
    c = (eval_q(fam, s[:1])[0], eval_dlog_q(fam, s[:1])[0])

    def step(axis, src, dst, y):
        if axis == 0:
            for q0, qm, q1 in q_s[src[0]].tolist():
                y = rk4_step(_rhs_s, y, hs, q0, qm, q1)
        else:
            for _ in range(substeps):
                y = rk4_step(_rhs_t, y, ht, c, c, c)
        _guard_psi(y[0], dst)
        return y

    vals = np.empty(grid.shape)
    for node, (value,) in sweep(grid.shape, [float(psi0)], step):
        vals[node] = value
    return _adopt(grid, vals)


def _guard_psi(value, node) -> None:
    """Raise LaxBlowUpError at the first bad value; a slice in node marks a line."""
    arr = np.atleast_1d(np.asarray(value))
    bad = ~np.isfinite(arr) | (np.abs(arr) > PSI_BLOWUP)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise LaxBlowUpError(tuple(k if isinstance(n, slice) else n for n in node))


def _lax_pair_residuals(fam: QFamily, grid: Grid, psi, psi_s, psi_t):
    """The pair's residuals as two scalar fields, from node arrays of psi and
    its derivatives, with Q analytic:

    First:  psi_s + (1/2) Q sin(2 psi)
    Second: psi_t - (1/2) (log Q)' + (1/2) Q cos(2 psi)
    """
    s = grid.s_nodes()
    q = np.broadcast_to(eval_q(fam, s)[:, None], grid.shape)
    dlq = np.broadcast_to(eval_dlog_q(fam, s)[:, None], grid.shape)
    two = 2.0 * psi
    r1 = psi_s + 0.5 * q * np.sin(two)
    r2 = psi_t - 0.5 * dlq + 0.5 * q * np.cos(two)
    return _adopt(grid, r1), _adopt(grid, r2)


def lax_residuals(psi: ScalarField, fam: QFamily):
    """Residuals of the pair with psi derivatives by second-order finite differences."""
    d = d_scalar(psi)
    return _lax_pair_residuals(fam, psi.grid, psi.values, d.p.values, d.q.values)


def branch_lax_residuals(branch: PsiBranch, grid: Grid):
    """Same residuals with analytic psi derivatives (no FD error)."""
    S, T = grid.mesh()
    ps, pt = psi_closed_form_derivatives(branch, S, T)
    return _lax_pair_residuals(branch.family, grid, psi_closed_form(branch, S, T), ps, pt)


def harmonic_residual(psi: ScalarField) -> float:
    """Max |laplacian(psi)| one node in from the edges; valid fields are harmonic."""
    return laplacian(psi).max_abs_interior(1)


def psi_constraint_residual(psi: ScalarField, p1: ScalarField, p2: ScalarField) -> ScalarField:
    """Tangency constraint 2 psi_1 cos(2 psi) + (2 psi_2 + 1) sin(2 psi).

    Here and below (p1, p2) = (psi_1, psi_2) are the components of d(psi) in the
    alpha coframe: decompose_in_coframe(d_scalar(psi), cf.alpha1, cf.alpha2).
    """
    two = 2.0 * psi.values
    g = psi.grid
    vals = 2.0 * p1.values * np.cos(two) + (2.0 * p2.values + 1.0) * np.sin(two)
    return _adopt(g, vals)


def c_relation_residuals(psi: ScalarField, fam: QFamily, p1: ScalarField, p2: ScalarField):
    """Residuals of 2 psi_1 = C sin(2 psi), 2 psi_2 + 1 = -C cos(2 psi)."""
    g = psi.grid
    c2d = np.broadcast_to(eval_c(fam, g.s_nodes())[:, None], g.shape)
    two = 2.0 * psi.values
    r1 = 2.0 * p1.values - c2d * np.sin(two)
    r2 = 2.0 * p2.values + 1.0 + c2d * np.cos(two)
    return _adopt(g, r1), _adopt(g, r2)


def psi_second_order_residual(p1: ScalarField, p2: ScalarField,
                              a1: OneForm, a2: OneForm) -> ScalarField:
    """Second-order coframe identity psi_11 + psi_22 + psi_1 -> 0 in the coframe (a1, a2)."""
    p11 = decompose_in_coframe(d_scalar(p1), a1, a2)[0]
    p22 = decompose_in_coframe(d_scalar(p2), a1, a2)[1]
    return p11 + p22 + p1
