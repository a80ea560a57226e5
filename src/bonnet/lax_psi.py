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
integration path) rather than clamped to a principal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms2d import (
    Grid,
    OneForm,
    ScalarField,
    d_scalar,
    decompose_in_coframe,
    laplacian,
)
from .q_family import DomainError, QFamily, SingularityGuard, eval_dlog_q, eval_q, eval_c
from .rk4 import rk4_step, sweep

__all__ = [
    "PsiBranch",
    "PsiField",
    "LaxBlowUpError",
    "CASES",
    "psi_closed_form",
    "psi_closed_form_derivatives",
    "psi_field_from_branch",
    "integrate_lax",
    "lax_residuals",
    "branch_lax_residuals",
    "harmonic_residual",
    "alpha_forms",
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


class LaxBlowUpError(RuntimeError):
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
    derived_mirror in metadata.
    """

    case: str
    family: QFamily
    sigma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}, expected one of {CASES}")
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

    def metadata(self) -> dict:
        return {
            "case": self.case,
            "family": {"kind": self.family.kind, "sign": self.family.sign, "a": self.family.a},
            "sigma": self.sigma,
            "eta": self.eta,
            "derived_mirror": self.derived_mirror,
        }


def _principal(angle):
    """Representative of angle mod pi in (-pi/2, pi/2]."""
    return np.pi / 2 - np.mod(np.pi / 2 - np.asarray(angle, dtype=float), np.pi)


def _tan_parts_upper(branch: PsiBranch, s, t):
    """(N, D, psi_s, psi_t) for the s > 0 closed forms, tan(psi) = N/D."""
    a, sg, eta = branch.family.a, branch.sigma, branch.eta
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    case = branch.case
    if case == "rational_upper":
        # tan(psi) = -(t + sigma)/s
        N, D = -(t + sg) + 0.0 * s, s + 0.0 * t
        den = s * s + (t + sg) ** 2
        return N, D, (t + sg) / den, -s / den
    if case == "rational_lower":
        # tan(psi) = s/(t + sigma)
        N, D = s + 0.0 * t, (t + sg) + 0.0 * s
        den = s * s + (t + sg) ** 2
        return N, D, (t + sg) / den, -s / den
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


def psi_closed_form(branch: PsiBranch, s, t):
    """Pointwise psi, principal value in (-pi/2, pi/2] mod pi."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if branch.case == "constant_zero":
        return np.zeros(np.broadcast_shapes(s.shape, t.shape))
    if branch.case == "constant_half_pi":
        return np.full(np.broadcast_shapes(s.shape, t.shape), np.pi / 2)
    if branch.derived_mirror:
        # sign symmetry: psi(s, t) = pi/2 - psi_+(-s, t)
        mirror = PsiBranch(branch.case, QFamily(branch.family.kind, 1, branch.family.a),
                           branch.sigma, branch.eta)
        N, D, _, _ = _tan_parts_upper(mirror, -s, t)
        return _principal(np.pi / 2 - np.arctan2(N, D))
    N, D, _, _ = _tan_parts_upper(branch, s, t)
    return _principal(np.arctan2(N, D))


def psi_closed_form_derivatives(branch: PsiBranch, s, t):
    """Analytic (psi_s, psi_t); derivative formulas are pole-free."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if branch.case in ("constant_zero", "constant_half_pi"):
        shape = np.broadcast_shapes(s.shape, t.shape)
        return np.zeros(shape), np.zeros(shape)
    if branch.derived_mirror:
        mirror = PsiBranch(branch.case, QFamily(branch.family.kind, 1, branch.family.a),
                           branch.sigma, branch.eta)
        _, _, ps, pt = _tan_parts_upper(mirror, -s, t)
        return ps, -pt
    _, _, ps, pt = _tan_parts_upper(branch, s, t)
    return ps, pt


@dataclass(frozen=True)
class PsiField:
    """psi samples on a grid, with the generating branch when known."""

    psi: ScalarField
    branch: PsiBranch | None = None

    @property
    def grid(self) -> Grid:
        return self.psi.grid


def psi_field_from_branch(branch: PsiBranch, grid: Grid) -> PsiField:
    """Sample a closed form on the grid, unwrapped along the t-edge then
    every s-line so arctan pole crossings do not leave pi-jumps."""
    _check_grid_domain(branch.family, grid)
    S, T = grid.mesh()
    vals = psi_closed_form(branch, S, T)
    vals = np.array(vals)
    vals[0, :] = np.unwrap(vals[0, :], period=np.pi)
    vals = np.unwrap(vals, axis=0, period=np.pi)
    return PsiField(ScalarField(grid, vals), branch)


def branch_consistency_error(field: PsiField, branch: PsiBranch | None = None) -> float:
    """Max distance (mod pi) between stored values and the closed form."""
    branch = branch or field.branch
    if branch is None:
        raise ValueError("no branch attached to this field")
    S, T = field.grid.mesh()
    delta = field.psi.values - psi_closed_form(branch, S, T)
    # distance to the nearest multiple of pi
    wrapped = np.abs(delta - np.pi * np.round(delta / np.pi))
    return float(np.max(wrapped))


def _check_grid_domain(fam: QFamily, grid: Grid) -> None:
    guard = SingularityGuard(fam)
    glo, ghi = guard.interval()
    if grid.s_min < glo or grid.s_max > ghi:
        raise DomainError(
            f"grid s-range [{grid.s_min:g}, {grid.s_max:g}] outside guarded "
            f"domain [{glo:g}, {ghi:g}] of {fam.describe()}"
        )


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
    order: str = "t_first",
) -> PsiField:
    """March the pair from the corner value psi(s_min, t_min) = psi0.

    order "t_first" integrates psi_t along the t-edge, then psi_s along
    every s-line (vectorized across lines); "s_first" swaps the roles.
    The coefficients are analytic in s, so each interval takes `substeps`
    full RK4 steps.  Q and (log Q)' are evaluated once, at every stage
    abscissa of the march.
    """
    _check_grid_domain(fam, grid)
    s = grid.s_nodes()
    hs, ht = grid.h_s / substeps, grid.h_t / substeps
    # Q at the (start, mid, end) abscissae of every substep of every
    # s-interval, shape (ns - 1, substeps, 3)
    x0 = np.arange(substeps) / substeps
    frac = np.stack([x0, x0 + 0.5 / substeps, x0 + 1.0 / substeps], axis=-1)
    q_s = eval_q(fam, s[:-1, None, None] + frac * (s[1:] - s[:-1])[:, None, None])
    # psi_t runs along lines of fixed s, so its coefficients stay fixed
    q_t = (eval_q(fam, s), eval_dlog_q(fam, s))

    def step(axis, src, dst, y):
        if axis == 0:
            for q0, qm, q1 in q_s[src[0]].tolist():
                y = rk4_step(_rhs_s, y, hs, q0, qm, q1)
        else:
            c = (q_t[0][src[0]], q_t[1][src[0]])
            for _ in range(substeps):
                y = rk4_step(_rhs_t, y, ht, c, c, c)
        _guard_psi(y[0], dst)
        return y

    vals = np.empty(grid.shape)
    vals[0, 0] = float(psi0)
    sweep(order, [vals], step)
    return PsiField(ScalarField(grid, vals), None)


def _guard_psi(value, node) -> None:
    """Raise LaxBlowUpError at the first bad value; a slice in node marks a line."""
    arr = np.atleast_1d(np.asarray(value))
    bad = ~np.isfinite(arr) | (np.abs(arr) > PSI_BLOWUP)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise LaxBlowUpError(tuple(k if isinstance(n, slice) else n for n in node))


def _q_on_grid(fam: QFamily, grid: Grid):
    _check_grid_domain(fam, grid)
    s = grid.s_nodes()
    q = np.broadcast_to(eval_q(fam, s)[:, None], grid.shape)
    dlq = np.broadcast_to(eval_dlog_q(fam, s)[:, None], grid.shape)
    return q, dlq


def lax_residuals(psi: PsiField, fam: QFamily):
    """FD residuals of the pair as two scalar fields.

    First:  psi_s + (1/2) Q sin(2 psi)
    Second: psi_t - (1/2) (log Q)' + (1/2) Q cos(2 psi)
    psi derivatives by second-order finite differences, Q analytic.
    """
    q, dlq = _q_on_grid(fam, psi.grid)
    d = d_scalar(psi.psi)
    two = 2.0 * psi.psi.values
    r1 = d.p.values + 0.5 * q * np.sin(two)
    r2 = d.q.values - 0.5 * dlq + 0.5 * q * np.cos(two)
    g = psi.grid
    return ScalarField(g, r1), ScalarField(g, r2)


def branch_lax_residuals(branch: PsiBranch, grid: Grid):
    """Same residuals with analytic psi derivatives (no FD error)."""
    q, dlq = _q_on_grid(branch.family, grid)
    S, T = grid.mesh()
    ps, pt = psi_closed_form_derivatives(branch, S, T)
    two = 2.0 * psi_closed_form(branch, S, T)
    r1 = ps + 0.5 * q * np.sin(two)
    r2 = pt - 0.5 * dlq + 0.5 * q * np.cos(two)
    return ScalarField(grid, r1), ScalarField(grid, r2)


def harmonic_residual(psi: PsiField, margin: int = 1) -> float:
    """Max interior |laplacian(psi)|; valid fields are harmonic."""
    return laplacian(psi.psi).max_abs_interior(margin)


def alpha_forms(fam: QFamily, psi: PsiField):
    """The flat coframe (alpha1, alpha2) = Q R(2 psi) (ds, dt).

    alpha1 = Q (cos(2 psi) ds - sin(2 psi) dt)
    alpha2 = Q (sin(2 psi) ds + cos(2 psi) dt)
    It is closed/Chern-exact: d(alpha1) = 0, d(alpha2) = alpha1 ^ alpha2.
    """
    q, _ = _q_on_grid(fam, psi.grid)
    g = psi.grid
    two = 2.0 * psi.psi.values
    c, s_ = np.cos(two), np.sin(two)
    a1 = OneForm(ScalarField(g, q * c), ScalarField(g, -q * s_))
    a2 = OneForm(ScalarField(g, q * s_), ScalarField(g, q * c))
    return a1, a2


def _alpha_components(psi: PsiField, fam: QFamily):
    a1, a2 = alpha_forms(fam, psi)
    p1, p2 = decompose_in_coframe(d_scalar(psi.psi), a1, a2)
    return a1, a2, p1, p2


def psi_constraint_residual(psi: PsiField, fam: QFamily, profile=None) -> ScalarField:
    """Tangency constraint 2 psi_1 cos(2 psi) + (2 psi_2 + 1) sin(2 psi).

    psi_1, psi_2 are the components of d(psi) in the alpha coframe.  A
    profile may be passed to assert its family matches; the coframe
    itself only needs Q.
    """
    if profile is not None and profile.family != fam:
        raise ValueError("profile family does not match fam")
    _, _, p1, p2 = _alpha_components(psi, fam)
    two = 2.0 * psi.psi.values
    g = psi.grid
    vals = 2.0 * p1.values * np.cos(two) + (2.0 * p2.values + 1.0) * np.sin(two)
    return ScalarField(g, vals)


def c_relation_residuals(psi: PsiField, fam: QFamily):
    """Residuals of 2 psi_1 = C sin(2 psi), 2 psi_2 + 1 = -C cos(2 psi)."""
    _, _, p1, p2 = _alpha_components(psi, fam)
    g = psi.grid
    c2d = np.broadcast_to(eval_c(fam, g.s_nodes())[:, None], g.shape)
    two = 2.0 * psi.psi.values
    r1 = 2.0 * p1.values - c2d * np.sin(two)
    r2 = 2.0 * p2.values + 1.0 + c2d * np.cos(two)
    return ScalarField(g, r1), ScalarField(g, r2)


def psi_second_order_residual(psi: PsiField, fam: QFamily) -> ScalarField:
    """Second-order coframe identity psi_11 + psi_22 + psi_1 -> 0."""
    a1, a2, p1, p2 = _alpha_components(psi, fam)
    p11 = decompose_in_coframe(d_scalar(p1), a1, a2)[0]
    p22 = decompose_in_coframe(d_scalar(p2), a1, a2)[1]
    return p11 + p22 + p1
